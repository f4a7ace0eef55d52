"""A fresh interpreter imports voicepack and runs every codec but BWT
without loading numpy; the first BWT block loads it.

The check runs in a subprocess because this test process has already
loaded numpy.
"""

import os
import subprocess
import sys

import voicepack

SRC = os.path.dirname(os.path.dirname(os.path.abspath(voicepack.__file__)))

SCRIPT = """\
import importlib, os, pkgutil, random, sys
sys.path.insert(0, sys.argv[1])
tmp = sys.argv[2]

import voicepack
from voicepack import cli
from voicepack.codecs import AlgorithmId
from voicepack.pipeline import decode_message, encode_message

# every module under src/, so a module-level numpy import anywhere shows
for mod in pkgutil.walk_packages(voicepack.__path__, "voicepack."):
    importlib.import_module(mod.name)

rng = random.Random(14)
payload = bytes(rng.choice(b"voice clip payload ") for _ in range(2048))

def round_trip(alg):
    assert decode_message(encode_message(payload, alg)).data == payload, alg

for alg in AlgorithmId:
    if alg is not AlgorithmId.BWT:
        round_trip(alg)

src, cvt, out = (os.path.join(tmp, name) for name in ("clip", "clip.cvt", "clip.out"))
with open(src, "wb") as f:
    f.write(payload)
assert cli.main(["compress", "--alg", "ppm", "--in", src, "--out", cvt]) == 0
assert cli.main(["decompress", "--in", cvt, "--out", out]) == 0
with open(out, "rb") as f:
    assert f.read() == payload
assert "numpy" not in sys.modules, "numpy loaded outside a BWT block"

round_trip(AlgorithmId.BWT)
assert "numpy" in sys.modules, "BWT ran without numpy"
print("ok")
"""


def test_numpy_loads_only_for_bwt(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, SRC, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
