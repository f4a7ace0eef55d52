"""The library names that perfbench/tracing.py reaches into.

The benchmark wraps the HOOKS targets and replays the PPM model update
and the AC coder on their own; a renamed target or a changed signature
turns the metrics that need it into missing ones without failing the
run.  This test loads tracing.py from the checkout as it is.
"""

import importlib.util
import random
from pathlib import Path

import voicepack
from voicepack.codecs.arith import ac_encode

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracing = load_tracing()
    assert tracing.Tracer().absent_hooks == []


def test_replays_run_on_the_library():
    tracing = load_tracing()
    clip = random.Random(4).randbytes(1024)
    assert set(tracing._replay_ppm_update(voicepack, clip)) == {"ppm.update"}
    timings = tracing._replay_ac(voicepack, clip, ac_encode(clip))
    assert set(timings) == {"arith.model", "rangecoder.encode"}
