"""The retired CVT1 layout stays off the wire.

A CVT1 container began with the magic "CVT1" and carried no CRC.  No
writer makes one: every container compress writes begins with the
octet 0x80 | algorithm, and the CVT1 reader is gone, so such a
container is rejected at parse (tests/test_blob.py).
"""

import random

import pytest

from voicepack import bench
from voicepack.codecs import AlgorithmId, CompressedBlob, compress
from voicepack.errors import BadMagic


def test_cvt1_container_has_no_writer():
    corpus = bench.generate_corpus(bench.CorpusSpec(seed=42))
    inputs = [b"", b"v", b"abracadabra", b"the quick brown fox " * 50,
              corpus[0].payload.data, random.Random(300).randbytes(300)]
    for alg in AlgorithmId:
        for data in inputs:
            raw = compress(data, alg).to_bytes()
            assert raw[0] == 0x80 | alg
            assert not raw.startswith(b"CVT1")
            with pytest.raises(BadMagic, match="bad first octet 0x43"):
                CompressedBlob.parse(b"CVT1" + raw[1:])
