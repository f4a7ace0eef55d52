"""CVT1 containers stay readable after CVT2 replaced them on the wire.

tests/fixtures/cvt1/ holds the CVT1 container of each input below under
each of the seven algorithms, as the CVT1 writer made them before CVT2
replaced it: `<input>.<algorithm>.cvt`.  Each must parse as CVT1 (no
CRC) and decode to its input.  Only Huffman's payload changed with
CVT2, so every other codec's fixture payload still equals what compress
makes today.
"""

import random
from pathlib import Path

import pytest

from voicepack import bench
from voicepack.codecs import AlgorithmId, CompressedBlob, compress, decompress

FIXTURES = Path(__file__).parent / "fixtures" / "cvt1"


def _inputs():
    corpus = bench.generate_corpus(bench.CorpusSpec(seed=42))
    return {
        "empty": b"",
        "one": b"v",
        "abracadabra": b"abracadabra",
        "fox": b"the quick brown fox " * 50,
        "clip": corpus[0].payload.data,
        "random": random.Random(300).randbytes(300),
    }


INPUTS = _inputs()


@pytest.mark.parametrize("alg", list(AlgorithmId), ids=lambda alg: alg.label)
@pytest.mark.parametrize("name", list(INPUTS))
def test_cvt1_fixture_decodes_to_its_input(name, alg):
    raw = (FIXTURES / f"{name}.{alg.label}.cvt").read_bytes()
    assert raw[:4] == b"CVT1"
    blob = CompressedBlob.parse(raw)
    assert (blob.algorithm, blob.original_len, blob.crc) == (alg, len(INPUTS[name]), None)
    assert decompress(blob) == INPUTS[name]
    if alg is not AlgorithmId.HUFFMAN:
        assert blob.payload == compress(INPUTS[name], alg).payload


def test_cvt1_container_has_no_writer():
    blob = CompressedBlob.parse((FIXTURES / "fox.ppm.cvt").read_bytes())
    with pytest.raises(ValueError):
        blob.to_bytes()
