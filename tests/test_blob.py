"""Container wire format and the compress/decompress dispatch pair."""

import random

import pytest

from conftest import PAYLOAD_KINDS, make_payload
from voicepack.codecs import (
    AlgorithmId,
    CodecConfig,
    CompressedBlob,
    compress,
    decompress,
)
from voicepack.errors import BadMagic, CorruptStream, UnknownAlgorithm

ALL = list(AlgorithmId)


def test_wire_format_bit_exact():
    blob = compress(b"Hi", AlgorithmId.NONE)
    raw = blob.to_bytes()
    assert raw == bytes([0x43, 0x56, 0x54, 0x31, 0x00, 0, 0, 0, 2]) + b"Hi"


def test_algorithm_octets():
    assert [int(a) for a in ALL] == [0, 1, 2, 3, 4, 5, 6]
    assert [a.label for a in ALL] == ["none", "lzw", "lzma", "huffman", "ppm", "ac", "bwt"]


def test_parse_roundtrip():
    blob = compress(b"payload bytes", AlgorithmId.HUFFMAN)
    again = CompressedBlob.parse(blob.to_bytes())
    assert again == blob


def test_bad_magic():
    with pytest.raises(BadMagic):
        CompressedBlob.parse(b"XXXX\x00\x00\x00\x00\x00")
    with pytest.raises(BadMagic):
        CompressedBlob.parse(b"CVT")


def test_unknown_algorithm():
    with pytest.raises(UnknownAlgorithm):
        CompressedBlob.parse(b"CVT1\x07\x00\x00\x00\x00")
    with pytest.raises(UnknownAlgorithm):
        AlgorithmId.from_label("zip")
    with pytest.raises(UnknownAlgorithm):
        decompress(CompressedBlob(9, 0, b""))


def test_none_passthrough():
    data = bytes(range(256))
    blob = compress(data, AlgorithmId.NONE)
    assert blob.payload == data
    assert blob.original_len == 256


def test_empty_identity_all_algorithms():
    for alg in ALL:
        blob = compress(b"", alg)
        assert blob.original_len == 0
        assert decompress(blob) == b""


def test_high_redundancy_shrinks_lzw():
    blob = compress(b"A" * 1000, AlgorithmId.LZW)
    assert len(blob.payload) < 1000


@pytest.mark.parametrize("alg", ALL)
def test_roundtrip_every_algorithm(alg):
    rng = random.Random(1000 + alg)
    for i in range(15):
        data = make_payload(rng, rng.randrange(0, 4000), PAYLOAD_KINDS[i % 5])
        blob = compress(data, alg)
        assert blob.algorithm == alg
        assert blob.original_len == len(data)
        assert decompress(blob) == data


@pytest.mark.parametrize("alg", ALL)
def test_determinism(alg):
    rng = random.Random(77)
    data = make_payload(rng, 2000, "text")
    assert compress(data, alg).to_bytes() == compress(data, alg).to_bytes()


def test_nondefault_config_roundtrip():
    cfg = CodecConfig(lzw_max_code_bits=11, ppm_order=2)
    rng = random.Random(78)
    data = make_payload(rng, 3000, "repeat")
    for alg in ALL:
        assert decompress(compress(data, alg, cfg), cfg) == data


@pytest.mark.parametrize("alg", [AlgorithmId.LZW, AlgorithmId.LZMA,
                                 AlgorithmId.PPM, AlgorithmId.BWT])
def test_self_concatenation_amortizes(alg):
    rng = random.Random(79)
    for kind in ("text", "skewed", "repeat"):
        x = make_payload(rng, 1500, kind)
        single = len(compress(x, alg).payload)
        double = len(compress(x + x, alg).payload)
        assert double < 2 * single


@pytest.mark.parametrize("alg", [a for a in ALL if a != AlgorithmId.NONE])
def test_truncated_payload_raises(alg):
    data = b"all work and no play makes jack a dull boy " * 30
    blob = compress(data, alg)
    clipped = CompressedBlob(alg, blob.original_len, blob.payload[:2])
    with pytest.raises(CorruptStream):
        decompress(clipped)


def test_none_length_mismatch_raises():
    blob = CompressedBlob(AlgorithmId.NONE, 5, b"four")
    with pytest.raises(CorruptStream):
        decompress(blob)


def test_config_validation():
    with pytest.raises(ValueError):
        CodecConfig(lzw_max_code_bits=8)
    with pytest.raises(ValueError):
        CodecConfig(lzw_max_code_bits=17)
    with pytest.raises(ValueError):
        CodecConfig(ppm_order=9)
    with pytest.raises(TypeError):
        CodecConfig(bwt_block_size=128)
