"""Container wire format and the compress/decompress dispatch pair."""

import dataclasses
import random
import zlib

import pytest

from conftest import PAYLOAD_KINDS, make_payload
from voicepack.codecs import (
    AlgorithmId,
    CompressedBlob,
    compress,
    decompress,
)
from voicepack.errors import BadMagic, CorruptStream, UnknownAlgorithm, VoicepackError

ALL = list(AlgorithmId)


def test_wire_format_bit_exact():
    blob = compress(b"Hi", AlgorithmId.NONE)
    raw = blob.to_bytes()
    assert zlib.crc32(b"Hi") == 0x4D170E0E
    assert raw == bytes([0x80, 0x02, 0x4D, 0x17, 0x0E, 0x0E]) + b"Hi"


@pytest.mark.parametrize("n, header", [(0, 6), (127, 6), (128, 7), (16383, 7), (16384, 8)])
def test_header_length_follows_leb128(n, header):
    blob = compress(bytes(n), AlgorithmId.NONE)
    assert len(blob.to_bytes()) == header + n
    assert CompressedBlob.parse(blob.to_bytes()) == blob


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
        CompressedBlob.parse(b"\x87\x00\x00\x00\x00\x00")
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
    clipped = dataclasses.replace(blob, payload=blob.payload[:2])
    with pytest.raises(CorruptStream):
        decompress(clipped)


def test_none_length_mismatch_raises():
    blob = CompressedBlob(AlgorithmId.NONE, 5, b"four")
    with pytest.raises(CorruptStream):
        decompress(blob)


def test_crc_mismatch_raises():
    blob = compress(b"payload bytes", AlgorithmId.NONE)
    with pytest.raises(CorruptStream, match="CRC-32"):
        decompress(dataclasses.replace(blob, crc=blob.crc ^ 1))


@pytest.mark.parametrize("alg", ALL, ids=lambda alg: alg.label)
def test_single_bit_flips_never_decode_silently(alg):
    # 150 flips of one bit each in the CRC field or the payload; the
    # algorithm octet and the length octets are left alone.  A flip either
    # raises or, where the decoder never reads that bit (the slack in a
    # range-coded stream's last octets, or a BWT primary index moved to an
    # equal rotation), decodes to the original.
    data = b"the quick brown fox " * 50
    raw = compress(data, alg).to_bytes()
    first = 1 + 2  # algorithm octet, 2-octet LEB128 length of 1000
    assert raw[first - 1] < 0x80 <= raw[first - 2]
    rng = random.Random(7)
    for bit in rng.sample(range(first * 8, len(raw) * 8), 150):
        damaged = bytearray(raw)
        damaged[bit >> 3] ^= 0x80 >> (bit & 7)
        try:
            got = decompress(CompressedBlob.parse(bytes(damaged)))
        except VoicepackError:
            continue
        assert got == data, f"bit {bit} decodes to other octets without an error"
