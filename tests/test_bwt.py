import itertools
import random

import pytest

from voicepack.codecs.bwt import (
    BwtBlock,
    bwt_forward,
    bwt_inverse,
    decode_payload,
    encode_payload,
    mtf_decode,
    mtf_encode,
    rle0_encode,
)
from voicepack.errors import CorruptStream


def oracle_bwt(data):
    """Enumerate rotations, stable-sort, read the last column."""
    n = len(data)
    if n == 0:
        return b"", 0
    rotations = [data[i:] + data[:i] for i in range(n)]
    order = sorted(range(n), key=lambda i: rotations[i])
    last = bytes(rotations[i][-1] for i in order)
    return last, order.index(0)


def test_banana_fixture():
    blk = bwt_forward(b"banana")
    assert (blk.data, blk.primary_index) == (b"nnbaaa", 3)
    assert oracle_bwt(b"banana") == (b"nnbaaa", 3)
    assert bwt_inverse(blk) == b"banana"


def test_all_equal_keeps_original_first():
    blk = bwt_forward(b"aaaa")
    assert (blk.data, blk.primary_index) == (b"aaaa", 0)


def test_empty_block():
    blk = bwt_forward(b"")
    assert (blk.data, blk.primary_index) == (b"", 0)
    assert bwt_inverse(blk) == b""


def test_matches_oracle_short_strings():
    for n in range(0, 7):
        for tup in itertools.product(b"abc", repeat=n):
            data = bytes(tup)
            blk = bwt_forward(data)
            assert (blk.data, blk.primary_index) == oracle_bwt(data)
            assert bwt_inverse(blk) == data


def test_matches_oracle_random_bytes():
    rng = random.Random(14)
    for _ in range(40):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 300)))
        blk = bwt_forward(data)
        assert (blk.data, blk.primary_index) == oracle_bwt(data)
        assert bwt_inverse(blk) == data


def test_inverse_index_bound():
    with pytest.raises(CorruptStream):
        bwt_inverse(BwtBlock(b"ab", 5))
    with pytest.raises(CorruptStream):
        bwt_inverse(BwtBlock(b"", 1))


def test_mtf_hand_traces():
    assert list(mtf_encode(b"aaa")) == [97, 0, 0]
    assert list(mtf_encode(b"nnbaaa")) == [110, 0, 99, 99, 0, 0]
    assert mtf_encode(b"") == b""


def test_mtf_identity():
    rng = random.Random(15)
    for _ in range(30):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 500)))
        assert mtf_decode(mtf_encode(data)) == data


def roundtrip(data):
    return decode_payload(encode_payload(data), len(data))


def test_rle0_runs_bijective_base2():
    # run lengths 1..40 survive the digit coding exactly
    for n in range(1, 41):
        tokens = rle0_encode(bytes(n) + b"\x07")
        assert tokens[-1] == 8
        assert sum((t + 1) << i for i, t in enumerate(tokens[:-1])) == n
        # move-to-front turns n + 1 equal octets into one value and n zeros
        data = b"\x07" * (n + 1)
        assert roundtrip(data) == data


def test_rle0_identity_random():
    rng = random.Random(16)
    for _ in range(40):
        data = bytes(rng.getrandbits(8) if rng.random() > 0.6 else 0
                     for _ in range(rng.randrange(0, 400)))
        assert roundtrip(data) == data


def test_rle0_token_range():
    # nonzero values shift up by one: 0/1 are reserved for run digits
    tokens = rle0_encode(b"\x01\xff\x00\x00")
    assert tokens[:2] == [2, 256]


def test_mtf_rle_composition():
    rng = random.Random(18)
    for _ in range(20):
        data = bytes(rng.choice(b"aabbbbc") for _ in range(rng.randrange(0, 600)))
        assert roundtrip(data) == data


def test_payload_roundtrip_multiblock():
    rng = random.Random(19)
    data = bytes(rng.choice(b"abcde") for _ in range(1000))
    payload = encode_payload(data, 64)  # forces 16 blocks
    assert decode_payload(payload, len(data)) == data
    assert decode_payload(encode_payload(data, 65536), len(data)) == data


def test_payload_empty():
    assert encode_payload(b"", 65536) == b""
    assert decode_payload(b"", 0) == b""


def test_truncated_payload_raises():
    payload = encode_payload(b"compressible compressible compressible", 65536)
    with pytest.raises(CorruptStream):
        decode_payload(payload[:8], 39)
    with pytest.raises(CorruptStream):
        decode_payload(payload[:14], 39)


def test_block_length_mismatch_raises():
    payload = encode_payload(b"xyz" * 10, 65536)
    with pytest.raises(CorruptStream):
        decode_payload(payload, 29)
