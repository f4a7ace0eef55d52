import random
import time

import pytest

from voicepack.codecs.lzw import decode_payload, encode_payload, lzw_encode, pack_codes
from voicepack.errors import CorruptStream


def decode_codes(codes, original_len, max_bits):
    """Run a code list through the packed-stream decoder."""
    return decode_payload(pack_codes(codes, max_bits), original_len, max_bits)


def test_encode_hand_trace_abababa():
    assert lzw_encode(b"ABABABA", 14) == [65, 66, 256, 258]


def test_encode_hand_trace_aaaa():
    assert lzw_encode(b"aaaa", 14) == [97, 256, 97]


def test_encode_empty():
    assert lzw_encode(b"", 14) == []


def test_decode_inverse_of_trace():
    assert decode_codes([65, 66, 256, 258], 7, 14) == b"ABABABA"


def test_decode_kwkwk_case():
    # code 256 is consumed before its entry is complete
    assert decode_codes([97, 256, 97], 4, 14) == b"aaaa"


def test_decode_code_beyond_next_free_slot():
    with pytest.raises(CorruptStream):
        decode_codes([97, 300], 2, 14)


def test_decode_first_code_must_be_literal():
    with pytest.raises(CorruptStream):
        decode_codes([256], 1, 14)
    # a first code of 256 must raise, not decode to nothing and go on
    with pytest.raises(CorruptStream):
        decode_codes([256, 97], 1, 14)


def test_high_redundancy_shrinks():
    data = b"A" * 1000
    assert len(encode_payload(data, 14)) < 1000


@pytest.mark.parametrize("max_bits", [9, 12, 14, 16])
def test_roundtrip_random(max_bits):
    rng = random.Random(max_bits)
    for _ in range(25):
        n = rng.randrange(0, 4000)
        data = bytes(rng.getrandbits(8) >> rng.randrange(5) for _ in range(n))
        payload = encode_payload(data, max_bits)
        assert decode_payload(payload, len(data), max_bits) == data


def test_roundtrip_through_code_lists():
    rng = random.Random(5)
    for _ in range(30):
        data = bytes(rng.choice(b"abcd") for _ in range(rng.randrange(0, 500)))
        assert decode_codes(lzw_encode(data, 12), len(data), 12) == data


def scheduled_widths(n_codes, max_bits):
    """The width schedule walked code by code: the dictionary gains one
    entry per code after the first (until frozen), and the width grows
    whenever the next free slot would not fit."""
    widths = []
    w = 9
    threshold = 1 << w
    next_code = 256
    cap = 1 << max_bits
    for j in range(n_codes):
        if j:
            if next_code >= threshold and w < max_bits:
                w += 1
                threshold <<= 1
        widths.append(w)
        if j and next_code < cap:
            next_code += 1
    return widths


def test_width_growth_invariant():
    # repeated-free input drives the dictionary hard: every emitted code
    # must fit its scheduled width and widths never pass the cap
    rng = random.Random(1)
    data = bytes(rng.getrandbits(8) for _ in range(9000))
    for max_bits in (9, 11, 14):
        codes = lzw_encode(data, max_bits)
        widths = scheduled_widths(len(codes), max_bits)
        assert all(c < (1 << w) for c, w in zip(codes, widths))
        assert max(widths) <= max_bits
        assert widths[0] == 9
        assert widths == sorted(widths)
        assert len(pack_codes(codes, max_bits)) == -(-sum(widths) // 8)
    # the closed form in the module docstring is the same schedule
    for max_bits in range(9, 17):
        assert scheduled_widths(70_000, max_bits) == [
            min(max_bits, max(9, (255 + j).bit_length())) for j in range(70_000)]


def test_dictionary_freeze_keeps_roundtrip():
    # max_bits=9 freezes after 256 new entries; stream must stay decodable
    rng = random.Random(2)
    data = bytes(rng.getrandbits(8) for _ in range(6000))
    codes = lzw_encode(data, 9)
    assert max(codes) < 512
    assert decode_codes(codes, len(data), 9) == data


def test_truncated_payload_underruns():
    payload = encode_payload(b"to be or not to be, that is the question", 14)
    with pytest.raises(CorruptStream):
        decode_payload(payload[:3], 41, 14)


def test_pack_codes_msb_first_zero_padded():
    # 65 and 66 as two 9-bit codes, then 6 zero bits to fill the octet
    assert pack_codes([65, 66], 14) == bytes.fromhex("209080")


def test_lying_length_raises_promptly():
    # one long run is the most output per payload octet LZW allows: each
    # code is one octet longer than the last
    payload = encode_payload(b"a" * 300_000, 14)
    assert len(payload) <= 1024
    start = time.perf_counter()
    with pytest.raises(CorruptStream):
        decode_payload(payload, 2**31, 14)
    assert time.perf_counter() - start < 1.0


def test_empty_payload():
    assert encode_payload(b"", 14) == b""
    assert decode_payload(b"", 0, 14) == b""
