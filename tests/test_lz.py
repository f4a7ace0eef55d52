import random

from voicepack.codecs.lz import (
    MAX_MATCH,
    MIN_MATCH,
    WINDOW,
    decode_payload,
    encode_payload,
    lz77_parse,
)
from voicepack.errors import CorruptStream


def test_parse_overlapping_match():
    # the decoder copies each match by repeating its last `offset` octets
    for data, tokens in (
        (b"abcabcabc", [(0, 97), (0, 98), (0, 99), (3, 6)]),
        (b"abc" * 92, [(0, 97), (0, 98), (0, 99), (3, 273)]),
    ):
        assert lz77_parse(data) == tokens
        assert decode_payload(encode_payload(data), len(data)) == data


def test_parse_below_min_match():
    assert lz77_parse(b"abc") == [(0, 97), (0, 98), (0, 99)]


def test_parse_empty():
    assert lz77_parse(b"") == []


def test_tokens_reconstruct_exactly():
    rng = random.Random(33)
    for _ in range(40):
        kind = rng.randrange(3)
        n = rng.randrange(0, 3000)
        if kind == 0:
            data = bytes(rng.getrandbits(8) for _ in range(n))
        elif kind == 1:
            data = (b"blah blah compression " * 200)[:n]
        else:
            data = bytes(rng.choice(b"ab") for _ in range(n))
        assert decode_payload(encode_payload(data), len(data)) == data


def test_match_fields_within_bounds():
    rng = random.Random(34)
    data = (b"0123456789" * 400) + bytes(rng.getrandbits(8) for _ in range(500))
    pos = 0
    for offset, value in lz77_parse(data):
        if offset:
            assert 1 <= offset <= WINDOW
            assert MIN_MATCH <= value <= MAX_MATCH
            assert offset <= pos
            pos += value
        else:
            pos += 1
    assert pos == len(data)


def test_window_limits_offsets():
    # the second copy of `unit` starts WINDOW, then WINDOW + 1, octets
    # after the first: only the first distance is within reach
    rng = random.Random(37)
    unit = bytes(rng.getrandbits(8) for _ in range(300))
    for gap, reachable in ((WINDOW - 300, True), (WINDOW - 299, False)):
        data = unit + bytes(gap) + unit
        offsets = [offset for offset, _ in lz77_parse(data)]
        assert max(offsets) <= WINDOW
        assert (WINDOW in offsets) == reachable
        assert decode_payload(encode_payload(data), len(data)) == data


def test_encoded_beats_fixed_width_serialization():
    # fixed-width oracle: 1+8 bits per literal, 1+15+9 bits per match
    data = b"abcabcabc" * 100
    bits = sum(25 if offset else 9 for offset, _ in lz77_parse(data))
    assert len(encode_payload(data)) * 8 < bits


def test_empty_payload():
    assert encode_payload(b"") == b""
    assert decode_payload(b"", 0) == b""


def test_roundtrip_assorted():
    rng = random.Random(35)
    cases = [
        b"a",
        b"aaaaaaaaaaaaaaaaaaaaaaaaaa",
        b"the quick brown fox jumps over the lazy dog " * 50,
        bytes(rng.getrandbits(8) for _ in range(5000)),
        bytes(rng.getrandbits(8) & rng.getrandbits(8) for _ in range(5000)),
        bytes(range(256)) * 20,
    ]
    for data in cases:
        assert decode_payload(encode_payload(data), len(data)) == data


def test_corrupt_stream_detected_or_wrong():
    data = b"abcabcabc" * 40
    payload = bytearray(encode_payload(data))
    payload[len(payload) // 2] ^= 0xFF
    try:
        got = decode_payload(bytes(payload), len(data))
    except CorruptStream:
        return
    assert got != data
