import hashlib
import random
import time
from bisect import bisect_left

import pytest

from voicepack.codecs.lz import (
    _CHAIN_TRIES,
    MAX_MATCH,
    MIN_MATCH,
    WINDOW,
    decode_payload,
    encode_payload,
    lz77_parse,
)
from voicepack.errors import CorruptStream


def reference_parse(data, window=WINDOW, tries=_CHAIN_TRIES):
    """The parse rule, by brute force: every earlier position with the same
    3-octet prefix is a candidate, of which the `tries` most recent at most
    `window` back are tried; the longest match wins, the most recent among
    equals, up to MAX_MATCH or the end of the input."""
    n = len(data)
    seen = {}  # 3-octet prefix -> its positions so far, ascending
    tokens = []
    i = 0
    while i < n:
        best_len = best_pos = 0
        js = seen.get(data[i:i + 3], [])
        near = js[max(bisect_left(js, i - window), len(js) - tries):]
        for j in reversed(near):
            l = 0
            while l < min(MAX_MATCH, n - i) and data[j + l] == data[i + l]:
                l += 1
            if l > best_len:
                best_len, best_pos = l, j
        step = best_len if best_len >= MIN_MATCH else 1
        tokens.append((i - best_pos, best_len) if step > 1 else (0, data[i]))
        for j in range(i, min(i + step, n - 2)):
            seen.setdefault(data[j:j + 3], []).append(j)
        i += step
    return tokens


def far_repeat_input():
    """36,000 random octets, then their first 3,000 again: every repeat
    lies 36,000 octets back, past WINDOW."""
    head = random.Random(41).randbytes(36_000)
    return head + head[:3000]


def crowded_prefix_input():
    """300 pieces b"abc" + a 2-octet count + b".", then b"#" and pieces 0
    and 100 again: the first piece is past the 256 candidates tried, the
    100th within them.  The b"#" keeps a match from running into them."""
    pieces = [b"abc" + k.to_bytes(2, "big") + b"." for k in range(300)]
    return b"".join(pieces) + b"#" + pieces[0] + pieces[100]


def two_letter_input():
    """20,000 octets drawn from b"ab": long chains on only 8 prefixes."""
    rng = random.Random(43)
    return bytes(rng.choice(b"ab") for _ in range(20_000))


# matches ending at n - 2, the last position with a 3-octet prefix, at
# n - 1 and at n, and runs that reach the end
BOUNDARY_INPUTS = [b"abcd" * 5 + tail for tail in (b"", b"x", b"xy", b"xyz")] + [
    b"a" * m for m in range(1, 9)]


@pytest.mark.parametrize("data", [
    far_repeat_input(), crowded_prefix_input(), two_letter_input(), *BOUNDARY_INPUTS],
    ids=lambda data: f"{len(data)}:{bytes(data[-4:])!r}")
def test_parse_matches_brute_force_reference(data):
    assert lz77_parse(data) == reference_parse(data)
    assert decode_payload(encode_payload(data), len(data)) == data


def test_reference_inputs_reach_the_limits():
    # without the window or the try limit these parses would differ
    data = far_repeat_input()
    assert reference_parse(data, window=2 * WINDOW) != reference_parse(data)
    data = crowded_prefix_input()
    assert reference_parse(data, tries=2 * _CHAIN_TRIES) != reference_parse(data)
    data = two_letter_input()
    assert reference_parse(data, tries=2 * _CHAIN_TRIES) != reference_parse(data)


# tests/test_golden.py covers inputs of up to 10,000 octets, which never
# reach the window or the try limit
@pytest.mark.parametrize("make_data, digest", [
    (far_repeat_input, "46102c2eca878aa0f08a0f624701d484fc10e95c1acf333707c1c5b4617f8ce7"),
    (crowded_prefix_input, "b1ef80b2273164d650b0261e0cfb05044904d944b5b4880ff6f2ec6a4d19c6a4"),
    (two_letter_input, "3e1ba519c74954cfeae6b5224af6db595bcc7d9204b374a5788b2232f432d534"),
])
def test_payload_digests_pinned(make_data, digest):
    assert hashlib.sha256(encode_payload(make_data())).hexdigest() == digest


def test_parse_overlapping_match():
    # the decoder copies each match by repeating its last `offset` octets;
    # offsets 1 and 2 are the slots that carry their distance alone
    for data, tokens in (
        (b"a" * 10, [(0, 97), (1, 9)]),
        (b"ab" * 5, [(0, 97), (0, 98), (2, 8)]),
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


@pytest.mark.parametrize("payload", [
    b"", bytes(1000), encode_payload(bytes(10**6)), encode_payload(random.Random(59).randbytes(900))],
    ids=["empty", "1000 zeros", "a million zeros", "900 random"])
def test_lying_length_raises_at_once(payload):
    # the decoder reads at most rangecoder.MAX_OVER_READ octets past the
    # payload's end
    assert len(payload) <= 1000
    start = time.perf_counter()
    with pytest.raises(CorruptStream):
        decode_payload(payload, 2**31)
    assert time.perf_counter() - start < 1.0
