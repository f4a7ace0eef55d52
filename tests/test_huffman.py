import hashlib
import itertools
import random
import time
from collections import Counter
from functools import lru_cache

import pytest

from voicepack.codecs.huffman import (
    LOOKUP_BITS,
    build_huffman_table,
    huffman_decode,
    huffman_decode_cvt1,
    huffman_encode,
)
from voicepack.errors import CorruptStream, EmptyAlphabet


@lru_cache(maxsize=None)
def depth_multisets(k):
    """Leaf-depth multisets of all full binary trees with k leaves."""
    if k == 1:
        return frozenset({(0,)})
    out = set()
    for i in range(1, k):
        for a in depth_multisets(i):
            for b in depth_multisets(k - i):
                out.add(tuple(sorted(d + 1 for d in a + b)))
    return frozenset(out)


def optimal_cost(counts):
    """Brute-force minimum weighted code length over all prefix codes.

    A one-symbol alphabet still needs a 1-bit code to be decodable, so
    k=1 costs count x 1 rather than the bare-root zero.
    """
    k = len(counts)
    if k == 1:
        return counts[0]
    best = None
    ordered = sorted(counts, reverse=True)
    for depths in depth_multisets(k):
        cost = sum(c * d for c, d in zip(ordered, sorted(depths)))
        if best is None or cost < best:
            best = cost
    return best


def table_cost(freqs):
    table = build_huffman_table(freqs)
    return sum(freqs[s] * len(table[s]) for s in freqs)


def test_lengths_3_symbol_example():
    # exhaustive search over prefix codes on 3 symbols shows 7 bits minimal
    freqs = {ord("a"): 3, ord("b"): 1, ord("c"): 1}
    table = build_huffman_table(freqs)
    assert {chr(s): len(code) for s, code in table.items()} == {"a": 1, "b": 2, "c": 2}
    assert table_cost(freqs) == optimal_cost(list(freqs.values())) == 7


def test_single_symbol_gets_one_bit():
    assert build_huffman_table({ord("x"): 5}) == {ord("x"): "0"}


def test_two_equal_symbols():
    table = build_huffman_table({ord("a"): 1, ord("b"): 1})
    assert {len(c) for c in table.values()} == {1}


def test_empty_alphabet():
    with pytest.raises(EmptyAlphabet):
        build_huffman_table({})


def test_nonpositive_count_rejected():
    with pytest.raises(ValueError):
        build_huffman_table({3: 0})


def test_prefix_freedom_and_kraft():
    rng = random.Random(11)
    for _ in range(50):
        syms = rng.sample(range(256), rng.randrange(2, 40))
        freqs = {s: rng.randrange(1, 1000) for s in syms}
        table = build_huffman_table(freqs)
        codes = sorted(table.values())
        for a, b in itertools.combinations(codes, 2):
            assert not b.startswith(a) and not a.startswith(b)
        assert sum(2 ** -len(c) for c in codes) == 1.0


def test_monotone_lengths():
    # higher count never gets the longer code
    rng = random.Random(12)
    for _ in range(30):
        syms = rng.sample(range(256), rng.randrange(2, 30))
        freqs = {s: rng.randrange(1, 50) for s in syms}
        table = build_huffman_table(freqs)
        for a in syms:
            for b in syms:
                if freqs[a] > freqs[b]:
                    assert len(table[a]) <= len(table[b])


def test_deterministic_tie_break():
    freqs = {9: 2, 4: 2, 7: 2, 1: 2}
    assert build_huffman_table(freqs) == build_huffman_table(dict(reversed(freqs.items())))


def test_body_bits_aaab():
    # lengths {a:1, b:1} make the body exactly 4 bits
    freqs = {ord("a"): 3, ord("b"): 1}
    table = build_huffman_table(freqs)
    body_bits = sum(freqs[s] * len(table[s]) for s in freqs)
    assert body_bits == 4
    payload = huffman_encode(b"aaab")
    header_len = 1 + 1 + 2  # n - 1, L = 1, the two symbols
    assert payload[:header_len] == b"\x01\x01ab"
    assert len(payload) == header_len + (body_bits + 7) // 8


def test_body_bits_abcabc():
    freqs = {ord(c): 2 for c in "abc"}
    table = build_huffman_table(freqs)
    body_bits = 2 * sum(len(table[ord(c)]) for c in "abc")
    payload = huffman_encode(b"abcabc")
    # n - 1, L = 2, one code of length 1, then c | a b: the tie-break
    # merges a and b first
    assert payload[:6] == b"\x02\x02\x01cab"
    assert len(payload) == 6 + (body_bits + 7) // 8


def test_empty_input_header_only():
    # the header of no symbols is empty
    payload = huffman_encode(b"")
    assert payload == b""
    assert huffman_decode(payload, 0) == b""


def test_roundtrip_assorted():
    rng = random.Random(17)
    cases = [b"hello", b"\x00" * 400, bytes(range(256)),
             bytes(rng.getrandbits(8) for _ in range(5000))]
    for data in cases:
        assert huffman_decode(huffman_encode(data), len(data)) == data


def test_single_symbol_roundtrip():
    data = b"z" * 37
    assert huffman_decode(huffman_encode(data), len(data)) == data


def test_truncated_body_raises():
    payload = huffman_encode(b"the rain in spain")
    with pytest.raises(CorruptStream):
        huffman_decode(payload[:-1], 17)


BAD_HEADERS = [
    b"\x00\x00z",              # L = 0
    b"\x00\x02\x00z",          # one symbol of length 2: Kraft sum 1/4
    b"\x01\x02\x00ab",         # two codes of length 2: Kraft sum 1/2
    b"\x02\x02\x03abc",        # counts past n: no code left for length 2
    b"\x01\x02\x02ab",         # Kraft sum 1, but L = 2 has no code left
    b"\x02\x02\x00abc",        # three codes of length 2: Kraft sum 3/4
    b"\x03\x02\x01abcd",       # 1/2 + 3/4: Kraft sum above 1
    b"\x02\x02\x01acc",        # a repeated symbol
    b"\x02\x02\x01acb",        # out of order within length 2
    b"\x02\x03\x01\x01abc",    # one code each of lengths 1, 2, 3: Kraft sum 7/8
]


def test_corrupt_header_raises():
    for header in BAD_HEADERS:
        with pytest.raises(CorruptStream):
            huffman_decode(header + bytes(4), 5)


def test_payload_for_empty_input_raises():
    with pytest.raises(CorruptStream):
        huffman_decode(huffman_encode(b"a"), 0)


def test_cvt1_frequency_header():
    # the CVT1 layout: symbol count, then octet and count per symbol,
    # then the same code bits as the CVT2 payload
    freq_header = b"\x00\x02" + b"a\x00\x00\x00\x03" + b"b\x00\x00\x00\x01"
    body = huffman_encode(b"aaab")[4:]
    assert huffman_decode_cvt1(freq_header + body, 4) == b"aaab"
    assert huffman_decode_cvt1(b"\x00\x00", 0) == b""
    with pytest.raises(CorruptStream):
        huffman_decode_cvt1(b"\x00", 0)
    with pytest.raises(CorruptStream):
        huffman_decode_cvt1(b"\x00\x00", 5)  # body without symbols
    # symbols not ascending
    bad = b"\x00\x02" + b"\x05" + b"\x00\x00\x00\x01" + b"\x04" + b"\x00\x00\x00\x01"
    with pytest.raises(CorruptStream):
        huffman_decode_cvt1(bad, 2)


def test_optimality_spot_checks():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randrange(1, 6)
        counts = [rng.randrange(1, 7) for _ in range(k)]
        freqs = dict(zip(rng.sample(range(256), k), counts))
        assert table_cost(freqs) == optimal_cost(counts)


def fibonacci_data(nsyms):
    """Octet i repeated fib(i) times, interleaved: Huffman's deepest tree.

    The code lengths run 1, 2, ..., nsyms - 1, nsyms - 1, so the longest
    codes exceed the decoder's LOOKUP_BITS once nsyms > LOOKUP_BITS + 1.
    """
    fib = [1, 1]
    while len(fib) < nsyms:
        fib.append(fib[-1] + fib[-2])
    runs = b"".join(bytes([sym]) * count for sym, count in enumerate(fib))
    # 7919 is prime and divides neither length used here: a permutation.
    return bytes(runs[(i * 7919) % len(runs)] for i in range(len(runs)))


def test_long_codes_roundtrip_pinned():
    data = fibonacci_data(25)
    table = build_huffman_table(Counter(data))
    assert max(map(len, table.values())) == 24 > LOOKUP_BITS
    payload = huffman_encode(data)
    # 24 lengths and 25 symbols: one code of each length 1..23, two of 24
    header_len = 1 + 24 + 25
    assert payload[:25] == bytes([24, 24]) + bytes([1] * 23)
    # Digest of the code bits, computed with the bit-at-a-time coder of
    # the frequency header that this one replaced.
    assert hashlib.sha256(payload[header_len:]).hexdigest() == (
        "fcbae31114cb807cbf2e8ee012268410d1a39f3ded790314b927ff59d714238b")
    assert huffman_decode(payload, len(data)) == data


@pytest.mark.parametrize("data", [b"the rain in spain", fibonacci_data(14)],
                         ids=["short-codes", "long-codes"])
def test_every_truncation_raises(data):
    payload = huffman_encode(data)
    for cut in range(len(payload)):
        with pytest.raises(CorruptStream):
            huffman_decode(payload[:cut], len(data))


def test_one_symbol_body_with_one_bit_raises():
    payload = huffman_encode(b"zzz")
    assert payload[-1:] == b"\x00"
    with pytest.raises(CorruptStream):
        huffman_decode(payload[:-1] + b"\x80", 3)


def test_lying_length_raises_promptly():
    header = huffman_encode(b"ab")[:-1]
    start = time.perf_counter()
    with pytest.raises(CorruptStream):
        huffman_decode(header + bytes(10), 20_000_000)
    assert time.perf_counter() - start < 1.0
