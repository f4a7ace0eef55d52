"""Differential property tests: the table-driven Huffman decoder against a
bit-at-a-time reference decoder that reads the code-length header as the
README states it, and the header checks against mutated headers."""

import time
from collections import Counter
from fractions import Fraction

import pytest

from voicepack.codecs.huffman import (
    build_huffman_table,
    huffman_decode,
    huffman_encode,
)
from voicepack.errors import CorruptStream, VoicepackError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=300, deadline=None)


def reference_decode(payload, original_len):
    """Read the code-length header, then match codes one bit at a time."""
    if original_len == 0:
        if payload:
            raise CorruptStream("payload for an empty input")
        return b""
    if len(payload) < 2:
        raise CorruptStream("header truncated")
    n, longest = payload[0] + 1, payload[1]
    body_at = 1 + longest + n
    if longest == 0 or len(payload) < body_at:
        raise CorruptStream("header truncated or L = 0")
    counts = list(payload[2:longest + 1])
    counts.append(n - sum(counts))
    if counts[-1] < 1:
        raise CorruptStream("counts past n")
    lengths = [length for length, count in enumerate(counts, 1) for _ in range(count)]
    symbols = payload[longest + 1:body_at]
    if sum(Fraction(1, 2 ** length) for length in lengths) != 1 and (n, longest) != (1, 1):
        raise CorruptStream("Kraft sum is not 1")
    pairs = list(zip(lengths, symbols))
    if len(set(symbols)) != n or pairs != sorted(pairs):
        raise CorruptStream("symbols repeated or out of order")
    # RFC 1951 section 3.2.2: next_code per length, then in symbol order
    next_code = {}
    code = 0
    for length in range(1, longest + 1):
        code = (code + lengths.count(length - 1)) << 1
        next_code[length] = code
    by_code = {}
    for length, sym in pairs:
        by_code[format(next_code[length], f"0{length}b")] = sym
        next_code[length] += 1
    bits = "".join(format(octet, "08b") for octet in payload[body_at:])
    out = bytearray()
    pos = 0
    while len(out) < original_len:
        code = ""
        while code not in by_code:
            if pos == len(bits):
                raise CorruptStream("bit stream exhausted")
            if len(code) == longest:
                raise CorruptStream("pattern matches no code")
            code += bits[pos]
            pos += 1
        out.append(by_code[code])
    return bytes(out)


def outcome(decode, payload, original_len):
    try:
        return decode(payload, original_len)
    except VoicepackError:
        return VoicepackError


# Skewed alphabets give long codes; uniform bytes give full ones.
payloads = st.one_of(
    st.binary(max_size=600),
    st.lists(st.integers(0, 255).flatmap(lambda s: st.integers(1, 40).map(lambda n: bytes([s]) * n)),
             max_size=40).map(b"".join),
)


@settings
@given(payloads)
def test_matches_reference_decoder(data):
    payload = huffman_encode(data)
    assert huffman_decode(payload, len(data)) == reference_decode(payload, len(data)) == data


@settings
@given(payloads, st.data())
def test_mutated_payload_decodes_or_raises(data, draw):
    payload = bytearray(huffman_encode(data))
    if payload and draw.draw(st.booleans()):
        at = draw.draw(st.integers(0, len(payload) - 1))
        payload[at] ^= draw.draw(st.integers(1, 255))
    else:
        del payload[draw.draw(st.integers(0, len(payload))):]
    payload = bytes(payload)
    original_len = draw.draw(st.sampled_from([len(data), len(data) + 1, max(len(data) - 1, 0)]))
    got = outcome(huffman_decode, payload, original_len)
    if got is not VoicepackError:
        assert len(got) == original_len
    assert got == outcome(reference_decode, payload, original_len)


def lengths_header(lengths):
    """The code-length header of {symbol: code length}."""
    order = sorted(lengths, key=lambda sym: (lengths[sym], sym))
    longest = lengths[order[-1]]
    counts = [list(lengths.values()).count(length) for length in range(1, longest)]
    return bytearray([len(order) - 1, longest, *counts, *order])


def mutate(kind, lengths):
    """A header of `lengths` (three or more symbols) broken one way."""
    longest = max(lengths.values())
    last = max(sym for sym in lengths if lengths[sym] == longest)
    if kind == "kraft above 1":
        return lengths_header({**lengths, last: longest - 1})
    if kind == "kraft below 1":
        return lengths_header({**lengths, last: longest + 1})
    header = lengths_header(lengths)
    if kind == "duplicate symbol":
        header[-1] = header[-2]
    elif kind == "unordered symbols":
        header[-2:] = header[-1:-3:-1]
    elif kind == "L = 0":
        header[1] = 0
    elif kind == "counts past n":
        header[2:longest + 1] = bytes([255] * (longest - 1))
    return header


@settings
@given(payloads.filter(lambda data: len(set(data)) >= 3),
       st.sampled_from(["kraft above 1", "kraft below 1", "duplicate symbol",
                        "unordered symbols", "L = 0", "counts past n"]))
def test_mutated_header_raises_promptly(data, kind):
    lengths = {sym: len(code) for sym, code in build_huffman_table(Counter(data)).items()}
    payload = huffman_encode(data)
    valid = lengths_header(lengths)
    assert payload.startswith(valid)
    body = payload[len(valid):]
    header = mutate(kind, lengths)
    start = time.perf_counter()
    with pytest.raises(CorruptStream):
        huffman_decode(bytes(header) + body, len(data))
    assert time.perf_counter() - start < 1.0
