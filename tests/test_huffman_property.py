"""Differential property tests: the table-driven Huffman decoder against a
bit-at-a-time reference decoder built from the same canonical table."""

import struct

import pytest

from voicepack.codecs.huffman import build_huffman_table, huffman_decode, huffman_encode
from voicepack.errors import CorruptStream, VoicepackError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=300, deadline=None)


def reference_decode(payload, original_len):
    """Read the frequency header, then match codes one bit at a time."""
    if len(payload) < 2:
        raise CorruptStream("header truncated")
    (n,) = struct.unpack_from(">H", payload)
    body_at = 2 + 5 * n
    if len(payload) < body_at:
        raise CorruptStream("frequency table truncated")
    freqs = {}
    for i in range(n):
        sym, count = struct.unpack_from(">BI", payload, 2 + 5 * i)
        if freqs and sym <= max(freqs) or count == 0:
            raise CorruptStream("bad frequency entry")
        freqs[sym] = count
    if original_len == 0:
        return b""
    if not freqs:
        raise CorruptStream("body without symbols")
    by_code = {code: sym for sym, code in build_huffman_table(freqs).items()}
    max_len = max(map(len, by_code))
    bits = "".join(format(octet, "08b") for octet in payload[body_at:])
    out = bytearray()
    pos = 0
    while len(out) < original_len:
        code = ""
        while code not in by_code:
            if pos == len(bits):
                raise CorruptStream("bit stream exhausted")
            if len(code) == max_len:
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
