"""Differential property test: the hash-chain LZ parse against the
brute-force reference on short inputs over small alphabets, where
prefixes repeat and chains grow long."""

import pytest

from test_lz import reference_parse

from voicepack.codecs.lz import decode_payload, encode_payload, lz77_parse

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=300, deadline=None)


@settings
@given(st.sampled_from([b"a", b"ab", b"abc", b"a\0\xff"]).flatmap(
    lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=600).map(bytes)))
def test_parse_matches_reference(data):
    assert lz77_parse(data) == reference_parse(data)
    assert decode_payload(encode_payload(data), len(data)) == data


# pieces that end streams in zeros or train cells toward 31 and 2017:
# runs of zeros, lone literals with their top bits set, and long matches
_TAIL_PIECES = [b"\0", b"\0\0", b"\xff", b"\x7f\x80", b"xyz" * 91, bytes(300)]


@settings
@given(st.binary(max_size=200),
       st.lists(st.sampled_from(_TAIL_PIECES), max_size=20).map(b"".join),
       st.integers(0, 3))
def test_zero_heavy_tails_decode(prefix, body, zeros):
    # decode_payload raises once it reads far past the payload's end;
    # encode_payload's trimmed trailing zeros must stay within that
    data = prefix + body + bytes(zeros)
    assert decode_payload(encode_payload(data), len(data)) == data
