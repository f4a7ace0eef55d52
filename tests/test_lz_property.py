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
