"""Round-trip property over skewed alphabets for the two codecs that decode
through AdaptiveModel.decoded: AC over octets and BWT over its run and
move-to-front tokens.  Lengths reach past 2,041 symbols, where a fresh
model's total first passes MAX_TOTAL and its counts are halved."""

import random

import pytest

from voicepack.codecs import bwt
from voicepack.codecs.arith import ac_decode, ac_encode

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=40, deadline=None)


@st.composite
def skewed(draw):
    """Octets over 1-256 letters, letter k drawn with weight (k + 1) ** -skew."""
    letters = draw(st.lists(st.integers(0, 255), min_size=1, max_size=256, unique=True))
    skew = draw(st.floats(0, 4))
    n = draw(st.integers(0, 5000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    weights = [(k + 1) ** -skew for k in range(len(letters))]
    return bytes(rng.choices(letters, weights, k=n))


@settings
@given(skewed())
def test_ac_and_bwt_roundtrip_skewed(data):
    assert ac_decode(ac_encode(data), len(data)) == data
    assert bwt.decode_payload(bwt.encode_payload(data), len(data)) == data
