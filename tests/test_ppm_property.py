"""Property test: at any order 0..5, a damaged PPM payload decodes to the
declared length or raises a VoicepackError, never anything else."""

import pytest

from voicepack.codecs.ppm import ppm_decode, ppm_encode
from voicepack.errors import VoicepackError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=150, deadline=None)

# Runs give deep contexts and long escape chains; uniform bytes give
# order -1 codes under large exclusion lists.
payloads = st.one_of(
    st.binary(max_size=600),
    st.lists(st.integers(0, 255).flatmap(lambda s: st.integers(1, 40).map(lambda n: bytes([s]) * n)),
             max_size=15).map(b"".join),
)


@settings
@given(payloads, st.data())
def test_mutated_payload_decodes_or_raises(data, draw):
    order = draw.draw(st.integers(0, 5))
    payload = bytearray(ppm_encode(data, order))
    if payload and draw.draw(st.booleans()):
        at = draw.draw(st.integers(0, len(payload) - 1))
        payload[at] ^= draw.draw(st.integers(1, 255))
    else:
        del payload[draw.draw(st.integers(0, len(payload))):]
    original_len = draw.draw(st.sampled_from([len(data), len(data) + 1, max(len(data) - 1, 0)]))
    try:
        got = ppm_decode(bytes(payload), original_len, order)
    except VoicepackError:
        return
    assert len(got) == original_len
