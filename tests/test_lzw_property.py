"""Property test: at any code width 9..16, a damaged LZW payload decodes
to the declared length or raises a VoicepackError, never anything else."""

import random

import pytest

from voicepack.codecs.lzw import decode_payload, encode_payload
from voicepack.errors import VoicepackError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=150, deadline=None)

# Runs give long dictionary entries and the code-equals-next-slot case;
# 2-4 KB of seeded random octets widen the codes and fill the 9- to
# 11-bit dictionaries, which then freeze.
payloads = st.one_of(
    st.binary(max_size=600),
    st.lists(st.integers(0, 255).flatmap(lambda s: st.integers(1, 40).map(lambda n: bytes([s]) * n)),
             max_size=15).map(b"".join),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(2048, 4096))
    .map(lambda seed_n: random.Random(seed_n[0]).randbytes(seed_n[1])),
)


@settings
@given(payloads, st.data())
def test_mutated_payload_decodes_or_raises(data, draw):
    max_bits = draw.draw(st.integers(9, 16))
    payload = bytearray(encode_payload(data, max_bits))
    if payload and draw.draw(st.booleans()):
        at = draw.draw(st.integers(0, len(payload) - 1))
        payload[at] ^= draw.draw(st.integers(1, 255))
    else:
        del payload[draw.draw(st.integers(0, len(payload))):]
    original_len = draw.draw(st.sampled_from([len(data), len(data) + 1, max(len(data) - 1, 0)]))
    try:
        got = decode_payload(bytes(payload), original_len, max_bits)
    except VoicepackError:
        return
    assert len(got) == original_len
