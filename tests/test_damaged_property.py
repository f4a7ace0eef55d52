"""Property test: a damaged payload of any of the six codecs decodes to
the declared length or raises a VoicepackError, never anything else.

The decoded octets may differ from the original: the payload is decoded
here without its container, whose CRC-32 would catch such damage, so
some of it decodes to other octets of the right length.
"""

import random

import pytest

from voicepack.codecs import _CODECS, AlgorithmId
from voicepack.errors import VoicepackError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=150, deadline=None)

# Runs give deep PPM contexts, long escape chains, long LZ matches, long
# dictionary entries and the LZW code-equals-next-slot case; 2-4 KB of
# seeded random octets give PPM contexts of more than 64 symbols and
# full 256-octet ones, and widen LZW codes to 11 and 12 bits (the
# 14-bit dictionary freezes only past about 18 KB of such octets).
payloads = st.one_of(
    st.binary(max_size=600),
    st.lists(st.integers(0, 255).flatmap(lambda s: st.integers(1, 40).map(lambda n: bytes([s]) * n)),
             max_size=15).map(b"".join),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(2048, 4096))
    .map(lambda seed_n: random.Random(seed_n[0]).randbytes(seed_n[1])),
)


@pytest.mark.parametrize("alg", [alg for alg in AlgorithmId if alg is not AlgorithmId.NONE],
                         ids=lambda alg: alg.label)
@settings
@given(payloads, st.data())
def test_mutated_payload_decodes_or_raises(alg, data, draw):
    encode, decode = _CODECS[alg]
    payload = bytearray(encode(data))
    if payload and draw.draw(st.booleans()):
        at = draw.draw(st.integers(0, len(payload) - 1))
        payload[at] ^= draw.draw(st.integers(1, 255))
    else:
        del payload[draw.draw(st.integers(0, len(payload))):]
    original_len = draw.draw(st.sampled_from([len(data), len(data) + 1, max(len(data) - 1, 0)]))
    try:
        got = decode(bytes(payload), original_len)
    except VoicepackError:
        return
    assert len(got) == original_len
