"""Property test: a damaged payload of any of the six codecs decodes to
the declared length or raises a VoicepackError, never anything else.

The decoded octets may differ from the original: the container carries
no checksum, so some damage decodes to other octets of the right length.
"""

import random

import pytest

from voicepack.codecs import arith, bwt, huffman, lz, lzw, ppm
from voicepack.errors import VoicepackError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=150, deadline=None)

# codec -> (strategy for its extra arguments, encode, decode): the LZW
# code width and the PPM order are drawn per example.
CODECS = {
    "lzw": (st.tuples(st.integers(9, 16)), lzw.encode_payload, lzw.decode_payload),
    "lzma": (st.tuples(), lz.encode_payload, lz.decode_payload),
    "huffman": (st.tuples(), huffman.huffman_encode, huffman.huffman_decode),
    "ppm": (st.tuples(st.integers(0, 5)), ppm.ppm_encode, ppm.ppm_decode),
    "ac": (st.tuples(), arith.ac_encode, arith.ac_decode),
    "bwt": (st.tuples(), bwt.encode_payload, bwt.decode_payload),
}

# Runs give deep PPM contexts, long escape chains, long LZ matches, long
# dictionary entries and the LZW code-equals-next-slot case; 2-4 KB of
# seeded random octets give PPM contexts of more than 64 symbols and
# full 256-octet ones, and widen and fill the 9- to 11-bit LZW
# dictionaries, which then freeze.
payloads = st.one_of(
    st.binary(max_size=600),
    st.lists(st.integers(0, 255).flatmap(lambda s: st.integers(1, 40).map(lambda n: bytes([s]) * n)),
             max_size=15).map(b"".join),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(2048, 4096))
    .map(lambda seed_n: random.Random(seed_n[0]).randbytes(seed_n[1])),
)


@pytest.mark.parametrize("codec", list(CODECS))
@settings
@given(payloads, st.data())
def test_mutated_payload_decodes_or_raises(codec, data, draw):
    params, encode, decode = CODECS[codec]
    args = draw.draw(params)
    payload = bytearray(encode(data, *args))
    if payload and draw.draw(st.booleans()):
        at = draw.draw(st.integers(0, len(payload) - 1))
        payload[at] ^= draw.draw(st.integers(1, 255))
    else:
        del payload[draw.draw(st.integers(0, len(payload))):]
    original_len = draw.draw(st.sampled_from([len(data), len(data) + 1, max(len(data) - 1, 0)]))
    try:
        got = decode(bytes(payload), original_len, *args)
    except VoicepackError:
        return
    assert len(got) == original_len
