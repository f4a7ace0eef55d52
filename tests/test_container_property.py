"""Property tests of the container header: CompressedBlob.parse either
returns or raises a VoicepackError, round-trips every CVT2 container, and
rejects each malformed header field."""

import pytest

from voicepack.codecs import MAX_LEN, AlgorithmId, CompressedBlob
from voicepack.errors import VoicepackError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=300, deadline=None)

blobs = st.builds(CompressedBlob, st.sampled_from(list(AlgorithmId)),
                  st.integers(0, MAX_LEN), st.binary(max_size=40), st.integers(0, 2**32 - 1))


def leb128(n, pad=0):
    """n as LEB128, with `pad` needless zero-valued octets at the end."""
    groups = []
    while True:
        groups.append(n & 0x7F)
        n >>= 7
        if not n:
            break
    groups += [0] * pad
    return bytes([g | 0x80 for g in groups[:-1]] + groups[-1:])


# "C" starts a CVT1 container, 0x80 | algorithm a CVT2 one.
FIRST_OCTETS = {0x43, *(0x80 | alg for alg in AlgorithmId)}

# Raw octets, and raw octets after a first octet that picks a layout.
containers = st.one_of(
    st.binary(max_size=40),
    st.tuples(st.sampled_from([b"CVT1", *(bytes([octet]) for octet in FIRST_OCTETS)]),
              st.binary(max_size=40)).map(b"".join),
)


@settings
@given(containers)
def test_parse_returns_or_raises(raw):
    try:
        blob = CompressedBlob.parse(raw)
    except VoicepackError:
        return
    assert 0 <= blob.original_len <= MAX_LEN


@settings
@given(blobs)
def test_parse_inverts_to_bytes(blob):
    assert CompressedBlob.parse(blob.to_bytes()) == blob


@settings
@given(st.sampled_from(list(AlgorithmId)), st.integers(0, MAX_LEN), st.integers(1, 4))
def test_non_minimal_length_raises(alg, n, pad):
    with pytest.raises(VoicepackError):
        CompressedBlob.parse(bytes([0x80 | alg]) + leb128(n, pad) + bytes(4))


@settings
@given(st.sampled_from(list(AlgorithmId)), st.integers(MAX_LEN + 1, 2**35 - 1))
def test_length_over_32_bits_raises(alg, n):
    with pytest.raises(VoicepackError):
        CompressedBlob.parse(bytes([0x80 | alg]) + leb128(n) + bytes(4))


@settings
@given(st.integers(0, 255).filter(lambda octet: octet not in FIRST_OCTETS), st.binary(max_size=20))
def test_unknown_first_octet_raises(first, rest):
    with pytest.raises(VoicepackError):
        CompressedBlob.parse(bytes([first]) + rest)


@settings
@given(blobs, st.data())
def test_truncated_header_raises(blob, draw):
    raw = blob.to_bytes()
    header = len(raw) - len(blob.payload)
    with pytest.raises(VoicepackError):
        CompressedBlob.parse(raw[:draw.draw(st.integers(0, header - 1))])
