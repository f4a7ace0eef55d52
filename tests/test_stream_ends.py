"""The range-coder stream's ends, for all four payloads that use it
(LZMA, PPM, AC and each BWT block): octet 0 must be zero, a decoder
reads at most MAX_OVER_READ zero octets past the end, and no encoder
output comes near that limit."""

import dataclasses
import random
import time

import pytest

from voicepack.codecs import AlgorithmId, CompressedBlob, arith, bwt, compress, decompress, lz, ppm, rangecoder
from voicepack.errors import CorruptStream

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=60, deadline=None)

DECODERS = {
    AlgorithmId.LZMA: lz.decode_payload,
    AlgorithmId.PPM: ppm.ppm_decode,
    AlgorithmId.AC: arith.ac_decode,
    AlgorithmId.BWT: bwt.decode_payload,
}
# where the first range-coded stream starts in each payload: a BWT block
# stream follows its 12-octet block header
STREAM_AT = {AlgorithmId.LZMA: 0, AlgorithmId.PPM: 0, AlgorithmId.AC: 0, AlgorithmId.BWT: 12}
# the over-read bounds that rangecoder.py derives, and lz.py for LZMA
OVER_READ_BOUND = {AlgorithmId.LZMA: 36, AlgorithmId.PPM: 5, AlgorithmId.AC: 5, AlgorithmId.BWT: 38}


@pytest.mark.parametrize("alg", DECODERS, ids=lambda alg: alg.label)
def test_nonzero_octet_zero_raises(alg):
    data = b"the quick brown fox " * 20
    blob = compress(data, alg)
    payload = bytearray(blob.payload)
    payload[STREAM_AT[alg]] ^= 1
    damaged = dataclasses.replace(blob, payload=bytes(payload))
    with pytest.raises(CorruptStream, match="does not start with a zero octet"):
        DECODERS[alg](damaged.payload, len(data))
    with pytest.raises(CorruptStream, match="does not start with a zero octet"):
        decompress(CompressedBlob.parse(damaged.to_bytes()))


_LYING = {
    "empty": lambda encode: b"",
    "1000 zeros": lambda encode: bytes(1000),
    "a million zeros": lambda encode: encode(bytes(10**6)),
    "900 random": lambda encode: encode(random.Random(59).randbytes(900)),
}
_CODERS = {
    "ac": (arith.ac_encode, arith.ac_decode),
    "bwt": (bwt.encode_payload, bwt.decode_payload),
    "ppm": (ppm.ppm_encode, ppm.ppm_decode),
}


def _lying_payload(codec, case):
    """A payload from _LYING for `codec`, and its decoder."""
    encode, decode = _CODERS[codec]
    return _LYING[case](encode), decode


@pytest.mark.parametrize("codec, case", [
    ("ac", "empty"), ("ac", "900 random"), ("ppm", "900 random"),
    ("bwt", "empty"), ("bwt", "1000 zeros"), ("bwt", "a million zeros"), ("bwt", "900 random"),
])
def test_lying_length_raises_at_once(codec, case):
    # each decodes at most a BWT block, or what the payload codes before
    # its decoder has read 64 octets past the end
    payload, decode = _lying_payload(codec, case)
    assert len(payload) <= 1100
    start = time.perf_counter()
    with pytest.raises(CorruptStream):
        decode(payload, 2**32 - 1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("codec, case", [
    ("ac", "1000 zeros"), ("ac", "a million zeros"), ("ppm", "empty"), ("ppm", "a million zeros"),
])
def test_lying_length_raises(codec, case):
    # Not bounded in time.  A run of zero octets, in the payload or read
    # past its end, decodes to the model's most probable octet again and
    # again: about 1,400 octets per payload octet for AC and tens of
    # thousands for PPM, so these take from half a second (AC) to
    # several seconds (PPM's empty payload).  A check of the declared
    # length against each model's best case would stop them before
    # decoding.
    payload, decode = _lying_payload(codec, case)
    with pytest.raises(CorruptStream):
        decode(payload, 2**32 - 1)


# Zero-heavy inputs end streams in long runs of zero octets: a random
# prefix, then a run of 0x00 or 0xFF, then a few zeros
_prefixed_runs = st.tuples(
    st.binary(max_size=200), st.sampled_from([0, 0xFF]), st.integers(0, 3000), st.integers(0, 3),
).map(lambda t: t[0] + bytes([t[1]]) * t[2] + bytes(t[3]))


def _round_trips_within_bound(alg, data):
    payload = compress(data, alg).payload
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rangecoder, "MAX_OVER_READ", OVER_READ_BOUND[alg])
        assert DECODERS[alg](payload, len(data)) == data


@pytest.mark.parametrize("alg", DECODERS, ids=lambda alg: alg.label)
@settings
@given(data=_prefixed_runs)
def test_zero_heavy_inputs_read_within_the_bound(alg, data):
    _round_trips_within_bound(alg, data)


@settings
@given(octet=st.sampled_from([0, 0xFF]), length=st.integers(1, bwt.BLOCK_SIZE))
@hypothesis.example(octet=0, length=2**16 - 1)
@hypothesis.example(octet=0, length=2**15 - 1)
@hypothesis.example(octet=0xFF, length=2**16)
def test_one_run_bwt_blocks_read_within_the_bound(octet, length):
    # one block, coded as its first token and then one zero run of up to
    # 16 digits; 2**k - 1 zero octets are k RUNA digits alone, which
    # never raise `low`, so the decoder reads all of its octets past the
    # end of an empty stream
    _round_trips_within_bound(AlgorithmId.BWT, bytes([octet]) * length)


def _read_to_the_limit(data):
    """Every octet that start(data)'s source yields after octets 0-4, up
    to the CorruptStream it raises."""
    octet = rangecoder.start(data)[2]
    read = []
    with pytest.raises(CorruptStream, match="reads past its end"):
        while True:
            read.append(octet())
    return read


@pytest.mark.parametrize("data, rest", [
    # octets 0-4 are read at start: for b"" all five are past the end
    # and take 5 of the 64, for b"\0" four of them do
    (b"", [0] * 59),
    (b"\0", [0] * 60),
    (b"\0\1\2\3\4\5", [5] + [0] * 64),
], ids=len)
def test_source_reads_zeros_up_to_the_limit(data, rest):
    assert _read_to_the_limit(data) == rest


def test_source_limit_is_read_at_start(monkeypatch):
    monkeypatch.setattr(rangecoder, "MAX_OVER_READ", 7)
    assert _read_to_the_limit(b"\0") == [0] * 3
    assert _read_to_the_limit(b"\0\1\2\3\4\5\6") == [5, 6] + [0] * 7
