import os
import random

import pytest

from voicepack.codecs import AlgorithmId, CompressedBlob
from voicepack.errors import MissingSegment, NonExtAsciiCodePoint
from voicepack.pipeline import (
    SmsBundle,
    VoicePayload,
    bytes_to_ext_ascii,
    decode_message,
    encode_message,
    ext_ascii_to_bytes,
)

def test_bytes_to_ext_ascii_identity():
    assert bytes_to_ext_ascii(b"\x48\x69") == "Hi"
    assert bytes_to_ext_ascii(b"\xff") == "ÿ"
    assert bytes_to_ext_ascii(b"") == ""


def test_ext_ascii_to_bytes_inverse():
    assert ext_ascii_to_bytes("Hi") == b"\x48\x69"
    with pytest.raises(NonExtAsciiCodePoint):
        ext_ascii_to_bytes("Ā")


def test_full_range_bijection():
    data = bytes(range(256))
    text = bytes_to_ext_ascii(data)
    assert len(text) == 256
    assert all(ord(c) < 256 for c in text)
    assert ext_ascii_to_bytes(text) == data


def test_character_count_equals_blob_length():
    data = os.urandom(700)
    bundle = encode_message(VoicePayload(data), AlgorithmId.LZW, ref=3)
    blob_bytes = b"".join(s.body for s in bundle.segments)
    assert len(bytes_to_ext_ascii(blob_bytes)) == len(blob_bytes)


def test_empty_payload_none_single_segment():
    bundle = encode_message(VoicePayload(b""), AlgorithmId.NONE, ref=1)
    assert len(bundle.segments) == 1
    assert len(bundle.segments[0].body) == 6  # header-only container


def test_thousand_octets_none_eight_segments():
    data = os.urandom(1000)
    bundle = encode_message(VoicePayload(data), AlgorithmId.NONE, ref=1)
    assert len(bundle.segments) == 8  # ceil(1007 / 134)


def test_roundtrip_every_algorithm():
    rng = random.Random(60)
    data = bytes(rng.choice(b"abcdefgh ") for _ in range(5000))
    for alg in AlgorithmId:
        bundle = encode_message(VoicePayload(data), alg, ref=9)
        assert bundle.algorithm == alg
        back = decode_message(bundle)
        assert back.data == data


def test_bundle_segments_share_reference_and_total():
    bundle = encode_message(VoicePayload(os.urandom(900)), AlgorithmId.NONE, ref=77)
    totals = {s.total for s in bundle.segments}
    refs = {s.reference for s in bundle.segments}
    assert totals == {len(bundle.segments)}
    assert refs == {77}
    assert [s.seq for s in bundle.segments] == list(range(1, len(bundle.segments) + 1))


def test_segment_count_matches_sms_count():
    # cross-module consistency: bundle size == sms_count(blob length)
    from voicepack.sms import sms_count
    rng = random.Random(61)
    for n in (0, 1, 131, 132, 800, 5000):
        data = bytes(rng.getrandbits(8) for _ in range(n))
        for alg in (AlgorithmId.NONE, AlgorithmId.PPM):
            bundle = encode_message(VoicePayload(data), alg, ref=1)
            blob_len = sum(len(s.body) for s in bundle.segments)
            assert len(bundle.segments) == sms_count(blob_len)


def test_missing_segment_reported():
    bundle = encode_message(VoicePayload(os.urandom(500)), AlgorithmId.NONE, ref=5)
    broken = SmsBundle(5, bundle.segments[:1] + bundle.segments[2:], AlgorithmId.NONE)
    with pytest.raises(MissingSegment) as info:
        decode_message(broken)
    assert info.value.missing == [2]


def test_duplicate_segment_deduplicated():
    # transport replay: the same segment delivered twice decodes cleanly
    bundle = encode_message(VoicePayload(os.urandom(400)), AlgorithmId.NONE, ref=5)
    replayed = SmsBundle(5, bundle.segments + (bundle.segments[1],), AlgorithmId.NONE)
    assert decode_message(replayed).data == decode_message(bundle).data


def test_segments_carry_serialized_blob():
    data = b"voice voice voice"
    bundle = encode_message(VoicePayload(data), AlgorithmId.HUFFMAN, ref=1)
    blob = CompressedBlob.parse(b"".join(s.body for s in bundle.segments))
    assert blob.algorithm == AlgorithmId.HUFFMAN
    assert blob.original_len == len(data)


def test_accepts_raw_bytes():
    assert decode_message(encode_message(b"abc", AlgorithmId.AC, ref=0)).data == b"abc"
