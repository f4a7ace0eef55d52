import os
import random

import pytest

from voicepack.errors import (
    DuplicateConflict,
    MalformedSegmentFile,
    MissingSegment,
    MixedReference,
    TooManySegments,
)
from voicepack.sms import (
    MULTI_CAPACITY,
    SINGLE_CAPACITY,
    UDH_LEN,
    SmsSegment,
    TransportDir,
    inbox_collect,
    outbox_write,
    reassemble,
    segment,
    sms_count,
)


def test_capacity_constants_consistent():
    assert SINGLE_CAPACITY - UDH_LEN == MULTI_CAPACITY == 134


@pytest.mark.parametrize("n,count", [
    (0, 1), (1, 1), (140, 1), (141, 2), (268, 2), (269, 3),
    (1340, 10), (34170, 255),
])
def test_sms_count_fixtures(n, count):
    assert sms_count(n) == count


def test_sms_count_nondecreasing():
    last = 0
    for n in range(0, 3000):
        c = sms_count(n)
        assert c >= last
        last = c


def test_segment_single():
    payload = bytes(140)
    parts = segment(payload, 9)
    assert len(parts) == 1
    assert parts[0].body == payload
    assert (parts[0].total, parts[0].seq) == (1, 1)


def test_segment_exact_fill():
    parts = segment(bytes(268), 9)
    assert [len(p.body) for p in parts] == [134, 134]


def test_segment_full_bodies_except_last():
    payload = os.urandom(1000)
    parts = segment(payload, 3)
    assert [len(p.body) for p in parts[:-1]] == [134] * (len(parts) - 1)
    assert b"".join(p.body for p in parts) == payload


def test_segment_too_many():
    with pytest.raises(TooManySegments):
        segment(bytes(34_171), 1)


def test_segment_empty_payload_occupies_one():
    parts = segment(b"", 4)
    assert len(parts) == 1
    assert parts[0].body == b""


def test_reassemble_out_of_order():
    payload = os.urandom(260)
    parts = segment(payload, 7)
    assert reassemble(list(reversed(parts))) == payload


def test_reassemble_shuffled_random():
    rng = random.Random(55)
    for _ in range(20):
        payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 30_000)))
        parts = segment(payload, 8)
        rng.shuffle(parts)
        assert reassemble(parts) == payload


def test_reassemble_missing_segment():
    parts = segment(bytes(500), 2)
    with pytest.raises(MissingSegment) as info:
        reassemble([parts[0], parts[2], parts[3]])
    assert info.value.missing == [2]


def test_reassemble_nothing_says_so():
    with pytest.raises(MissingSegment, match="^no segments to reassemble$") as info:
        reassemble([])
    assert info.value.missing == []


def test_reassemble_mixed_reference():
    a = segment(bytes(300), 1)
    b = segment(bytes(300), 2)
    with pytest.raises(MixedReference):
        reassemble([a[0], b[1]])


def test_reassemble_duplicate_identical_ok():
    parts = segment(bytes(300), 1)
    assert reassemble(parts + [parts[1]]) == bytes(300)


def test_reassemble_duplicate_conflict():
    parts = segment(bytes(300), 1)
    fake = SmsSegment(1, parts[0].total, 2, b"x" * 134)
    with pytest.raises(DuplicateConflict):
        reassemble(parts + [fake])


def test_segment_validation():
    with pytest.raises(ValueError):
        SmsSegment(256, 1, 1, b"")
    with pytest.raises(ValueError):
        SmsSegment(0, 0, 1, b"")
    with pytest.raises(ValueError):
        SmsSegment(0, 2, 3, b"")
    with pytest.raises(ValueError):
        SmsSegment(0, 1, 1, bytes(141))
    with pytest.raises(ValueError):
        SmsSegment(0, 2, 1, bytes(135))


def test_outbox_naming_and_format(tmp_path):
    tdir = TransportDir.under(tmp_path)
    seg = SmsSegment(7, 2, 1, b"BODY")
    path = outbox_write(seg, tdir)
    assert path.name == "007_001_of_002.sms"
    assert path.read_bytes() == bytes([5, 0, 3, 7, 2, 1]) + b"BODY"


def test_outbox_idempotent(tmp_path):
    tdir = TransportDir.under(tmp_path)
    seg = SmsSegment(7, 1, 1, b"same")
    p1 = outbox_write(seg, tdir)
    p2 = outbox_write(seg, tdir)
    assert p1 == p2
    assert sorted(tdir.outbox.iterdir()) == [p1]


def test_outbox_unusable_dir_surfaces_oserror(tmp_path):
    # a transport root whose outbox is not a directory (permission checks
    # are unreliable under uid 0, so use a structural failure)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_bytes(b"")
    tdir = TransportDir(outbox=not_a_dir / "outbox", inbox=tmp_path)
    with pytest.raises(OSError):
        outbox_write(SmsSegment(1, 1, 1, b"x"), tdir)


def test_inbox_empty(tmp_path):
    tdir = TransportDir.under(tmp_path)
    assert inbox_collect(tdir, 5) == []


def test_inbox_missing_dir_is_empty(tmp_path):
    tdir = TransportDir(outbox=tmp_path, inbox=tmp_path / "absent")
    assert inbox_collect(tdir, 5) == []


def test_inbox_roundtrip_with_outbox(tmp_path):
    tdir = TransportDir.under(tmp_path)
    payload = os.urandom(400)
    parts = segment(payload, 12)
    for seg in reversed(parts):
        # transport loopback: drop outbox files into the inbox
        data = (tdir.inbox / seg.filename())
        data.write_bytes(seg.to_bytes())
    got = inbox_collect(tdir, 12)
    assert [s.seq for s in got] == [1, 2, 3]
    assert reassemble(got) == payload


def test_inbox_ignores_other_references(tmp_path):
    tdir = TransportDir.under(tmp_path)
    for ref in (3, 4):
        for seg in segment(bytes(10), ref):
            (tdir.inbox / seg.filename()).write_bytes(seg.to_bytes())
    assert all(s.reference == 3 for s in inbox_collect(tdir, 3))


def test_inbox_malformed_header(tmp_path):
    tdir = TransportDir.under(tmp_path)
    (tdir.inbox / "001_001_of_001.sms").write_bytes(b"\x06\x08\x04\x01\x01\x01")
    with pytest.raises(MalformedSegmentFile):
        inbox_collect(tdir, 1)


def test_inbox_truncated_file(tmp_path):
    tdir = TransportDir.under(tmp_path)
    (tdir.inbox / "001_001_of_001.sms").write_bytes(b"\x05\x00")
    with pytest.raises(MalformedSegmentFile):
        inbox_collect(tdir, 1)


def test_inbox_name_header_mismatch(tmp_path):
    tdir = TransportDir.under(tmp_path)
    seg = SmsSegment(1, 2, 1, b"a")
    (tdir.inbox / "001_002_of_002.sms").write_bytes(seg.to_bytes())
    with pytest.raises(MalformedSegmentFile):
        inbox_collect(tdir, 1)


def test_inbox_overlong_body(tmp_path):
    tdir = TransportDir.under(tmp_path)
    raw = bytes([5, 0, 3, 1, 2, 1]) + bytes(135)
    (tdir.inbox / "001_001_of_002.sms").write_bytes(raw)
    with pytest.raises(MalformedSegmentFile):
        inbox_collect(tdir, 1)


def test_inbox_malformed_name_names_the_file(tmp_path):
    tdir = TransportDir.under(tmp_path)
    (tdir.inbox / "001_x_of_001.sms").write_bytes(SmsSegment(1, 1, 1, b"a").to_bytes())
    with pytest.raises(MalformedSegmentFile) as info:
        inbox_collect(tdir, 1)
    assert str(info.value).startswith("001_x_of_001.sms:")


def test_inbox_ignores_tmp_files_and_longer_references(tmp_path):
    tdir = TransportDir.under(tmp_path)
    seg = SmsSegment(1, 1, 1, b"kept")
    (tdir.inbox / seg.filename()).write_bytes(seg.to_bytes())
    (tdir.inbox / "001_001_of_001.sms.tmp").write_bytes(b"partial")
    (tdir.inbox / "0010_001_of_001.sms").write_bytes(SmsSegment(10, 1, 1, b"x").to_bytes())
    (tdir.inbox / "002_001_of_001.sms").write_bytes(SmsSegment(2, 1, 1, b"y").to_bytes())
    assert inbox_collect(tdir, 1) == [seg]


@pytest.mark.parametrize("names", [
    ("001_2_of_2.sms", "001_001_of_002.sms"),
    # "001_002..." sorts before "001_1...": only the sort by seq orders these
    ("001_002_of_002.sms", "001_1_of_2.sms"),
])
def test_inbox_padded_and_unpadded_names_in_seq_order(tmp_path, names):
    tdir = TransportDir.under(tmp_path)
    parts = segment(bytes(range(200)), 1)
    for name in names:
        seq = int(name.split("_")[1])
        (tdir.inbox / name).write_bytes(parts[seq - 1].to_bytes())
    assert inbox_collect(tdir, 1) == parts


def test_outbox_replaces_different_content(tmp_path):
    tdir = TransportDir.under(tmp_path)
    seg = SmsSegment(7, 1, 1, b"new")
    (tdir.outbox / seg.filename()).write_bytes(b"stale content")
    path = outbox_write(seg, tdir)
    assert path.read_bytes() == seg.to_bytes()
    assert sorted(tdir.outbox.iterdir()) == [path]


def test_outbox_renames_tmp_file_onto_name(tmp_path, monkeypatch):
    renames = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (
        renames.append((str(src), str(dst))), real_replace(src, dst)))
    path = outbox_write(SmsSegment(7, 2, 1, b"BODY"), TransportDir.under(tmp_path))
    assert renames == [(f"{path}.tmp", str(path))]


def test_inbox_rejects_oversized_file(tmp_path):
    tdir = TransportDir.under(tmp_path)
    raw = bytes([5, 0, 3, 1, 1, 1]) + bytes(4096 - UDH_LEN)
    (tdir.inbox / "001_001_of_001.sms").write_bytes(raw)
    with pytest.raises(MalformedSegmentFile):
        inbox_collect(tdir, 1)
