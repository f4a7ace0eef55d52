"""Concatenated-SMS segmentation, reassembly and a file-based transport.

A single 8-bit-data SMS carries SINGLE_CAPACITY octets.  Multipart
messages spend UDH_LEN octets per part on the concatenation user-data
header (05 00 03, reference, total, sequence), leaving MULTI_CAPACITY
octets of body.  The 8-bit part counter caps a message at 255 parts.

The transport is an outbox/inbox directory pair standing in for a modem.
A modem driver meets the same contract:

- one file per segment, named <ref>_<seq>_of_<total>.sms with each
  number zero-padded to three decimal digits (007_001_of_002.sms);
- the file holds the 6-octet user-data header (UDH) followed by the
  body verbatim;
- each file is written to <name>.tmp and then renamed to <name>, so a
  reader never sees a partial file;
- receiving a reference reads every inbox name matching
  <ref:03d>_*_of_*.sms (unpadded seq and total digits are accepted);
  each header must agree with its name, and a file of more than
  UDH_LEN + SINGLE_CAPACITY octets is rejected.
"""

import fnmatch
import math
import os
from dataclasses import dataclass
from pathlib import Path

from voicepack.errors import (
    DuplicateConflict,
    MalformedSegmentFile,
    MissingSegment,
    MixedReference,
    TooManySegments,
)

SINGLE_CAPACITY = 140
UDH_LEN = 6
MULTI_CAPACITY = SINGLE_CAPACITY - UDH_LEN
MAX_PARTS = 255

_UDH_PREFIX = b"\x05\x00\x03"
# one octet past the largest valid segment file, so an overlong file
# still reads as overlong and is rejected
_READ_LIMIT = UDH_LEN + SINGLE_CAPACITY + 1


@dataclass(frozen=True)
class SmsSegment:
    reference: int
    total: int
    seq: int
    body: bytes

    def __post_init__(self):
        if not 0 <= self.reference <= 255:
            raise ValueError("reference must fit one octet")
        if not 1 <= self.total <= MAX_PARTS:
            raise ValueError("total must be in 1..255")
        if not 1 <= self.seq <= self.total:
            raise ValueError("seq must be in 1..total")
        cap = SINGLE_CAPACITY if self.total == 1 else MULTI_CAPACITY
        if len(self.body) > cap:
            raise ValueError(f"body exceeds {cap} octets")

    def filename(self):
        return f"{self.reference:03d}_{self.seq:03d}_of_{self.total:03d}.sms"

    def to_bytes(self):
        return _UDH_PREFIX + bytes([self.reference, self.total, self.seq]) + self.body


def sms_count(payload_len):
    """Number of SMS a payload occupies; an empty message still takes one."""
    if payload_len <= SINGLE_CAPACITY:
        return 1
    return math.ceil(payload_len / MULTI_CAPACITY)


def segment(payload, ref):
    """Split a payload into ordered segments sharing one reference."""
    payload = bytes(payload)
    count = sms_count(len(payload))
    if count > MAX_PARTS:
        raise TooManySegments(f"payload needs {count} parts, limit is {MAX_PARTS}")
    if count == 1:
        return [SmsSegment(ref, 1, 1, payload)]
    return [
        SmsSegment(ref, count, i + 1, payload[i * MULTI_CAPACITY:(i + 1) * MULTI_CAPACITY])
        for i in range(count)
    ]


def reassemble(segments):
    """Concatenate segment bodies in sequence order; inverse of segment().

    Tolerates out-of-order delivery and duplicated segments with identical
    bodies; conflicting duplicates and cross-message mixtures are errors.
    """
    if not segments:
        raise MissingSegment(range(0))
    keys = {(s.reference, s.total) for s in segments}
    if len(keys) > 1:
        raise MixedReference(f"segments from {len(keys)} different messages")
    ((_, total),) = keys
    by_seq = {}
    for s in segments:
        prior = by_seq.get(s.seq)
        if prior is not None and prior.body != s.body:
            raise DuplicateConflict(f"segment {s.seq} delivered with two different bodies")
        by_seq[s.seq] = s
    missing = [i for i in range(1, total + 1) if i not in by_seq]
    if missing:
        raise MissingSegment(missing)
    return b"".join(by_seq[i].body for i in range(1, total + 1))


@dataclass(frozen=True)
class TransportDir:
    outbox: Path
    inbox: Path

    @classmethod
    def under(cls, root):
        """Create (if needed) outbox/ and inbox/ beneath one root."""
        root = Path(root)
        outbox = root / "outbox"
        inbox = root / "inbox"
        outbox.mkdir(parents=True, exist_ok=True)
        inbox.mkdir(parents=True, exist_ok=True)
        return cls(outbox, inbox)


def _read_file(path):
    """At most _READ_LIMIT octets of one file, in a single read."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, _READ_LIMIT)
    finally:
        os.close(fd)


def outbox_write(seg, tdir):
    """Write one segment file through `<name>.tmp` and a rename; a file
    already holding exactly this segment is left as it is, so a retried
    `send` never re-creates a file that a modem driver has already queued."""
    path = os.path.join(tdir.outbox, seg.filename())
    data = seg.to_bytes()
    if os.path.exists(path) and _read_file(path) == data:
        return Path(path)
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        if os.write(fd, data) != len(data):
            raise OSError(f"{tmp}: short write")
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return Path(path)


def _parse_segment_file(name, data):
    if len(data) < UDH_LEN or data[:3] != _UDH_PREFIX:
        raise MalformedSegmentFile(f"{name}: bad user-data header")
    ref, total, seq = data[3], data[4], data[5]
    stem_parts = name[:-len(".sms")].split("_")
    if len(stem_parts) != 4 or stem_parts[2] != "of":
        raise MalformedSegmentFile(f"{name}: unrecognized name")
    try:
        name_ref, name_seq, name_total = (
            int(stem_parts[0]), int(stem_parts[1]), int(stem_parts[3]))
    except ValueError:
        raise MalformedSegmentFile(f"{name}: unrecognized name") from None
    if (name_ref, name_seq, name_total) != (ref, seq, total):
        raise MalformedSegmentFile(f"{name}: name disagrees with header")
    try:
        return SmsSegment(ref, total, seq, data[UDH_LEN:])
    except ValueError as exc:
        raise MalformedSegmentFile(f"{name}: {exc}") from None


def inbox_collect(tdir, ref):
    """Parse every inbox file carrying `ref`, in sequence order."""
    if not 0 <= ref <= 255:
        raise ValueError("reference must fit one octet")
    inbox = tdir.inbox
    try:
        listing = os.listdir(inbox)
    except (FileNotFoundError, NotADirectoryError):
        return []  # no inbox yet holds no segments
    names = sorted(fnmatch.filter(listing, f"{ref:03d}_*_of_*.sms"))
    segments = [_parse_segment_file(name, _read_file(os.path.join(inbox, name)))
                for name in names]
    segments.sort(key=lambda s: s.seq)
    return segments
