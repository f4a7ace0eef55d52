#!/usr/bin/env python3
"""End-to-end walk: voice payload -> compressed text -> SMS files -> back.

Follows the whole path one stage at a time: the byte/extended-ASCII
mapping, compression, segmentation into concatenated SMS parts, the
file transport (outbox moved to inbox), and exact recovery.
"""

import shutil
import tempfile
from pathlib import Path

from voicepack import (
    AlgorithmId,
    TransportDir,
    VoicePayload,
    bytes_to_ext_ascii,
    decode_message,
    encode_message,
    ext_ascii_to_bytes,
    inbox_collect,
    outbox_write,
)
from voicepack.pipeline import SmsBundle

payload = VoicePayload(bytes(range(256)) * 8)
print(f"voice payload: {len(payload.data)} octets")

# stage 1: every octet maps onto one extended-ASCII character, so the
# character count equals the octet count at each step
text = bytes_to_ext_ascii(payload.data[:16])
print(f"first 16 octets as characters: {text!r}")
assert ext_ascii_to_bytes(text) == payload.data[:16]

# stage 2+3: compress and split into concatenated SMS segments
bundle = encode_message(payload, AlgorithmId.PPM, ref=7)
print(f"compressed with {bundle.algorithm.label} into "
      f"{len(bundle.segments)} SMS segment(s)")
for seg in bundle.segments[:3]:
    print(f"  part {seg.seq}/{seg.total}: {len(seg.body)} octets")

# stage 4: carry the segments through the directory transport
root = Path(tempfile.mkdtemp(prefix="voicepack_demo_"))
tdir = TransportDir.under(root)
for seg in bundle.segments:
    outbox_write(seg, tdir)
print(f"wrote {len(bundle.segments)} file(s) under {tdir.outbox}")

for f in sorted(tdir.outbox.iterdir()):   # the radio link, played by mv
    shutil.move(str(f), tdir.inbox / f.name)

# stage 5: receive side reassembles and decodes
received = inbox_collect(tdir, ref=7)
restored = decode_message(SmsBundle(7, tuple(received), bundle.algorithm))
assert restored.data == payload.data
print("received payload is byte-for-byte identical")

shutil.rmtree(root)
