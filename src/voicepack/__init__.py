"""voicepack: lossless compression and SMS packetization for voice payloads.

The library compresses an opaque voice payload (any octet sequence) with
one of six algorithms, maps it onto extended-ASCII text, splits it into
concatenated SMS segments, and provides a benchmark harness comparing
the algorithms by character count and SMS count.
"""

from voicepack.codecs import (
    AlgorithmId,
    CompressedBlob,
    DEFAULT_CONFIG,
    compress,
    decompress,
)
from voicepack.pipeline import (
    SmsBundle,
    VoicePayload,
    bytes_to_ext_ascii,
    decode_message,
    encode_message,
    ext_ascii_to_bytes,
)
from voicepack.sms import (
    SmsSegment,
    TransportDir,
    inbox_collect,
    outbox_write,
    reassemble,
    segment,
    sms_count,
)
from voicepack import bench, errors

__version__ = "0.1.0"

__all__ = [
    "AlgorithmId",
    "CompressedBlob",
    "DEFAULT_CONFIG",
    "SmsBundle",
    "SmsSegment",
    "TransportDir",
    "VoicePayload",
    "bench",
    "bytes_to_ext_ascii",
    "compress",
    "decode_message",
    "decompress",
    "encode_message",
    "errors",
    "ext_ascii_to_bytes",
    "inbox_collect",
    "outbox_write",
    "reassemble",
    "segment",
    "sms_count",
    "__version__",
]
