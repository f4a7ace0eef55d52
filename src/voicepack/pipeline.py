"""End-to-end path from a voice payload to an SMS bundle and back.

Payload octets map one-to-one onto the 256 extended-ASCII code points
(the Latin-1 identity), so character counts equal octet counts at every
stage.  What actually rides in the segments is the serialized compressed
container, making a received bundle self-describing.
"""

from dataclasses import dataclass

from voicepack import sms
from voicepack.codecs import AlgorithmId, CompressedBlob, compress, decompress
from voicepack.errors import NonExtAsciiCodePoint


@dataclass(frozen=True)
class VoicePayload:
    data: bytes
    source_label: str = ""


@dataclass(frozen=True)
class SmsBundle:
    reference: int
    segments: tuple
    algorithm: AlgorithmId  # None for a received bundle: the container names it


def bytes_to_ext_ascii(data):
    """Each octet becomes the code point of the same value."""
    return bytes(data).decode("latin-1")


def ext_ascii_to_bytes(text):
    """Exact inverse of bytes_to_ext_ascii; rejects code points above 255."""
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise NonExtAsciiCodePoint(
            f"code point U+{ord(text[exc.start]):04X} does not fit one octet") from None


def encode_message(voice, alg, ref=0):
    """Compress a payload and split the serialized blob into segments."""
    if isinstance(voice, (bytes, bytearray)):
        voice = VoicePayload(bytes(voice))
    alg = AlgorithmId(alg)
    blob = compress(voice.data, alg)
    parts = sms.segment(blob.to_bytes(), ref)
    return SmsBundle(ref, tuple(parts), alg)


def decode_message(bundle):
    """Reassemble, parse and decompress a bundle back to the payload."""
    raw = sms.reassemble(list(bundle.segments))
    blob = CompressedBlob.parse(raw)
    data = decompress(blob)
    return VoicePayload(data, f"sms ref {bundle.reference}")
