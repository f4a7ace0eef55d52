"""Exception types shared across the toolkit."""


class VoicepackError(Exception):
    """Base class for all toolkit errors."""


class BadMagic(VoicepackError):
    """Serialized blob has no valid container header: a bad first octet
    or magic, a length not in minimal LEB128 or over 2**32 - 1, or too
    few octets."""


class UnknownAlgorithm(VoicepackError):
    """Algorithm octet in a blob header is not one of the known values."""


class CorruptStream(VoicepackError):
    """Compressed payload cannot be decoded: truncated bits, an index out
    of range, or content inconsistent with the declared original length."""


class EmptyAlphabet(VoicepackError):
    """Huffman table requested for an empty frequency map."""


class NonExtAsciiCodePoint(VoicepackError):
    """Text contains a code point above 255 and cannot map back to octets."""


class MissingSegment(VoicepackError):
    """Bundle reassembly found gaps in the sequence numbers, or no segment."""

    def __init__(self, missing, message=None):
        self.missing = sorted(missing)
        super().__init__(message or f"missing segment(s): {self.missing}")


class MixedReference(VoicepackError):
    """Segments from different messages were mixed in one reassembly."""


class DuplicateConflict(VoicepackError):
    """Two segments claim the same sequence number with different bodies."""


class TooManySegments(VoicepackError):
    """Payload needs more than 255 concatenated parts."""


class MalformedSegmentFile(VoicepackError):
    """Segment file has a bad header or an impossible body length."""


class ZeroCompressedSize(VoicepackError):
    """Compression ratio requested with a zero compressed size."""
