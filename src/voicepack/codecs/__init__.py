"""Six lossless codecs behind one compress/decompress pair.

Every algorithm round-trips any octet sequence exactly.  The serialized
container is self-describing up to the codec parameters: magic "CVT1",
one algorithm octet, the original length as 4 octets big-endian, then
the algorithm's payload.  Parameters that change the decode side (LZW
code width, PPM order) are not serialized and must match between the
two ends; the defaults are the interoperable baseline.
"""

import struct
from dataclasses import dataclass
from enum import IntEnum

from voicepack.codecs import arith, bwt, huffman, lz, lzw, ppm
from voicepack.errors import BadMagic, CorruptStream, UnknownAlgorithm

MAGIC = b"CVT1"
HEADER_LEN = 9

_LEN = struct.Struct(">I")


class AlgorithmId(IntEnum):
    NONE = 0
    LZW = 1
    LZMA = 2
    HUFFMAN = 3
    PPM = 4
    AC = 5
    BWT = 6

    @property
    def label(self):
        return self.name.lower()

    @classmethod
    def from_label(cls, label):
        try:
            return cls[label.upper()]
        except KeyError:
            raise UnknownAlgorithm(f"no algorithm named {label!r}") from None


@dataclass(frozen=True)
class CodecConfig:
    """The decode-side parameters left open by the algorithm definitions."""

    lzw_max_code_bits: int = 14
    ppm_order: int = 3

    def __post_init__(self):
        if not 9 <= self.lzw_max_code_bits <= 16:
            raise ValueError("lzw_max_code_bits must be in 9..16")
        if not 0 <= self.ppm_order <= 8:
            raise ValueError("ppm_order must be in 0..8")


DEFAULT_CONFIG = CodecConfig()


@dataclass(frozen=True)
class CompressedBlob:
    """Self-describing compressed container."""

    algorithm: AlgorithmId
    original_len: int
    payload: bytes

    def to_bytes(self):
        return MAGIC + bytes([self.algorithm]) + _LEN.pack(self.original_len) + self.payload

    @classmethod
    def parse(cls, raw):
        if len(raw) < HEADER_LEN:
            raise BadMagic("blob shorter than its header")
        if raw[:4] != MAGIC:
            raise BadMagic(f"bad magic {raw[:4]!r}")
        alg_octet = raw[4]
        try:
            alg = AlgorithmId(alg_octet)
        except ValueError:
            raise UnknownAlgorithm(f"algorithm octet {alg_octet}") from None
        (original_len,) = _LEN.unpack_from(raw, 5)
        return cls(alg, original_len, bytes(raw[HEADER_LEN:]))


# algorithm -> (encode(data, cfg), decode(payload, original_len, cfg)).
# Each entry looks its codec function up when called, so code that
# replaces a module attribute (tracing, test doubles) sees the call.
_CODECS = {
    AlgorithmId.NONE: (
        lambda data, cfg: data,
        lambda payload, n, cfg: payload),
    AlgorithmId.LZW: (
        lambda data, cfg: lzw.encode_payload(data, cfg.lzw_max_code_bits),
        lambda payload, n, cfg: lzw.decode_payload(payload, n, cfg.lzw_max_code_bits)),
    AlgorithmId.LZMA: (
        lambda data, cfg: lz.encode_payload(data),
        lambda payload, n, cfg: lz.decode_payload(payload, n)),
    AlgorithmId.HUFFMAN: (
        lambda data, cfg: huffman.huffman_encode(data),
        lambda payload, n, cfg: huffman.huffman_decode(payload, n)),
    AlgorithmId.PPM: (
        lambda data, cfg: ppm.ppm_encode(data, cfg.ppm_order),
        lambda payload, n, cfg: ppm.ppm_decode(payload, n, cfg.ppm_order)),
    AlgorithmId.AC: (
        lambda data, cfg: arith.ac_encode(data),
        lambda payload, n, cfg: arith.ac_decode(payload, n)),
    AlgorithmId.BWT: (
        lambda data, cfg: bwt.encode_payload(data),
        lambda payload, n, cfg: bwt.decode_payload(payload, n)),
}


def compress(data, alg, cfg=DEFAULT_CONFIG):
    """Compress octets under one algorithm; deterministic per (data, alg, cfg)."""
    data = bytes(data)
    if len(data) >= 1 << 32:
        raise ValueError("input too large for a 32-bit length header")
    alg = AlgorithmId(alg)
    encode, _ = _CODECS[alg]
    return CompressedBlob(alg, len(data), encode(data, cfg))


def decompress(blob, cfg=DEFAULT_CONFIG):
    """Exact inverse of compress for the same configuration."""
    try:
        _, decode = _CODECS[blob.algorithm]
    except KeyError:
        raise UnknownAlgorithm(f"algorithm octet {blob.algorithm}") from None
    out = decode(blob.payload, blob.original_len, cfg)
    if len(out) != blob.original_len:
        raise CorruptStream("decoded length does not match header")
    return out
