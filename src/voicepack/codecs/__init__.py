"""Six lossless codecs behind one compress/decompress pair.

Every algorithm round-trips any octet sequence exactly.  The serialized
container is self-describing.  compress writes a CVT2 container: one
octet 0x80 | algorithm, the original length as minimal LEB128 (1-5
octets, at most 2**32 - 1), the CRC-32 of the original (zlib.crc32, 4
octets big-endian, as in the gzip trailer of RFC 1952), then the
algorithm's payload; decompress checks the CRC.  Every codec parameter
is a fixed constant, so the container is all a receiver needs.

The older CVT1 container is still read, never written: magic "CVT1",
one algorithm octet, the original length as 4 octets big-endian, then
the payload, with no CRC and Huffman's frequency header.  Its first
octet, "C" (0x43), has the top bit clear, which tells the two apart.
"""

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

from voicepack.codecs import arith, bwt, huffman, lz, lzw, ppm
from voicepack.errors import BadMagic, CorruptStream, UnknownAlgorithm

CVT2_FLAG = 0x80
MAX_LEN = (1 << 32) - 1

MAGIC = b"CVT1"
HEADER_LEN = 9

_U32 = struct.Struct(">I")


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
    """The PPM order the benchmark's update replay uses; no codec reads it."""

    ppm_order: int = ppm.ORDER


DEFAULT_CONFIG = CodecConfig()


@dataclass(frozen=True)
class CompressedBlob:
    """Self-describing compressed container; crc is None for CVT1."""

    algorithm: AlgorithmId
    original_len: int
    payload: bytes
    crc: int | None = None

    def to_bytes(self):
        if self.crc is None:
            raise ValueError("CVT1 containers are read, never written")
        return (bytes([CVT2_FLAG | self.algorithm]) + _leb128(self.original_len)
                + _U32.pack(self.crc) + self.payload)

    @classmethod
    def parse(cls, raw):
        if not raw:
            raise BadMagic("empty container")
        if raw[0] == MAGIC[0]:
            return cls._parse_cvt1(raw)
        if raw[0] < CVT2_FLAG:
            raise BadMagic(f"bad first octet {raw[0]:#04x}")
        alg = _algorithm(raw[0] & 0x7F)
        original_len, at = _read_leb128(raw, 1)
        if len(raw) < at + _U32.size:
            raise BadMagic("container shorter than its header")
        (crc,) = _U32.unpack_from(raw, at)
        return cls(alg, original_len, bytes(raw[at + _U32.size:]), crc)

    @classmethod
    def _parse_cvt1(cls, raw):
        if len(raw) < HEADER_LEN:
            raise BadMagic("blob shorter than its header")
        if raw[:4] != MAGIC:
            raise BadMagic(f"bad magic {raw[:4]!r}")
        (original_len,) = _U32.unpack_from(raw, 5)
        return cls(_algorithm(raw[4]), original_len, bytes(raw[HEADER_LEN:]))


def _algorithm(octet):
    try:
        return AlgorithmId(octet)
    except ValueError:
        raise UnknownAlgorithm(f"algorithm octet {octet}") from None


def _leb128(n):
    """n as LEB128: 7 bits per octet, least significant first, the top
    bit set on every octet but the last."""
    out = bytearray()
    while n >= 0x80:
        out.append(0x80 | n & 0x7F)
        n >>= 7
    out.append(n)
    return bytes(out)


def _read_leb128(raw, at):
    """(value, end) of the minimal LEB128 of at most MAX_LEN at raw[at:]."""
    value = 0
    for i in range(at, min(len(raw), at + 5)):
        value |= (raw[i] & 0x7F) << 7 * (i - at)
        if raw[i] < 0x80:
            if raw[i] == 0 and i > at:
                raise BadMagic("original length not in minimal LEB128")
            if value > MAX_LEN:
                raise BadMagic("original length over 2**32 - 1")
            return value, i + 1
    raise BadMagic("original length truncated or over 5 octets")


# algorithm -> (encode(data), decode(payload, original_len)).
# Each entry looks its codec function up when called, so code that
# replaces a module attribute (tracing, test doubles) sees the call.
_CODECS = {
    AlgorithmId.NONE: (
        lambda data: data,
        lambda payload, n: payload),
    AlgorithmId.LZW: (
        lambda data: lzw.encode_payload(data),
        lambda payload, n: lzw.decode_payload(payload, n)),
    AlgorithmId.LZMA: (
        lambda data: lz.encode_payload(data),
        lambda payload, n: lz.decode_payload(payload, n)),
    AlgorithmId.HUFFMAN: (
        lambda data: huffman.huffman_encode(data),
        lambda payload, n: huffman.huffman_decode(payload, n)),
    AlgorithmId.PPM: (
        lambda data: ppm.ppm_encode(data),
        lambda payload, n: ppm.ppm_decode(payload, n)),
    AlgorithmId.AC: (
        lambda data: arith.ac_encode(data),
        lambda payload, n: arith.ac_decode(payload, n)),
    AlgorithmId.BWT: (
        lambda data: bwt.encode_payload(data),
        lambda payload, n: bwt.decode_payload(payload, n)),
}


def compress(data, alg):
    """Compress octets under one algorithm; deterministic per (data, alg)."""
    data = bytes(data)
    if len(data) > MAX_LEN:
        raise ValueError("input too large for a 32-bit length header")
    alg = AlgorithmId(alg)
    encode, _ = _CODECS[alg]
    return CompressedBlob(alg, len(data), encode(data), zlib.crc32(data))


def decompress(blob):
    """Exact inverse of compress; also decodes a parsed CVT1 container."""
    try:
        _, decode = _CODECS[blob.algorithm]
    except KeyError:
        raise UnknownAlgorithm(f"algorithm octet {blob.algorithm}") from None
    if blob.crc is None and blob.algorithm == AlgorithmId.HUFFMAN:
        decode = huffman.huffman_decode_cvt1
    out = decode(blob.payload, blob.original_len)
    if len(out) != blob.original_len:
        raise CorruptStream("decoded length does not match header")
    if blob.crc is not None and zlib.crc32(out) != blob.crc:
        raise CorruptStream("CRC-32 of the decoded octets does not match the container")
    return out
