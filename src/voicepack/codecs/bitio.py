"""Bit-level packing for the variable-width and prefix-code streams.

Bits are written most-significant first; the final partial octet is
zero-padded on the right.
"""

from voicepack.errors import CorruptStream


class BitWriter:
    """Accumulates variable-width integers into a byte buffer."""

    __slots__ = ("_buf", "_acc", "_nbits")

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value, width):
        """Append the low `width` bits of `value`."""
        self._acc = (self._acc << width) | (value & ((1 << width) - 1))
        self._nbits += width
        while self._nbits >= 8:
            self._nbits -= 8
            self._buf.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    @property
    def bit_length(self):
        return len(self._buf) * 8 + self._nbits

    def getvalue(self):
        """Return the packed bytes, zero-padding any trailing partial octet."""
        out = bytes(self._buf)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class BitReader:
    """Reads variable-width integers back out of a byte buffer."""

    __slots__ = ("_data", "_pos", "_acc", "_nbits")

    def __init__(self, data):
        self._data = data
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def read(self, width):
        """Read `width` bits; raises CorruptStream past the end of data."""
        while self._nbits < width:
            if self._pos >= len(self._data):
                raise CorruptStream("bit stream exhausted")
            self._acc = (self._acc << 8) | self._data[self._pos]
            self._pos += 1
            self._nbits += 8
        self._nbits -= width
        value = (self._acc >> self._nbits) & ((1 << width) - 1)
        self._acc &= (1 << self._nbits) - 1
        return value
