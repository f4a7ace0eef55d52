"""LZW with variable-width codes and a freeze-on-full dictionary.

Codes start at 9 bits and widen by one bit whenever the next dictionary
slot would overflow the current width, up to `max_code_bits`.  Once the
dictionary holds 2**max_code_bits entries it freezes: no further entries
are added and coding continues with the full table.  The packed payload
carries no code count; the decoder stops once it has produced the
declared number of octets.  Codes are packed most-significant bit
first; the final partial octet is zero-padded on the right.
"""

from voicepack.errors import CorruptStream

_FIRST_FREE = 256
_START_WIDTH = 9

_SINGLE = [bytes([i]) for i in range(256)]


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


def lzw_encode(data, max_code_bits):
    """Return the LZW code sequence for `data`.

    The dictionary is keyed on (prefix code, next octet) pairs, which is
    equivalent to string keys but avoids building the strings.
    """
    if not data:
        return []
    table = {}
    next_code = _FIRST_FREE
    cap = 1 << max_code_bits
    codes = []
    cur = data[0]
    for b in memoryview(data)[1:]:
        key = (cur, b)
        entry = table.get(key)
        if entry is not None:
            cur = entry
        else:
            codes.append(cur)
            if next_code < cap:
                table[key] = next_code
                next_code += 1
            cur = b
    codes.append(cur)
    return codes


def code_widths(n_codes, max_code_bits):
    """Bit width used for each code position in the packed stream.

    Pure function of position: the dictionary gains one entry per code
    after the first (until frozen), so both ends track the width without
    looking at code values.
    """
    widths = []
    w = _START_WIDTH
    threshold = 1 << w
    next_code = _FIRST_FREE
    cap = 1 << max_code_bits
    for j in range(n_codes):
        if j:
            if next_code >= threshold and w < max_code_bits:
                w += 1
                threshold <<= 1
        widths.append(w)
        if j and next_code < cap:
            next_code += 1
    return widths


def pack_codes(codes, max_code_bits):
    """Pack a code sequence into the variable-width bitstream."""
    bw = BitWriter()
    for code, width in zip(codes, code_widths(len(codes), max_code_bits)):
        bw.write(code, width)
    return bw.getvalue()


def encode_payload(data, max_code_bits):
    return pack_codes(lzw_encode(data, max_code_bits), max_code_bits)


def decode_payload(payload, original_len, max_code_bits):
    """Decode a packed stream, stopping at the declared output length."""
    if original_len == 0:
        return b""
    br = BitReader(payload)
    w = _START_WIDTH
    threshold = 1 << w
    next_code = _FIRST_FREE
    cap = 1 << max_code_bits

    first = br.read(w)
    if first > 255:
        raise CorruptStream(f"first LZW code {first} is not a literal")
    entries = []
    prev = _SINGLE[first]
    out = bytearray(prev)
    while len(out) < original_len:
        if next_code >= threshold and w < max_code_bits:
            w += 1
            threshold <<= 1
        code = br.read(w)
        if code < 256:
            entry = _SINGLE[code]
        elif code - _FIRST_FREE < len(entries):
            entry = entries[code - _FIRST_FREE]
        elif code == next_code and next_code < cap:
            entry = prev + prev[:1]
        else:
            raise CorruptStream(f"LZW code {code} exceeds next free slot {next_code}")
        out += entry
        if next_code < cap:
            entries.append(prev + entry[:1])
            next_code += 1
        prev = entry
    if len(out) != original_len:
        raise CorruptStream("LZW stream does not align with declared length")
    return bytes(out)
