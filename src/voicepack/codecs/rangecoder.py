"""32-bit range coder shared by the arithmetic, PPM and LZ back ends.

The coder keeps a 32-bit `range` register and renormalizes one octet at a
time.  The encoder holds its output until finish() and adds a carry
out of `low` into the octets already written, so `low` never needs more
than 33 bits.  Three symbol interfaces are exposed:

* frequency coding against an explicit (cumulative, frequency, total)
  triple, for the adaptive byte models; only the encoder has it, as
  encode(), since every frequency decoder takes the registers over (see
  Registers below);
* adaptive binary decisions against 11-bit probability cells, for the
  LZ token coder;
* direct bits at probability one half, for match-offset tails.

A binary decision renormalizes with one shift at most.  A cell moves a
32nd of its distance to the coded bit, rounded down, so it stays in
[31, 2017] out of 2048.  Either side of a range of at least TOP = 2**24
then keeps at least 2**13 * 31 > 2**16, which one 8-bit shift brings
back to TOP.  Frequency coding can narrow further and loops.

A decoder reading past the end of its buffer sees zero octets, which lets
an encoder trim trailing zeros without changing the decoded stream.

Registers: encode_bit, encode_tree, decode_bit and decode_tree keep
`range`, `low` and `code` in locals for the length of one call; encode,
which AC and BWT send call once per symbol, keeps only `range` there.
Octets go out through _shift_low and come in through _byte.  The
frequency decoders, arith.AdaptiveModel.decoded (AC and BWT receive)
and the PPM decoder, take a decoder's registers, buffer and position
over for a whole stream, leaving the decoder spent, and read octets
with the same end-of-buffer rule.  The PPM encoder likewise keeps `low`,
`range` and the output buffer in locals for a whole stream and writes
them back before finish().  Each of these divides once per coding step.
A carry goes through carry(), which _shift_low calls too.
"""

TOP = 1 << 24
MASK32 = 0xFFFFFFFF

PROB_BITS = 11
PROB_ONE = 1 << PROB_BITS
PROB_INIT = PROB_ONE // 2
PROB_MOVE = 5


def carry(out):
    """Add the carry out of `low` into the octets written so far.

    Call it only when `low` > MASK32, before shifting `low`'s top octet
    out.  Written 0xFF octets turn to 0x00 and pass the carry on; the
    leading zero octet every encoder starts with stops it.
    """
    i = len(out) - 1
    while out[i] == 0xFF:
        out[i] = 0
        i -= 1
    out[i] += 1


class RangeEncoder:
    __slots__ = ("low", "range", "_out")

    def __init__(self):
        self.low = 0
        self.range = MASK32
        self._out = bytearray(1)  # a leading zero octet, which no carry passes

    def _shift_low(self):
        low = self.low
        out = self._out
        if low > MASK32:
            carry(out)
        out.append((low >> 24) & 0xFF)
        self.low = (low << 8) & MASK32

    def encode(self, cum, freq, total):
        """Narrow the interval to [cum, cum+freq) out of `total`.

        Raises ValueError if the slot is empty or ends past `total`.  The
        last slot takes the range's remainder, so its branch checks both;
        an empty slot before it leaves `range` at 0, which the
        renormalization loop checks, so a symbol that needs none pays
        nothing.
        """
        r = self.range // total
        self.low += r * cum
        if cum + freq < total:
            rng = r * freq
        else:
            if cum + freq > total or not freq:
                raise ValueError(f"slot [{cum}, {cum + freq}) of total {total} is empty or ends past it")
            rng = self.range - r * cum
        while rng < TOP:
            if not rng:
                raise ValueError(f"slot [{cum}, {cum + freq}) of total {total} is empty")
            rng <<= 8
            self._shift_low()
        self.range = rng

    def encode_bit(self, probs, index, bit):
        p = probs[index]
        rng = self.range
        bound = (rng >> PROB_BITS) * p
        if bit:
            self.low += bound
            rng -= bound
            probs[index] = p - (p >> PROB_MOVE)
        else:
            rng = bound
            probs[index] = p + ((PROB_ONE - p) >> PROB_MOVE)
        if rng < TOP:
            rng <<= 8
            self._shift_low()
        self.range = rng

    def encode_tree(self, probs, base, nbits, value):
        """Code `value` as nbits binary decisions down an adaptive tree.

        Equivalent to encode_bit per bit with context index base+node,
        kept in one call because literals ride this path."""
        rng = self.range
        low = self.low
        value |= 1 << nbits  # a marker on top: value >> shift is the node of bit shift - 1
        for shift in range(nbits, 0, -1):
            i = base + (value >> shift)
            p = probs[i]
            bound = (rng >> PROB_BITS) * p
            if (value >> (shift - 1)) & 1:
                low += bound
                rng -= bound
                probs[i] = p - (p >> PROB_MOVE)
            else:
                rng = bound
                probs[i] = p + ((PROB_ONE - p) >> PROB_MOVE)
            if rng < TOP:
                rng <<= 8
                self.low = low
                self._shift_low()
                low = self.low
        self.range = rng
        self.low = low

    def encode_direct(self, value, nbits):
        for shift in range(nbits - 1, -1, -1):
            self.range >>= 1
            if (value >> shift) & 1:
                self.low += self.range
            if self.range < TOP:
                self.range <<= 8
                self._shift_low()

    def finish(self):
        """Flush the register; returns the complete byte stream."""
        for _ in range(5):
            self._shift_low()
        # Trailing zero octets decode identically (missing bytes read as 0).
        return bytes(self._out.rstrip(b"\0"))


class RangeDecoder:
    __slots__ = ("range", "code", "_data", "_pos")

    def __init__(self, data):
        self.range = MASK32
        self.code = 0
        self._data = data
        self._pos = 0
        for _ in range(5):
            self.code = ((self.code << 8) | self._byte()) & MASK32

    def _byte(self):
        pos = self._pos
        if pos < len(self._data):
            self._pos = pos + 1
            return self._data[pos]
        return 0

    def decode_bit(self, probs, index):
        p = probs[index]
        rng = self.range
        code = self.code
        bound = (rng >> PROB_BITS) * p
        if code < bound:
            rng = bound
            probs[index] = p + ((PROB_ONE - p) >> PROB_MOVE)
            bit = 0
        else:
            code -= bound
            rng -= bound
            probs[index] = p - (p >> PROB_MOVE)
            bit = 1
        if rng < TOP:
            code = ((code << 8) | self._byte()) & MASK32
            rng <<= 8
        self.range = rng
        self.code = code
        return bit

    def decode_tree(self, probs, base, nbits):
        """Inverse of encode_tree; returns the nbits-wide value."""
        ctx = 1
        rng = self.range
        code = self.code
        for _ in range(nbits):
            i = base + ctx
            p = probs[i]
            bound = (rng >> PROB_BITS) * p
            if code < bound:
                rng = bound
                probs[i] = p + ((PROB_ONE - p) >> PROB_MOVE)
                ctx <<= 1
            else:
                code -= bound
                rng -= bound
                probs[i] = p - (p >> PROB_MOVE)
                ctx = (ctx << 1) | 1
            if rng < TOP:
                code = ((code << 8) | self._byte()) & MASK32
                rng <<= 8
        self.range = rng
        self.code = code
        return ctx - (1 << nbits)

    def decode_direct(self, nbits):
        value = 0
        for _ in range(nbits):
            self.range >>= 1
            if self.code >= self.range:
                self.code -= self.range
                value = (value << 1) | 1
            else:
                value <<= 1
            if self.range < TOP:
                self.code = ((self.code << 8) | self._byte()) & MASK32
                self.range <<= 8
        return value


def new_bit_probs(n):
    """Fresh probability cells at one half for n adaptive binary contexts."""
    return [PROB_INIT] * n
