"""32-bit range coder shared by the arithmetic, PPM and LZ back ends.

The coder keeps a 32-bit `range` register and renormalizes one octet at a
time.  The encoder holds its output until finish() and adds a carry
out of `low` into the octets already written, so `low` never needs more
than 33 bits.  Three symbol interfaces are exposed:

* frequency coding against an explicit (cumulative, frequency, total)
  triple, for the adaptive byte models;
* adaptive binary decisions against 11-bit probability cells, for the
  LZ token coder;
* direct bits at probability one half, for match-offset tails.

A decoder reading past the end of its buffer sees zero octets, which lets
an encoder trim trailing zeros without changing the decoded stream.
"""

TOP = 1 << 24
MASK32 = 0xFFFFFFFF

PROB_BITS = 11
PROB_ONE = 1 << PROB_BITS
PROB_INIT = PROB_ONE // 2
PROB_MOVE = 5


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
            i = len(out) - 1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
        out.append((low >> 24) & 0xFF)
        self.low = (low << 8) & MASK32

    def encode(self, cum, freq, total):
        """Narrow the interval to [cum, cum+freq) out of `total`."""
        r = self.range // total
        self.low += r * cum
        if cum + freq < total:
            self.range = r * freq
        else:
            self.range -= r * cum
        while self.range < TOP:
            self.range <<= 8
            self._shift_low()

    def encode_bit(self, probs, index, bit):
        p = probs[index]
        bound = (self.range >> PROB_BITS) * p
        if bit:
            self.low += bound
            self.range -= bound
            probs[index] = p - (p >> PROB_MOVE)
        else:
            self.range = bound
            probs[index] = p + ((PROB_ONE - p) >> PROB_MOVE)
        while self.range < TOP:
            self.range <<= 8
            self._shift_low()

    def encode_tree(self, probs, base, nbits, value):
        """Code `value` as nbits binary decisions down an adaptive tree.

        Equivalent to encode_bit per bit with context index base+node,
        kept in one call because literals ride this path."""
        ctx = 1
        rng = self.range
        shift_low = self._shift_low
        for shift in range(nbits - 1, -1, -1):
            bit = (value >> shift) & 1
            i = base + ctx
            p = probs[i]
            bound = (rng >> PROB_BITS) * p
            if bit:
                self.low += bound
                rng -= bound
                probs[i] = p - (p >> PROB_MOVE)
            else:
                rng = bound
                probs[i] = p + ((PROB_ONE - p) >> PROB_MOVE)
            while rng < TOP:
                rng <<= 8
                shift_low()
            ctx = (ctx << 1) | bit
        self.range = rng

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
        out = self._out
        # Trailing zero octets decode identically (missing bytes read as 0).
        end = len(out)
        while end > 0 and out[end - 1] == 0:
            end -= 1
        return bytes(out[:end])


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

    def decode_freq(self, total):
        """Return the cumulative-frequency slot the stream points at."""
        v = self.code // (self.range // total)
        return total - 1 if v >= total else v

    def decode_update(self, cum, freq, total):
        """Commit the symbol at [cum, cum+freq) out of `total`, as encode does."""
        r = self.range // total
        self.code -= r * cum
        if cum + freq < total:
            self.range = r * freq
        else:
            self.range -= r * cum
        while self.range < TOP:
            self.code = ((self.code << 8) | self._byte()) & MASK32
            self.range <<= 8

    def decode_bit(self, probs, index):
        p = probs[index]
        bound = (self.range >> PROB_BITS) * p
        if self.code < bound:
            self.range = bound
            probs[index] = p + ((PROB_ONE - p) >> PROB_MOVE)
            bit = 0
        else:
            self.code -= bound
            self.range -= bound
            probs[index] = p - (p >> PROB_MOVE)
            bit = 1
        while self.range < TOP:
            self.code = ((self.code << 8) | self._byte()) & MASK32
            self.range <<= 8
        return bit

    def decode_tree(self, probs, base, nbits):
        """Inverse of encode_tree; returns the nbits-wide value."""
        ctx = 1
        rng = self.range
        code = self.code
        byte = self._byte
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
            while rng < TOP:
                code = ((code << 8) | byte()) & MASK32
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
