"""The 32-bit range-coder stream shared by the LZMA, PPM and AC payloads
and each BWT block.

The coder keeps a 32-bit `range` and renormalizes one octet at a time:
while `range` is below TOP = 2**24, the encoder shifts the top octet of
`low` out and the decoder shifts the next octet of the stream into
`code`, and both shift `range` left by 8 bits.  The encoder keeps what
it has written and adds a carry out of `low` into those octets, so
`low` never needs more than 33 bits.  The stream starts with one zero
octet, which no carry passes, and ends with the four octets of `low`;
trailing zero octets are trimmed, and a decoder reads every octet past
the end as zero, so trimming changes nothing it decodes.

Every stream is coded in one frame: each codec's encoder and decoder
keep the registers, the output buffer or the read position in locals
for the whole stream and renormalize inline, so each frequency-coding
step divides once (Moffat, Neal & Witten, "Arithmetic coding
revisited", ACM TOIS 1998).  This module states what they share: a
decoder starts from `range` = MASK32, `code` = start(data) and reading
position 5; an encoder starts from `low` = 0, `range` = MASK32 and the
output bytearray(1), adds carries through carry() and ends with
finish(out, low).  RangeEncoder codes one frequency slot per call, for
the AC and BWT senders.
"""

TOP = 1 << 24
MASK32 = 0xFFFFFFFF


def start(data):
    """The code register a decoder starts from: octets 1-4 of `data`,
    big-endian, missing ones read as 0.  Octet 0 is the encoder's leading
    zero; reading resumes at position 5."""
    head = data[1:5]
    return int.from_bytes(head, "big") << (32 - 8 * len(head))


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


def finish(out, low):
    """Flush `low` after the octets `out` holds; returns the complete stream.

    This is five shifts: the first may carry, the first four write low's
    octets, and the fifth writes a zero octet that trimming drops, as it
    drops every trailing zero octet.
    """
    if low > MASK32:
        carry(out)
    out += (low & MASK32).to_bytes(4, "big")
    return bytes(out.rstrip(b"\0"))


class RangeEncoder:
    __slots__ = ("low", "range", "_out")

    def __init__(self):
        self.low = 0
        self.range = MASK32
        self._out = bytearray(1)  # a leading zero octet, which no carry passes

    def encode(self, cum, freq, total):
        """Narrow the interval to [cum, cum+freq) out of `total`.

        Raises ValueError if the slot is empty or ends past `total`.  The
        last slot takes the range's remainder, so its branch checks both;
        an empty slot before it leaves `range` at 0, which the
        renormalization loop checks, so a symbol that needs none pays
        nothing.
        """
        r = self.range // total
        low = self.low + r * cum
        if cum + freq < total:
            rng = r * freq
        else:
            if cum + freq > total or not freq:
                raise ValueError(f"slot [{cum}, {cum + freq}) of total {total} is empty or ends past it")
            rng = self.range - r * cum
        while rng < TOP:
            if not rng:
                raise ValueError(f"slot [{cum}, {cum + freq}) of total {total} is empty")
            if low > MASK32:
                carry(self._out)
            self._out.append((low >> 24) & 0xFF)
            low = (low << 8) & MASK32
            rng <<= 8
        self.low = low
        self.range = rng

    def finish(self):
        """Flush the register; returns the complete stream."""
        return finish(self._out, self.low)
