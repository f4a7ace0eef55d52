"""The 32-bit range-coder stream shared by the LZMA, PPM and AC payloads
and each BWT block.  This module is the one place that states how a
stream starts and ends.

The coder keeps a 32-bit `range` and renormalizes one octet at a time:
while `range` is below TOP = 2**24, the encoder shifts the top octet of
`low` out and the decoder shifts the next octet of the stream into
`code`, and both shift `range` left by 8 bits.  The encoder keeps what
it has written and adds a carry out of `low` into those octets, so
`low` never needs more than 33 bits.

Every stream is coded in one frame: each codec's encoder keeps the
registers and the output buffer in locals for the whole stream, and
each decoder the registers and the octet source that start() returns;
both renormalize inline, so each frequency-coding step divides once
(Moffat, Neal & Witten, "Arithmetic coding revisited", ACM TOIS 1998).
They share two rules, stated here once:

- The start.  An encoder starts from begin(): an output holding one zero
  octet, which no carry passes, `low` = 0 and `range` = MASK32.  A
  decoder starts from start(data): `range` = MASK32, `code` = octets
  1-4 big-endian, and `octet`, which returns the stream's octets from
  octet 5 on, one per call.  Octet 0 must be zero.  An empty stream is
  valid: it is what a stream whose `low` stays 0 trims to, such as
  LZMA's of no octets.
- The end.  finish() writes the four octets of `low` and trims every
  trailing zero octet.  The decoder's octet source reads every octet
  past the end as zero, and raises CorruptStream once it has read
  MAX_OVER_READ = 64 of them.  The count covers every octet read at or
  past the end, from octet 0 on: octet 0 of an empty stream counts too.
  So a payload that declares more than it codes costs no more decoding
  work than its own octets and those 64 zeros can code.

A valid stream reads far fewer than 64 octets past its end.  The
decoder reads five octets and then one per renormalization shift, in
step with the encoder, so at the end of a valid stream it has read past
the end exactly the zero octets that trimming removed: the trailing
zero octets of `low`, taken as one unbounded number.  Let the last
coding step that raises `low` (a slot with cum > 0) leave `low`'s
register nonzero modulo 2**32.  Then the register ends in at most 3
zero octets, and each of the s shifts after that step, its own
included, adds one more: the over-read is at most 3 + s.  Before any
step `range` >= TOP, and every total is at most 2**16, so
r = range // total >= 2**8.

- AC ends in EOS, the last slot, whose cum sums 256 counts of at least
  1.  It keeps range - r * cum >= r >= 2**8 of the range, so s <= 2 and
  the over-read is at most 5 octets.
- PPM ends in EOS too, after an escape from each context that codes.
  An escape is the last slot, raises `low` by r * avail with avail >=
  1, and keeps at least r * esc >= r; order -1 codes EOS in its last
  slot, which raises `low` and keeps at least r, unless all 256 octets
  are excluded and its total is 1, where it neither raises nor narrows.
  So s <= 2 again: at most 5 octets.
- A BWT block stream has no EOS.  It ends in the digits of its last
  zero run, at most 16 (a run is at most BLOCK_SIZE = 2**16 octets),
  and RUNA, slot 0, is the only token that leaves `low` alone, so at
  most 16 steps follow the last raise.  Each step keeps at least
  r * freq >= (range / total) * (1 - 2**-8) of the range, since
  total / range <= 2**-8 and freq >= 1: it narrows by at most 16.006
  bits, the 17 steps by 272.1.  The range is at least 2**24 before them
  and below 2**32 after, so 8s < 8 + 272.1, s <= 35, and the over-read
  is at most 38.  A block of RUNA digits alone never raises `low`; its
  stream is empty, and its at most 16 steps from MASK32 take at most 33
  shifts: 5 + 33 = 38 octets.
- LZMA: lz.py derives at most 36 octets from its parse.

The argument skips one case: a raise that carries `low` to exactly a
multiple of 2**32, about one raise in 2**32.  The register is then 0,
and the carry also turns the k 0xFF octets written before it into
zeros, so the over-read is k + 4 + s.  The limit leaves room for k up
to 58 for AC and PPM, 27 for LZMA and 25 for BWT; each 0xFF octet in
such a run takes another 8 bits of the coded number equal to 1, just
below the carry.

RangeEncoder codes one frequency slot per call.  Its only caller in
src/ is arith.encode_stream, which codes the AC stream and each BWT
block's; the other encoders code inline from begin() to finish().
"""

from itertools import chain, islice, repeat

from voicepack.errors import CorruptStream

TOP = 1 << 24
MASK32 = 0xFFFFFFFF
MAX_OVER_READ = 64


def begin():
    """An encoder's start: (out, low, range), `out` holding the leading
    zero octet, which no carry passes."""
    return bytearray(1), 0, MASK32


def start(data):
    """A decoder's start: (range, code, octet).  `code` holds octets 1-4
    of `data`, big-endian, and each call of `octet` returns the next
    octet, from octet 5 on, and 0 past the end up to the limit.  Raises
    CorruptStream unless octet 0 is the encoder's leading zero or `data`
    is empty."""
    source = chain(data, repeat(0, MAX_OVER_READ), _overread())
    if next(source):
        raise CorruptStream("range-coded stream does not start with a zero octet")
    return MASK32, int.from_bytes(bytes(islice(source, 4)), "big"), source.__next__


def _overread():
    """What a decoder's octet source reads once it has read MAX_OVER_READ
    zero octets past the end of its stream."""
    raise CorruptStream("range-coded stream reads past its end")
    yield  # a generator, so the raise waits for that read


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
        self._out, self.low, self.range = begin()

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
