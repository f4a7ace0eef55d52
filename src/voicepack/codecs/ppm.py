"""Prediction by partial matching, method C, with full exclusions.

Each context of length 0..k maps symbols to occurrence counts; every
context also prices an escape equal to its number of distinct symbols.
Coding starts at the longest available context and walks down one order
per escape, excluding symbols already rejected at higher orders, until
an order -1 model uniform over the 256 octets plus end-of-stream.

Every symbol is counted under all of its contexts, orders 0..k, and
halving never drops one, so the symbols of a context are a subset of
those of each shorter context ending in it.  The excluded symbols are
therefore exactly the sorted symbol list of the last context that
escaped, and every context is coded the same way: from a copy of its
counts with the excluded entries zeroed.  A context with no symbol left
after exclusion is passed over like one never seen.

Counts rescale by halving (floor, minimum 1) once a context's total
approaches the coder's precision limit.

Contexts are addressed by a rolling integer over the last 8 octets
tagged with the context length, which avoids byte-string keys in the
per-symbol loops.
"""

from bisect import bisect_left, bisect_right
from itertools import accumulate

from voicepack.codecs.rangecoder import RangeDecoder, RangeEncoder
from voicepack.errors import CorruptStream

EOS = 256
_NUM_MINUS1 = 257
_RESCALE_AT = (1 << 16) - 257
_ROLL_MASK = (1 << 64) - 1

_MASKS = [(1 << (8 * o)) - 1 for o in range(9)]
_TAGS = [o << 64 for o in range(9)]


class _Ctx:
    __slots__ = ("syms", "cnts", "total")

    def __init__(self):
        self.syms = []
        self.cnts = []
        self.total = 0


class ContextModel:
    """Symbol counts for every context seen, orders 0..k."""

    __slots__ = ("order", "_table")

    def __init__(self, order):
        if not 0 <= order <= 8:
            raise ValueError("context order must be in 0..8")
        self.order = order
        self._table = {}

    def update(self, hist, depth, sym):
        """Count `sym` under the contexts encoded in rolling hash `hist`.

        `depth` limits the context length to the octets actually seen.
        """
        table = self._table
        for o in range(min(self.order, depth) + 1):
            key = (hist & _MASKS[o]) | _TAGS[o]
            ctx = table.get(key)
            if ctx is None:
                ctx = _Ctx()
                table[key] = ctx
            syms = ctx.syms
            idx = bisect_left(syms, sym)
            if idx < len(syms) and syms[idx] == sym:
                ctx.cnts[idx] += 1
            else:
                syms.insert(idx, sym)
                ctx.cnts.insert(idx, 1)
            ctx.total += 1
            if ctx.total >= _RESCALE_AT:
                cnts = [max(1, c >> 1) for c in ctx.cnts]
                ctx.cnts = cnts
                ctx.total = sum(cnts)


def _masked_counts(ctx, excl):
    """Counts of `ctx` with the excluded symbols zeroed, and their sum.

    `excl` is a subset of `ctx.syms` (see the module docstring), so each
    excluded symbol is found by bisection.
    """
    cnts = ctx.cnts
    if not excl:
        return cnts, ctx.total
    syms = ctx.syms
    cnts = cnts[:]
    avail = ctx.total
    for e in excl:
        i = bisect_left(syms, e)
        avail -= cnts[i]
        cnts[i] = 0
    return cnts, avail


def _encode_symbol(enc, table, order, hist, depth, sym):
    excl = ()
    for o in range(min(order, depth), -1, -1):
        ctx = table.get((hist & _MASKS[o]) | _TAGS[o])
        if ctx is None:
            continue
        syms = ctx.syms
        esc = len(syms)
        if esc == len(excl):  # excl is a subset of syms: nothing is left
            continue
        cnts, avail = _masked_counts(ctx, excl)
        idx = bisect_left(syms, sym)
        if idx < esc and syms[idx] == sym:
            enc.encode(sum(cnts[:idx]), cnts[idx], avail + esc)
            return
        enc.encode(avail, esc, avail + esc)
        excl = syms
    enc.encode(sym - bisect_left(excl, sym), 1, _NUM_MINUS1 - len(excl))


def _decode_symbol(dec, table, order, hist, depth):
    excl = ()
    for o in range(min(order, depth), -1, -1):
        ctx = table.get((hist & _MASKS[o]) | _TAGS[o])
        if ctx is None:
            continue
        syms = ctx.syms
        esc = len(syms)
        if esc == len(excl):  # excl is a subset of syms: nothing is left
            continue
        cnts, avail = _masked_counts(ctx, excl)
        total = avail + esc
        v = dec.decode_freq(total)
        if v >= avail:
            dec.decode_update(avail, esc, total)
            excl = syms
            continue
        cums = list(accumulate(cnts))
        idx = bisect_right(cums, v)
        cum = cums[idx - 1] if idx else 0
        dec.decode_update(cum, cnts[idx], total)
        return syms[idx]
    total = _NUM_MINUS1 - len(excl)
    v = dec.decode_freq(total)
    dec.decode_update(v, 1, total)
    for e in excl:
        if e <= v:
            v += 1
    return v


def ppm_encode(data, order):
    """Compress octets with an order-k context model."""
    model = ContextModel(order)
    table = model._table
    enc = RangeEncoder()
    update = model.update
    hist = 0
    for depth, sym in enumerate(data):
        _encode_symbol(enc, table, order, hist, depth, sym)
        update(hist, depth, sym)
        hist = ((hist << 8) | sym) & _ROLL_MASK
    _encode_symbol(enc, table, order, hist, len(data), EOS)
    return enc.finish()


def ppm_decode(payload, original_len, order):
    """Inverse of ppm_encode; the declared length bounds the output."""
    model = ContextModel(order)
    table = model._table
    dec = RangeDecoder(payload)
    update = model.update
    out = bytearray()
    hist = 0
    depth = 0
    while True:
        sym = _decode_symbol(dec, table, order, hist, depth)
        if sym == EOS:
            break
        out.append(sym)
        if len(out) > original_len:
            raise CorruptStream("PPM stream overruns declared length")
        update(hist, depth, sym)
        hist = ((hist << 8) | sym) & _ROLL_MASK
        depth += 1
    if len(out) != original_len:
        raise CorruptStream("PPM stream ended short of declared length")
    return bytes(out)
