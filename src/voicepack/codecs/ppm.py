"""Prediction by partial matching, method C, with full exclusions.

Each context of length 0..k maps symbols to occurrence counts; every
context also prices an escape equal to its number of distinct symbols.
Coding starts at the longest available context and walks down one order
per escape, excluding symbols already rejected at higher orders, until
an order -1 model uniform over the 256 octets plus end-of-stream.
Contexts that have never produced a symbol are skipped silently, as is
any context whose symbols are all excluded (its escape would span the
whole interval and cost nothing).

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


def _encode_symbol(enc, table, order, hist, depth, sym):
    excl = None
    for o in range(min(order, depth), -1, -1):
        ctx = table.get((hist & _MASKS[o]) | _TAGS[o])
        if ctx is None:
            continue
        syms = ctx.syms
        cnts = ctx.cnts
        esc = len(syms)
        if excl is None:
            avail = ctx.total
            idx = bisect_left(syms, sym)
            if idx < esc and syms[idx] == sym:
                enc.encode(sum(cnts[:idx]), cnts[idx], avail + esc)
                return
            enc.encode(avail, esc, avail + esc)
            excl = set(syms)
        elif esc == 256:
            # fully populated context: syms[i] == i, so corrections for the
            # excluded symbols are direct indexes instead of a full scan
            avail = ctx.total - sum(map(cnts.__getitem__, excl))
            if sym < 256 and sym not in excl:
                corr_below = sum(cnts[e] for e in excl if e < sym)
                enc.encode(sum(cnts[:sym]) - corr_below, cnts[sym], avail + esc)
                return
            if avail:
                enc.encode(avail, esc, avail + esc)
            excl.update(syms)
        else:
            avail = 0
            cum = -1
            freq = 0
            for s, c in zip(syms, cnts):
                if s in excl:
                    continue
                if s == sym:
                    cum = avail
                    freq = c
                avail += c
            if cum >= 0:
                enc.encode(cum, freq, avail + esc)
                return
            if avail:
                enc.encode(avail, esc, avail + esc)
            excl.update(syms)
    if excl:
        ex = sorted(excl)
        enc.encode(sym - bisect_left(ex, sym), 1, _NUM_MINUS1 - len(ex))
    else:
        enc.encode(sym, 1, _NUM_MINUS1)


def _decode_symbol(dec, table, order, hist, depth):
    excl = None
    for o in range(min(order, depth), -1, -1):
        ctx = table.get((hist & _MASKS[o]) | _TAGS[o])
        if ctx is None:
            continue
        syms = ctx.syms
        cnts = ctx.cnts
        esc = len(syms)
        if excl is None:
            avail = ctx.total
            total = avail + esc
            v = dec.decode_freq(total)
            if v >= avail:
                dec.decode_update(avail, esc, total)
                excl = set(syms)
                continue
            cums = list(accumulate(cnts))
            idx = bisect_right(cums, v)
            cum = cums[idx - 1] if idx else 0
            dec.decode_update(cum, cnts[idx], total)
            return syms[idx]
        if esc == 256:
            avail = ctx.total - sum(map(cnts.__getitem__, excl))
        else:
            avail = 0
            for s, c in zip(syms, cnts):
                if s not in excl:
                    avail += c
        if not avail:
            excl.update(syms)
            continue
        total = avail + esc
        v = dec.decode_freq(total)
        if v >= avail:
            dec.decode_update(avail, esc, total)
            excl.update(syms)
            continue
        cum = 0
        for s, c in zip(syms, cnts):
            if s in excl:
                continue
            nxt = cum + c
            if nxt > v:
                dec.decode_update(cum, c, total)
                return s
            cum = nxt
        raise CorruptStream("context scan fell through")
    if excl:
        ex = sorted(excl)
        total = _NUM_MINUS1 - len(ex)
        v = dec.decode_freq(total)
        dec.decode_update(v, 1, total)
        s = v
        for e in ex:
            if e <= s:
                s += 1
        return s
    v = dec.decode_freq(_NUM_MINUS1)
    dec.decode_update(v, 1, _NUM_MINUS1)
    return v


def ppm_encode(data, order):
    """Compress octets with an order-k mixed-context model."""
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
