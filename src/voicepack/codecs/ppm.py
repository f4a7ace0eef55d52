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

Contexts live in a trie: the child of a context under symbol s is that
context followed by s, and each node keeps its children in a list
parallel to its sorted symbols.  The model holds the active contexts,
one per order 0..k (fewer near the start).  Counting a symbol in an
active context finds its index in the node, and the child at that index
is the next position's context one order up, so no context is ever
looked up; nodes at depth k have no children.
"""

from bisect import bisect_left, bisect_right
from itertools import accumulate

from voicepack.codecs.rangecoder import RangeDecoder, RangeEncoder
from voicepack.errors import CorruptStream

EOS = 256
_NUM_MINUS1 = 257
_RESCALE_AT = (1 << 16) - 257


class _Ctx:
    __slots__ = ("syms", "cnts", "total", "kids")

    def __init__(self, leaf):
        self.syms = []
        self.cnts = []
        self.total = 0
        self.kids = None if leaf else []


class ContextModel:
    """Symbol counts for every context seen, orders 0..k, as a trie.

    `contexts` lists the active contexts of the next position, shortest
    first; a context created but not yet counted in has no symbols.
    """

    __slots__ = ("order", "root", "contexts")

    def __init__(self, order):
        if not 0 <= order <= 8:
            raise ValueError("context order must be in 0..8")
        self.order = order
        self.root = _Ctx(order == 0)
        self.contexts = [self.root]

    def update(self, hist, depth, sym):
        """Count `sym` in every active context and step to the next position.

        `hist` (the preceding octets) and `depth` (their number) are
        unused, since the active contexts already encode both; they remain
        because the benchmark's update replay passes them.
        """
        order = self.order
        nxt = [self.root]
        for ctx in self.contexts:
            syms = ctx.syms
            kids = ctx.kids
            idx = bisect_left(syms, sym)
            if idx == len(syms) or syms[idx] != sym:
                syms.insert(idx, sym)
                ctx.cnts.insert(idx, 0)
                if kids is not None:
                    # the new child's depth is len(nxt), one more than ctx's
                    kids.insert(idx, _Ctx(len(nxt) == order))
            ctx.cnts[idx] += 1
            if kids is not None:
                nxt.append(kids[idx])
            ctx.total += 1
            if ctx.total >= _RESCALE_AT:
                cnts = [max(1, c >> 1) for c in ctx.cnts]
                ctx.cnts = cnts
                ctx.total = sum(cnts)
        self.contexts = nxt


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


def _encode_symbol(enc, contexts, sym):
    excl = ()
    for ctx in reversed(contexts):
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


def _decode_symbol(dec, contexts):
    excl = ()
    for ctx in reversed(contexts):
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
    enc = RangeEncoder()
    update = model.update
    for sym in data:
        _encode_symbol(enc, model.contexts, sym)
        update(None, None, sym)
    _encode_symbol(enc, model.contexts, EOS)
    return enc.finish()


def ppm_decode(payload, original_len, order):
    """Inverse of ppm_encode; the declared length bounds the output."""
    model = ContextModel(order)
    dec = RangeDecoder(payload)
    update = model.update
    out = bytearray()
    while True:
        sym = _decode_symbol(dec, model.contexts)
        if sym == EOS:
            break
        out.append(sym)
        if len(out) > original_len:
            raise CorruptStream("PPM stream overruns declared length")
        update(None, None, sym)
    if len(out) != original_len:
        raise CorruptStream("PPM stream ended short of declared length")
    return bytes(out)
