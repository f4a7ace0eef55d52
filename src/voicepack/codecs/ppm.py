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
escaped, and every context is coded as if the excluded counts were zero.
A context with no symbol left after exclusion is passed over like one
never seen.  End-of-stream is never counted, so a context holding all
256 octets has the symbol list range(256): there each excluded symbol is
its own index, found without bisection; elsewhere bisection finds it.

The encoder copies no counts: it subtracts each excluded count from the
context's total, and from the symbol's cumulative count when the
excluded symbol sorts below it.  The decoder codes a context with
nothing excluded from its own counts, and otherwise from a copy with the
excluded entries zeroed.  It finds the decoded slot with one
running-sum scan.  In a context of more than 64 symbols the scan covers
one chunk of 32 counts: running sums above 256 are fresh int objects,
and in an order-0 context of near-random data accumulating every count
cost more than the rest of the symbol's decoding.  So the decoder first
skips whole chunks by their sums until the sum passes the decoded slot;
an all-excluded chunk sums to 0 and is skipped.

Counts rescale by halving (floor, minimum 1) once a context's total
approaches the coder's precision limit.

Contexts live in a trie: the child of a context under symbol s is that
context followed by s, and each node keeps its children in a list
parallel to its sorted symbols.  The model holds the active contexts,
one per order 0..k (fewer near the start).  Counting a symbol in an
active context finds its index in the node, and the child at that index
is the next position's context one order up, so no context is ever
looked up; nodes at depth k have no children.

Children are created lazily, as in PPMd (D. Shkarin, "PPM: one step to
practicality", DCC 2002).  A context seen only once has counted at most
one symbol, the octet that followed it there, and that octet's child is
again a context seen once, at the next position.  So the model keeps its
own copy of the input and stores such a child as an int, the position of
that octet, much as PPM* points into its input (J. Cleary and W. Teahan,
Computer Journal 40(2/3), 1997).  It becomes a node when its context
recurs.  A symbol new to a context is new to every longer one, so the
next active list ends there: on near-random input most contexts never
become nodes.
"""

from bisect import bisect_left

from voicepack.codecs.rangecoder import RangeDecoder, RangeEncoder
from voicepack.errors import CorruptStream

EOS = 256
_NUM_MINUS1 = 257
_FULL = 256  # a context holding every octet: its symbol list is range(256)
_SMALL = 64  # the decoder scans contexts of up to this many symbols whole
_CHUNK = 32
_RESCALE_AT = (1 << 16) - 257


class _Ctx:
    __slots__ = ("syms", "cnts", "total", "kids")

    def __init__(self, syms, cnts, total, kids):
        self.syms = syms
        self.cnts = cnts
        self.total = total
        self.kids = kids


class ContextModel:
    """Symbol counts for every context seen, orders 0..k, as a trie.

    `past` holds the octets counted so far.  A child entry that is an int
    p stands for a context seen once: `past[p]` is the one symbol counted
    in it (none yet if p == len(past)) and p + 1 is that symbol's child.
    `contexts` lists the active contexts of the next position, shortest
    first, all of them nodes.
    """

    __slots__ = ("order", "root", "contexts", "past")

    def __init__(self, order):
        if order < 0:
            raise ValueError("context order must be nonnegative")
        self.order = order
        self.root = _Ctx([], [], 0, None if order == 0 else [])
        self.contexts = [self.root]
        self.past = bytearray()

    def update(self, hist, depth, sym):
        """Count `sym` in every active context and step to the next position.

        A context met again becomes a node, whose one count the int entry
        held; a symbol new to a context gets the next position as its
        child.  `hist` (the preceding octets) and `depth` (their number)
        are unused, since the active contexts already encode both; they
        remain because the benchmark's update replay passes them.
        """
        past = self.past
        past.append(sym)
        at = len(past)
        order = self.order
        nxt = [self.root]
        for ctx in self.contexts:
            syms = ctx.syms
            kids = ctx.kids
            idx = bisect_left(syms, sym)
            if idx < len(syms) and syms[idx] == sym:
                ctx.cnts[idx] += 1
                if kids is not None:
                    kid = kids[idx]
                    if type(kid) is int:
                        # the new node's depth is len(nxt), one more than ctx's
                        kid = kids[idx] = _Ctx(
                            [past[kid]], [1], 1,
                            None if len(nxt) == order else [kid + 1])
                    nxt.append(kid)
            else:
                # new here, so new in every longer context: none joins nxt
                syms.insert(idx, sym)
                ctx.cnts.insert(idx, 1)
                if kids is not None:
                    kids.insert(idx, at)
            ctx.total += 1
            if ctx.total >= _RESCALE_AT:
                cnts = [max(1, c >> 1) for c in ctx.cnts]
                ctx.cnts = cnts
                ctx.total = sum(cnts)
        self.contexts = nxt


def _encode_symbol(enc, contexts, sym):
    excl = ()
    for ctx in reversed(contexts):
        syms = ctx.syms
        esc = len(syms)
        if esc == len(excl):  # excl is a subset of syms: nothing is left
            continue
        cnts = ctx.cnts
        avail = ctx.total
        below = 0
        if excl:
            full = esc == _FULL
            for e in excl:
                c = cnts[e] if full else cnts[bisect_left(syms, e)]
                avail -= c
                if e < sym:
                    below += c
        idx = bisect_left(syms, sym)
        if idx < esc and syms[idx] == sym:
            enc.encode(sum(cnts[:idx]) - below, cnts[idx], avail + esc)
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
        cnts = ctx.cnts
        avail = ctx.total
        if excl:
            cnts = cnts[:]
            full = esc == _FULL
            for e in excl:
                i = e if full else bisect_left(syms, e)
                avail -= cnts[i]
                cnts[i] = 0
        total = avail + esc
        v = dec.decode_freq(total)
        if v >= avail:
            dec.decode_update(avail, esc, total)
            excl = syms
            continue
        # v < avail, the sum of all counts, ends the walk and then the scan
        cum = idx = 0
        chunk = cnts
        if esc > _SMALL:
            top = sum(cnts[:_CHUNK])
            while top <= v:
                idx += _CHUNK
                cum = top
                top += sum(cnts[idx:idx + _CHUNK])
            chunk = cnts[idx:idx + _CHUNK]
        for c in chunk:
            if v < cum + c:
                break
            cum += c
            idx += 1
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
    """Inverse of ppm_encode; stops at the declared length, then requires EOS."""
    model = ContextModel(order)
    dec = RangeDecoder(payload)
    update = model.update
    out = bytearray()
    for _ in range(original_len):
        sym = _decode_symbol(dec, model.contexts)
        if sym == EOS:
            raise CorruptStream("PPM stream ended short of declared length")
        out.append(sym)
        update(None, None, sym)
    if _decode_symbol(dec, model.contexts) != EOS:
        raise CorruptStream("PPM stream overruns declared length")
    return bytes(out)
