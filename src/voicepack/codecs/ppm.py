"""Prediction by partial matching, method C, with full exclusions.

Each context of length 0..k maps symbols to occurrence counts; every
context also prices an escape equal to its number of distinct symbols.
Coding starts at the longest available context and walks down one order
per escape, excluding symbols already rejected at higher orders, until
an order -1 model uniform over the 256 octets plus end-of-stream.
Streams are coded with k = ORDER = 3.  The order is not written into
the stream, so it is a constant of the format; ContextModel still takes
any order, for its tests and the benchmark's update replay.

Every symbol is counted under all of its contexts, orders 0..k, and
halving never drops one, so the symbols of a context are a subset of
those of each shorter context ending in it.  The excluded symbols are
therefore exactly the sorted symbol list of the last context that
escaped, and every context is coded as if the excluded counts were zero.
A context with no symbol left after exclusion is passed over like one
never seen.  End-of-stream is never counted, so a context holding all
256 octets has the symbol list range(256): there each excluded symbol is
its own index, found without bisection; elsewhere bisection finds it.

Each stream is coded in one frame, by the rangecoder module's rule:
the encoder keeps `low`, `range` and the output buffer in locals for the
whole stream, the decoder (a generator) its range, code and octet
source, and each coding step divides once: r = range // total gives
the slot, code // r, and the narrowed range.  A symbol's slot always
has the escape after it, so only the escape and the last order -1 slot
take the range's remainder.

No slot is empty, so no coding step checks one.  Every count is at
least 1 (halving keeps a minimum of 1) and excluded symbols are left out
of the total, not coded with count 0; a context is coded only if some
symbol is left, so the escape frequency, its number of symbols, is at
least 1 and the counts left sum to at least 1; each order -1 slot has
frequency 1.  A context's total stays below _RESCALE_AT and its escape
at most 256, so total < 2**16, and range >= TOP = 2**24 gives
r >= 2**24 // 2**16 = 256.  Every slot then narrows the range to at
least 256, and each renormalization loop ends.

A context holding all 256 octets keeps one more list: the sum of each
block of BLOCK_WIDTH = 16 counts, by arith.block_sums, the rule of the
AC model.  It is set when the 256th symbol is inserted, raised with the
symbol's count and rebuilt when the counts halve.  The encoder copies no
counts: it subtracts each excluded count from the context's total, and
from the symbol's cumulative count when the excluded symbol sorts below
it; in a full context that count is the sum of the earlier blocks plus
at most 15 counts.

The decoder finds the decoded slot v with one scan: starting from
rem = v at some index, it subtracts each count from rem until a count
exceeds what is left, and the index it stops at is the symbol's.  The
context's size decides only where the scan starts.  Up to _SMALL = 64
symbols it covers the whole count list, or a copy with the excluded
counts zeroed.  From 65 to 255 symbols it first skips whole blocks of 16
counts by their sums, taken on the fly from that list, and scans one
block: sums above 256 are fresh int objects, and accumulating every
count of a large context costs more than the rest of the symbol's
decoding.  A full context walks its stored block sums, copied with each
excluded count subtracted from its block's, and scans one block with its
excluded counts zeroed, so it neither copies 256 counts nor re-sums them
per symbol.  An all-excluded block sums to 0 and is skipped.  The counts
left sum to avail > v, so the walk and the scan each break inside their
lists.

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
from itertools import chain

from voicepack.codecs.arith import BLOCK_SHIFT, BLOCK_WIDTH, EOS, NUM_SYMBOLS, block_sums, read_to_eos
from voicepack.codecs.rangecoder import MASK32, TOP, begin, carry, finish, start

ORDER = 3
_FULL = 256  # a context holding every octet: its symbol list is range(256)
_SMALL = 64  # the decoder scans contexts of up to this many symbols whole
_RESCALE_AT = (1 << 16) - 257


class _Ctx:
    __slots__ = ("syms", "cnts", "total", "kids", "blocks")

    def __init__(self, syms, cnts, total, kids):
        self.syms = syms
        self.cnts = cnts
        self.total = total
        self.kids = kids
        self.blocks = None  # the block sums, once the context holds all 256 octets


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
            blocks = ctx.blocks
            if blocks is not None:  # every octet is here, at its own index
                idx = sym
                blocks[sym >> BLOCK_SHIFT] += 1
            else:
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
                if len(syms) == _FULL:
                    ctx.blocks = block_sums(ctx.cnts)
            ctx.total += 1
            if ctx.total >= _RESCALE_AT:
                cnts = [max(1, c >> 1) for c in ctx.cnts]
                ctx.cnts = cnts
                ctx.total = sum(cnts)
                if ctx.blocks is not None:
                    ctx.blocks = block_sums(cnts)
        self.contexts = nxt


def _encode(model, data):
    """Code `data` and then EOS under `model`, counting each octet after it
    is coded; returns the finished stream."""
    out, low, rng = begin()
    update = model.update
    for sym in chain(data, (EOS,)):
        excl = ()
        for ctx in reversed(model.contexts):
            syms = ctx.syms
            esc = len(syms)
            if esc == len(excl):  # excl is a subset of syms: nothing is left
                continue
            cnts = ctx.cnts
            avail = ctx.total
            blocks = ctx.blocks
            below = 0
            for e in excl:
                c = cnts[e if blocks else bisect_left(syms, e)]
                avail -= c
                if e < sym:
                    below += c
            if blocks is None:
                idx = bisect_left(syms, sym)
                hit = idx < esc and syms[idx] == sym
                if hit:
                    cum = sum(cnts[:idx]) - below
                    freq = cnts[idx]
            else:  # every octet is at its own index; only EOS escapes
                hit = sym != EOS
                if hit:
                    b = sym >> BLOCK_SHIFT
                    cum = sum(blocks[:b]) + sum(cnts[b << BLOCK_SHIFT:sym]) - below
                    freq = cnts[sym]
            r = rng // (avail + esc)
            if hit:
                low += r * cum
                rng = r * freq
            else:  # the escape, the last slot
                low += r * avail
                rng -= r * avail
            while rng < TOP:
                if low > MASK32:
                    carry(out)
                out.append((low >> 24) & 0xFF)
                low = (low << 8) & MASK32
                rng <<= 8
            if hit:
                break
            excl = syms
        else:
            total = NUM_SYMBOLS - len(excl)
            cum = sym - bisect_left(excl, sym)
            r = rng // total
            low += r * cum
            rng = r if cum + 1 < total else rng - r * cum
            while rng < TOP:
                if low > MASK32:
                    carry(out)
                out.append((low >> 24) & 0xFF)
                low = (low << 8) & MASK32
                rng <<= 8
        if sym != EOS:
            update(None, None, sym)
    return finish(out, low)


def _decoded(model, data):
    """Yield the symbols that the range-coded stream `data` codes under
    `model`, without end, counting each octet before it is yielded."""
    rng, code, octet = start(data)
    update = model.update
    while True:
        excl = ()
        for ctx in reversed(model.contexts):
            syms = ctx.syms
            esc = len(syms)
            if esc == len(excl):  # excl is a subset of syms: nothing is left
                continue
            cnts = ctx.cnts
            avail = ctx.total
            blocks = ctx.blocks
            if excl:
                if blocks is None:
                    cnts = cnts[:]
                    for e in excl:
                        i = bisect_left(syms, e)
                        avail -= cnts[i]
                        cnts[i] = 0
                else:
                    blocks = blocks[:]
                    for e in excl:
                        c = cnts[e]
                        avail -= c
                        blocks[e >> BLOCK_SHIFT] -= c
            r = rng // (avail + esc)
            v = code // r
            if v < avail:
                # the counts left sum to avail > v: the walk and the scan stop in their lists
                rem = v
                idx = 0
                if esc <= _SMALL:
                    block = cnts
                elif blocks is None:
                    top = sum(cnts[:BLOCK_WIDTH])
                    while rem >= top:
                        rem -= top
                        idx += BLOCK_WIDTH
                        top = sum(cnts[idx:idx + BLOCK_WIDTH])
                    block = cnts[idx:idx + BLOCK_WIDTH]
                else:
                    while rem >= blocks[idx]:
                        rem -= blocks[idx]
                        idx += 1
                    idx <<= BLOCK_SHIFT
                    block = cnts[idx:idx + BLOCK_WIDTH]
                    if excl:
                        lo = bisect_left(excl, idx)
                        for e in excl[lo:bisect_left(excl, idx + BLOCK_WIDTH, lo)]:
                            block[e - idx] = 0
                for freq in block:
                    if rem < freq:
                        break
                    rem -= freq
                    idx += 1
                sym = syms[idx]
                code -= r * (v - rem)
                rng = r * freq
            else:  # the escape, the last slot
                code -= r * avail
                rng -= r * avail
            while rng < TOP:
                code = ((code << 8) | octet()) & MASK32
                rng <<= 8
            if v < avail:
                break
            excl = syms
        else:
            total = NUM_SYMBOLS - len(excl)
            r = rng // total
            v = code // r
            if v >= total:
                v = total - 1
            code -= r * v
            rng = r if v + 1 < total else rng - r * v
            while rng < TOP:
                code = ((code << 8) | octet()) & MASK32
                rng <<= 8
            sym = v
            for e in excl:
                if e <= sym:
                    sym += 1
        if sym != EOS:
            update(None, None, sym)
        yield sym


def ppm_encode(data):
    """Compress octets with an order-ORDER context model."""
    return _encode(ContextModel(ORDER), data)


def ppm_decode(payload, original_len):
    """Inverse of ppm_encode; stops at the declared length or at an earlier
    EOS, whichever comes first, then requires EOS."""
    return read_to_eos(_decoded(ContextModel(ORDER), payload),
                       original_len, "PPM")
