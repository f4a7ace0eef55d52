"""Sliding-window LZ parse entropy-coded with the binary range coder.

The parser is greedy: at each position it takes the longest match found
through a hash chain over 3-octet prefixes (capped at 256 candidates per
position, which bounds pathological inputs without affecting realistic
ones).  Every position with a full prefix enters the chain exactly once,
in increasing order, whatever the parse decides: a position just before
its own search, the rest of a match just after it.  Candidates are tried
from the most recent, so the first longest wins, and a candidate is
extended only once its first best_len + 1 octets match, since only a
longer match can win.  Matches shorter than MIN_MATCH become literals,
and overlapping matches (offset smaller than length) are legal.  A token
is a plain tuple: (0, octet) for a literal, (offset, length) for a
match; offsets are at least 1, so the first field tells the two apart.

Token coding keeps separate adaptive probability contexts per decision
and conditions the literal/match flag and the literal tree on the kind
of the previous token.  Match lengths go through a 9-bit tree; offsets
are split into a 4-bit slot (the bit length of offset-1) plus direct
bits at probability one half.

Each binary decision uses an 11-bit probability cell, which moves a
32nd of its distance to the coded bit, rounded down, so it stays in
[31, 2017] out of 2048.  A decision therefore renormalizes with one
shift at most: either side of a range of at least TOP = 2**24 keeps at
least 2**13 * 31 > 2**16, which one 8-bit shift brings back to TOP.  A
direct bit halves the range, so it needs one shift at most too.

encode_payload and decode_payload each code the stream in one frame, by
the rangecoder module's rule, with the registers and the read position
in locals.  Each token codes its flag decision inline, then runs one
tree loop over its trees (the literal tree, or the length tree and then
the slot tree), then the direct bits.

The decoder raises CorruptStream once its read position passes the end
of the payload by more than _MAX_OVER_READ = 64 octets, checked once per
token.  No valid stream reaches that.  The decoder reads five octets and
then one per renormalization shift, in step with the encoder, so at the
end of a valid stream it has read past the end exactly the zero octets
that trimming removed: the trailing zero octets of `low`, taken as one
unbounded number.  Let the last decision that raises `low` (a 1 bit or
a direct 1 bit) leave `low`'s register nonzero modulo 2**32.  Then the
register ends in at most 3 zero octets, and each shift after that
decision, its own included, adds one more.  Every decision after it
codes a 0, and a match's flag codes a 1, so what follows it is at most
the rest of its token, no more than the rest of a match (9 length and 4
slot decisions and up to 14 direct bits), and then three literal octets
0 (one flag and 8 tree decisions each; at a fourth, the second would
find the first as a match candidate one octet back).  With the raising
decision that is 41 decisions, each narrowing the range by at most
log2(2048/31) ~ 6.05 bits, and 14 direct bits of 1 bit each: 262 bits.
The range is at least 2**24 before them and below 2**32 after, so they
take s shifts with 8s < 8 + 262, s <= 33, and the over-read is at most
36 octets.  A stream with no raise at all holds at most those three
literals: at most 5 + 21 octets.  The limit leaves 28 octets for the one
case the argument skips, a raise that carries `low` to exactly a
multiple of 2**32, about one raise in 2**32.

The limit bounds the decoder's work by its input.  Every decision
narrows the range by at least log2(2048/2017) ~ 0.022 bits, so a token,
9 decisions or more, narrows it by 0.19 bits; the decoder reads an
octet at least every 41 tokens, and a payload that declares more than
it codes raises within about 41 * (len(payload) + 60) tokens.
"""

from voicepack.codecs.rangecoder import MASK32, TOP, carry, finish, start
from voicepack.errors import CorruptStream

WINDOW = 32768
MIN_MATCH = 3
MAX_MATCH = 273  # MAX_MATCH - MIN_MATCH must fit the 9-bit length tree

PROB_BITS = 11
PROB_ONE = 1 << PROB_BITS
PROB_INIT = PROB_ONE // 2
PROB_MOVE = 5

_CHAIN_TRIES = 256
_LEN_TREE_BITS = 9
_SLOT_TREE_BITS = 4

# All cells in one list.  A tree of n bits at `base` uses the cells
# base + 1 .. base + 2**n - 1.
_LEN = 512  # above the two literal trees, at base prev_kind * 256
_SLOT = _LEN + (1 << _LEN_TREE_BITS)
_FLAG = _SLOT + (1 << _SLOT_TREE_BITS)  # the flag after a literal, then after a match
_CELLS = _FLAG + 2
# the decoder's trees per token kind, as (base, bits)
_LITERAL_TREES = (((0, 8),), ((256, 8),))  # by prev_kind
_MATCH_TREES = ((_LEN, _LEN_TREE_BITS), (_SLOT, _SLOT_TREE_BITS))

_MAX_OVER_READ = 64


def lz77_parse(data):
    """Greedy longest-match token sequence reconstructing `data` exactly."""
    n = len(data)
    head = {}
    chain = [-1] * n
    tokens = []
    get = head.get
    i = 0
    while i < n:
        # every candidate shares the 3-octet prefix, so it matches at least that
        best_len = MIN_MATCH - 1
        if i + 3 <= n:
            key = data[i:i + 3]
            cand = chain[i] = get(key, -1)
            head[key] = i
            if cand >= 0:
                limit = max(i - WINDOW, 0)
                max_len = min(MAX_MATCH, n - i)
                tries = _CHAIN_TRIES
                while cand >= limit and tries:
                    tries -= 1
                    l = best_len + 1
                    if data[cand:cand + l] == data[i:i + l]:
                        while l < max_len and data[cand + l] == data[i + l]:
                            l += 1
                        best_len = l
                        best_pos = cand
                        if l == max_len:
                            break
                    cand = chain[cand]
        if best_len >= MIN_MATCH:
            tokens.append((i - best_pos, best_len))
            for j in range(i + 1, min(i + best_len, n - 2)):
                key = data[j:j + 3]
                chain[j] = get(key, -1)
                head[key] = j
            i += best_len
        else:
            tokens.append((0, data[i]))
            i += 1
    return tokens


def encode_payload(data):
    tokens = lz77_parse(data)
    probs = [PROB_INIT] * _CELLS
    out = bytearray(1)
    low = 0
    rng = MASK32
    prev_kind = 0
    for offset, value in tokens:
        i = _FLAG + prev_kind
        p = probs[i]
        bound = (rng >> PROB_BITS) * p
        if offset:
            low += bound
            rng -= bound
            probs[i] = p - (p >> PROB_MOVE)
            d = offset - 1
            s = d.bit_length()
            trees = ((_LEN, _LEN_TREE_BITS, value - MIN_MATCH), (_SLOT, _SLOT_TREE_BITS, s))
            direct = range(s - 2, -1, -1)  # the bits of d below its top bit
            prev_kind = 1
        else:
            rng = bound
            probs[i] = p + ((PROB_ONE - p) >> PROB_MOVE)
            trees = ((prev_kind << 8, 8, value),)
            direct = ()
            prev_kind = 0
        if rng < TOP:
            if low > MASK32:
                carry(out)
            out.append((low >> 24) & 0xFF)
            low = (low << 8) & MASK32
            rng <<= 8
        for base, nbits, v in trees:
            v |= 1 << nbits  # a marker on top: v >> shift is the node of bit shift - 1
            for shift in range(nbits, 0, -1):
                i = base + (v >> shift)
                p = probs[i]
                bound = (rng >> PROB_BITS) * p
                if (v >> (shift - 1)) & 1:
                    low += bound
                    rng -= bound
                    probs[i] = p - (p >> PROB_MOVE)
                else:
                    rng = bound
                    probs[i] = p + ((PROB_ONE - p) >> PROB_MOVE)
                if rng < TOP:
                    if low > MASK32:
                        carry(out)
                    out.append((low >> 24) & 0xFF)
                    low = (low << 8) & MASK32
                    rng <<= 8
        for shift in direct:
            rng >>= 1
            if (d >> shift) & 1:
                low += rng
            if rng < TOP:
                if low > MASK32:
                    carry(out)
                out.append((low >> 24) & 0xFF)
                low = (low << 8) & MASK32
                rng <<= 8
    return finish(out, low)


def decode_payload(payload, original_len):
    probs = [PROB_INIT] * _CELLS
    rng = MASK32
    code = start(payload)
    pos = 5
    end = len(payload)
    limit = end + _MAX_OVER_READ
    out = bytearray()
    prev_kind = 0
    while len(out) < original_len:
        if pos > limit:
            raise CorruptStream("LZ stream reads past its end")
        i = _FLAG + prev_kind
        p = probs[i]
        bound = (rng >> PROB_BITS) * p
        if code < bound:
            rng = bound
            probs[i] = p + ((PROB_ONE - p) >> PROB_MOVE)
            trees = _LITERAL_TREES[prev_kind]
            prev_kind = 0
        else:
            code -= bound
            rng -= bound
            probs[i] = p - (p >> PROB_MOVE)
            trees = _MATCH_TREES
            prev_kind = 1
        if rng < TOP:
            code = ((code << 8) | (payload[pos] if pos < end else 0)) & MASK32
            pos += 1
            rng <<= 8
        value = 0
        for base, nbits in trees:
            node = 1
            for _ in range(nbits):
                i = base + node
                p = probs[i]
                bound = (rng >> PROB_BITS) * p
                if code < bound:
                    rng = bound
                    probs[i] = p + ((PROB_ONE - p) >> PROB_MOVE)
                    node <<= 1
                else:
                    code -= bound
                    rng -= bound
                    probs[i] = p - (p >> PROB_MOVE)
                    node = (node << 1) | 1
                if rng < TOP:
                    code = ((code << 8) | (payload[pos] if pos < end else 0)) & MASK32
                    pos += 1
                    rng <<= 8
            value = (value << nbits) | (node - (1 << nbits))
        if not prev_kind:
            out.append(value)
            continue
        # a match's value holds its length tree's bits above its slot tree's
        length = (value >> _SLOT_TREE_BITS) + MIN_MATCH
        s = value & ((1 << _SLOT_TREE_BITS) - 1)
        d = min(s, 1)
        for _ in range(s - 1):  # the bits of d below its top bit
            rng >>= 1
            if code >= rng:
                code -= rng
                d = (d << 1) | 1
            else:
                d <<= 1
            if rng < TOP:
                code = ((code << 8) | (payload[pos] if pos < end else 0)) & MASK32
                pos += 1
                rng <<= 8
        src = len(out) - d - 1
        if src < 0:
            raise CorruptStream("LZ match reaches before stream start")
        if len(out) + length > original_len:
            raise CorruptStream("LZ match overruns declared length")
        # an overlapping match (offset < length) repeats its last offset octets
        piece = out[src:src + length]
        out += (piece * -(-length // len(piece)))[:length]
    return bytes(out)
