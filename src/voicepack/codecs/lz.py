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
"""

from voicepack.codecs.rangecoder import RangeDecoder, RangeEncoder, new_bit_probs
from voicepack.errors import CorruptStream

WINDOW = 32768
MIN_MATCH = 3
MAX_MATCH = 273  # MAX_MATCH - MIN_MATCH must fit the 9-bit length tree

_CHAIN_TRIES = 256
_LEN_TREE_BITS = 9
_SLOT_TREE_BITS = 4


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


def _models():
    """Fresh flag, literal, length and slot probabilities, in that order."""
    return (new_bit_probs(2), new_bit_probs(2 * 256),
            new_bit_probs(1 << _LEN_TREE_BITS), new_bit_probs(1 << _SLOT_TREE_BITS))


def encode_payload(data):
    tokens = lz77_parse(data)
    enc = RangeEncoder()
    flag, lit, lent, slot = _models()
    prev_kind = 0
    for offset, value in tokens:
        if not offset:
            enc.encode_bit(flag, prev_kind, 0)
            enc.encode_tree(lit, prev_kind * 256, 8, value)
            prev_kind = 0
        else:
            enc.encode_bit(flag, prev_kind, 1)
            enc.encode_tree(lent, 0, _LEN_TREE_BITS, value - MIN_MATCH)
            d = offset - 1
            s = d.bit_length()
            enc.encode_tree(slot, 0, _SLOT_TREE_BITS, s)
            if s >= 2:
                enc.encode_direct(d - (1 << (s - 1)), s - 1)
            prev_kind = 1
    return enc.finish()


def decode_payload(payload, original_len):
    dec = RangeDecoder(payload)
    flag, lit, lent, slot = _models()
    out = bytearray()
    prev_kind = 0
    while len(out) < original_len:
        if dec.decode_bit(flag, prev_kind):
            length = dec.decode_tree(lent, 0, _LEN_TREE_BITS) + MIN_MATCH
            s = dec.decode_tree(slot, 0, _SLOT_TREE_BITS)
            d = s if s < 2 else (1 << (s - 1)) + dec.decode_direct(s - 1)
            src = len(out) - d - 1
            if src < 0:
                raise CorruptStream("LZ match reaches before stream start")
            if len(out) + length > original_len:
                raise CorruptStream("LZ match overruns declared length")
            # an overlapping match (offset < length) repeats its last offset octets
            piece = out[src:src + length]
            out += (piece * -(-length // len(piece)))[:length]
            prev_kind = 1
        else:
            out.append(dec.decode_tree(lit, prev_kind * 256, 8))
            prev_kind = 0
    return bytes(out)
