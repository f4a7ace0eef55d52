"""Sliding-window LZ parse entropy-coded with the binary range coder.

The parser is greedy: at each position it takes the longest match found
through a hash chain over 3-octet prefixes (capped at 256 candidates per
position, which bounds pathological inputs without affecting realistic
ones).  Matches shorter than MIN_MATCH become literals, and overlapping
matches (offset smaller than length) are legal.  A token is a plain
tuple: (0, octet) for a literal, (offset, length) for a match; offsets
are at least 1, so the first field tells the two apart.

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
        best_len = 0
        best_pos = -1
        if i + 3 <= n:
            key = data[i:i + 3]
            cand = get(key, -1)
            limit = i - WINDOW
            max_len = min(MAX_MATCH, n - i)
            tries = _CHAIN_TRIES
            while cand >= limit and cand >= 0 and tries:
                tries -= 1
                probe = i + best_len
                if best_len == 0 or (probe < n and data[cand + best_len] == data[probe]):
                    l = 0
                    while l < max_len and data[cand + l] == data[i + l]:
                        l += 1
                    if l > best_len:
                        best_len = l
                        best_pos = cand
                        if l == max_len:
                            break
                cand = chain[cand]
        if best_len >= MIN_MATCH:
            tokens.append((i - best_pos, best_len))
            stop = min(i + best_len, n - 2)
            j = i
            while j < stop:
                key = data[j:j + 3]
                chain[j] = get(key, -1)
                head[key] = j
                j += 1
            i += best_len
        else:
            tokens.append((0, data[i]))
            if i + 3 <= n:
                key = data[i:i + 3]
                chain[i] = get(key, -1)
                head[key] = i
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
            if s == 0:
                d = 0
            elif s == 1:
                d = 1
            else:
                d = (1 << (s - 1)) + dec.decode_direct(s - 1)
            offset = d + 1
            src = len(out) - offset
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
