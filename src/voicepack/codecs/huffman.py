"""Huffman coding with canonical codes, sent as a table of code lengths.

The tree is built by repeatedly merging the two lowest-weight roots;
weight ties are broken toward the node holding the smallest octet, so
tables are reproducible.  Code words are then re-assigned canonically
(sorted by length, then octet; RFC 1951 section 3.2.2), so the code
lengths alone fix the table.

Payload layout (the BITS/HUFFVAL lists of ITU-T T.81 Annex C): n - 1
for n distinct symbols (1 octet); L, the longest code length (1 octet);
the number of codes of each length 1..L - 1 (1 octet each; length L
takes the rest of the n); the n symbols sorted by length and then
octet; then the packed code bits with the last partial octet
zero-padded.  An empty input has an empty payload.  The decoder rejects
a Kraft sum other than 1 (but for one symbol of length 1), a repeated
symbol, symbols out of order within a length, and counts past n.

The encoder takes the header from the table itself: build_huffman_table
returns its symbols in canonical order, so the table's keys are the
header's symbols and the lengths of its code strings give the counts.
It joins the code strings of all symbols into one string of '0'/'1' and
converts it to octets in a single int(bits, 2) call.

The decoder is table driven (Moffat & Turpin 1997): the next
k = min(max code length, LOOKUP_BITS) bits index a flat list of 2**k
(symbol, length) entries, so each symbol costs one lookup.  A k-bit
prefix that no code of at most k bits matches marks a longer code; those
are found by trying the remaining lengths in a {(code, length): symbol}
map.
"""

import heapq
from collections import Counter

from voicepack.errors import CorruptStream, EmptyAlphabet

# Width of the decoder's lookup index; codes longer than this take the
# slow path; in the seed-42 voice corpus about 2 symbols in 10,000 do.
LOOKUP_BITS = 10


def _code_lengths(freqs):
    """Map each symbol to its depth in the deterministic Huffman tree."""
    if len(freqs) == 1:
        return {sym: 1 for sym in freqs}
    # Heap entries are (weight, smallest octet in subtree, tree); the
    # octet component is unique per live node, so trees never compare.
    heap = [(w, sym, sym) for sym, w in freqs.items()]
    heapq.heapify(heap)
    while len(heap) > 1:
        w1, m1, t1 = heapq.heappop(heap)
        w2, m2, t2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, min(m1, m2), (t1, t2)))
    lengths = {}
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = depth
    return lengths


def build_huffman_table(freqs):
    """Return {octet: code string of '0'/'1'} for a frequency map.

    Codes are canonical: shorter codes sort first, ties ordered by octet.
    The dict holds its symbols in that order, by code length and then
    octet, which is the order the payload header lists them in.
    Raises EmptyAlphabet for an empty map; counts must be positive.
    """
    if not freqs:
        raise EmptyAlphabet("no symbols to code")
    for sym, count in freqs.items():
        if count <= 0:
            raise ValueError(f"count for symbol {sym} must be positive")
    lengths = _code_lengths(freqs)
    table = {}
    code = 0
    prev_len = 0
    for length, sym in sorted((l, s) for s, l in lengths.items()):
        code <<= length - prev_len
        table[sym] = format(code, f"0{length}b")
        code += 1
        prev_len = length
    return table


def huffman_encode(data):
    """Serialize the code lengths plus the packed code bits."""
    if not data:
        return b""
    table = build_huffman_table(Counter(data))
    per_length = Counter(map(len, table.values()))
    longest = max(per_length)
    header = bytes([len(table) - 1, longest,
                    *(per_length[length] for length in range(1, longest)), *table])
    codes = [""] * 256
    for sym, code in table.items():
        codes[sym] = code
    bits = "".join(map(codes.__getitem__, data))
    bits += "0" * (-len(bits) % 8)
    return header + int(bits, 2).to_bytes(len(bits) // 8, "big")


def _read_lengths(payload):
    """(symbols, counts, body offset) from a code-length header, checked."""
    if len(payload) < 2:
        raise CorruptStream("huffman header truncated")
    n = payload[0] + 1
    longest = payload[1]
    if longest == 0:
        raise CorruptStream("huffman longest code length of zero")
    body_at = 1 + longest + n
    if len(payload) < body_at:
        raise CorruptStream("huffman code length table truncated")
    counts = [0, *payload[2:longest + 1]]
    rest = n - sum(counts)
    if rest < 1:
        raise CorruptStream("huffman code counts exceed the symbol count")
    counts.append(rest)
    kraft = sum(count << (longest - length) for length, count in enumerate(counts))
    if kraft != 1 << longest and (n, longest) != (1, 1):
        raise CorruptStream("huffman code lengths do not have a Kraft sum of 1")
    symbols = payload[longest + 1:body_at]
    if len(set(symbols)) != n:
        raise CorruptStream("huffman symbol repeated")
    at = 0
    for count in counts:
        run = symbols[at:at + count]
        if run != bytes(sorted(run)):
            raise CorruptStream("huffman symbols out of order within a length")
        at += count
    return symbols, counts, body_at


def huffman_decode(payload, original_len):
    """Inverse of huffman_encode for a known output length."""
    if original_len == 0:
        if payload:
            raise CorruptStream("huffman payload for an empty input")
        return b""
    symbols, counts, body_at = _read_lengths(payload)
    body = payload[body_at:]
    max_len = len(counts) - 1
    k = min(max_len, LOOKUP_BITS)
    mask = (1 << k) - 1
    # lookup[i] is (symbol, length) for the code that prefixes the k-bit
    # pattern i, or None where only a code longer than k bits can match.
    lookup = [None] * (1 << k)
    long_codes = {}
    code = at = 0
    for length in range(1, max_len + 1):
        for sym in symbols[at:at + counts[length]]:
            if length <= k:
                span = 1 << (k - length)
                lookup[code * span:(code + 1) * span] = [(sym, length)] * span
            else:
                long_codes[(code, length)] = sym
            code += 1
        at += counts[length]
        code <<= 1

    nbody = len(body)
    total_bits = nbody * 8
    out = bytearray()
    append = out.append
    # acc holds `have` unread bits, at least max_len of them before each
    # lookup; octets past the end of the body read as zero and the
    # consumed-bit count (pos * 8 - have) is checked against total_bits.
    acc = 0
    have = 0
    pos = 0
    for _ in range(original_len):
        while have < max_len:
            if pos < nbody:
                acc = ((acc & ((1 << have) - 1)) << 8) | body[pos]
            elif pos * 8 - have > total_bits:
                raise CorruptStream("huffman bit stream exhausted")
            else:
                acc = (acc & ((1 << have) - 1)) << 8
            pos += 1
            have += 8
        entry = lookup[(acc >> (have - k)) & mask]
        if entry is None:
            entry = _match_long(long_codes, acc, have, k, max_len)
        sym, length = entry
        have -= length
        append(sym)
    if pos * 8 - have > total_bits:
        raise CorruptStream("huffman bit stream exhausted")
    return bytes(out)


def _match_long(long_codes, acc, have, k, max_len):
    """Match the top bits of `acc` against the codes longer than k bits."""
    for length in range(k + 1, max_len + 1):
        sym = long_codes.get(((acc >> (have - length)) & ((1 << length) - 1), length))
        if sym is not None:
            return sym, length
    raise CorruptStream("huffman bit pattern matches no code")
