"""Adaptive arithmetic coding over octets.

An order-0 model tracks one count per symbol (all starting at 1) plus an
end-of-stream symbol, and feeds cumulative frequencies to the range coder.
Counts move in steps of ADAPT_INCREMENT so the model locks onto skewed
sources quickly, and are halved (never below 1) once the running total
passes MAX_TOTAL, which also keeps totals inside the coder's precision.
"""

from voicepack.codecs.rangecoder import RangeDecoder, RangeEncoder
from voicepack.errors import CorruptStream

EOS = 256
ADAPT_INCREMENT = 32
MAX_TOTAL = 1 << 16


class AdaptiveModel:
    """Cumulative symbol counts maintained in a Fenwick tree."""

    __slots__ = ("n", "counts", "total", "_tree", "_topbit")

    def __init__(self, num_symbols):
        self.n = num_symbols
        self.counts = [1] * num_symbols
        self.total = num_symbols
        topbit = 1
        while topbit * 2 <= num_symbols:
            topbit *= 2
        self._topbit = topbit
        self._rebuild()

    def _rebuild(self):
        n = self.n
        tree = [0] * (n + 1)
        counts = self.counts
        for i in range(1, n + 1):
            tree[i] += counts[i - 1]
            j = i + (i & -i)
            if j <= n:
                tree[j] += tree[i]
        self._tree = tree

    def _prefix(self, s):
        """Sum of counts below symbol s."""
        acc = 0
        tree = self._tree
        while s:
            acc += tree[s]
            s -= s & -s
        return acc

    def _find(self, v):
        """Symbol whose cumulative slot contains v, plus its low bound."""
        pos = 0
        rem = v
        bit = self._topbit
        tree = self._tree
        n = self.n
        while bit:
            npos = pos + bit
            if npos <= n and tree[npos] <= rem:
                rem -= tree[npos]
                pos = npos
            bit >>= 1
        return pos, v - rem

    def _bump(self, s):
        inc = ADAPT_INCREMENT
        self.counts[s] += inc
        i = s + 1
        tree = self._tree
        n = self.n
        while i <= n:
            tree[i] += inc
            i += i & -i
        self.total += inc
        if self.total > MAX_TOTAL:
            counts = [max(1, c >> 1) for c in self.counts]
            self.counts = counts
            self.total = sum(counts)
            self._rebuild()

    def encode(self, enc, s):
        enc.encode(self._prefix(s), self.counts[s], self.total)
        self._bump(s)

    def decode(self, dec):
        v = dec.decode_freq(self.total)
        s, cum = self._find(v)
        dec.decode_update(cum, self.counts[s], self.total)
        self._bump(s)
        return s


def ac_encode(data):
    """Compress octets with the adaptive coder; always ends with EOS."""
    enc = RangeEncoder()
    model = AdaptiveModel(257)
    encode = model.encode
    for b in data:
        encode(enc, b)
    encode(enc, EOS)
    return enc.finish()


def ac_decode(payload, original_len):
    """Inverse of ac_encode; the declared length bounds the output."""
    dec = RangeDecoder(payload)
    model = AdaptiveModel(257)
    decode = model.decode
    out = bytearray()
    while True:
        s = decode(dec)
        if s == EOS:
            break
        out.append(s)
        if len(out) > original_len:
            raise CorruptStream("arithmetic stream overruns declared length")
    if len(out) != original_len:
        raise CorruptStream("arithmetic stream ended short of declared length")
    return bytes(out)
