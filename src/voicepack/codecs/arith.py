"""Adaptive arithmetic coding over octets.

An order-0 model tracks one count per symbol (all starting at 1) plus an
end-of-stream symbol, and feeds cumulative frequencies to the range coder.
Counts move in steps of ADAPT_INCREMENT so the model locks onto skewed
sources quickly, and are halved (never below 1) once the running total
passes MAX_TOTAL, which also keeps totals inside the coder's precision.

Cumulative frequencies come from the flat count list plus one running sum
per block of BLOCK_WIDTH = 16 consecutive symbols.  The octet and BWT
token alphabets have 257 symbols, so there are 17 blocks (the last holds
only symbol 256): a lookup adds at most 16 block sums and 15 counts, and
an update changes one count and one block sum, where a cumulative-frequency
tree over 257 symbols would walk up to 9 nodes per update.
"""

from voicepack.codecs.rangecoder import RangeDecoder, RangeEncoder
from voicepack.errors import CorruptStream

EOS = 256
ADAPT_INCREMENT = 32
MAX_TOTAL = 1 << 16

BLOCK_SHIFT = 4
BLOCK_WIDTH = 1 << BLOCK_SHIFT


class AdaptiveModel:
    """Symbol counts with a running sum per block of BLOCK_WIDTH symbols.

    `_blocks[k]` is the sum of `counts[k * BLOCK_WIDTH:(k + 1) * BLOCK_WIDTH]`
    (the last block may be partial), and `total` the sum of all counts.
    """

    __slots__ = ("counts", "total", "_blocks")

    def __init__(self, num_symbols):
        self._set_counts([1] * num_symbols)

    def _set_counts(self, counts):
        self.counts = counts
        self.total = sum(counts)
        self._blocks = [sum(counts[i:i + BLOCK_WIDTH])
                        for i in range(0, len(counts), BLOCK_WIDTH)]

    def encode(self, enc, s):
        counts = self.counts
        blocks = self._blocks
        b = s >> BLOCK_SHIFT
        total = self.total
        enc.encode(sum(blocks[:b]) + sum(counts[b << BLOCK_SHIFT:s]),
                   counts[s], total)
        counts[s] += ADAPT_INCREMENT
        blocks[b] += ADAPT_INCREMENT
        total += ADAPT_INCREMENT
        if total > MAX_TOTAL:
            self._set_counts([max(1, c >> 1) for c in counts])
        else:
            self.total = total

    def decode(self, dec):
        total = self.total
        v = dec.decode_freq(total)
        # v < total, so both walks stop inside the lists
        blocks = self._blocks
        b = 0
        rem = v
        while rem >= blocks[b]:
            rem -= blocks[b]
            b += 1
        counts = self.counts
        s = b << BLOCK_SHIFT
        while rem >= counts[s]:
            rem -= counts[s]
            s += 1
        dec.decode_update(v - rem, counts[s], total)
        counts[s] += ADAPT_INCREMENT
        blocks[b] += ADAPT_INCREMENT
        total += ADAPT_INCREMENT
        if total > MAX_TOTAL:
            self._set_counts([max(1, c >> 1) for c in counts])
        else:
            self.total = total
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
    """Inverse of ac_encode; stops at the declared length, then requires EOS."""
    dec = RangeDecoder(payload)
    model = AdaptiveModel(257)
    decode = model.decode
    out = bytearray()
    for _ in range(original_len):
        s = decode(dec)
        if s == EOS:
            raise CorruptStream("arithmetic stream ended short of declared length")
        out.append(s)
    if decode(dec) != EOS:
        raise CorruptStream("arithmetic stream overruns declared length")
    return bytes(out)
