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
tree over 257 symbols would walk up to 9 nodes per update.  PPM's
contexts that hold all 256 octets keep their block sums by the same rule,
block_sums, with the same BLOCK_WIDTH.

Encoding goes one symbol per call through RangeEncoder.encode.  Decoding
runs as one generator per stream, AdaptiveModel.decoded, which keeps the
range coder's registers and read position in locals and divides once per
symbol: r = range // total gives both the slot, code // r, and the
narrowed range.  read_to_eos states the stream's ending, the declared
length and then EOS, for AC and PPM alike.
"""

from itertools import islice

from voicepack.codecs.rangecoder import MASK32, TOP, RangeEncoder, start
from voicepack.errors import CorruptStream

EOS = 256
ADAPT_INCREMENT = 32
MAX_TOTAL = 1 << 16

BLOCK_SHIFT = 4
BLOCK_WIDTH = 1 << BLOCK_SHIFT


def block_sums(counts):
    """The sum of each block of BLOCK_WIDTH counts; the last may be partial."""
    return [sum(counts[i:i + BLOCK_WIDTH]) for i in range(0, len(counts), BLOCK_WIDTH)]


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
        self._blocks = block_sums(counts)

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

    def decoded(self, data):
        """Yield the symbols that the range-coded stream `data` codes,
        without end.

        `counts`, `_blocks` and `total` are current at every yield.  Past
        the end of `data` it reads zero octets.
        """
        rng = MASK32
        code = start(data)
        pos = 5
        end = len(data)
        counts = self.counts
        blocks = self._blocks
        total = self.total
        while True:
            r = rng // total
            v = code // r
            if v >= total:
                v = total - 1
            # v < total, so both walks stop inside the lists
            b = 0
            rem = v
            while rem >= blocks[b]:
                rem -= blocks[b]
                b += 1
            s = b << BLOCK_SHIFT
            while rem >= counts[s]:
                rem -= counts[s]
                s += 1
            cum = v - rem
            freq = counts[s]
            code -= r * cum
            # every count is at least 1 and r at least TOP >> 16, so the
            # loop always ends
            rng = r * freq if cum + freq < total else rng - r * cum
            while rng < TOP:
                code = ((code << 8) | (data[pos] if pos < end else 0)) & MASK32
                pos += 1
                rng <<= 8
            counts[s] = freq + ADAPT_INCREMENT
            blocks[b] += ADAPT_INCREMENT
            total += ADAPT_INCREMENT
            if total > MAX_TOTAL:
                self._set_counts([max(1, c >> 1) for c in counts])
                counts = self.counts
                blocks = self._blocks
                total = self.total
            else:
                self.total = total
            yield s


def ac_encode(data):
    """Compress octets with the adaptive coder; always ends with EOS."""
    enc = RangeEncoder()
    model = AdaptiveModel(257)
    encode = model.encode
    for b in data:
        encode(enc, b)
    encode(enc, EOS)
    return enc.finish()


def read_to_eos(symbols, original_len, name):
    """The octets that the endless iterator `symbols` yields before EOS, at
    most `original_len` of them; the stream must then yield EOS.  `name`
    names the stream in the CorruptStream messages."""
    out = bytes(islice(iter(symbols.__next__, EOS), original_len))
    if len(out) < original_len:
        raise CorruptStream(f"{name} stream ended short of declared length")
    if next(symbols) != EOS:
        raise CorruptStream(f"{name} stream overruns declared length")
    return out


def ac_decode(payload, original_len):
    """Inverse of ac_encode; stops at the declared length or at an earlier
    EOS, whichever comes first, then requires EOS."""
    return read_to_eos(AdaptiveModel(257).decoded(payload),
                       original_len, "arithmetic")
