import random
from bisect import bisect_right

import pytest

from voicepack.codecs.rangecoder import (
    MASK32,
    PROB_BITS,
    PROB_MOVE,
    PROB_ONE,
    TOP,
    RangeDecoder,
    RangeEncoder,
    new_bit_probs,
)

TWO32 = 1 << 32


class UnboundedEncoder:
    """Frequency coding with `low` as an unbounded integer: a carry needs
    no handling, because the octets written are just low's high part."""

    def __init__(self):
        self.low = 0
        self.range = MASK32
        self.shifts = 0
        self.carries_over_ff = 0

    def encode(self, cum, freq, total):
        r = self.range // total
        written = self.low >> 32
        self.low += r * cum
        if self.low >> 32 != written and written & 0xFF == 0xFF:
            self.carries_over_ff += 1
        self.range = r * freq if cum + freq < total else self.range - r * cum
        while self.range < TOP:
            self.range <<= 8
            self.low <<= 8
            self.shifts += 1

    def encode_bit(self, probs, index, bit):
        """The binary decision with renormalization repeated until range
        is back at TOP, where RangeEncoder shifts at most once."""
        p = probs[index]
        bound = (self.range >> PROB_BITS) * p
        if bit:
            self.low += bound
            self.range -= bound
            probs[index] = p - (p >> PROB_MOVE)
        else:
            self.range = bound
            probs[index] = p + ((PROB_ONE - p) >> PROB_MOVE)
        while self.range < TOP:
            self.range <<= 8
            self.low <<= 8
            self.shifts += 1

    def finish(self):
        # a zero octet, then one octet per shift (five more to flush)
        self.low <<= 40
        return (self.low >> 32).to_bytes(self.shifts + 6, "big").rstrip(b"\0")


def test_static_interval_single_symbol():
    # two-symbol model p(a)=3/4, p(b)=1/4; coding 'a' narrows to [0, 0.75)
    enc = RangeEncoder()
    enc.encode(0, 3, 4)
    assert enc.low == 0
    assert abs(enc.range / TWO32 - 0.75) < 1e-6


def test_static_interval_two_symbols():
    # 'a' then 'b' narrows to [0.5625, 0.75)
    enc = RangeEncoder()
    enc.encode(0, 3, 4)
    enc.encode(3, 1, 4)
    assert abs(enc.low / TWO32 - 0.5625) < 1e-6
    assert abs((enc.low + enc.range) / TWO32 - 0.75) < 1e-6


@pytest.mark.parametrize("cum, freq, total", [(11, 1, 10), (5, 10, 10)])
def test_slot_past_total_rejected(cum, freq, total):
    # unchecked, (11, 1, 10) drives `range` negative and renormalizes
    # forever, and (5, 10, 10) codes a wrong interval without an error
    with pytest.raises(ValueError):
        RangeEncoder().encode(cum, freq, total)


def test_zero_frequency_rejected_by_encoder():
    # a zero count leaves `range` at 0, which no shift brings back to TOP
    with pytest.raises(ValueError):
        RangeEncoder().encode(0, 0, 10)


@pytest.mark.parametrize("cum, freq, total", [(10, 0, 10), (9, 5, 10)])
@pytest.mark.parametrize("commit", [
    lambda cum, freq, total: RangeEncoder().encode(cum, freq, total),
], ids=["encoder"])
def test_bad_last_slot_rejected(commit, cum, freq, total):
    # the last slot takes the range's remainder: unchecked, an empty one
    # leaves range % total, which renormalizes to a wrong range, and one
    # past total narrows to a slot the encoder never codes
    with pytest.raises(ValueError):
        commit(cum, freq, total)


def decode_slot(dec, cums):
    """Frequency decoding on a RangeDecoder's registers, written out as the
    production decoders (arith.AdaptiveModel.decoded, the PPM decoder) do
    it in their own loops: the symbol s whose slot [cums[s], cums[s + 1])
    the code points at, committed the way RangeEncoder.encode codes it."""
    total = cums[-1]
    r = dec.range // total
    s = bisect_right(cums, min(dec.code // r, total - 1)) - 1
    cum, freq = cums[s], cums[s + 1] - cums[s]
    dec.code -= r * cum
    dec.range = r * freq if cum + freq < total else dec.range - r * cum
    while dec.range < TOP:
        dec.code = ((dec.code << 8) | dec._byte()) & MASK32
        dec.range <<= 8
    return s


# a static five-symbol model
FREQS = [5, 1, 9, 2, 3]
CUMS = [0, 5, 6, 15, 17, 20]
TOTAL = CUMS[-1]


def _static_stream(seed, n):
    """n random symbols of the static model and their coded stream."""
    rng = random.Random(seed)
    symbols = [rng.randrange(5) for _ in range(n)]
    enc = RangeEncoder()
    for s in symbols:
        enc.encode(CUMS[s], FREQS[s], TOTAL)
    return symbols, enc.finish()


def test_freq_roundtrip_static_model():
    symbols, data = _static_stream(7, 5000)
    dec = RangeDecoder(data)
    assert [decode_slot(dec, CUMS) for _ in symbols] == symbols


def test_bit_roundtrip_with_adaptive_probs():
    rng = random.Random(13)
    bits = [rng.getrandbits(1) for _ in range(8000)]
    enc = RangeEncoder()
    probs = new_bit_probs(4)
    for i, b in enumerate(bits):
        enc.encode_bit(probs, i % 4, b)
    data = enc.finish()
    dec = RangeDecoder(data)
    probs = new_bit_probs(4)
    assert [dec.decode_bit(probs, i % 4) for i in range(len(bits))] == bits


def test_direct_bits_roundtrip():
    rng = random.Random(29)
    values = [(rng.getrandbits(w), w) for w in rng.choices(range(1, 17), k=1000)]
    enc = RangeEncoder()
    for v, w in values:
        enc.encode_direct(v, w)
    data = enc.finish()
    dec = RangeDecoder(data)
    for v, w in values:
        assert dec.decode_direct(w) == v


def test_mixed_apis_roundtrip():
    rng = random.Random(31)
    ops = []
    for _ in range(3000):
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.randrange(4)
            ops.append(("freq", s))
        elif kind == 1:
            ops.append(("bit", rng.getrandbits(1)))
        else:
            ops.append(("direct", rng.getrandbits(5)))
    enc = RangeEncoder()
    probs = new_bit_probs(1)
    for kind, v in ops:
        if kind == "freq":
            enc.encode(v * 2, 2, 8)
        elif kind == "bit":
            enc.encode_bit(probs, 0, v)
        else:
            enc.encode_direct(v, 5)
    data = enc.finish()
    dec = RangeDecoder(data)
    probs = new_bit_probs(1)
    for kind, v in ops:
        if kind == "freq":
            assert decode_slot(dec, [0, 2, 4, 6, 8]) == v
        elif kind == "bit":
            assert dec.decode_bit(probs, 0) == v
        else:
            assert dec.decode_direct(5) == v


def test_empty_stream_decodes_zeros():
    enc = RangeEncoder()
    assert enc.finish() == b""
    dec = RangeDecoder(b"")
    assert dec.decode_direct(8) == 0


def test_skewed_bits_compress_well():
    # 10000 zero-bits against an adapting cell should take well under 200 bytes
    enc = RangeEncoder()
    probs = new_bit_probs(1)
    for _ in range(10_000):
        enc.encode_bit(probs, 0, 0)
    assert len(enc.finish()) < 200


def test_carries_match_unbounded_low():
    carries_over_ff = 0
    for seed in range(50):
        rng = random.Random(seed)
        freqs = [rng.randrange(1, 50) for _ in range(rng.randrange(2, 9))]
        cums = [0]
        for f in freqs:
            cums.append(cums[-1] + f)
        symbols = [rng.randrange(len(freqs)) for _ in range(2000)]
        enc = RangeEncoder()
        ref = UnboundedEncoder()
        for s in symbols:
            enc.encode(cums[s], freqs[s], cums[-1])
            ref.encode(cums[s], freqs[s], cums[-1])
        data = enc.finish()
        assert data == ref.finish()
        carries_over_ff += ref.carries_over_ff
        dec = RangeDecoder(data)
        assert [decode_slot(dec, cums) for _ in symbols] == symbols
    # the streams exercise carries that turn written 0xFF octets to 0x00
    assert carries_over_ff >= 10


@pytest.mark.parametrize("nbits", range(1, 10))
def test_tree_roundtrip_matches_bitwise(nbits):
    rng = random.Random(nbits)
    size = 1 << nbits
    # two trees side by side, as the LZ literal coder keeps them
    coded = [(rng.randrange(2) * size, min(rng.getrandbits(nbits), rng.getrandbits(nbits)))
             for _ in range(1500)]
    enc = RangeEncoder()
    probs = new_bit_probs(2 * size)
    for base, value in coded:
        enc.encode_tree(probs, base, nbits, value)
    data = enc.finish()
    # encode_tree is encode_bit per bit at context base + node
    bitwise = RangeEncoder()
    probs = new_bit_probs(2 * size)
    for base, value in coded:
        node = 1
        for shift in range(nbits - 1, -1, -1):
            bit = (value >> shift) & 1
            bitwise.encode_bit(probs, base + node, bit)
            node = (node << 1) | bit
    assert bitwise.finish() == data
    dec = RangeDecoder(data)
    probs = new_bit_probs(2 * size)
    assert [dec.decode_tree(probs, base, nbits) for base, _ in coded] == [v for _, v in coded]


def test_one_shift_renormalizes_extreme_cells():
    # long runs of one bit drive cells to 2017 (after zeros) and 31 (after
    # ones); the rare bit then narrows `range` the most, yet one 8-bit shift
    # restores range >= TOP, as the unbounded encoder's loop confirms
    run = [0] * 300 + [1] + [0] * 20 + [1] * 300 + [0] + [1] * 20
    bits = run * 4
    values = [255 * b for b in run] * 2
    enc, ref = RangeEncoder(), UnboundedEncoder()
    probs, ref_probs = new_bit_probs(1), new_bit_probs(1)
    seen = set()
    for b in bits:
        enc.encode_bit(probs, 0, b)
        ref.encode_bit(ref_probs, 0, b)
        assert enc.range == ref.range >= TOP
        seen.add(probs[0])
    tree_probs, ref_probs = new_bit_probs(256), new_bit_probs(256)
    for v in values:
        enc.encode_tree(tree_probs, 0, 8, v)
        node = 1
        for shift in range(7, -1, -1):
            bit = (v >> shift) & 1
            ref.encode_bit(ref_probs, node, bit)
            node = (node << 1) | bit
        assert enc.range == ref.range >= TOP
    seen.update(tree_probs)
    assert {31, 2017} <= seen
    data = enc.finish()
    assert data == ref.finish()
    dec = RangeDecoder(data)
    probs, tree_probs = new_bit_probs(1), new_bit_probs(256)
    assert [dec.decode_bit(probs, 0) for _ in bits] == bits
    assert [dec.decode_tree(tree_probs, 0, 8) for _ in values] == values
