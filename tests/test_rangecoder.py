import random

import pytest

from voicepack.codecs.rangecoder import (
    MASK32,
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
    for s in symbols:
        v = dec.decode_freq(TOTAL)
        assert CUMS[s] <= v < CUMS[s + 1]
        dec.decode_update(CUMS[s], FREQS[s], TOTAL)


def test_decode_update_alone_commits_a_known_symbol():
    # decode_update needs only its arguments: a decoder that already knows
    # the symbol commits it without asking decode_freq for the slot
    symbols, data = _static_stream(11, 2000)
    dec = RangeDecoder(data)
    for i, s in enumerate(symbols):
        if i % 2:
            assert CUMS[s] <= dec.decode_freq(TOTAL) < CUMS[s + 1]
        dec.decode_update(CUMS[s], FREQS[s], TOTAL)


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
            got = dec.decode_freq(8) // 2
            assert got == v
            dec.decode_update(v * 2, 2, 8)
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
        for s in symbols:
            assert cums[s] <= dec.decode_freq(cums[-1]) < cums[s + 1]
            dec.decode_update(cums[s], freqs[s], cums[-1])
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
