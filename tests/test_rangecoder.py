import random
from bisect import bisect_right

import pytest

from voicepack.codecs.lz import MAX_MATCH, MIN_MATCH, WINDOW, decode_payload, encode_payload, lz77_parse
from voicepack.codecs.rangecoder import MASK32, TOP, RangeEncoder, finish, start

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
        self._renormalize()

    def _renormalize(self):
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


class FrequencyDecoder:
    """Frequency decoding over rangecoder.start, written out as the
    production decoders (arith.AdaptiveModel.decoded, the PPM decoder) do
    it in their own loops."""

    def __init__(self, data):
        self.data = data
        self.range = MASK32
        self.code = start(data)
        self.pos = 5

    def decode(self, cums):
        """The symbol s whose slot [cums[s], cums[s + 1]) the code points
        at, committed the way RangeEncoder.encode codes it."""
        total = cums[-1]
        r = self.range // total
        s = bisect_right(cums, min(self.code // r, total - 1)) - 1
        cum, freq = cums[s], cums[s + 1] - cums[s]
        self.code -= r * cum
        self.range = r * freq if cum + freq < total else self.range - r * cum
        while self.range < TOP:
            octet = self.data[self.pos] if self.pos < len(self.data) else 0
            self.code = ((self.code << 8) | octet) & MASK32
            self.pos += 1
            self.range <<= 8
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
    dec = FrequencyDecoder(data)
    assert [dec.decode(CUMS) for _ in symbols] == symbols


def test_empty_stream_decodes_zeros():
    assert RangeEncoder().finish() == b""
    assert start(b"") == 0
    dec = FrequencyDecoder(b"")
    assert [dec.decode([0, 1, 2]) for _ in range(100)] == [0] * 100


def test_start_reads_octets_one_to_four():
    # octet 0 is the encoder's leading zero; missing octets read as 0
    assert start(b"\0\1\2\3\4\5") == 0x01020304
    assert start(b"\0\xab") == 0xAB000000
    assert start(b"\7") == 0


@pytest.mark.parametrize("low, stream", [
    (0, b""),
    (0x12345600, b"\0\x12\x34\x56"),
    # a carry out of low turns the written 0xFF octets to 0x00
    ((1 << 32) | 0x01, b"\0\x08\0\0\0\0\0\x01"),
])
def test_finish_flushes_low_with_carry_and_trims(low, stream):
    out = bytearray(b"\0\x07\xff\xff") if low >> 32 else bytearray(1)
    assert finish(out, low) == stream


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
        dec = FrequencyDecoder(data)
        assert [dec.decode(cums) for _ in symbols] == symbols
    # the streams exercise carries that turn written 0xFF octets to 0x00
    assert carries_over_ff >= 10


# The binary coder: LZMA's flag, tree and direct-bit decisions, which
# lz.encode_payload and lz.decode_payload code inline in their frames.
# Each test drives one kind of decision through them and checks their
# bytes against the bit-by-bit reference below.


class UnboundedTokenCoder(UnboundedEncoder):
    """The LZMA token decisions as README states them, one method per
    kind, with `low` as an unbounded integer and renormalization repeated
    while range < TOP, where encode_payload shifts at most once per
    decision.  `cells` collects every value a probability cell takes."""

    def __init__(self):
        super().__init__()
        self.cells = set()

    def bit(self, cells, index, bit):
        p = cells[index]
        bound = (self.range >> 11) * p
        if bit:
            self.low += bound
            self.range -= bound
            p -= p >> 5
        else:
            self.range = bound
            p += (2048 - p) >> 5
        cells[index] = p
        self.cells.add(p)
        self._renormalize()

    def tree(self, cells, nbits, value):
        node = 1
        for shift in range(nbits - 1, -1, -1):
            bit = (value >> shift) & 1
            self.bit(cells, node, bit)
            node = 2 * node + bit

    def direct(self, value, nbits):
        for shift in range(nbits - 1, -1, -1):
            self.range >>= 1
            if (value >> shift) & 1:
                self.low += self.range
            self._renormalize()


def reference_payload(tokens):
    """The payload of `tokens`, coded bit by bit, tree by tree, from
    README's LZMA rules; returns it with the coder."""
    coder = UnboundedTokenCoder()
    flags = [1024] * 2
    literals = [[1024] * 256 for _ in range(2)]
    lengths = [1024] * 512
    slots = [1024] * 16
    prev_kind = 0
    for offset, value in tokens:
        kind = int(offset > 0)
        coder.bit(flags, prev_kind, kind)
        if kind:
            coder.tree(lengths, 9, value - MIN_MATCH)
            d = offset - 1
            s = d.bit_length()
            coder.tree(slots, 4, s)
            if s >= 2:
                coder.direct(d - (1 << (s - 1)), s - 1)
        else:
            coder.tree(literals[prev_kind], 8, value)
        prev_kind = kind
    return coder.finish(), coder


def _matches_reference(data):
    """The tokens of `data`, after checking that encode_payload writes the
    reference's bytes for them and decode_payload reads them back."""
    data = bytes(data)
    tokens = lz77_parse(data)
    payload, coder = reference_payload(tokens)
    assert encode_payload(data) == payload
    assert decode_payload(payload, len(data)) == data
    return tokens, coder


def _copy(data, offset, length):
    """Append `length` octets copied from `offset` back, as a match does."""
    for _ in range(length):
        data.append(data[-offset])


def test_bit_roundtrip_with_adaptive_probs():
    # random literal/match flags, so both adaptive flag cells (after a
    # literal, after a match) code thousands of both bits
    rng = random.Random(13)
    data = bytearray(rng.randbytes(64))
    for _ in range(8000):
        if rng.getrandbits(1):
            _copy(data, rng.randrange(4, len(data)), 4)
        else:
            data += rng.randbytes(1)
    tokens, _ = _matches_reference(data)
    kinds = [int(offset > 0) for offset, _ in tokens]
    pairs = list(zip(kinds, kinds[1:]))
    assert min(pairs.count(pair) for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]) >= 1500


def test_direct_bits_roundtrip():
    # matches in every slot 0-15, so every width of direct bits, 0-14,
    # codes random values
    rng = random.Random(29)
    data = bytearray(rng.randbytes(WINDOW))
    for _ in range(800):
        s = rng.randrange(16)
        d = s if s < 2 else (1 << (s - 1)) | rng.getrandbits(s - 1)
        _copy(data, d + 1, 4)
        data += rng.randbytes(1)
    tokens, _ = _matches_reference(data)
    slots = [(offset - 1).bit_length() for offset, _ in tokens if offset]
    assert min(slots.count(s) for s in range(16)) >= 20


def extreme_cells_input():
    """b"xyz" repeated, coded as 273-octet matches, drives the flag after
    a match to 31; 33,000 random octets, coded as literals, drive the flag
    after a literal to 2017.  Then a 16-octet copy at offset 2**s for each
    slot s from 0 to 15, the longer ones from the random octets."""
    rng = random.Random(53)
    data = bytearray(b"xyz" * 15_000)
    data += rng.randbytes(33_000)
    for s in range(16):
        for _ in range(16):
            data.append(data[-(1 << s)])
        data += rng.randbytes(4)
    return bytes(data)


def test_one_shift_renormalizes_extreme_cells():
    # The rare bit at a cell of 31 or 2017 narrows the range the most, yet
    # encode_payload, shifting once per decision, writes the bytes of the
    # reference, which shifts until range >= TOP.  The reference codes each
    # tree bit by bit, so the match also shows that encode_payload's tree
    # loop codes a tree as README's per-bit decisions.
    data = extreme_cells_input()
    tokens = lz77_parse(data)
    assert {(offset - 1).bit_length() for offset, _ in tokens if offset} == set(range(16))
    payload, coder = reference_payload(tokens)
    assert {31, 2017} <= coder.cells
    assert encode_payload(data) == payload
    assert decode_payload(payload, len(data)) == data


@pytest.mark.parametrize("nbits", range(1, 10))
def test_tree_roundtrip_matches_bitwise(nbits):
    # match lengths whose tree values reach every bit length up to nbits
    # in the 9-bit length tree, amid literals in both literal trees
    # (after a literal, after a match), which sit side by side
    rng = random.Random(nbits)
    data = bytearray(rng.randbytes(600))
    for _ in range(400):
        v = min(rng.getrandbits(nbits), rng.getrandbits(nbits), MAX_MATCH - MIN_MATCH)
        _copy(data, rng.randrange(MAX_MATCH, min(len(data), WINDOW)), MIN_MATCH + v)
        data += rng.randbytes(1)
    tokens, _ = _matches_reference(data)
    values = {length - MIN_MATCH for offset, length in tokens if offset}
    assert {v.bit_length() for v in values} >= set(range(nbits + 1))
