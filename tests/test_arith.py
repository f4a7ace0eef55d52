import math
import random
import time

import pytest

from voicepack.codecs.arith import (
    ADAPT_INCREMENT,
    BLOCK_WIDTH,
    EOS,
    MAX_TOTAL,
    AdaptiveModel,
    ac_decode,
    ac_encode,
    encode_stream,
)
from voicepack.codecs.rangecoder import MASK32, RangeEncoder
from voicepack.errors import CorruptStream


def test_empty_input_encodes_only_eos():
    payload = ac_encode(b"")
    assert ac_decode(payload, 0) == b""
    # the stream is a handful of flush octets, nothing more
    assert len(payload) <= 6


@pytest.mark.parametrize("data", [
    b"",
    b"a",
    # skewed enough that the model's counts are halved along the way
    bytes(random.Random(7).choice(b"aaaaaaab") for _ in range(4000)),
])
def test_ac_encode_is_encode_stream_ending_in_eos(data):
    assert ac_encode(data) == encode_stream([*data, EOS])


def test_roundtrip_simple():
    for data in (b"a", b"hello world", b"aab" * 100, bytes(range(256))):
        assert ac_decode(ac_encode(data), len(data)) == data


def test_roundtrip_random():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(0, 3000)
        data = bytes(rng.getrandbits(8) for _ in range(n))
        assert ac_decode(ac_encode(data), len(data)) == data


def test_rescaling_inputs_roundtrip():
    # long input forces total counts past the rescale threshold
    rng = random.Random(4)
    data = bytes(rng.getrandbits(2) for _ in range(70_000))
    assert ac_decode(ac_encode(data), len(data)) == data


def test_wrong_length_rejected():
    # the decoder stops at the declared length, then requires EOS
    for data, declared, message in (
        (b"abcdef", 5, "overruns declared length"),
        (b"abcdef", 7, "ended short of declared length"),
        (b"", 1, "ended short of declared length"),
        (b"x", 0, "overruns declared length"),
    ):
        with pytest.raises(CorruptStream, match=message):
            ac_decode(ac_encode(data), declared)


def test_early_eos_with_lying_length_raises_promptly():
    # decoding stops at the first EOS, not at the declared length
    start = time.perf_counter()
    with pytest.raises(CorruptStream, match="ended short of declared length"):
        ac_decode(ac_encode(b"abcdef"), 2**31)
    assert time.perf_counter() - start < 1.0


class _TripleRecorder:
    """Stands in for RangeEncoder: records each (cum, freq, total) triple."""

    def __init__(self):
        self.triples = []

    def encode(self, cum, freq, total):
        self.triples.append((cum, freq, total))


def _payload_at(slot, total):
    """A stream whose code register starts at `slot` out of `total`: its
    octets 1-4 hold slot * (MASK32 // total)."""
    return bytes(1) + (slot * (MASK32 // total)).to_bytes(4, "big")


def _block_sums(counts):
    return [sum(counts[i:i + BLOCK_WIDTH]) for i in range(0, len(counts), BLOCK_WIDTH)]


def test_model_matches_naive_counts():
    # enough draws to pass MAX_TOTAL several times, so the block sums
    # rebuilt after each halving are checked against the naive counts too;
    # 257 is the production alphabet, whose last block holds one symbol.
    # Two draws in three go to the top three symbols, so most decodes walk
    # past every earlier block sum.
    rng = random.Random(9)
    for n in (16, 257):
        enc_model = AdaptiveModel(n)
        dec_model = AdaptiveModel(n)
        recorder = _TripleRecorder()
        naive = [1] * n
        rescales = 0
        for _ in range(6000):
            s = rng.choice((rng.randrange(n), n - 1 - rng.randrange(3), n - 1 - rng.randrange(3)))
            expect = (sum(naive[:s]), naive[s], sum(naive))
            # perfbench's _replay_ac feeds these triples to RangeEncoder in
            # place of the model, so encode must code exactly this one
            enc_model.encode(recorder, s)
            assert recorder.triples == [expect]
            recorder.triples.clear()
            # first or last slot of the symbol's interval
            slot = expect[0] + rng.choice((0, naive[s] - 1))
            assert next(dec_model.decoded(_payload_at(slot, expect[2]))) == s
            naive[s] += ADAPT_INCREMENT
            if sum(naive) > MAX_TOTAL:
                naive = [max(1, c >> 1) for c in naive]
                rescales += 1
            assert enc_model.counts == dec_model.counts == naive
            assert enc_model.total == dec_model.total == sum(naive)
            assert enc_model._blocks == dec_model._blocks == _block_sums(naive)
        assert rescales >= 3


def test_decoder_model_is_current_at_every_yield():
    # one generator over a real stream that halves its counts more than
    # once: after each symbol its model equals a model that has encoded
    # the same symbols
    rng = random.Random(12)
    data = [rng.getrandbits(8) & rng.getrandbits(8) for _ in range(5000)] + [EOS]
    enc = RangeEncoder()
    enc_model = AdaptiveModel(257)
    for s in data:
        enc_model.encode(enc, s)
    mirror = AdaptiveModel(257)
    recorder = _TripleRecorder()
    model = AdaptiveModel(257)
    halvings = 0
    for expect, s in zip(data, model.decoded(enc.finish())):
        assert s == expect
        halvings += mirror.total + ADAPT_INCREMENT > MAX_TOTAL
        mirror.encode(recorder, s)
        assert model.total == mirror.total
        assert model.counts == mirror.counts
        assert model._blocks == mirror._blocks
    assert model.counts == enc_model.counts
    assert halvings >= 2


def entropy_bits(probs):
    return -sum(p * math.log2(p) for p in probs if p)


def encoded_bits(data):
    return len(ac_encode(data)) * 8


@pytest.mark.parametrize("probs,seed", [
    ((0.9, 0.1), 101),
    ((0.5, 0.25, 0.125, 0.125), 102),
    ((0.25,) * 4, 103),
])
def test_efficiency_bound_iid(probs, seed):
    # encoded size <= n*H0 + 0.1*n + 64 bits for i.i.d. n >= 1000
    n = 2000
    rng = random.Random(seed)
    symbols = rng.choices(range(len(probs)), weights=probs, k=n)
    data = bytes(symbols)
    budget = n * entropy_bits(probs) + 0.1 * n + 64
    assert encoded_bits(data) <= budget
