import math
import random

import pytest

from voicepack.codecs.arith import (
    ADAPT_INCREMENT,
    MAX_TOTAL,
    AdaptiveModel,
    ac_decode,
    ac_encode,
)
from voicepack.errors import CorruptStream


def test_empty_input_encodes_only_eos():
    payload = ac_encode(b"")
    assert ac_decode(payload, 0) == b""
    # the stream is a handful of flush octets, nothing more
    assert len(payload) <= 6


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


class _CoderStub:
    """Stands in for both range coder ends: records each (cum, freq, total)
    triple, and points the decoder at slot `v`."""

    def __init__(self):
        self.v = 0
        self.triples = []

    def encode(self, cum, freq, total):
        self.triples.append((cum, freq, total))

    def decode_freq(self, total):
        return self.v

    decode_update = encode


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
        stub = _CoderStub()
        naive = [1] * n
        rescales = 0
        for _ in range(6000):
            s = rng.choice((rng.randrange(n), n - 1 - rng.randrange(3), n - 1 - rng.randrange(3)))
            expect = (sum(naive[:s]), naive[s], sum(naive))
            enc_model.encode(stub, s)
            # first or last slot of the symbol's interval
            stub.v = expect[0] + rng.choice((0, naive[s] - 1))
            assert dec_model.decode(stub) == s
            assert stub.triples == [expect, expect]
            stub.triples.clear()
            naive[s] += ADAPT_INCREMENT
            if sum(naive) > MAX_TOTAL:
                naive = [max(1, c >> 1) for c in naive]
                rescales += 1
            assert enc_model.counts == dec_model.counts == naive
            assert enc_model.total == dec_model.total == sum(naive)
        assert rescales >= 3


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
