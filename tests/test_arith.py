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
    payload = ac_encode(b"abcdef")
    with pytest.raises(CorruptStream):
        ac_decode(payload, 5)
    with pytest.raises(CorruptStream):
        ac_decode(payload, 7)


def test_model_matches_naive_counts():
    # enough draws to pass MAX_TOTAL several times, so the Fenwick tree
    # rebuilt after each halving is checked against the naive counts too
    rng = random.Random(9)
    m = AdaptiveModel(16)
    naive = [1] * 16
    rescales = 0
    for _ in range(6000):
        s = rng.randrange(16)
        assert m._prefix(s) == sum(naive[:s])
        assert m.counts[s] == naive[s]
        assert m.total == sum(naive)
        v = rng.randrange(m.total)
        sym, cum = m._find(v)
        acc = 0
        expect = None
        for i, c in enumerate(naive):
            if acc <= v < acc + c:
                expect = (i, acc)
                break
            acc += c
        assert (sym, cum) == expect
        m._bump(s)
        naive[s] += ADAPT_INCREMENT
        if sum(naive) > MAX_TOTAL:
            naive = [max(1, c >> 1) for c in naive]
            rescales += 1
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
