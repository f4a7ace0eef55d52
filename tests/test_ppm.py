import random

import pytest

from voicepack.codecs.lzw import encode_payload as lzw_payload
from voicepack.codecs.ppm import ContextModel, ppm_decode, ppm_encode
from voicepack.errors import CorruptStream

ROLL_MASK = (1 << 64) - 1


def feed(model, data):
    hist = 0
    for i, sym in enumerate(data):
        model.update(hist, i, sym)
        hist = ((hist << 8) | sym) & ROLL_MASK
    return hist


def model_counts(model, context):
    """The model's count map for one context, keyed the way update keys it."""
    key = int.from_bytes(context, "big") | len(context) << 64
    ctx = model._table.get(key)
    return {} if ctx is None else dict(zip(ctx.syms, ctx.cnts))


def brute_counts(data, context, order):
    """Oracle: count occurrences of each symbol after `context` in data."""
    counts = {}
    k = len(context)
    assert k <= order
    for i in range(len(data)):
        if i >= k and bytes(data[i - k:i]) == context:
            counts[data[i]] = counts.get(data[i], 0) + 1
    return counts


def test_context_counts_abab():
    model = ContextModel(1)
    feed(model, b"abab")
    assert model_counts(model, b"a") == {ord("b"): 2}
    assert model_counts(model, b"a") == brute_counts(b"abab", b"a", 1)


def test_context_counts_match_brute_force():
    rng = random.Random(21)
    data = bytes(rng.choice(b"abc") for _ in range(400))
    order = 3
    model = ContextModel(order)
    feed(model, data)
    for context in (b"", b"a", b"cb", b"abc", b"ccc"):
        assert model_counts(model, context) == brute_counts(data, context, order)


def halving_input():
    """70,000 binary symbols: the order-0 context's counts halve once."""
    rng = random.Random(10)
    return bytes(rng.getrandbits(1) for _ in range(70_000))


def skewed_input():
    rng = random.Random(8)
    return bytes(rng.getrandbits(8) & rng.getrandbits(8) for _ in range(6000))


@pytest.mark.parametrize("make_data, order", [(skewed_input, 3), (halving_input, 2)])
def test_context_symbols_within_suffix_context(make_data, order):
    # the coder's exclusion set is the last escaped context's symbol list,
    # which holds only because of this subset property
    data = make_data()
    model = ContextModel(order)
    feed(model, data)
    if make_data is halving_input:
        assert sum(model_counts(model, b"").values()) < len(data)
    for key, ctx in model._table.items():
        length = key >> 64
        context = (key & ROLL_MASK).to_bytes(length, "big")
        assert model_counts(model, context).keys() == set(ctx.syms)
        if length:
            assert set(ctx.syms) <= model_counts(model, context[1:]).keys()


def test_order_range_validated():
    with pytest.raises(ValueError):
        ContextModel(9)
    with pytest.raises(ValueError):
        ContextModel(-1)


def test_single_symbol_codes_through_escape_chain():
    # no context exists for the first symbol: order -1 carries it
    payload = ppm_encode(b"Q", 3)
    assert ppm_decode(payload, 1, 3) == b"Q"


def test_roundtrip_texts():
    for k in (0, 1, 3, 5):
        for data in (b"", b"a", b"abracadabra" * 40, bytes(range(256)) * 3):
            assert ppm_decode(ppm_encode(data, k), len(data), k) == data


def test_roundtrip_random():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(0, 2500)
        data = bytes(rng.getrandbits(8) for _ in range(n))
        assert ppm_decode(ppm_encode(data, 3), len(data), 3) == data


def test_roundtrip_skewed_random():
    data = skewed_input()
    assert ppm_decode(ppm_encode(data, 3), len(data), 3) == data


def test_rescale_path_roundtrips():
    data = halving_input()
    assert ppm_decode(ppm_encode(data, 2), len(data), 2) == data


def test_beats_lzw_on_long_runs():
    # regression fixture, not ground truth: high-order context modeling
    # must crush a pure dictionary coder on a single repeated symbol
    data = b"a" * 1000
    assert len(ppm_encode(data, 3)) < len(lzw_payload(data, 14))


def test_wrong_length_rejected():
    payload = ppm_encode(b"hello ppm", 3)
    with pytest.raises(CorruptStream):
        ppm_decode(payload, 4, 3)


def test_order_mismatch_often_detected_or_wrong():
    # decoding with a different order is out of contract; just ensure it
    # cannot silently return the original payload bytes as a false pass
    data = b"the quick brown fox jumps over the lazy dog " * 20
    payload = ppm_encode(data, 3)
    try:
        got = ppm_decode(payload, len(data), 1)
    except CorruptStream:
        return
    assert got != data
