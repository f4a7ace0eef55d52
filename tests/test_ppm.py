import hashlib
import itertools
import random
import time
from types import SimpleNamespace

import pytest

from voicepack.codecs.lzw import encode_payload as lzw_payload
from voicepack.codecs.ppm import (
    EOS, ContextModel, _Ctx, _decode_symbol, _encode_symbol, ppm_decode, ppm_encode)
from voicepack.errors import CorruptStream


def feed(model, data):
    for sym in data:
        model.update(None, None, sym)


def entry(model, kid, depth):
    """A trie child as a node.  An int child p is a context seen once: its
    one symbol is model.past[p] (none yet at the end of the input) and
    that symbol's child is p + 1."""
    if not isinstance(kid, int):
        return kid
    kids = None if depth == model.order else []
    if kid == len(model.past):
        return SimpleNamespace(syms=[], cnts=[], total=0, kids=kids)
    if kids is not None:
        kids.append(kid + 1)
    return SimpleNamespace(syms=[model.past[kid]], cnts=[1], total=1, kids=kids)


def child(model, context):
    node = model.root
    for depth, octet in enumerate(context, 1):
        node = entry(model, node.kids[node.syms.index(octet)], depth)
    return node


def model_counts(model, context):
    """The model's count map for one context, found by following child links."""
    node = model.root
    for depth, octet in enumerate(context, 1):
        if node.kids is None or octet not in node.syms:
            return {}
        node = entry(model, node.kids[node.syms.index(octet)], depth)
    return dict(zip(node.syms, node.cnts))


def trie_nodes(model, node, context=b""):
    """Every (context, node) pair of the trie under `node`, int children
    read as nodes."""
    yield context, node
    for octet, kid in zip(node.syms, node.kids or ()):
        yield from trie_nodes(model, entry(model, kid, len(context) + 1),
                              context + bytes([octet]))


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


def abracadabra_input():
    """440 octets of an 11-octet period: orders 4 and 5 code it differently."""
    return b"abracadabra" * 40


def skewed_input():
    rng = random.Random(8)
    return bytes(rng.getrandbits(8) & rng.getrandbits(8) for _ in range(6000))


def random_input():
    """8000 uniform octets: the order-0 context holds all 256 octets."""
    return random.Random(9).randbytes(8000)


def amr_input():
    """An AMR-12.2-like clip: a magic line, then 60 frames of a 0x3C
    header octet and 31 random octets."""
    rng = random.Random(3)
    return b"#!AMR\n" + b"".join(b"\x3c" + rng.randbytes(31) for _ in range(60))


@pytest.mark.parametrize("make_data", [random_input, amr_input])
def test_pinned_inputs_fill_a_context(make_data):
    # the digest pins below cover the full-context branch only if this holds
    model = ContextModel(3)
    feed(model, make_data())
    assert len(model.root.syms) == 256


@pytest.mark.parametrize("make_data, order", [(skewed_input, 3), (halving_input, 2)])
def test_context_symbols_within_suffix_context(make_data, order):
    # the coder's exclusion set is the last escaped context's symbol list,
    # which holds only because of this subset property
    data = make_data()
    model = ContextModel(order)
    feed(model, data)
    if make_data is halving_input:
        assert sum(model_counts(model, b"").values()) < len(data)
    for context, node in trie_nodes(model, model.root):
        if len(context) == order:
            assert node.kids is None
        else:
            assert len(node.kids) == len(node.syms)
        assert model_counts(model, context).keys() == set(node.syms)
        if context:
            assert set(node.syms) <= model_counts(model, context[1:]).keys()


@pytest.mark.parametrize("alphabet, longest", [(b"ab", 8), (b"abc", 6)])
def test_every_short_string_counts_like_brute_force(alphabet, longest):
    # covers a context that recurs at the very next position and one
    # first seen at the last symbol, which holds no count yet
    for order in range(4):
        contexts = [bytes(c) for n in range(order + 1)
                    for c in itertools.product(alphabet, repeat=n)]
        for n in range(longest + 1):
            for data in itertools.product(alphabet, repeat=n):
                data = bytes(data)
                model = ContextModel(order)
                feed(model, data)
                for context in contexts:
                    assert model_counts(model, context) == brute_counts(
                        data, context, order), (data, order, context)
                # the active list holds the suffixes that have counts
                assert len(model.contexts) <= min(order, n) + 1
                for j in range(min(order, n) + 1):
                    suffix = data[n - j:]
                    if j < len(model.contexts):
                        ctx = model.contexts[j]
                        assert dict(zip(ctx.syms, ctx.cnts)) == brute_counts(
                            data, suffix, order)
                    else:
                        assert brute_counts(data, suffix, order) == {}


def test_random_input_makes_few_nodes():
    # a context seen once stays an int child: an eager trie holds 19,528
    # nodes after this input
    model = ContextModel(3)
    feed(model, random.Random(1).randbytes(10_000))
    nodes = [node for _, node in trie_nodes(model, model.root)
             if isinstance(node, _Ctx)]
    assert len(nodes) < 2000
    assert all(isinstance(ctx, _Ctx) for ctx in model.contexts)


def test_order_range_validated():
    with pytest.raises(ValueError):
        ContextModel(-1)


def test_single_symbol_codes_through_escape_chain():
    # no context exists for the first symbol: order -1 carries it
    payload = ppm_encode(b"Q", 3)
    assert ppm_decode(payload, 1, 3) == b"Q"


def test_roundtrip_texts():
    # the trie has no upper order limit
    for k in (0, 1, 3, 5, 12):
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


# tests/test_golden.py pins order 3 only; these pin the other orders,
# including order 0 (the root is a leaf) and the depth-k leaf boundary.
@pytest.mark.parametrize("make_data, order, digest", [
    (skewed_input, 0, "ee6fcdcbf41e25a0b90fc2160060c5e38cce8561153aafa484613f6a9da53d02"),
    (skewed_input, 1, "199826377058bce4b3184a01f3bc608df19dd55e855f2a2964ae09098d1ecd39"),
    (skewed_input, 2, "7455fd4442ec298b784a53d4b65fe931d5e1c3387ba5534b335ef056fca01dc7"),
    (skewed_input, 4, "e2ac1ffd2f60f80d2802771de710b3c805f6d124b26c837359e80b23ba7885bc"),
    (skewed_input, 5, "e2ac1ffd2f60f80d2802771de710b3c805f6d124b26c837359e80b23ba7885bc"),
    (abracadabra_input, 5, "76147fffd4b160820b94c2b38542e9f2bde0b47f0714c60577cf4005beb4cae7"),
    (halving_input, 2, "e8c2ef3c7eaf33042aa829e1c7d0431d85112d9b662b3c04993fdb699d1eaed5"),
    (random_input, 3, "5a78309d70b5f345e66776ecd2b643b6a6fc83e692d69b170fcbe14246ab052e"),
    (amr_input, 3, "8c6fcbe6585758ecdec7b730e3be67a99280902e035e7676f2770767bab06c5a"),
])
def test_payload_digests_pinned(make_data, order, digest):
    assert hashlib.sha256(ppm_encode(make_data(), order)).hexdigest() == digest


class ScriptedDecoder:
    """Hands `_decode_symbol` chosen slots and records what it commits."""

    def __init__(self, slots):
        self.slots = list(slots)
        self.updates = []

    def decode_freq(self, total):
        return self.slots.pop(0)

    def decode_update(self, cum, freq, total):
        self.updates.append((cum, freq, total))


def masked_slots(ctx, excl):
    """Oracle: (symbol, cum, freq) per symbol of `ctx`, excluded counts zeroed."""
    slots, cum = [], 0
    for sym, cnt in zip(ctx.syms, ctx.cnts):
        cnt = 0 if sym in excl else cnt
        slots.append((sym, cum, cnt))
        cum += cnt
    return slots, cum


def check_decode_slots(ctx, higher=None):
    """Decode each interesting slot of `ctx`, after an escape from `higher`,
    and compare (symbol, cum, freq, total) with the brute-force oracle.

    The slots are the first and last of each symbol, so every 32-symbol
    chunk boundary too, and the escape slot, which the order -1 step
    follows."""
    excl = set(higher.syms) if higher else set()
    slots, avail = masked_slots(ctx, excl)
    esc = len(ctx.syms)
    total = avail + esc
    edges = {cum for _, cum, _ in slots} | {avail}
    prefix = [higher.total] if higher else []  # higher's escape slot
    for v in sorted((edges | {b - 1 for b in edges if b}) - {avail}):
        dec = ScriptedDecoder(prefix + [v])
        got = _decode_symbol(dec, [ctx, higher] if higher else [ctx])
        sym, cum, freq = next(s for s in slots if s[1] <= v < s[1] + s[2])
        assert (got, dec.updates[-1]) == (sym, (cum, freq, total)), v
    # slot 0 of order -1 is the least symbol no context holds
    dec = ScriptedDecoder(prefix + [avail, 0])
    got = _decode_symbol(dec, [ctx, higher] if higher else [ctx])
    assert dec.updates[len(prefix)] == (avail, esc, total)
    assert got == min(set(range(EOS + 1)) - set(ctx.syms))


@pytest.mark.parametrize("alphabet", [1, 2, 8])
def test_decode_slots_of_small_contexts(alphabet):
    # an order-0 model: the root is the only context, nothing is excluded
    rng = random.Random(alphabet)
    model = ContextModel(0)
    feed(model, bytes(rng.randrange(alphabet) for _ in range(500)))
    assert len(model.root.syms) == alphabet
    check_decode_slots(model.root)


def order1_model(alphabet):
    """An order-1 model of 4000 random octets below `alphabet`."""
    rng = random.Random(alphabet)
    model = ContextModel(1)
    feed(model, bytes(rng.randrange(alphabet) for _ in range(4000)))
    assert len(model.root.syms) == alphabet
    return model


@pytest.mark.parametrize("alphabet", [64, 65, 100, 256])
def test_decode_slots_match_masked_cumulative_counts(alphabet):
    model = order1_model(alphabet)
    check_decode_slots(model.root)
    for octet in (0, alphabet // 2, alphabet - 1):
        check_decode_slots(model.root, child(model, [octet]))


class ScriptedEncoder:
    """Records the (cum, freq, total) triples `_encode_symbol` codes."""

    def __init__(self):
        self.triples = []

    def encode(self, cum, freq, total):
        self.triples.append((cum, freq, total))


@pytest.mark.parametrize("alphabet", [64, 65, 100, 256])
def test_encode_slots_match_masked_cumulative_counts(alphabet):
    # every octet and EOS, coded in the order-0 context after an escape
    # from an order-1 one: hits below, between and above the excluded
    # symbols, escapes to order -1, and hits in the higher context
    model = order1_model(alphabet)
    ctx = model.root
    for octet in (0, alphabet // 2, alphabet - 1):
        higher = child(model, [octet])
        excl = set(higher.syms)
        assert 0 < len(excl) < alphabet
        top, _ = masked_slots(higher, set())
        slots, avail = masked_slots(ctx, excl)
        esc = len(ctx.syms)
        for sym in range(EOS + 1):
            enc = ScriptedEncoder()
            _encode_symbol(enc, [ctx, higher], sym)
            if sym in excl:
                _, cum, freq = next(s for s in top if s[0] == sym)
                assert enc.triples == [(cum, freq, higher.total + len(excl))]
                continue
            want = [(higher.total, len(excl), higher.total + len(excl))]
            hit = [s for s in slots if s[0] == sym]
            if hit:
                _, cum, freq = hit[0]
                want.append((cum, freq, avail + esc))
            else:
                below = sum(1 for s in ctx.syms if s < sym)
                want += [(avail, esc, avail + esc), (sym - below, 1, EOS + 1 - esc)]
            assert enc.triples == want, sym


def test_decode_slots_skip_an_all_excluded_chunk():
    # after 0xFF come exactly the octets 32..63: escaping from that context
    # zeroes the whole second chunk of the full order-0 context
    rng = random.Random(12)
    data = bytes(rng.randrange(255) for _ in range(3000))
    data += b"".join(bytes([0xFF, s]) for s in range(32, 64))
    model = ContextModel(1)
    feed(model, data)
    higher = child(model, [0xFF])
    assert len(model.root.syms) == 256 and higher.syms == list(range(32, 64))
    check_decode_slots(model.root, higher)


def test_order_5_differs_from_order_4():
    # skewed_input() codes alike at orders 4 and 5, so only this input
    # shows that the order-5 pin is not an order-4 pin
    data = abracadabra_input()
    assert ppm_encode(data, 4) != ppm_encode(data, 5)


def test_rescale_path_roundtrips():
    data = halving_input()
    assert ppm_decode(ppm_encode(data, 2), len(data), 2) == data


def test_beats_lzw_on_long_runs():
    # regression fixture, not ground truth: high-order context modeling
    # must crush a pure dictionary coder on a single repeated symbol
    data = b"a" * 1000
    assert len(ppm_encode(data, 3)) < len(lzw_payload(data, 14))


def test_wrong_length_rejected():
    # the decoder stops at the declared length, then requires EOS
    for data, declared, message in (
        (b"hello ppm", 4, "overruns declared length"),
        (b"hello ppm", 8, "overruns declared length"),
        (b"hello ppm", 10, "ended short of declared length"),
        (b"", 1, "ended short of declared length"),
        (b"x", 0, "overruns declared length"),
    ):
        with pytest.raises(CorruptStream, match=message):
            ppm_decode(ppm_encode(data, 3), declared, 3)


def test_early_eos_with_lying_length_raises_promptly():
    # decoding stops at the first EOS, not at the declared length
    start = time.perf_counter()
    with pytest.raises(CorruptStream, match="ended short of declared length"):
        ppm_decode(ppm_encode(b"abcdef", 3), 2**31, 3)
    assert time.perf_counter() - start < 1.0


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
