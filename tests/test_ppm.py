import hashlib
import itertools
import random
import time
from types import SimpleNamespace

import pytest

from voicepack import codecs
from voicepack.codecs.lzw import encode_payload as lzw_payload
from voicepack.codecs.ppm import (
    EOS, ORDER, ContextModel, _Ctx, _decoded, _encode, ppm_decode, ppm_encode)
from voicepack.codecs.rangecoder import RangeEncoder
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
        return SimpleNamespace(syms=[], cnts=[], total=0, kids=kids, blocks=None)
    if kids is not None:
        kids.append(kid + 1)
    return SimpleNamespace(syms=[model.past[kid]], cnts=[1], total=1, kids=kids, blocks=None)


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
    payload = ppm_encode(b"Q")
    assert ppm_decode(payload, 1) == b"Q"


def test_roundtrip_texts():
    for data in (b"", b"a", b"abracadabra" * 40, bytes(range(256)) * 3):
        assert ppm_decode(ppm_encode(data), len(data)) == data


def test_roundtrip_random():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(0, 2500)
        data = bytes(rng.getrandbits(8) for _ in range(n))
        assert ppm_decode(ppm_encode(data), len(data)) == data


def test_roundtrip_skewed_random():
    data = skewed_input()
    assert ppm_decode(ppm_encode(data), len(data)) == data


def coded_at(data, order):
    """ppm_encode's coder over a context model of any order."""
    return _encode(ContextModel(order), data)


def pairs16_input():
    """8,192 octets: every pair (a, b), a < 16: 16 full order-1 contexts."""
    return bytes(x for a in range(16) for b in range(256) for x in (a, b))


def root_halving_input():
    """70,000 uniform octets: the full order-0 context halves its counts."""
    return random.Random(11).randbytes(70_000)


# Every input is pinned at ORDER, the one order streams are coded with.
# The trie keeps its order parameter, so the other orders stay pinned
# too: order 0 (the root is a leaf) and the depth-k leaf boundary.
@pytest.mark.parametrize("make_data, order, digest", [
    (skewed_input, 0, "ee6fcdcbf41e25a0b90fc2160060c5e38cce8561153aafa484613f6a9da53d02"),
    (skewed_input, 1, "199826377058bce4b3184a01f3bc608df19dd55e855f2a2964ae09098d1ecd39"),
    (skewed_input, 2, "7455fd4442ec298b784a53d4b65fe931d5e1c3387ba5534b335ef056fca01dc7"),
    (skewed_input, 3, "1cddfeda01bc66759056f98bade2b3369737a8dd4fa40cec15909fe78aa6ec7c"),
    (skewed_input, 4, "e2ac1ffd2f60f80d2802771de710b3c805f6d124b26c837359e80b23ba7885bc"),
    (skewed_input, 5, "e2ac1ffd2f60f80d2802771de710b3c805f6d124b26c837359e80b23ba7885bc"),
    (abracadabra_input, 3, "d619260a1e3facb0341bbcfaff6d7b1550017424737dcda089fdba4ab4af4b60"),
    (abracadabra_input, 5, "76147fffd4b160820b94c2b38542e9f2bde0b47f0714c60577cf4005beb4cae7"),
    (halving_input, 2, "e8c2ef3c7eaf33042aa829e1c7d0431d85112d9b662b3c04993fdb699d1eaed5"),
    (halving_input, 3, "6df87444c2ac09726d9d7d0e3a228135f743f11ac88c681214bee99a48601bb5"),
    (random_input, 3, "5a78309d70b5f345e66776ecd2b643b6a6fc83e692d69b170fcbe14246ab052e"),
    (amr_input, 3, "8c6fcbe6585758ecdec7b730e3be67a99280902e035e7676f2770767bab06c5a"),
    (pairs16_input, 3, "0ba9454cb46f7dae8f9091e833db7e980b27e7459c0e372a47db14eca32fd08f"),
    (root_halving_input, 3, "816adb8497bb8fd98831819e90cebc06e1d4ea877a4d4d6b05e44b98840a8bc5"),
])
def test_payload_digests_pinned(make_data, order, digest):
    payload = ppm_encode(make_data()) if order == ORDER else coded_at(make_data(), order)
    assert hashlib.sha256(payload).hexdigest() == digest


def masked_slots(ctx, excl):
    """Oracle: (symbol, cum, freq) per symbol of `ctx`, excluded counts zeroed."""
    slots, cum = [], 0
    for sym, cnt in zip(ctx.syms, ctx.cnts):
        cnt = 0 if sym in excl else cnt
        slots.append((sym, cum, cnt))
        cum += cnt
    return slots, cum


def oracle_triples(contexts, sym):
    """Oracle: the (cum, freq, total) triples that code `sym` in `contexts`
    (shortest first), from masked_slots: each context from the longest
    down that has a symbol left, escaping until one holds `sym`, then
    order -1 over the symbols no escaped context holds."""
    triples, excl = [], set()
    for ctx in reversed(contexts):
        if not set(ctx.syms) - excl:
            continue
        slots, avail = masked_slots(ctx, excl)
        total = avail + len(ctx.syms)
        hit = [(cum, freq) for s, cum, freq in slots if s == sym]
        if hit:
            return triples + [(*hit[0], total)]
        triples.append((avail, len(ctx.syms), total))
        excl = set(ctx.syms)
    left = [s for s in range(EOS + 1) if s not in excl]
    return triples + [(left.index(sym), 1, len(left))]


def coded(triples):
    """A test-local encoder: the stream of `triples` through RangeEncoder.encode."""
    enc = RangeEncoder()
    for triple in triples:
        enc.encode(*triple)
    return enc.finish()


def oracle_stream(data, order):
    """The stream ppm_encode's coder must write for `data`, from the oracle."""
    model = ContextModel(order)
    triples = []
    for sym in data:
        triples += oracle_triples(model.contexts, sym)
        model.update(None, None, sym)
    return coded(triples + oracle_triples(model.contexts, EOS))


def fixed(contexts):
    """A stand-in model whose active contexts stay `contexts`."""
    return SimpleNamespace(contexts=contexts, update=lambda hist, depth, sym: None)


def decode_first(contexts, triples):
    """The first symbol the PPM decoder reads, in `contexts`, from the
    stream of `triples`."""
    return next(_decoded(fixed(contexts), coded(triples)))


def check_decode_slots(ctx, higher=None):
    """Decode the first and last slot of each symbol of `ctx`, after an
    escape from `higher`, and compare the symbol with the oracle's.

    Each tested slot is coded as a one-slot triple after the true triples
    of the steps before it, so the decoder reads exactly that slot: the
    first and last of every symbol, so of every block too; the
    escape's first and last slot; and order -1's first slot and the top of
    its last slot, which takes the range's remainder."""
    contexts = [ctx, higher] if higher else [ctx]
    excl = set(higher.syms) if higher else set()
    prefix = [(higher.total, len(excl), higher.total + len(excl))] if higher else []
    slots, avail = masked_slots(ctx, excl)
    esc = len(ctx.syms)
    total = avail + esc
    for sym, cum, freq in slots:
        for v in {cum, cum + freq - 1} if freq else ():
            assert decode_first(contexts, prefix + [(v, 1, total)]) == sym, v
    escape = prefix + [(avail, esc, total)]
    left = [s for s in range(EOS + 1) if s not in ctx.syms]
    top = [(len(left) - 1, 1, len(left))] + [(255, 1, 256)] * 4
    assert decode_first(contexts, escape + [(0, 1, len(left))]) == left[0]
    assert decode_first(contexts, escape + top) == left[-1]
    assert decode_first(contexts, prefix + [(total - 1, 1, total)]) in left


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
    # 64: a small context; 65 and 100: block sums on the fly; 256: stored sums
    model = order1_model(alphabet)
    assert (model.root.blocks is None) == (alphabet < 256)
    check_decode_slots(model.root)
    for octet in (0, alphabet // 2, alphabet - 1):
        check_decode_slots(model.root, child(model, [octet]))


@pytest.mark.parametrize("alphabet", [64, 65, 100, 256])
def test_encode_slots_match_masked_cumulative_counts(alphabet):
    # every octet and EOS, coded in the order-0 context after an escape
    # from an order-1 one: hits below, between and above the excluded
    # symbols, escapes to order -1, and hits in the higher context; each
    # is followed by EOS, whose coding depends on the range the symbol left
    model = order1_model(alphabet)
    for octet in (0, alphabet // 2, alphabet - 1):
        contexts = [model.root, child(model, [octet])]
        assert 0 < len(contexts[1].syms) < alphabet
        end = oracle_triples(contexts, EOS)
        assert _encode(fixed(contexts), b"") == coded(end)
        for sym in range(EOS):
            want = oracle_triples(contexts, sym) + end
            assert _encode(fixed(contexts), bytes([sym])) == coded(want), sym


@pytest.mark.parametrize("alphabet, lo, width", [
    (255, 32, 32), (100, 0, 16), (100, 32, 16), (100, 80, 16)])
def test_decode_slots_skip_an_all_excluded_block(alphabet, lo, width):
    # after 0xFF come exactly the octets lo..lo + width - 1: escaping from
    # that context zeroes whole blocks of the order-0 context, two of the
    # stored sums of a full one, or one block of a 101-symbol one, whose
    # sums the decoder takes on the fly
    rng = random.Random(12)
    data = bytes(rng.randrange(alphabet) for _ in range(3000))
    data += b"".join(bytes([0xFF, s]) for s in range(lo, lo + width))
    model = ContextModel(1)
    feed(model, data)
    higher = child(model, [0xFF])
    assert len(model.root.syms) == alphabet + 1
    assert (model.root.blocks is None) == (alphabet + 1 < 256)
    assert higher.syms == list(range(lo, lo + width))
    check_decode_slots(model.root, higher)


@pytest.mark.parametrize("make_data, order", [
    (skewed_input, 2), (amr_input, 3), (abracadabra_input, 5), (pairs16_input, 3)])
def test_coders_match_the_oracle_stream(make_data, order):
    # whole streams: every symbol's triple, and so every count and exclusion
    # the coders read, on both sides
    data = make_data()
    stream = oracle_stream(data, order)
    assert coded_at(data, order) == stream
    symbols = _decoded(ContextModel(order), stream)
    assert list(itertools.islice(symbols, len(data) + 1)) == [*data, EOS]


def test_pinned_inputs_reach_the_full_context_paths():
    # pairs16_input fills order-1 contexts and codes hits in them with
    # exclusions; root_halving_input halves a full context's counts, so
    # its block sums are rebuilt.  No other pin does either.
    data = pairs16_input()
    model = ContextModel(3)
    hits = 0
    for sym in data:
        contexts = model.contexts
        coder = next((k for k in range(len(contexts) - 1, -1, -1)
                      if sym in contexts[k].syms), None)
        if coder == 1 and len(contexts[1].syms) == 256 and any(c.syms for c in contexts[2:]):
            hits += 1
        model.update(None, None, sym)
    assert sum(not isinstance(kid, int) and len(kid.syms) == 256
               for kid in model.root.kids) == 16
    assert hits == 120
    data = root_halving_input()
    model = ContextModel(3)
    halvings = 0
    for sym in data:
        total = model.root.total
        model.update(None, None, sym)
        halvings += model.root.total < total
    root = model.root
    assert (halvings, root.total, len(root.syms)) == (1, 37_298, 256)
    assert root.blocks == [sum(root.cnts[i:i + 16]) for i in range(0, 256, 16)]
    for data in (pairs16_input(), root_halving_input()):
        assert ppm_decode(ppm_encode(data), len(data)) == data


def test_order_5_differs_from_order_4():
    # skewed_input() codes alike at orders 4 and 5, so only this input
    # shows that the order-5 pin is not an order-4 pin
    data = abracadabra_input()
    assert coded_at(data, 4) != coded_at(data, 5)


def test_rescale_path_roundtrips():
    data = halving_input()
    assert ppm_decode(ppm_encode(data), len(data)) == data


def test_beats_lzw_on_long_runs():
    # regression fixture, not ground truth: high-order context modeling
    # must crush a pure dictionary coder on a single repeated symbol
    data = b"a" * 1000
    assert len(ppm_encode(data)) < len(lzw_payload(data))


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
            ppm_decode(ppm_encode(data), declared)


def test_early_eos_with_lying_length_raises_promptly():
    # decoding stops at the first EOS, not at the declared length
    start = time.perf_counter()
    with pytest.raises(CorruptStream, match="ended short of declared length"):
        ppm_decode(ppm_encode(b"abcdef"), 2**31)
    assert time.perf_counter() - start < 1.0


def test_benchmark_replays_the_stream_order():
    # the benchmark times ContextModel(DEFAULT_CONFIG.ppm_order).update as
    # the production model's update
    assert codecs.DEFAULT_CONFIG.ppm_order == ORDER
