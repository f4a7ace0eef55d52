"""Spans around the public calls of each voicepack layer, and the per-layer
metrics derived from them.

The library is not edited.  While one traced round trip runs,
``Tracer.traced`` replaces the module and class attributes listed in
``HOOKS`` with wrappers that record a span, then puts the originals back.
Production code looks these names up at call time, so the spans nest the
way the calls do: ``codecs.compress`` inside ``pipeline.encode_message``,
``lz.lz77_parse`` inside ``lz.encode_payload``, and so on.  A span is
``(name, start_ns, end_ns, parent, req, clip, codec, count)``: ``parent``
is the index of the enclosing span (-1 at the top), ``req`` numbers the
clip sends of the run, ``clip`` is the clip's index in the workload and
``count`` is the length of a stage's result where that is a work count
(tokens, codes).

Stages that live inside a per-symbol loop (the PPM model update, the
AdaptiveModel versus range coder split) cannot be wrapped without timing
every symbol.  ``Tracer.probe`` measures them by replaying the same calls
on the same clip after the round trip, with the hooks removed.

A hook whose target has gone, a stage that is no longer called and a
replay whose signature no longer fits all make the metrics that need them
missing; the round trips themselves still run and are still checked.
"""

import importlib
import inspect
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

CODECS = ("lzw", "lzma", "huffman", "ppm", "ac", "bwt")

# (module, class or None, attribute, span name, record len(result) as count)
HOOKS = (
    ("voicepack.pipeline", None, "encode_message", "pipeline.encode_message", False),
    ("voicepack.pipeline", None, "decode_message", "pipeline.decode_message", False),
    ("voicepack.pipeline", None, "compress", "codecs.compress", False),
    ("voicepack.pipeline", None, "decompress", "codecs.decompress", False),
    ("voicepack.codecs", "CompressedBlob", "to_bytes", "codecs.to_bytes", False),
    ("voicepack.codecs", "CompressedBlob", "parse", "codecs.parse", False),
    ("voicepack.sms", None, "segment", "sms.segment", False),
    ("voicepack.sms", None, "outbox_write", "sms.outbox_write", False),
    ("voicepack.sms", None, "inbox_collect", "sms.inbox_collect", False),
    ("voicepack.sms", None, "reassemble", "sms.reassemble", False),
    ("voicepack.codecs.lzw", None, "encode_payload", "lzw.encode_payload", False),
    ("voicepack.codecs.lzw", None, "lzw_encode", "lzw.lzw_encode", True),
    ("voicepack.codecs.lzw", None, "pack_codes", "lzw.pack_codes", False),
    ("voicepack.codecs.lzw", None, "decode_payload", "lzw.decode_payload", False),
    ("voicepack.codecs.lz", None, "encode_payload", "lz.encode_payload", False),
    ("voicepack.codecs.lz", None, "lz77_parse", "lz.lz77_parse", True),
    ("voicepack.codecs.lz", None, "decode_payload", "lz.decode_payload", False),
    ("voicepack.codecs.huffman", None, "huffman_encode", "huffman.huffman_encode", False),
    ("voicepack.codecs.huffman", None, "build_huffman_table", "huffman.build_huffman_table", False),
    ("voicepack.codecs.huffman", None, "huffman_decode", "huffman.huffman_decode", False),
    ("voicepack.codecs.ppm", None, "ppm_encode", "ppm.ppm_encode", False),
    ("voicepack.codecs.ppm", None, "ppm_decode", "ppm.ppm_decode", False),
    ("voicepack.codecs.arith", None, "ac_encode", "arith.ac_encode", False),
    ("voicepack.codecs.arith", None, "ac_decode", "arith.ac_decode", False),
    ("voicepack.codecs.arith", None, "AdaptiveModel", "arith.AdaptiveModel", False),
    ("voicepack.codecs.bwt", None, "AdaptiveModel", "arith.AdaptiveModel", False),
    ("voicepack.codecs.bwt", None, "encode_payload", "bwt.encode_payload", False),
    ("voicepack.codecs.bwt", None, "bwt_forward", "bwt.bwt_forward", False),
    ("voicepack.codecs.bwt", None, "mtf_rle_encode", "bwt.mtf_rle_encode", True),
    ("voicepack.codecs.bwt", None, "decode_payload", "bwt.decode_payload", False),
    ("voicepack.codecs.bwt", None, "bwt_inverse", "bwt.bwt_inverse", False),
    ("voicepack.codecs.bwt", None, "mtf_decode", "bwt.mtf_decode", False),
)

# ppm_encode/ppm_decode keep the last 8 octets in a rolling integer of
# this width; the update replay rebuilds the same history.
_PPM_ROLL_MASK = (1 << 64) - 1

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "req", "clip", "codec", "count")


class Missing(Exception):
    """A per-layer metric cannot be derived from what this run recorded."""


def _resolve(module_name, class_name):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


class Tracer:
    """Spans and replay timings of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._context = (-1, -1, "")
        self._patches = []
        self.absent_hooks = []
        self.broken_probes = {}
        self.replays = defaultdict(list)  # replay name -> [ns per probe]
        self.header_octets = 0
        for module_name, class_name, attr, span, counted in HOOKS:
            owner = _resolve(module_name, class_name)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                self.absent_hooks.append(".".join(filter(None, (module_name, class_name, attr))))
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, span, counted))
            else:
                wrapped = self._wrap(raw, span, counted)
            self._patches.append((owner, attr, raw, wrapped))

    def _wrap(self, fn, name, counted):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, *self._context, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counted:
                rec[7] = len(result)
            return result

        return traced

    @contextmanager
    def traced(self, req, clip, codec):
        """Record spans for every hooked call made inside the block."""
        self._context = (req, clip, codec)
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, raw, _ in self._patches:
                setattr(owner, attr, raw)

    def probe(self, lib, codec, clip, container, first_pass):
        """Replays and counts for stages that no span can isolate."""
        if codec == "ppm":
            self._replay(("ppm.update",), _replay_ppm_update, lib, clip)
        elif codec == "ac":
            payload = lib.codecs.CompressedBlob.parse(container).payload
            self._replay(("arith.model", "rangecoder.encode"), _replay_ac, lib, clip, payload)
        elif codec == "huffman" and first_pass:
            payload = lib.codecs.CompressedBlob.parse(container).payload
            try:
                self.header_octets += _huffman_header_octets(lib, clip, payload)
            except (AttributeError, TypeError) as exc:
                self.broken_probes["huffman.header"] = repr(exc)

    def _replay(self, keys, fn, *args):
        """Run one replay; a failure makes every timing it yields missing."""
        if any(key in self.broken_probes for key in keys):
            return
        try:
            for key, ns in fn(*args).items():
                self.replays[key].append(ns)
        except (AttributeError, TypeError, ValueError) as exc:
            for key in keys:
                self.broken_probes[key] = repr(exc)

    def write(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "span_fields": SPAN_FIELDS, "spans": self.spans}, fh)


def _replay_ppm_update(lib, clip):
    """ContextModel.update over the clip, as ppm_encode and ppm_decode call it."""
    ppm = lib.codecs.ppm
    model = ppm.ContextModel(lib.codecs.DEFAULT_CONFIG.ppm_order)
    update = model.update
    hist = 0
    t0 = time.perf_counter_ns()
    for depth, sym in enumerate(clip):
        update(hist, depth, sym)
        hist = ((hist << 8) | sym) & _PPM_ROLL_MASK
    return {"ppm.update": time.perf_counter_ns() - t0}


class _TripleRecorder:
    """Stand-in coder that keeps the (cum, freq, total) triples it is given."""

    __slots__ = ("encode",)

    def __init__(self, triples):
        append = triples.append
        self.encode = lambda cum, freq, total: append((cum, freq, total))


def _replay_ac(lib, clip, payload):
    """AdaptiveModel against a stub coder, then its triples into RangeEncoder."""
    arith = lib.codecs.arith
    triples = []
    stub = _TripleRecorder(triples)
    model = arith.AdaptiveModel(257)
    encode = model.encode
    t0 = time.perf_counter_ns()
    for b in clip:
        encode(stub, b)
    encode(stub, arith.EOS)
    t1 = time.perf_counter_ns()
    enc = lib.codecs.rangecoder.RangeEncoder()
    code = enc.encode
    for cum, freq, total in triples:
        code(cum, freq, total)
    out = enc.finish()
    t2 = time.perf_counter_ns()
    if out != payload:
        raise ValueError("range coder replay does not reproduce the AC payload")
    return {"arith.model": t1 - t0, "rangecoder.encode": t2 - t1}


def _huffman_header_octets(lib, clip, payload):
    """Payload octets beyond the packed code bits of the clip's own table."""
    table = lib.codecs.huffman.build_huffman_table(Counter(clip))
    bits = sum(len(table[b]) for b in clip)
    return len(payload) - math.ceil(bits / 8)


def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with q% at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class _Spans:
    """Per-name totals over the recorded spans."""

    def __init__(self, spans):
        self.total = defaultdict(int)      # (name, codec) -> ns
        self.child = defaultdict(int)      # (parent name, name, codec) -> ns
        self.durations = defaultdict(list)  # name -> [ns]
        self.count = defaultdict(int)      # (name, codec) -> work count, first pass
        seen = set()
        for name, t0, t1, parent, _req, clip, codec, count in spans:
            dur = t1 - t0
            self.total[name, codec] += dur
            self.durations[name].append(dur)
            if parent >= 0:
                self.child[spans[parent][0], name, codec] += dur
            if count is not None and (name, clip, codec) not in seen:
                seen.add((name, clip, codec))
                self.count[name, codec] += count

    def ns(self, name, codec):
        if name not in self.durations:
            raise Missing(name)
        return self.total.get((name, codec), 0)


def per_layer_metrics(tracer, loop, corpus_ms, overhead_pct):
    """Per-layer metrics as {name: (value, unit)}, plus the names missing.

    Times are milliseconds per traced round trip of the codec in the
    name; layer-wide ``sms.*`` and ``codecs.container_ms`` are per
    message over all codecs.  Counts cover one pass over the workload.
    """
    s = _Spans(tracer.spans)
    trips = {c: loop.traced[c].attempted for c in CODECS}
    messages = sum(trips.values())
    out = {}
    missing = []

    def put(name, unit, fn):
        try:
            out[name] = (fn(), unit)
        except Missing:
            missing.append(name)

    def ms(name, codec):
        return s.ns(name, codec) / trips[codec] / 1e6

    def ms_all(*names):
        return sum(s.ns(n, c) for n in names for c in CODECS) / messages / 1e6

    def child_ms(parent, name, codec):
        return s.child[parent, name, codec] / trips[codec] / 1e6

    def replay_ms(name, codec):
        if name in tracer.broken_probes or not tracer.replays[name]:
            raise Missing(name)
        return sum(tracer.replays[name]) / trips[codec] / 1e6

    def count(name, codec):
        s.ns(name, codec)
        return s.count[name, codec]

    for c in CODECS:
        for way in ("send", "receive"):
            samples = getattr(loop.untraced[c], f"{way}_samples")
            put(f"pipeline.{way}_ms_p50.{c}", "ms", lambda: percentile(samples, 50) / 1e6)
            put(f"pipeline.{way}_ms_p90.{c}", "ms", lambda: percentile(samples, 90) / 1e6)
    # The fewest samples behind any codec's percentiles.
    put("pipeline.clips", "count", lambda: min(len(s.send_samples) for s in loop.untraced.values()))
    for c in CODECS:
        put(f"codecs.compress_ms.{c}", "ms", lambda: ms("codecs.compress", c))
        put(f"codecs.decompress_ms.{c}", "ms", lambda: ms("codecs.decompress", c))
        put(f"codecs.wire_octets.{c}", "octets", lambda: loop.wire_octets[c])
    put("codecs.container_ms", "ms", lambda: ms_all("codecs.to_bytes", "codecs.parse"))

    put("sms.segment_ms", "ms", lambda: ms_all("sms.segment"))
    put("sms.outbox_write_ms", "ms", lambda: ms_all("sms.outbox_write"))
    put("sms.inbox_collect_ms", "ms", lambda: ms_all("sms.inbox_collect"))
    put("sms.reassemble_ms", "ms", lambda: ms_all("sms.reassemble"))
    put("sms.files", "count", lambda: loop.sms_total)

    put("ppm.update_ms", "ms", lambda: replay_ms("ppm.update", "ppm"))
    put("ppm.code_ms", "ms", lambda: ms("ppm.ppm_encode", "ppm") - replay_ms("ppm.update", "ppm"))
    put("ppm.decode_code_ms", "ms",
        lambda: ms("ppm.ppm_decode", "ppm") - replay_ms("ppm.update", "ppm"))

    put("arith.model_ms", "ms", lambda: replay_ms("arith.model", "ac"))
    put("rangecoder.encode_ms", "ms", lambda: replay_ms("rangecoder.encode", "ac"))
    put("arith.decode_ms", "ms", lambda: ms("arith.ac_decode", "ac"))

    def model_init_us():
        durations = s.durations.get("arith.AdaptiveModel")
        if not durations:
            raise Missing("arith.AdaptiveModel")
        return statistics.median(durations) / 1e3

    put("arith.model_init_us", "us", model_init_us)

    put("lz.parse_ms", "ms", lambda: ms("lz.lz77_parse", "lzma"))
    put("lz.code_ms", "ms", lambda: ms("lz.encode_payload", "lzma") - ms("lz.lz77_parse", "lzma"))
    put("lz.decode_ms", "ms", lambda: ms("lz.decode_payload", "lzma"))
    put("lz.tokens", "count", lambda: count("lz.lz77_parse", "lzma"))

    put("bwt.sort_ms", "ms", lambda: ms("bwt.bwt_forward", "bwt"))
    put("bwt.mtf_rle_ms", "ms", lambda: ms("bwt.mtf_rle_encode", "bwt"))
    put("bwt.entropy_ms", "ms", lambda: ms("bwt.encode_payload", "bwt")
        - ms("bwt.bwt_forward", "bwt") - ms("bwt.mtf_rle_encode", "bwt"))
    put("bwt.inverse_ms", "ms", lambda: ms("bwt.bwt_inverse", "bwt"))
    put("bwt.mtf_decode_ms", "ms", lambda: ms("bwt.mtf_decode", "bwt"))
    put("bwt.entropy_decode_ms", "ms", lambda: ms("bwt.decode_payload", "bwt")
        - ms("bwt.bwt_inverse", "bwt") - ms("bwt.mtf_decode", "bwt"))
    put("bwt.tokens", "count", lambda: count("bwt.mtf_rle_encode", "bwt"))

    # build_huffman_table runs on both sides; each side's share is
    # separated by the span's parent.
    def table_ms():
        s.ns("huffman.build_huffman_table", "huffman")
        return child_ms("huffman.huffman_encode", "huffman.build_huffman_table", "huffman")

    put("huffman.table_ms", "ms", table_ms)
    put("huffman.pack_ms", "ms", lambda: ms("huffman.huffman_encode", "huffman")
        - child_ms("huffman.huffman_encode", "huffman.build_huffman_table", "huffman"))
    put("huffman.unpack_ms", "ms", lambda: ms("huffman.huffman_decode", "huffman")
        - child_ms("huffman.huffman_decode", "huffman.build_huffman_table", "huffman"))

    def header_octets():
        if "huffman.header" in tracer.broken_probes:
            raise Missing("huffman.header")
        return tracer.header_octets

    put("huffman.header_octets", "octets", header_octets)

    put("lzw.dict_ms", "ms", lambda: ms("lzw.lzw_encode", "lzw"))
    put("lzw.pack_ms", "ms", lambda: ms("lzw.pack_codes", "lzw"))
    put("lzw.decode_ms", "ms", lambda: ms("lzw.decode_payload", "lzw"))
    put("lzw.codes", "count", lambda: count("lzw.lzw_encode", "lzw"))

    put("bench.corpus_ms", "ms", lambda: corpus_ms)
    put("trace.overhead_pct", "%", lambda: overhead_pct)
    return out, missing

