"""Benchmark harness: synthetic voice corpus, runner and report files.

The corpus renders nine sentences (three families, each with one, two
and three repetitions of a base clause) as voice-like byte payloads:
every word maps to a fixed frame pattern repeated once per frame slot,
and each trial perturbs a couple of octets per frame, so repeated
clauses become near- but not exactly-identical byte runs.  Frame octets
are drawn from a small skewed palette, giving the payloads a voice-codec
byte distribution (order-0 entropy well under 8 bits) on top of their
structural repetition.

Measurements count the octets of the serialized container, since that
is what the SMS layer actually carries; the ratio is original divided by
compressed, so higher is better and fewer SMS follow.
"""

import csv
import random
import time
from dataclasses import dataclass
from pathlib import Path

from voicepack.codecs import AlgorithmId, compress
from voicepack.errors import ZeroCompressedSize
from voicepack.pipeline import VoicePayload
from voicepack.sms import sms_count

TRIALS = 10

# sentence id -> (base clause, repetitions, listed word count, listed letter count)
# The word/letter counts are corpus metadata carried verbatim; note that
# S3 lists 32 words although its text has 24 space-separated words.
_SENTENCES = {
    "S1": ("Quick brown fox jumps over the lazy dog", 1, 8, 32),
    "S2": ("Quick brown fox jumps over the lazy dog", 2, 16, 64),
    "S3": ("Quick brown fox jumps over the lazy dog", 3, 32, 96),
    "S4": ("This is a audio clip", 1, 5, 16),
    "S5": ("This is a audio clip", 2, 10, 32),
    "S6": ("This is a audio clip", 3, 15, 48),
    "S7": ("Hello world", 1, 2, 10),
    "S8": ("Hello world", 2, 4, 20),
    "S9": ("Hello world", 3, 6, 30),
}

SENTENCE_IDS = tuple(_SENTENCES)

_PALETTE_SIZE = 40
# successors concentrate on each state's top preferences, but with no
# single dominant path (exact repeats across words stay rare)
_BRANCH_CHOICES = 13
BYTES_PER_FRAME = 32
NOISE_OCTETS_PER_FRAME = 2


@dataclass(frozen=True)
class CorpusSpec:
    seed: int = 42
    frames_per_word: int = 15

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.frames_per_word < 1:
            raise ValueError("frames_per_word must be positive")


@dataclass(frozen=True)
class CorpusItem:
    sentence_id: str
    text: str
    repetitions_within: int
    trial: int
    payload: VoicePayload
    word_count: int
    letter_count: int


@dataclass(frozen=True)
class BenchmarkRecord:
    sentence_id: str
    trial: int
    algorithm: AlgorithmId
    original_chars: int
    compressed_chars: int
    ratio: float
    sms_count: int
    encode_micros: int


def sentence_text(sentence_id):
    base, reps, _, _ = _SENTENCES[sentence_id]
    return " , ".join([base] * reps)


def _corpus_item(sentence_id, trial, payload):
    """The corpus item of `payload`, with the metadata `_SENTENCES` lists
    for `sentence_id`: empty text, one repetition and zero counts for an
    unlisted id."""
    meta = _SENTENCES.get(sentence_id)
    _, reps, words, letters = meta or ("", 1, 0, 0)
    return CorpusItem(sentence_id, sentence_text(sentence_id) if meta else "", reps,
                      trial, payload, words, letters)


def _sample(rng, n, k):
    """k distinct values of range(n), drawn without replacement."""
    values = list(range(n))
    return [values.pop(rng.getrandbits(16) % len(values)) for _ in range(k)]


def _palette(seed):
    return _sample(random.Random(f"palette:{seed}".encode()), 256, _PALETTE_SIZE)


def _skewed_pick(rng, m):
    a = rng.getrandbits(8) % m
    b = rng.getrandbits(8) % m
    return a if a < b else b


def _transitions(seed):
    """Per-palette-slot successor preference orders, shared by all words.

    Frames walk this chain so distinct words still share conditional
    statistics, the way distinct utterances share a codec's excitation
    patterns; only the exact byte sequences differ.
    """
    rng = random.Random(f"transitions:{seed}".encode())
    return [_sample(rng, _PALETTE_SIZE, _PALETTE_SIZE) for _ in range(_PALETTE_SIZE)]


def _word_frame(word, palette, prefs):
    rng = random.Random(f"frame:{word}".encode())
    idx = _skewed_pick(rng, _PALETTE_SIZE)
    out = bytearray()
    for _ in range(BYTES_PER_FRAME):
        out.append(palette[idx])
        idx = prefs[idx][_skewed_pick(rng, _BRANCH_CHOICES)]
    return bytes(out)


def generate_corpus(spec=CorpusSpec()):
    """All 90 corpus items: 9 sentences x 10 trials, deterministic per CorpusSpec."""
    palette = _palette(spec.seed)
    prefs = _transitions(spec.seed)
    back = {octet: i for i, octet in enumerate(palette)}
    frames = {}
    items = []
    for sid in SENTENCE_IDS:
        text = sentence_text(sid)
        tokens = [w for w in text.split() if any(c.isalnum() for c in w)]
        for tok in tokens:
            if tok not in frames:
                frames[tok] = _word_frame(tok, palette, prefs)
        for trial in range(1, TRIALS + 1):
            rng = random.Random(f"{spec.seed}/{sid}/{trial}".encode())
            payload = bytearray()
            for tok in tokens:
                frame = frames[tok]
                for _ in range(spec.frames_per_word):
                    piece = bytearray(frame)
                    for _ in range(NOISE_OCTETS_PER_FRAME):
                        pos = rng.getrandbits(16) % len(piece)
                        # perturb along the chain, like a re-spoken frame
                        prev = back[piece[pos - 1]] if pos else _skewed_pick(rng, _PALETTE_SIZE)
                        piece[pos] = palette[prefs[prev][_skewed_pick(rng, _BRANCH_CHOICES)]]
                    payload += piece
            items.append(_corpus_item(
                sid, trial, VoicePayload(bytes(payload), f"{sid}/trial{trial}")))
    return items


def compression_ratio(original, compressed):
    """original / compressed; higher means fewer SMS."""
    if compressed <= 0:
        raise ZeroCompressedSize("compressed size must be positive")
    return original / compressed


def run_benchmark(corpus):
    """One record per (item, algorithm), NONE first as the baseline."""
    if not corpus:
        raise ValueError("empty corpus")
    records = []
    for item in corpus:
        raw = item.payload.data
        for alg in AlgorithmId:
            t0 = time.perf_counter_ns()
            blob = compress(raw, alg)
            micros = (time.perf_counter_ns() - t0) // 1000
            size = len(blob.to_bytes())
            if alg is AlgorithmId.NONE:  # first in AlgorithmId: the baseline size
                original = size
            records.append(BenchmarkRecord(
                sentence_id=item.sentence_id,
                trial=item.trial,
                algorithm=alg,
                original_chars=original,
                compressed_chars=size,
                ratio=compression_ratio(original, size),
                sms_count=sms_count(size),
                encode_micros=micros,
            ))
    return records


def write_corpus_files(corpus, out_dir):
    """Dump payloads plus a manifest.csv naming them (the on-disk corpus form)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    with manifest.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sentence_id", "trial", "path"])
        for item in corpus:
            name = f"{item.sentence_id}_trial{item.trial:02d}.bin"
            (out_dir / name).write_bytes(item.payload.data)
            writer.writerow([item.sentence_id, item.trial, name])
    return manifest


def load_corpus_manifest(manifest_path):
    """Read payloads named by a manifest.csv (paths relative to it).

    Raises ValueError, naming the manifest and line, for a row that lacks
    a sentence_id, trial or path, or whose trial is not an integer.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    items = []
    with manifest_path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            sid, trial, name = (row.get(k) for k in ("sentence_id", "trial", "path"))
            where = f"{manifest_path}, line {reader.line_num}"
            if not (sid and trial and name):
                raise ValueError(f"{where}: needs a sentence_id, trial and path")
            try:
                trial = int(trial)
            except ValueError:
                raise ValueError(f"{where}: trial {trial!r} is not an integer") from None
            path = base / name
            data = path.read_bytes()
            items.append(_corpus_item(sid, trial, VoicePayload(data, str(path))))
    return items


# --- report files -----------------------------------------------------------

_FAMILIES = (("S1", "S2", "S3"), ("S4", "S5", "S6"), ("S7", "S8", "S9"))
_SERIES_COLORS = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2",
    "#59a14f", "#edc948", "#b07aa1",
)


def _results_rows(records):
    for r in records:
        yield [
            r.sentence_id, r.trial, r.algorithm.label,
            r.original_chars, r.compressed_chars,
            f"{r.ratio:.4f}", r.sms_count, r.encode_micros,
        ]


def emit_report(records, out_dir):
    """Write results.csv, summary.csv and the six grouped bar charts."""
    if not records:
        raise ValueError("no records to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    results = out_dir / "results.csv"
    with results.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "sentence_id", "trial", "algorithm", "original_chars",
            "compressed_chars", "ratio", "sms_count", "encode_micros",
        ])
        writer.writerows(_results_rows(records))
    written.append(results)

    groups = {}
    for r in records:
        groups.setdefault((r.sentence_id, r.algorithm), []).append(r)
    summary = out_dir / "summary.csv"
    with summary.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "sentence_id", "algorithm", "mean_original_chars",
            "mean_compressed_chars", "mean_ratio", "mean_sms_count",
        ])
        for (sid, alg) in sorted(groups, key=lambda k: (k[0], int(k[1]))):
            rs = groups[(sid, alg)]
            n = len(rs)
            writer.writerow([
                sid, alg.label,
                f"{sum(r.original_chars for r in rs) / n:.1f}",
                f"{sum(r.compressed_chars for r in rs) / n:.1f}",
                f"{sum(r.ratio for r in rs) / n:.4f}",
                f"{sum(r.sms_count for r in rs) / n:.2f}",
            ])
    written.append(summary)

    algorithms = list(dict.fromkeys(r.algorithm for r in records))
    by_key = {(r.sentence_id, r.trial, r.algorithm): r for r in records}
    for family in _FAMILIES:
        for metric, prefix in (("compressed_chars", "chars"), ("sms_count", "sms")):
            name = f"{prefix}_{family[0]}-{family[-1]}.svg"
            path = out_dir / name
            path.write_text(
                _bar_chart_svg(by_key, family, algorithms, metric), encoding="utf-8")
            written.append(path)
    return written


def _bar_chart_svg(by_key, family, algorithms, metric):
    """Self-contained grouped bar chart over 30 trial slots."""
    width, height = 1060, 420
    left, right, top, bottom = 60, 180, 40, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    slots = [(sid, trial) for sid in family for trial in range(1, TRIALS + 1)]
    values = {}
    peak = 1
    for si, (sid, trial) in enumerate(slots):
        for ai, alg in enumerate(algorithms):
            rec = by_key.get((sid, trial, alg))
            if rec is None:
                continue
            v = getattr(rec, metric)
            values[(si, ai)] = v
            peak = max(peak, v)

    label = "characters" if metric == "compressed_chars" else "SMS"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="16">'
        f'Number of {label} per test, {family[0]}-{family[-1]}</text>',
    ]
    # horizontal gridlines and y labels
    for tick in range(5):
        v = peak * (4 - tick) / 4
        y = top + plot_h * tick / 4
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>')
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.0f}</text>')
    group_w = plot_w / len(slots)
    bar_w = group_w / (len(algorithms) + 1)
    for (si, ai), v in sorted(values.items()):
        x = left + si * group_w + ai * bar_w + bar_w / 2
        h = plot_h * v / peak
        y = top + plot_h - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            f'fill="{_SERIES_COLORS[ai % len(_SERIES_COLORS)]}"/>')
    # x labels: one per sentence block plus trial ticks every 5
    for fi, sid in enumerate(family):
        x = left + (fi * TRIALS + TRIALS / 2) * group_w
        parts.append(
            f'<text x="{x:.1f}" y="{height - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{sid}</text>')
    for si in range(0, len(slots), 5):
        x = left + (si + 0.5) * group_w
        parts.append(
            f'<text x="{x:.1f}" y="{height - 30}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{si % TRIALS + 1}</text>')
    # legend
    for ai, alg in enumerate(algorithms):
        lx = left + plot_w + 16
        ly = top + 18 * ai
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="12" height="12" '
            f'fill="{_SERIES_COLORS[ai % len(_SERIES_COLORS)]}"/>')
        series = "amr codec" if alg == AlgorithmId.NONE else alg.label
        parts.append(
            f'<text x="{lx + 18}" y="{ly + 10}" font-family="sans-serif" '
            f'font-size="12">{series}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
