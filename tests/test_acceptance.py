"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import itertools
import math
import random
import shutil
import time
from collections import defaultdict

from conftest import mixed_payloads
from test_bwt import oracle_bwt
from test_huffman import optimal_cost, table_cost

from voicepack import bench
from voicepack.cli import main as cli_main
from voicepack.codecs import AlgorithmId, compress, decompress
from voicepack.codecs.arith import ac_encode
from voicepack.codecs.bwt import BwtBlock, bwt_forward, bwt_inverse
from voicepack.sms import reassemble, segment, sms_count

REAL_CODECS = [a for a in AlgorithmId if a != AlgorithmId.NONE]
DICTIONARY_CODECS = (AlgorithmId.LZW, AlgorithmId.LZMA, AlgorithmId.PPM, AlgorithmId.BWT)
FAMILIES = (("S1", "S2", "S3"), ("S4", "S5", "S6"), ("S7", "S8", "S9"))
REPETITIVE = ("S2", "S3", "S5", "S6", "S8", "S9")


def _report(n, text):
    print(f"\nACCEPTANCE CRITERION {n:2d} PASS: {text}")


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def _grouped(records, metric):
    out = defaultdict(dict)
    for sid in bench.SENTENCE_IDS:
        for alg in AlgorithmId:
            rs = [r for r in records if r.sentence_id == sid and r.algorithm == alg]
            out[sid][alg] = _mean(getattr(r, metric) for r in rs)
    return out


def test_criterion_01_roundtrip_suite():
    payloads = mixed_payloads(seed=20250808, count=1000, max_len=10_000)
    assert len(payloads) == 1000
    assert min(len(p) for p in payloads) == 0
    assert max(len(p) for p in payloads) == 10_000
    started = time.monotonic()
    failures = 0
    for alg in AlgorithmId:
        for data in payloads:
            if decompress(compress(data, alg)) != data:
                failures += 1
    elapsed = time.monotonic() - started
    assert failures == 0
    assert elapsed < 60.0, f"round-trip suite took {elapsed:.1f}s"
    _report(1, f"1000 payloads x 7 algorithms byte-exact in {elapsed:.1f}s (< 60s)")


def test_criterion_02_ppm_wins(seed42_records):
    chars = _grouped(seed42_records, "compressed_chars")
    smses = _grouped(seed42_records, "sms_count")
    strict_wins = [
        sid for sid in bench.SENTENCE_IDS
        if all(chars[sid][AlgorithmId.PPM] < chars[sid][alg]
               for alg in REAL_CODECS if alg != AlgorithmId.PPM)
    ]
    assert len(strict_wins) >= 7, f"PPM strictly best on only {strict_wins}"
    for sid in bench.SENTENCE_IDS:
        for alg in AlgorithmId:
            if alg != AlgorithmId.PPM:
                assert smses[sid][AlgorithmId.PPM] <= smses[sid][alg], (sid, alg)
    _report(2, f"PPM strictly smallest on {len(strict_wins)}/9 sentences, "
               f"fewest SMS on 9/9")


def test_criterion_03_baseline_dominance(seed42_records):
    by_key = {(r.sentence_id, r.trial, r.algorithm): r for r in seed42_records}
    for sid in REPETITIVE:
        for trial in range(1, bench.TRIALS + 1):
            base = by_key[(sid, trial, AlgorithmId.NONE)].sms_count
            for alg in REAL_CODECS:
                got = by_key[(sid, trial, alg)].sms_count
                assert got <= base, (sid, trial, alg, got, base)
    _report(3, "every codec needs <= the uncompressed SMS count on "
               "all repetitive sentences, every trial")


def test_criterion_04_repetition_monotonicity(seed42_records):
    ratios = _grouped(seed42_records, "ratio")
    for family in FAMILIES:
        for alg in DICTIONARY_CODECS:
            r1, r2, r3 = (ratios[sid][alg] for sid in family)
            assert r1 < r2 < r3, (family, alg, r1, r2, r3)
        for alg in (AlgorithmId.HUFFMAN, AlgorithmId.AC):
            r1, r2, r3 = (ratios[sid][alg] for sid in family)
            assert r1 <= r2 <= r3, (family, alg, r1, r2, r3)
    _report(4, "mean ratio rises along every sentence family "
               "(strict for LZW/LZMA/PPM/BWT)")


def test_criterion_05_huffman_optimality_exhaustive():
    checked = 0
    for k in range(1, 6):
        for counts in itertools.product(range(1, 7), repeat=k):
            freqs = dict(enumerate(counts))
            assert table_cost(freqs) == optimal_cost(list(counts)), counts
            checked += 1
    assert checked == sum(6 ** k for k in range(1, 6))
    _report(5, f"{checked} frequency tables match the brute-force minimum exactly")


def test_criterion_06_bwt_oracle_exhaustive():
    blk = bwt_forward(b"banana")
    assert (blk.data, blk.primary_index) == (b"nnbaaa", 3)
    checked = 0
    for n in range(0, 9):
        for tup in itertools.product(b"abc", repeat=n):
            data = bytes(tup)
            fwd = bwt_forward(data)
            assert (fwd.data, fwd.primary_index) == oracle_bwt(data), data
            assert bwt_inverse(BwtBlock(fwd.data, fwd.primary_index)) == data
            checked += 1
    assert checked == sum(3 ** n for n in range(0, 9))
    _report(6, f"{checked} strings match the sorted-rotations oracle both ways")


def test_criterion_07_arithmetic_efficiency():
    n = 1000
    h0 = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert abs(h0 - 0.469) < 5e-4
    budget_bits = n * h0 + 0.1 * n + 64
    worst = 0.0
    for seed in range(20):
        rng = random.Random(9000 + seed)
        data = bytes(0 if rng.random() < 0.9 else 1 for _ in range(n))
        bits = len(ac_encode(data)) * 8
        worst = max(worst, bits)
        assert bits <= budget_bits, (seed, bits, budget_bits)
    _report(7, f"20 seeds coded <= {budget_bits:.0f} bits (worst {worst:.0f})")


def test_criterion_08_segmentation():
    table = {0: 1, 1: 1, 140: 1, 141: 2, 268: 2, 269: 3, 1340: 10, 34170: 255}
    for n, want in table.items():
        assert sms_count(n) == want, (n, want)
    rng = random.Random(4242)
    for _ in range(200):
        payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 30_000)))
        parts = segment(payload, rng.randrange(256))
        rng.shuffle(parts)
        assert reassemble(parts) == payload
    _report(8, "count fixtures exact; 200 shuffled segment round-trips identical")


def _chain_through_cli(tmp_path, src, alg, ref):
    root = tmp_path / f"root_{alg.label}_{ref}"
    cvt = tmp_path / f"{alg.label}.cvt"
    rx_blob = tmp_path / f"{alg.label}.rx.cvt"
    out = tmp_path / f"{alg.label}.out"
    codes = [
        cli_main(["compress", "--alg", alg.label, "--in", str(src), "--out", str(cvt)]),
        cli_main(["send", "--alg", "none", "--in", str(cvt),
                  "--root", str(root), "--ref", str(ref)]),
    ]
    for f in sorted((root / "outbox").iterdir()):
        shutil.move(str(f), root / "inbox" / f.name)
    codes.append(cli_main(["receive", "--root", str(root), "--ref", str(ref),
                           "--out", str(rx_blob)]))
    inner = rx_blob.read_bytes()
    # receive unwraps the transport container, leaving the compressed file
    assert inner == cvt.read_bytes()
    codes.append(cli_main(["decompress", "--in", str(rx_blob), "--out", str(out)]))
    return codes, out


def test_criterion_09_cli_loopback(tmp_path, capsys):
    corpus = bench.generate_corpus(bench.CorpusSpec(seed=11))
    blob50 = b"".join(i.payload.data for i in corpus)[:50_000]
    assert len(blob50) == 50_000
    src = tmp_path / "input50k.bin"
    src.write_bytes(blob50)
    for ref, alg in enumerate(REAL_CODECS, start=1):
        codes, out = _chain_through_cli(tmp_path, src, alg, ref)
        assert codes == [0, 0, 0, 0], (alg, codes)
        assert out.read_bytes() == blob50, alg
    # the pass-through codec cannot fit 50 KB in 255 concatenated parts
    # (255 x 134 octets); prove its chain at a size that does fit
    small = tmp_path / "input20k.bin"
    small.write_bytes(blob50[:20_000])
    codes, out = _chain_through_cli(tmp_path, small, AlgorithmId.NONE, 99)
    assert codes == [0, 0, 0, 0]
    assert out.read_bytes() == blob50[:20_000]
    capsys.readouterr()
    _report(9, "compress/send/receive/decompress chain byte-exact for all six "
               "codecs at 50 KB (pass-through proven at 20 KB), exits all 0")


def test_criterion_10_bench_determinism(tmp_path, seed42_corpus, seed42_records):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    bench.emit_report(seed42_records, dir_a)
    corpus_again = bench.generate_corpus(bench.CorpusSpec(seed=42))
    assert all(x.payload.data == y.payload.data
               for x, y in zip(seed42_corpus, corpus_again))
    bench.emit_report(bench.run_benchmark(corpus_again), dir_b)

    def projection(path):
        with (path / "results.csv").open(newline="") as fh:
            rows = [row[:-1] for row in csv.reader(fh)]  # drop encode_micros
        return "\n".join(",".join(r) for r in rows).encode()

    assert projection(dir_a) == projection(dir_b)
    assert (dir_a / "summary.csv").read_bytes() == (dir_b / "summary.csv").read_bytes()
    _report(10, "two seed-42 runs emit identical results.csv minus the timing column")
