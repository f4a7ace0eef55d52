import csv

import pytest

from voicepack import bench
from voicepack.codecs import AlgorithmId
from voicepack.errors import ZeroCompressedSize
from voicepack.sms import sms_count


def test_table_metadata():
    corpus = {i.sentence_id: i for i in bench.generate_corpus() if i.trial == 1}
    assert corpus["S1"].text == "Quick brown fox jumps over the lazy dog"
    assert (corpus["S1"].word_count, corpus["S1"].letter_count) == (8, 32)
    assert (corpus["S7"].word_count, corpus["S7"].letter_count) == (2, 10)
    assert corpus["S7"].text == "Hello world"
    assert corpus["S2"].text == ("Quick brown fox jumps over the lazy dog , "
                                 "Quick brown fox jumps over the lazy dog")
    assert corpus["S9"].repetitions_within == 3
    # S3 carries the listed 32 words even though its text has 24 tokens
    assert corpus["S3"].word_count == 32
    assert len(corpus["S3"].text.split()) == 26  # 24 words + 2 comma tokens


def test_corpus_cardinality_and_sizes():
    spec = bench.CorpusSpec(seed=1)
    corpus = bench.generate_corpus(spec)
    assert len(corpus) == 90
    by_id = {i.sentence_id: i for i in corpus if i.trial == 1}
    # generator formula: words x frames_per_word x BYTES_PER_FRAME
    assert len(by_id["S4"].payload.data) == 5 * 15 * 32 == 2400
    assert len(by_id["S5"].payload.data) == 2 * 2400
    assert len(by_id["S6"].payload.data) == 3 * 2400
    assert len(by_id["S2"].payload.data) == 2 * len(by_id["S1"].payload.data)


def test_corpus_deterministic_and_trial_noise():
    a = bench.generate_corpus(bench.CorpusSpec(seed=9))
    b = bench.generate_corpus(bench.CorpusSpec(seed=9))
    assert all(x.payload.data == y.payload.data for x, y in zip(a, b))
    trials = [i for i in a if i.sentence_id == "S1"]
    assert trials[0].payload.data != trials[1].payload.data
    assert len(trials[0].payload.data) == len(trials[1].payload.data)


def test_spec_validation():
    with pytest.raises(ValueError):
        bench.CorpusSpec(frames_per_word=0)
    with pytest.raises(ValueError):
        bench.CorpusSpec(seed=-1)


def test_compression_ratio():
    assert bench.compression_ratio(1000, 1000) == 1.0
    assert bench.compression_ratio(1000, 250) == 4.0
    with pytest.raises(ZeroCompressedSize):
        bench.compression_ratio(10, 0)


def test_run_benchmark_records(seed42_corpus, seed42_records):
    records = seed42_records
    assert len(records) == 90 * 7
    for r in records:
        if r.algorithm == AlgorithmId.NONE:
            assert r.compressed_chars == r.original_chars
            assert r.ratio == 1.0
        assert r.sms_count == sms_count(r.compressed_chars)
        assert abs(r.ratio * r.compressed_chars - r.original_chars) < 1e-6
        # the CVT2 header: algorithm octet, a 2-octet LEB128 length (every
        # clip is 128..16383 octets long) and the CRC-32
        assert r.original_chars == len(
            next(i for i in seed42_corpus
                 if (i.sentence_id, i.trial) == (r.sentence_id, r.trial)).payload.data) + 7


def test_run_benchmark_empty_corpus():
    with pytest.raises(ValueError):
        bench.run_benchmark([])


def test_ppm_beats_others_on_s3(seed42_records):
    # the headline regression: mean compressed size on S3 is lowest for PPM
    means = {}
    for alg in AlgorithmId:
        rs = [r for r in seed42_records
              if r.sentence_id == "S3" and r.algorithm == alg]
        means[alg] = sum(r.compressed_chars for r in rs) / len(rs)
    best = min(means, key=means.get)
    assert best == AlgorithmId.PPM


def test_seed42_totals_per_algorithm(seed42_records):
    # the paper's table: SMS and compressed characters summed over all 90 clips
    totals = {}
    for r in seed42_records:
        sms, chars = totals.get(r.algorithm.label, (0, 0))
        totals[r.algorithm.label] = (sms + r.sms_count, chars + r.compressed_chars)
    assert totals == {
        "none": (3270, 432630),
        "lzw": (1306, 167933),
        "lzma": (713, 89767),
        "huffman": (2154, 282277),
        "ppm": (684, 86492),
        "ac": (2120, 279417),
        "bwt": (788, 98718),
    }


def test_emit_report_files(tmp_path, seed42_records):
    written = bench.emit_report(seed42_records, tmp_path)
    names = {p.name for p in written}
    assert names == {
        "results.csv", "summary.csv",
        "chars_S1-S3.svg", "chars_S4-S6.svg", "chars_S7-S9.svg",
        "sms_S1-S3.svg", "sms_S4-S6.svg", "sms_S7-S9.svg",
    }
    with (tmp_path / "results.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sentence_id", "trial", "algorithm", "original_chars",
                       "compressed_chars", "ratio", "sms_count", "encode_micros"]
    assert len(rows) == 1 + len(seed42_records)
    ratio = rows[1][5]
    assert len(ratio.split(".")[1]) == 4
    with (tmp_path / "summary.csv").open() as fh:
        srows = list(csv.reader(fh))
    assert len(srows) == 1 + 9 * 7
    for name in names:
        if name.endswith(".svg"):
            text = (tmp_path / name).read_text()
            assert text.startswith("<svg") and text.endswith("</svg>")
            assert "href" not in text  # self-contained


def test_emit_report_empty_records(tmp_path):
    with pytest.raises(ValueError):
        bench.emit_report([], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_corpus_files_and_manifest_roundtrip(tmp_path):
    corpus = bench.generate_corpus(bench.CorpusSpec(seed=3))[:12]
    manifest = bench.write_corpus_files(corpus, tmp_path)
    # a row whose id _SENTENCES does not list loads with empty metadata
    (tmp_path / "X1.bin").write_bytes(b"\x01\x02")
    with manifest.open("a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["X1", 4, "X1.bin"])
    *loaded, unlisted = bench.load_corpus_manifest(manifest)
    assert len(loaded) == len(corpus)
    for a, b in zip(corpus, loaded):
        assert a.sentence_id == b.sentence_id
        assert a.trial == b.trial
        assert a.payload.data == b.payload.data
        assert a.text == b.text
        assert a.repetitions_within == b.repetitions_within
        assert a.word_count == b.word_count
        assert a.letter_count == b.letter_count
    assert (unlisted.sentence_id, unlisted.trial, unlisted.payload.data) == ("X1", 4, b"\x01\x02")
    assert unlisted.text == ""
    assert unlisted.repetitions_within == 1
    assert (unlisted.word_count, unlisted.letter_count) == (0, 0)
