import os
import shutil
import subprocess
import sys

import pytest

from voicepack.cli import build_parser, main
from voicepack.codecs import AlgorithmId, CompressedBlob, compress

COMMANDS = ["compress", "decompress", "send", "receive", "bench", "corpus"]


def run_cli(args):
    return main(args)


def test_help_exits_zero(capsys):
    for args in ([["--help"]] + [[c, "--help"] for c in COMMANDS]):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(args)
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out.lower()


def test_help_documents_flags(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compress", "--help"])
    out = capsys.readouterr().out
    for flag in ("--alg", "--in", "--out"):
        assert flag in out


@pytest.mark.parametrize("flag", [["--ppm-order", "2"], ["--lzw-bits", "10"]])
def test_codec_parameter_flags_are_usage_errors(tmp_path, capsys, flag):
    # the LZW width and PPM order are fixed constants, not options
    src = tmp_path / "clip.bin"
    src.write_bytes(b"voice payload " * 20)
    cvt = tmp_path / "clip.cvt"
    cvt.write_bytes(compress(src.read_bytes(), AlgorithmId.PPM).to_bytes())
    root = ["--root", str(tmp_path / "t")]
    for args in (["compress", "--in", str(src), "--out", str(tmp_path / "o.cvt")],
                 ["decompress", "--in", str(cvt), "--out", str(tmp_path / "o.bin")],
                 ["send", "--in", str(src)] + root,
                 ["receive", "--out", str(tmp_path / "r.bin")] + root):
        assert run_cli(args + flag) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_flag_usage_error(capsys):
    assert run_cli(["compress", "--frobnicate"]) == 1
    assert run_cli(["nonsense"]) == 1


def test_missing_required_flag_usage_error(capsys):
    assert run_cli(["compress", "--alg", "ppm"]) == 1


def test_compress_decompress_file_roundtrip(tmp_path, capsys):
    src = tmp_path / "clip.bin"
    src.write_bytes(os.urandom(2000))
    cvt = tmp_path / "clip.cvt"
    out = tmp_path / "clip.out"
    assert run_cli(["compress", "--alg", "lzw", "--in", str(src), "--out", str(cvt)]) == 0
    blob = CompressedBlob.parse(cvt.read_bytes())
    assert blob.algorithm == AlgorithmId.LZW
    assert run_cli(["decompress", "--in", str(cvt), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_default_algorithm_is_ppm(tmp_path):
    src = tmp_path / "a.bin"
    src.write_bytes(b"hello hello hello")
    cvt = tmp_path / "a.cvt"
    assert run_cli(["compress", "--in", str(src), "--out", str(cvt)]) == 0
    assert CompressedBlob.parse(cvt.read_bytes()).algorithm == AlgorithmId.PPM


def test_decompress_truncated_names_corrupt_stream(tmp_path, capsys):
    blob = compress(b"some payload worth keeping around", AlgorithmId.PPM)
    bad = tmp_path / "truncated.cvt"
    bad.write_bytes(blob.to_bytes()[:12])
    code = run_cli(["decompress", "--in", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "CorruptStream" in capsys.readouterr().err


def test_decompress_cvt1_container_is_bad_magic(tmp_path, capsys):
    # a 9-octet CVT1 LZMA container (magic, algorithm 2, length 2**31)
    bad = tmp_path / "lying.cvt"
    bad.write_bytes(b"CVT1\x02\x80\x00\x00\x00")
    code = run_cli(["decompress", "--in", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "BadMagic" in capsys.readouterr().err


def test_missing_input_file_data_error(tmp_path, capsys):
    code = run_cli(["compress", "--in", str(tmp_path / "ghost"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_send_receive_loopback_every_algorithm(tmp_path, capsys):
    src = tmp_path / "msg.bin"
    src.write_bytes(b"voice payload " * 120)
    for ref, alg in enumerate(a.label for a in AlgorithmId):
        root = tmp_path / f"transport_{alg}"
        assert run_cli(["send", "--alg", alg, "--in", str(src),
                        "--root", str(root), "--ref", str(ref)]) == 0
        listed = capsys.readouterr().out.strip().splitlines()
        outbox = root / "outbox"
        inbox = root / "inbox"
        assert sorted(listed) == sorted(str(p) for p in outbox.iterdir())
        for f in outbox.iterdir():
            shutil.move(str(f), inbox / f.name)
        out = tmp_path / f"msg.{alg}.out"
        assert run_cli(["receive", "--root", str(root), "--ref", str(ref),
                        "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == src.read_bytes()


def test_receive_missing_segment_exit_2(tmp_path, capsys):
    src = tmp_path / "msg.bin"
    src.write_bytes(os.urandom(600))
    root = tmp_path / "t"
    assert run_cli(["send", "--alg", "none", "--in", str(src),
                    "--root", str(root), "--ref", "3"]) == 0
    capsys.readouterr()
    files = sorted((root / "outbox").iterdir())
    for f in files[1:]:
        shutil.move(str(f), root / "inbox" / f.name)
    code = run_cli(["receive", "--root", str(root), "--ref", "3",
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "MissingSegment" in capsys.readouterr().err


def test_receive_with_no_segment_names_reference_and_inbox(tmp_path, capsys):
    src = tmp_path / "msg.bin"
    src.write_bytes(b"voice payload")
    root = tmp_path / "t"
    assert run_cli(["send", "--in", str(src), "--root", str(root), "--ref", "3"]) == 0
    for f in (root / "outbox").iterdir():
        shutil.move(str(f), root / "inbox" / f.name)
    capsys.readouterr()

    def receive(ref):
        code = run_cli(["receive", "--root", str(root), "--ref", ref,
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"voicepack: MissingSegment: no segment with reference {ref} in {root / 'inbox'}\n")
        assert not (tmp_path / "out").exists()

    receive("4")  # the inbox holds only another message's segments
    shutil.rmtree(root / "inbox")
    receive("3")  # no inbox at all


@pytest.mark.parametrize("ref", ["300", "-1"])
def test_reference_out_of_range_usage_error(tmp_path, capsys, ref):
    src = tmp_path / "msg.bin"
    src.write_bytes(b"abc")
    root = ["--root", str(tmp_path / "t"), "--ref", ref]
    for args in (["send", "--in", str(src)], ["receive", "--out", str(tmp_path / "out")]):
        assert run_cli(args + root) == 1
        assert "reference must fit one octet" in capsys.readouterr().err


def test_transport_root_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VOICEPACK_ROOT", str(tmp_path / "env_root"))
    src = tmp_path / "m.bin"
    src.write_bytes(b"abc")
    assert run_cli(["send", "--in", str(src), "--ref", "2"]) == 0
    assert any((tmp_path / "env_root" / "outbox").iterdir())


def test_no_transport_root_is_data_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("VOICEPACK_ROOT", raising=False)
    src = tmp_path / "m.bin"
    src.write_bytes(b"abc")
    assert run_cli(["send", "--in", str(src)]) == 2


def test_corpus_and_bench_with_manifest(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_cli(["corpus", "--seed", "5", "--out", str(corpus_dir)]) == 0
    assert (corpus_dir / "manifest.csv").exists()
    assert len(list(corpus_dir.glob("*.bin"))) == 90
    # trim the manifest to a handful of payloads and benchmark those
    manifest = corpus_dir / "manifest.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines[:4]) + "\n")
    report = tmp_path / "report"
    assert run_cli(["bench", "--manifest", str(manifest),
                    "--out", str(report)]) == 0
    capsys.readouterr()
    assert (report / "results.csv").exists()
    assert len(list(report.glob("*.svg"))) == 6


@pytest.mark.parametrize("text, line", [
    ("sentence_id,trial,path\nS1,1,a.bin\nS1,2\n", 3),
    ("sentence_id,path\nS1,a.bin\n", 2),
    ("sentence_id,trial,path\nS1,,a.bin\n", 2),
    ("sentence_id,trial,path\nS1,1,a.bin\nS1,x,a.bin\n", 3),
], ids=["short-row", "no-trial-column", "empty-trial", "non-integer-trial"])
def test_bench_manifest_missing_field_is_data_error(tmp_path, capsys, text, line):
    (tmp_path / "a.bin").write_bytes(b"abc")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(text)
    assert run_cli(["bench", "--manifest", str(manifest),
                    "--out", str(tmp_path / "report")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("voicepack: ") and f"{manifest}, line {line}:" in err


def test_bench_command_writes_report(tmp_path, capsys):
    report = tmp_path / "report"
    assert run_cli(["bench", "--seed", "42", "--out", str(report)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert str(report / "results.csv") in printed
    import csv as _csv
    with (report / "results.csv").open(newline="") as fh:
        rows = list(_csv.reader(fh))
    assert len(rows) == 1 + 630
    assert len(list(report.glob("*.svg"))) == 6


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "voicepack.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
