"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that a corrupted decode is counted as a failed
operation; and that the seed and the pinned digest do their jobs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from voicepack.errors import CorruptStream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def _tiny_loop(tmp_path):
    lib = run.import_library()
    clips = workloads.build("short_clips", 5, tiny=True)[:4]
    return lib, clips, run.Loop(lib, run.Transport(lib, tmp_path))


def test_corrupted_decode_counts_as_failure(tmp_path, monkeypatch):
    lib, clips, loop = _tiny_loop(tmp_path)
    real = lib.pipeline.decode_message

    def flip_first_octet(bundle, *args, **kwargs):
        payload = real(bundle, *args, **kwargs)
        return type(payload)(bytes([payload.data[0] ^ 1]) + payload.data[1:])

    monkeypatch.setattr(lib.pipeline, "decode_message", flip_first_octet)
    loop.run(clips, 0)
    attempted, failed = loop.totals()
    assert attempted == failed == len(clips) * len(run.CODECS)
    assert all(s.octets == 0 for s in loop.untraced.values())


def test_decoder_error_counts_as_failure(tmp_path, monkeypatch):
    lib, clips, loop = _tiny_loop(tmp_path)

    def refuse(*args, **kwargs):
        raise CorruptStream("injected")

    monkeypatch.setattr(lib.pipeline, "decode_message", refuse)
    loop.run(clips, 0)
    attempted, failed = loop.totals()
    assert attempted == failed == len(clips) * len(run.CODECS)


def test_vanished_stage_is_reported_missing(tmp_path, monkeypatch):
    gone = ("voicepack.codecs.lz", None, "vanished_stage", "lz.vanished_stage", False)
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (gone,))
    lib, clips, _ = _tiny_loop(tmp_path)
    tracer = tracing.Tracer()
    assert tracer.absent_hooks == ["voicepack.codecs.lz.vanished_stage"]
    loop = run.Loop(lib, run.Transport(lib, tmp_path / "traced"), tracer)
    loop.run(clips, 0)
    assert loop.totals()[1] == 0
    # As if lz77_parse were inlined into encode_payload, and the PPM
    # update replay no longer fitted ContextModel.
    for span in tracer.spans:
        if span[0] == "lz.lz77_parse":
            span[0] = "lz.renamed_stage"
    tracer.broken_probes["ppm.update"] = "TypeError()"
    metrics, missing = tracing.per_layer_metrics(tracer, loop, 1.0, 0.0)
    assert set(missing) == {"lz.parse_ms", "lz.code_ms", "lz.tokens",
                            "ppm.update_ms", "ppm.code_ms", "ppm.decode_code_ms"}
    assert set(metrics) | set(missing) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_and_digest(workload):
    a = workloads.build(workload, 1)
    b = workloads.build(workload, 2)
    assert a != b
    assert workloads.digest(a) != workloads.digest(b)
    assert workloads.build(workload, 1) == a


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_matches_pinned_digest(workload):
    clips = workloads.build(workload, workloads.DEFAULT_SEED)
    assert workloads.digest(clips) == workloads.PINNED_DIGESTS[workload]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short_clips", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_host_speed_scales_codec_and_file_time_apart():
    stats = run.CodecStats()
    stats.add(1_000_000, 3_000_000, 2_000_000, 6_000_000, 4000, True)
    assert stats.kbps("send") == pytest.approx(1000.0)
    assert stats.kbps("receive") == pytest.approx(500.0)
    host = run.HostSpeed(cpu=2.0, write=0.5, read=4.0)
    # send: 1 ms encode / 2 + 3 ms writes / 0.5 = 6.5 ms for 4 kB
    assert stats.kbps("send", host) == pytest.approx(4000 / 6.5)
    # receive: 2 ms collect / 4 + 6 ms decode / 2 = 3.5 ms
    assert stats.kbps("receive", host) == pytest.approx(4000 / 3.5)


def test_run_samples_both_host_references(tmp_path):
    _, clips, loop = _tiny_loop(tmp_path)
    loop.run(clips, 0)
    assert len(loop.reference_ns) == len(loop.reference_write_ns) >= 1
    assert len(loop.reference_read_ns) == len(loop.reference_ns)
    host = loop.host_speed()
    assert host.cpu > 0 and host.write > 0 and host.read > 0
