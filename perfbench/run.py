"""Closed-loop benchmark of the voicepack send and receive path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

One process, one thread, one clip in flight: the way a phone sends a clip
and waits.  Each clip goes through the full path once per codec:

    encode_message -> outbox_write per segment       (send, timed)
    outbox -> inbox                                  (the radio, untimed)
    inbox_collect -> decode_message                  (receive, timed)

and the received clip is compared byte for byte with the one sent.  A
mismatch or a VoicepackError counts as a failed operation; its time
stays in the rate and its octets do not.  The codecs take turns so that
each gets an equal share of the run, which lasts ``--seconds`` and at
least one whole pass of every codec (Loop.run).  The rates are scaled by
the host's speed, measured alongside (reference_loop).

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs every clip and codec twice, untraced and then traced
(see tracing.py), prints the per-layer metrics and the tracing overhead,
and writes the spans to ``.bench_run/trace-<workload>-seed<N>.json``.
The last line of standard output is the JSON result.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run exits with status 2 and prints no result.
"""

import argparse
import array
import fcntl
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracing
from tracing import CODECS

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_REPS = 3
IMPORT_REPS = 5
# Run as `python -c IMPORT_PROBE <src>`: prints the seconds the import took.
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import voicepack
print(time.perf_counter() - t0)
"""

# linux/fs.h, 64-bit: the inode-flags ioctls and ext2/3/4's TOPDIR flag.
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000

# Host-speed references: reference_loop() and Transport.reference_files()
# are timed between round trips once every REF_INTERVAL_S.  The nominal
# times are theirs on the host the rates are scaled to.
REF_INTERVAL_S = 0.1
REF_NOMINAL_NS = 2_700_000
REF_FILES = 4
REF_FILE_OCTETS = 140
REF_WRITE_NOMINAL_NS = 300_000
REF_READ_NOMINAL_NS = 100_000
REF_TEXT = bytes((i * 7919 >> 3) % 23 + 65 for i in range(1500)) * 2


def reference_loop():
    """Fixed pure-Python work that shares the host with the round trips.

    The benchmark runs on a few cores of a shared host whose speed drifts
    with the load of other tenants: the same round trips ran 10-25 %
    apart (quartile spread over ten runs) from one run to the next.  This
    loop, timed between round trips, slows down with them.  Over 3 s
    windows its time correlated 0.9-0.96 with that of the codecs, and
    scaling the rates by its mean time over the run, against
    REF_NOMINAL_NS (its time on a 2-vCPU Xeon VM, Python 3.11), cut the
    spread to 2-8 %.  Its two halves, integer arithmetic and an LZW-style
    parse over a dict of bytes, are the two kinds of work the codecs do.
    It calls no library code, so a change to the library does not move it.
    """
    s = 0
    for i in range(20000):
        s += i * i % 7
    table = {bytes((i,)): i for i in range(256)}
    word = b""
    for octet in REF_TEXT:
        longer = word + bytes((octet,))
        if longer in table:
            word = longer
        else:
            s += table[word]
            table[longer] = len(table)
            word = bytes((octet,))
    return s


@dataclass
class HostSpeed:
    """How many times slower than nominal the host ran each reference."""

    cpu: float
    write: float
    read: float


@dataclass
class CodecStats:
    """Round trips of one codec: times, delivered octets and failures.

    Send time is split into encode_message and the outbox_write calls,
    receive time into inbox_collect and decode_message, so that the codec
    part and the file part can each be scaled by their own reference.
    """

    encode_ns: int = 0
    write_ns: int = 0
    collect_ns: int = 0
    decode_ns: int = 0
    octets: int = 0
    attempted: int = 0
    failed: int = 0
    send_samples: list = field(default_factory=list)
    receive_samples: list = field(default_factory=list)

    def add(self, encode_ns, write_ns, collect_ns, decode_ns, octets, ok):
        self.attempted += 1
        self.encode_ns += encode_ns
        self.write_ns += write_ns
        self.collect_ns += collect_ns
        self.decode_ns += decode_ns
        self.send_samples.append(encode_ns + write_ns)
        self.receive_samples.append(collect_ns + decode_ns)
        if ok:
            self.octets += octets
        else:
            self.failed += 1

    @property
    def busy_ns(self):
        return self.encode_ns + self.write_ns + self.collect_ns + self.decode_ns

    def kbps(self, way, host=None):
        """Delivered kB (1000 octets) per second of send or receive time.

        Given a HostSpeed, the codec part of the time is divided by its
        `cpu` slowdown and the file part by its `write` or `read` slowdown
        (see reference_loop and Transport.reference_files).
        """
        send = way == "send"
        code = self.encode_ns if send else self.decode_ns
        files = self.write_ns if send else self.collect_ns
        if host is not None:
            code /= host.cpu
            files /= host.write if send else host.read
        ns = code + files
        return self.octets * 1e6 / ns if ns else 0.0


def import_library():
    """voicepack from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import voicepack

    if Path(voicepack.__file__).resolve().parent.parent != src:
        raise ImportError(f"voicepack resolved outside {src}")
    return SimpleNamespace(
        pipeline=voicepack.pipeline,
        sms=voicepack.sms,
        codecs=voicepack.codecs,
        VoicepackError=voicepack.errors.VoicepackError,
    )


class Transport:
    """Outbox/inbox pair under one root; the loopback stands in for the radio.

    Consumed segment files are moved into ``spent/`` and only deleted at
    the end of the run (empty_tree).  On ext4 without a journal the inode
    allocator passes over inodes freed in roughly the last minute,
    scanning each one, so deletions made during the run would make every
    later file create slower (measured: from about 10 us to 600 us per
    create) and the send times would follow the run's own history instead
    of the code under test.
    """

    def __init__(self, lib, root):
        self.tdir = lib.sms.TransportDir.under(root)
        self.spent = Path(root) / "spent"
        self.spent.mkdir()
        self.moved = 0

    def reference_files(self):
        """Time REF_FILES segment-sized files written and renamed the way
        outbox_write does it, then read back the way inbox_collect does;
        returns the two times in ns.

        The file part of the send and receive times is scaled by these, as
        the codec part is by reference_loop(): a file create on the shared
        disk varied by a quarter from one run to the next, now and then by
        several times, and it is half the send time on short_clips.  Reads
        slow down far less than creates, hence two references.  The files
        are made in the (empty) outbox, so that they come from the same
        inode group as the segments, and then go to spent/.
        """
        outbox = Path(self.tdir.outbox)
        data = bytes(REF_FILE_OCTETS)
        t0 = time.perf_counter_ns()
        for i in range(REF_FILES):
            path = outbox / f"reference_{i}.ref"
            path.exists()
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        t1 = time.perf_counter_ns()
        for path in sorted(outbox.glob("reference_*.ref")):
            path.read_bytes()
        t2 = time.perf_counter_ns()
        self.clear()
        return t1 - t0, t2 - t1

    def loopback(self):
        inbox = self.tdir.inbox
        for entry in os.scandir(self.tdir.outbox):
            os.replace(entry.path, os.path.join(inbox, entry.name))

    def clear(self):
        """Empty outbox and inbox, so every message starts from clean boxes."""
        for box in (self.tdir.outbox, self.tdir.inbox):
            for entry in os.scandir(box):
                os.replace(entry.path, self.spent / str(self.moved))
                self.moved += 1


class Loop:
    """Closed loop over one workload's clips and the six codecs."""

    def __init__(self, lib, transport, tracer=None):
        self.lib = lib
        self.transport = transport
        self.tracer = tracer
        self.algs = {c: lib.codecs.AlgorithmId.from_label(c) for c in CODECS}
        self.warmup = {c: CodecStats() for c in CODECS}
        self.untraced = {c: CodecStats() for c in CODECS}
        self.traced = {c: CodecStats() for c in CODECS}
        self.containers = {}
        self.wire_octets = dict.fromkeys(CODECS, 0)
        self.sms_total = 0
        self.messages = 0
        self.reference_ns = []
        self.reference_write_ns = []
        self.reference_read_ns = []

    def round_trip(self, clip, codec, stats):
        """Send and receive one clip; returns its segments, or None on failure."""
        pipeline, sms = self.lib.pipeline, self.lib.sms
        tdir = self.transport.tdir
        alg = self.algs[codec]
        ref = self.messages % 256
        self.messages += 1
        clock = time.perf_counter_ns
        t0 = clock()
        t1 = None
        try:
            bundle = pipeline.encode_message(clip, alg, ref=ref)
            t1 = clock()
            for seg in bundle.segments:
                sms.outbox_write(seg, tdir)
        except self.lib.VoicepackError:
            t2 = clock()
            t1 = t1 or t2
            stats.add(t1 - t0, t2 - t1, 0, 0, len(clip), False)
            self.transport.clear()
            return None
        t2 = clock()
        self.transport.loopback()
        t3 = clock()
        t4 = None
        try:
            segments = sms.inbox_collect(tdir, ref)
            t4 = clock()
            data = pipeline.decode_message(pipeline.SmsBundle(ref, tuple(segments), alg)).data
        except self.lib.VoicepackError:
            data = None
        t5 = clock()
        t4 = t4 or t5
        self.transport.clear()
        ok = data == clip
        stats.add(t1 - t0, t2 - t1, t4 - t3, t5 - t4, len(clip), ok)
        return bundle.segments if ok else None

    def warm_up(self, clips):
        """One untimed round trip per codec on the median-size clip."""
        clip = sorted(clips, key=len)[len(clips) // 2]
        for codec in CODECS:
            self.round_trip(clip, codec, self.warmup[codec])

    def run(self, clips, seconds):
        """Round trips until every codec has sent every clip once and
        `seconds` have passed; returns how many clip sends that took.

        Each codec walks the clips in order.  Every step goes to the codec
        with the least untraced send and receive time so far, so the
        codecs take turns throughout the run and each gets an equal share
        of it: a fast codec makes many passes, and its rates rest on
        seconds of measured time instead of a fraction of one.  Once
        `seconds` are up, only codecs still short of a whole pass go on.
        Every REF_INTERVAL_S the host-speed references are timed into
        `reference_ns`, `reference_write_ns` and `reference_read_ns`.
        """
        n = len(clips)
        self.containers = {c: [None] * n for c in CODECS}
        sent = dict.fromkeys(CODECS, 0)
        gc.collect()
        deadline = time.perf_counter() + seconds
        next_reference = 0.0
        for step in itertools.count():
            now = time.perf_counter()
            if now >= next_reference:
                next_reference = now + REF_INTERVAL_S
                t0 = time.perf_counter_ns()
                reference_loop()
                self.reference_ns.append(time.perf_counter_ns() - t0)
                write_ns, read_ns = self.transport.reference_files()
                self.reference_write_ns.append(write_ns)
                self.reference_read_ns.append(read_ns)
            late = time.perf_counter() >= deadline
            todo = [c for c in CODECS if sent[c] < n or not late]
            if not todo:
                return step
            codec = min(todo, key=lambda c: self.untraced[c].busy_ns)
            req = sent[codec]
            sent[codec] += 1
            index = req % n
            clip = clips[index]
            first_pass = req < n
            if self.tracer is None:
                segments = self.round_trip(clip, codec, self.untraced[codec])
            else:
                segments = self.paired_round_trips(req, index, clip, codec)
            if segments is None:
                continue
            container = b"".join(seg.body for seg in segments)
            if self.tracer is not None:
                self.tracer.probe(self.lib, codec, clip, container, first_pass)
            if first_pass:
                self.containers[codec][index] = container
                self.wire_octets[codec] += len(container)
                self.sms_total += len(segments)

    def paired_round_trips(self, req, index, clip, codec):
        """Untraced and traced round trips of one clip, taking turns going
        first so that neither always finds the caches warm."""
        def untraced():
            return self.round_trip(clip, codec, self.untraced[codec])

        def traced():
            with self.tracer.traced(req, index, codec):
                return self.round_trip(clip, codec, self.traced[codec])

        first, second = (untraced, traced) if req % 2 == 0 else (traced, untraced)
        a, b = first(), second()
        return a if a is not None and b is not None else None

    def host_speed(self):
        return HostSpeed(statistics.fmean(self.reference_ns) / REF_NOMINAL_NS,
                         statistics.fmean(self.reference_write_ns) / REF_WRITE_NOMINAL_NS,
                         statistics.fmean(self.reference_read_ns) / REF_READ_NOMINAL_NS)

    def totals(self):
        groups = (self.warmup, self.untraced, self.traced)
        attempted = sum(s.attempted for g in groups for s in g.values())
        failed = sum(s.failed for g in groups for s in g.values())
        return attempted, failed


def wire_digests(loop):
    """SHA-256 per codec over the first pass's containers in clip order."""
    out = {}
    for codec, containers in loop.containers.items():
        h = hashlib.sha256()
        for container in containers:
            h.update(container or b"")
        out[codec] = h.hexdigest()
    return out


def spread_subdirectories(path):
    """Set ext2/3/4's TOPDIR flag (``chattr +T``) on `path`; True if it is set.

    Each run's transport root is a new subdirectory.  Without the flag the
    allocator puts it, and so every segment file, in the same inode group
    as the previous run's, where that run's freshly deleted files make
    each create scan past them (Transport above): back-to-back runs then
    measured 150-600 us per create, varying run to run.  With the flag
    each new root goes to the group with the fewest directories, and
    creates measured a steady 8 us.  That is only so while the previous
    runs' groups keep their directories: a group whose root was removed
    has none and many free inodes, so it is picked next, and one run in
    five then paid 340 us per create.  Hence empty_tree() below.  Other
    filesystems refuse the flag; that is not an error.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return False
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        if not flags[0] & FS_TOPDIR_FL:
            flags[0] |= FS_TOPDIR_FL
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def empty_tree(root):
    """Delete the files under `root` but keep its directories, so that its
    inode group is not chosen for the next run (spread_subdirectories)."""
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            try:
                os.unlink(os.path.join(dirpath, name))
            except OSError:
                pass


def filesystem_type(path):
    """Type of the filesystem holding `path`, from the mount table."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def environment(transport_root):
    import numpy  # already loaded by voicepack; imported for its version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "transport_fs": filesystem_type(transport_root),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # workloads.WORKLOADS, spelled out: that module imports voicepack,
    # which must come from this checkout's src/ (import_library).
    p.add_argument("--workload", required=True, choices=("voice_corpus", "short_clips", "amr_frames"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_seconds():
    """Median time to import voicepack in a fresh interpreter, over
    IMPORT_REPS of them.

    This process's own import is a single sample, and it varied by a
    fifth from run to run, more than the rest of set-up took.
    """
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"cannot import voicepack from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    spread = spread_subdirectories(RUN_DIR)
    transport_root = tempfile.mkdtemp(prefix=f"transport-{args.workload}-", dir=RUN_DIR)
    try:
        return measure(lib, workloads, args, transport_root, spread)
    finally:
        empty_tree(transport_root)


def measure(lib, workloads, args, transport_root, spread):
    loop = Loop(lib, Transport(lib, transport_root), tracing.Tracer() if args.trace else None)
    import_s = import_seconds()
    setups, gens = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        clips = workloads.build(args.workload, args.seed, args.tiny)
        gens.append(time.perf_counter() - t0)
        loop.warm_up(clips)
        setups.append(time.perf_counter() - t0)
    setup_raw_s = import_s + statistics.median(setups)

    pinned = workloads.PINNED_DIGESTS[args.workload]
    default = workloads.digest(workloads.build(args.workload, workloads.DEFAULT_SEED))
    inputs_ok = default == pinned

    t0 = time.perf_counter()
    reqs = loop.run(clips, args.seconds)
    elapsed = time.perf_counter() - t0
    attempted, failed = loop.totals()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    env = environment(transport_root)
    env["transport_spread"] = spread
    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed}{' tiny' if args.tiny else ''}: "
          f"{len(clips)} clips, {sum(map(len, clips))} octets, digest {workloads.digest(clips)}")
    print(f"# inputs of default seed {workloads.DEFAULT_SEED}: digest {default} "
          f"{'matches the pinned digest' if inputs_ok else 'DIFFERS from pinned ' + pinned}")
    host = loop.host_speed()
    # The import is loader and disk work and is left as measured; input
    # generation and warm-up are Python, scaled like the codec times.
    setup_s = import_s + statistics.median(setups) / host.cpu
    print(f"# host slowdown over {len(loop.reference_ns)} samples (mean / nominal ms): "
          f"cpu {host.cpu:.4f} ({statistics.fmean(loop.reference_ns) / 1e6:.4f} / "
          f"{REF_NOMINAL_NS / 1e6}), write {host.write:.4f} "
          f"({statistics.fmean(loop.reference_write_ns) / 1e6:.4f} / {REF_WRITE_NOMINAL_NS / 1e6}), "
          f"read {host.read:.4f} ({statistics.fmean(loop.reference_read_ns) / 1e6:.4f} / "
          f"{REF_READ_NOMINAL_NS / 1e6}); the rates are scaled by them")
    print(f"# setup {setup_raw_s:.3f} s (median of {IMPORT_REPS} imports {import_s:.3f} s + median of "
          f"{SETUP_REPS} x inputs and warm-up), {setup_s:.3f} s scaled; "
          f"run {elapsed:.2f} s, {reqs} clip sends")
    digests = wire_digests(loop)
    print("# codec     send_kB/s  receive_kB/s  (unscaled send  receive)  attempted  failed  wire_sha256")
    for c in CODECS:
        s = loop.untraced[c]
        print(f"# {c:<8} {s.kbps('send', host):10.1f} {s.kbps('receive', host):13.1f} "
              f"{s.kbps('send'):15.1f} {s.kbps('receive'):8.1f} "
              f"{s.attempted:11d} {s.failed:7d}  {digests[c]}")
    print(f"# sms_total {loop.sms_total} over one pass of {len(clips)} clips x {len(CODECS)} codecs")

    if args.trace:
        metrics = trace_report(loop, args, env, statistics.median(gens) * 1000)
    else:
        metrics = {}
        for c in CODECS:
            metrics[f"send_kBps.{c}"] = (loop.untraced[c].kbps("send", host), "kB/s")
        for c in CODECS:
            metrics[f"receive_kBps.{c}"] = (loop.untraced[c].kbps("receive", host), "kB/s")
        metrics["sms_total"] = (loop.sms_total, "count")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    result = {
        "correct": failed == 0 and inputs_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def trace_report(loop, args, env, corpus_ms):
    tracer = loop.tracer
    untraced = sum(s.busy_ns for s in loop.untraced.values())
    traced = sum(s.busy_ns for s in loop.traced.values())
    overhead_pct = (traced / untraced - 1) * 100
    metrics, missing = tracing.per_layer_metrics(tracer, loop, corpus_ms, overhead_pct)
    host = loop.host_speed()
    print("# codec     traced send_kB/s  receive_kB/s  (scaled by the host slowdown)")
    for c in CODECS:
        s = loop.traced[c]
        print(f"# {c:<8} {s.kbps('send', host):17.1f} {s.kbps('receive', host):13.1f}")
    print(f"# tracing overhead {overhead_pct:.2f} % of untraced send+receive time")
    if tracer.absent_hooks:
        print(f"# hooks with no target: {', '.join(tracer.absent_hooks)}")
    for name, reason in tracer.broken_probes.items():
        print(f"# replay {name} failed: {reason}")
    if missing:
        print(f"# missing per-layer metrics: {', '.join(missing)}")
    path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.json"
    tracer.write(path, {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "missing": missing,
    })
    print(f"# spans written to {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
