"""Seeded inputs for the benchmark workloads.

Each builder returns the workload's clips as a list of bytes, already in
the order the closed loop sends them.  The same seed always gives the
same list.

* ``voice_corpus``: the paper's synthetic corpus,
  ``bench.generate_corpus(CorpusSpec(seed))``, 90 clips of 960-11,520
  octets.  Low entropy and long repeats, so the codec inner loops do
  nearly all the work.
* ``short_clips``: slices of 32-512 octets cut from the concatenated
  corpus of the same seed: one- to four-SMS messages, where per-call
  set-up, the container, headers and the file transport dominate.
* ``amr_frames``: AMR-12.2-like clips of 1-10 s: ``#!AMR\\n`` followed by
  32-octet frames, each a 0x3C header octet and 31 random octets.  This
  stands in for real codec output, which is close to incompressible, so
  every codec expands it.

The clip sizes of ``short_clips`` and ``amr_frames`` are a fixed ladder
shuffled per seed: every seed sends the same mix of sizes and only the
content and order change, which keeps rates comparable across seeds.

``tiny=True`` builds a small version of each workload for the smoke
test.
"""

import hashlib
import random

from voicepack import bench

WORKLOADS = ("voice_corpus", "short_clips", "amr_frames")
DEFAULT_SEED = 42

SHORT_CLIPS = 1000
SHORT_CLIPS_TINY = 24
SHORT_MIN_OCTETS = 32
SHORT_MAX_OCTETS = 512

AMR_CLIPS = 16
AMR_CLIPS_TINY = 6
AMR_MAGIC = b"#!AMR\n"
AMR_FRAME_HEADER = 0x3C  # frame type 7 (12.2 kbit/s), quality bit set
AMR_FRAME_BODY = 31
AMR_FRAMES_PER_S = 50
AMR_MIN_S = 1
AMR_MAX_S = 10

# SHA-256 of build(name, DEFAULT_SEED) at full size.  A change to
# bench.generate_corpus or to these generators that alters a workload
# fails this check instead of silently moving every figure.
PINNED_DIGESTS = {
    "voice_corpus": "57b66a9868285df270b3013b33de1c672de94157181e780a3ae9143594d2d4ca",
    "short_clips": "6ed683aa5b43c7c28a64fed6e1edefdf37651bdeab0c4bb527e1f9283e22cc41",
    "amr_frames": "2bb5ee343870fdf2b725799155501ae6c5c834d01793fa388574cad499dcd7fc",
}


def _ladder(n, lo, hi):
    """n sizes spread evenly from lo to hi inclusive."""
    return [lo + (hi - lo) * i // (n - 1) for i in range(n)]


def _corpus(seed, tiny):
    spec = bench.CorpusSpec(seed=seed, frames_per_word=1) if tiny else bench.CorpusSpec(seed=seed)
    return [item.payload.data for item in bench.generate_corpus(spec)]


def _short_clips(seed, tiny):
    source = b"".join(_corpus(seed, tiny=False))
    rng = random.Random(f"short_clips:{seed}")
    n = SHORT_CLIPS_TINY if tiny else SHORT_CLIPS
    clips = []
    for length in _ladder(n, SHORT_MIN_OCTETS, SHORT_MAX_OCTETS):
        at = rng.randrange(len(source) - length + 1)
        clips.append(source[at:at + length])
    return clips


def _amr_frames(seed, tiny):
    rng = random.Random(f"amr_frames:{seed}")
    scale = 10 if tiny else 1  # tiny clips last 0.1-1 s
    n = AMR_CLIPS_TINY if tiny else AMR_CLIPS
    header = bytes([AMR_FRAME_HEADER])
    clips = []
    for frames in _ladder(n, AMR_MIN_S * AMR_FRAMES_PER_S // scale,
                          AMR_MAX_S * AMR_FRAMES_PER_S // scale):
        clips.append(AMR_MAGIC + b"".join(
            header + rng.randbytes(AMR_FRAME_BODY) for _ in range(frames)))
    return clips


_BUILDERS = {
    "voice_corpus": _corpus,
    "short_clips": _short_clips,
    "amr_frames": _amr_frames,
}


def build(name, seed, tiny=False):
    """The workload's clips in sending order; deterministic per (name, seed, tiny)."""
    clips = _BUILDERS[name](seed, tiny)
    random.Random(f"order:{name}:{seed}").shuffle(clips)
    return clips


def digest(clips):
    """SHA-256 over the clips, each prefixed by its length, in order."""
    h = hashlib.sha256()
    for clip in clips:
        h.update(len(clip).to_bytes(4, "big"))
        h.update(clip)
    return h.hexdigest()
