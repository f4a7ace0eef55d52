"""Shared fixtures: payload generators, one benchmark run per session and
a time limit on every test."""

import random
import signal

import pytest

from voicepack import bench

# A coder bug can loop forever (a slot of frequency 0 leaves a range of 0,
# which no renormalization raises).  The limit turns such a hang into a
# failed test; the slowest test, acceptance criterion 1, takes about 10 s
# on 2 cores and has its own 60 s bound.
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_TIME_LIMIT_S.  A BaseException,
    so that no `except Exception` (nor `except OSError`, as TimeoutError
    would be) in the code under test swallows it."""


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_payload(rng, n, kind):
    """One payload of length n from a named entropy class."""
    if kind == "random":
        return bytes(rng.getrandbits(8) for _ in range(n))
    if kind == "repeat":
        unit = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 24)))
        return (unit * (n // len(unit) + 1))[:n]
    if kind == "text":
        words = [bytes(rng.getrandbits(7) | 32 for _ in range(rng.randrange(2, 9)))
                 for _ in range(16)]
        out = bytearray()
        while len(out) < n:
            out += words[rng.getrandbits(4)] + b" "
        return bytes(out[:n])
    if kind == "zeros":
        return bytes(n)
    if kind == "skewed":
        return bytes(rng.getrandbits(8) & rng.getrandbits(8) for _ in range(n))
    raise ValueError(kind)


PAYLOAD_KINDS = ("random", "repeat", "text", "zeros", "skewed")


def mixed_payloads(seed, count, max_len=10_000):
    """Deterministic payload suite spanning lengths 0..max_len, mixed entropy."""
    rng = random.Random(seed)
    pinned = [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 139, 140, 141, 255, 256, 257, max_len]
    payloads = []
    for i in range(count):
        if i < len(pinned):
            n = pinned[i]
        else:
            n = int(10 ** (rng.random() * 4))
            n = min(n, max_len)
        payloads.append(make_payload(rng, n, PAYLOAD_KINDS[i % len(PAYLOAD_KINDS)]))
    return payloads


@pytest.fixture(scope="session")
def seed42_corpus():
    return bench.generate_corpus(bench.CorpusSpec(seed=42))


@pytest.fixture(scope="session")
def seed42_records(seed42_corpus):
    return bench.run_benchmark(seed42_corpus)
