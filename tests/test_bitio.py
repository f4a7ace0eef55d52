import random

import pytest

from voicepack.codecs.bitio import BitReader, BitWriter
from voicepack.errors import CorruptStream


def test_roundtrip_fixed_width():
    bw = BitWriter()
    values = [0, 1, 255, 256, 511]
    for v in values:
        bw.write(v, 9)
    br = BitReader(bw.getvalue())
    assert [br.read(9) for _ in values] == values


def test_roundtrip_mixed_widths():
    rng = random.Random(42)
    items = [(rng.getrandbits(w), w) for w in rng.choices(range(1, 17), k=500)]
    bw = BitWriter()
    for v, w in items:
        bw.write(v, w)
    br = BitReader(bw.getvalue())
    for v, w in items:
        assert br.read(w) == v


def test_final_partial_octet_zero_padded():
    bw = BitWriter()
    bw.write(0b101, 3)
    assert bw.getvalue() == bytes([0b10100000])


def test_read_past_end_raises():
    br = BitReader(b"\xff")
    br.read(8)
    with pytest.raises(CorruptStream):
        br.read(1)


def test_empty_writer_yields_empty():
    assert BitWriter().getvalue() == b""
