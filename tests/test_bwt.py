import hashlib
import itertools
import random

import pytest

from voicepack.codecs import bwt
from voicepack.codecs.arith import encode_stream
from voicepack.codecs.bwt import (
    BLOCK_SIZE,
    RUNA,
    RUNB,
    BwtBlock,
    bwt_forward,
    bwt_inverse,
    decode_payload,
    encode_payload,
    mtf_decode,
    mtf_rle_encode,
)
from voicepack.errors import CorruptStream

# one octet over BLOCK_SIZE, a block bwt_forward rejects
XYZ_BLOCK = b"xyz" * (BLOCK_SIZE // 3) + b"xyz"[:BLOCK_SIZE % 3 + 1]


def oracle_bwt(data):
    """Enumerate rotations, stable-sort, read the last column."""
    n = len(data)
    if n == 0:
        return b"", 0
    rotations = [data[i:] + data[:i] for i in range(n)]
    order = sorted(range(n), key=lambda i: rotations[i])
    last = bytes(rotations[i][-1] for i in order)
    return last, order.index(0)


def test_banana_fixture():
    blk = bwt_forward(b"banana")
    assert (blk.data, blk.primary_index) == (b"nnbaaa", 3)
    assert oracle_bwt(b"banana") == (b"nnbaaa", 3)
    assert bwt_inverse(blk) == b"banana"


def test_all_equal_keeps_original_first():
    blk = bwt_forward(b"aaaa")
    assert (blk.data, blk.primary_index) == (b"aaaa", 0)


def test_empty_block():
    blk = bwt_forward(b"")
    assert (blk.data, blk.primary_index) == (b"", 0)
    assert bwt_inverse(blk) == b""


def test_matches_oracle_short_strings():
    for n in range(0, 7):
        for tup in itertools.product(b"abc", repeat=n):
            data = bytes(tup)
            blk = bwt_forward(data)
            assert (blk.data, blk.primary_index) == oracle_bwt(data)
            assert bwt_inverse(blk) == data


def test_matches_oracle_random_bytes():
    rng = random.Random(14)
    for _ in range(40):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 300)))
        blk = bwt_forward(data)
        assert (blk.data, blk.primary_index) == oracle_bwt(data)
        assert bwt_inverse(blk) == data


@pytest.mark.parametrize("start, length", [
    (0, 1024), (104_000, 2048), (116_000, 3072), (248_000, 3072),
])
def test_matches_oracle_corpus_slices(seed42_corpus, start, length):
    # corpus text repeats at length: these slices take 6-7 doubling rounds
    data = b"".join(item.payload.data for item in seed42_corpus)[start:start + length]
    blk = bwt_forward(data)
    assert (blk.data, blk.primary_index) == oracle_bwt(data)


# Digests taken from the lexsort transform over int64 ranks.  Random
# octets rank every rotation apart, up to 65535, the uint16 maximum.
# The periodic block doubles until k >= n and its equal rotations keep
# their index order.
@pytest.mark.parametrize("data, digest, primary", [
    (random.Random(8).randbytes(BLOCK_SIZE),
     "dcb2d9e3744b039dba511abc174d2abd7c1a055870a0a7070638c6790fd755c1", 13199),
    (b"ab" * (BLOCK_SIZE // 2),
     "30f597dc5fb4ea4bd7b2b5e27c2f05dafade00f13a641dc2ce90751dacf4456c", 0),
    (bytes(BLOCK_SIZE),
     "de2f256064a0af797747c2b97505dc0b9f3df0de4f489eac731c23ae9ca9cc31", 0),
], ids=["random", "periodic", "zeros"])
def test_full_block_digests_pinned(data, digest, primary):
    blk = bwt_forward(data)
    assert hashlib.sha256(blk.data).hexdigest() == digest
    assert blk.primary_index == primary


def test_forward_rejects_block_over_block_size():
    # ranks of a longer block would not fit in uint16
    with pytest.raises(ValueError, match="exceeds BLOCK_SIZE"):
        bwt_forward(XYZ_BLOCK)


def test_inverse_index_bound():
    with pytest.raises(CorruptStream):
        bwt_inverse(BwtBlock(b"ab", 5))
    with pytest.raises(CorruptStream):
        bwt_inverse(BwtBlock(b"", 1))


def reference_mtf(data):
    """Move-to-front by the definition: each octet's index in the list of
    all octets, most recently used first, never-used ones ascending."""
    order = list(range(256))
    out = []
    for b in data:
        out.append(order.index(b))
        order.remove(b)
        order.insert(0, b)
    return out


def test_mtf_hand_traces():
    assert reference_mtf(b"aaa") == [97, 0, 0]
    assert reference_mtf(b"nnbaaa") == [110, 0, 99, 99, 0, 0]
    assert mtf_rle_encode(b"aaa") == [98, 1]
    assert mtf_rle_encode(b"nnbaaa") == [111, 0, 100, 100, 1]
    assert mtf_rle_encode(b"") == []


def test_mtf_identity():
    rng = random.Random(15)
    for _ in range(30):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 500)))
        assert mtf_decode(reference_mtf(data)) == data


def roundtrip(data):
    return decode_payload(encode_payload(data), len(data))


def test_rle0_runs_bijective_base2():
    # run lengths 1..40 survive the digit coding exactly
    for n in range(1, 41):
        tokens = mtf_rle_encode(bytes(n) + b"\x07")
        assert tokens[-1] == 8
        assert sum((t + 1) << i for i, t in enumerate(tokens[:-1])) == n
        # move-to-front turns n + 1 equal octets into one value and n zeros
        data = b"\x07" * (n + 1)
        assert roundtrip(data) == data


def test_rle0_identity_random():
    rng = random.Random(16)
    for _ in range(40):
        data = bytes(rng.getrandbits(8) if rng.random() > 0.6 else 0
                     for _ in range(rng.randrange(0, 400)))
        assert roundtrip(data) == data


def test_rle0_token_range():
    # nonzero values shift up by one: 0/1 are reserved for run digits;
    # move-to-front gives [1, 255, 0, 0]
    tokens = mtf_rle_encode(b"\x01\xff\xff\xff")
    assert tokens[:2] == [2, 256]


def test_mtf_rle_composition():
    rng = random.Random(18)
    for _ in range(20):
        data = bytes(rng.choice(b"aabbbbc") for _ in range(rng.randrange(0, 600)))
        assert roundtrip(data) == data


def test_payload_roundtrip_multiblock():
    rng = random.Random(19)
    data = bytes(rng.choice(b"abcde") for _ in range(BLOCK_SIZE + 1000))
    payload = encode_payload(data)
    assert bwt._BLOCK_HDR.unpack_from(payload)[0] == BLOCK_SIZE
    assert decode_payload(payload, len(data)) == data


def test_payload_blocks_hold_encode_stream():
    rng = random.Random(23)
    data = bytes(rng.choice(b"aabbbcd ") for _ in range(BLOCK_SIZE + 100))
    payload = encode_payload(data)
    pos = 0
    for at in (0, BLOCK_SIZE):
        block = data[at:at + BLOCK_SIZE]
        fwd = bwt_forward(block)
        stream = encode_stream(mtf_rle_encode(fwd.data))
        assert bwt._BLOCK_HDR.unpack_from(payload, pos) == (len(block), fwd.primary_index, len(stream))
        pos += 12
        assert payload[pos:pos + len(stream)] == stream
        pos += len(stream)
    assert pos == len(payload)


def test_payload_empty():
    assert encode_payload(b"") == b""
    assert decode_payload(b"", 0) == b""


def test_truncated_payload_raises():
    payload = encode_payload(b"compressible compressible compressible")
    with pytest.raises(CorruptStream):
        decode_payload(payload[:8], 39)
    with pytest.raises(CorruptStream):
        decode_payload(payload[:14], 39)


def test_block_length_mismatch_raises():
    payload = encode_payload(b"xyz" * 10)
    with pytest.raises(CorruptStream):
        decode_payload(payload, 29)


def test_block_overrunning_declared_length_not_decoded(monkeypatch):
    # the second block's header alone shows it overruns the declared length
    calls = []
    inverse = bwt.bwt_inverse

    def counting_inverse(block):
        calls.append(block)
        return inverse(block)

    monkeypatch.setattr(bwt, "bwt_inverse", counting_inverse)
    payload = encode_payload(bytes(2 * BLOCK_SIZE))
    with pytest.raises(CorruptStream):
        decode_payload(payload, BLOCK_SIZE)
    assert len(calls) <= 1


def _block_payload(block_len, tokens, primary=0):
    """One block of the given tokens, coded as encode_payload codes them."""
    stream = encode_stream(tokens)
    return bwt._BLOCK_HDR.pack(block_len, primary, len(stream)) + stream


def test_block_longer_than_block_size_raises():
    data = XYZ_BLOCK
    assert len(data) == BLOCK_SIZE + 1
    # a block the encoder never writes: one token stream for it all.  The
    # tokens need not be its transform, since the header alone is rejected.
    payload = _block_payload(len(data), mtf_rle_encode(data))
    with pytest.raises(CorruptStream, match="overruns block size"):
        decode_payload(payload, BLOCK_SIZE + 1)


def test_run_past_block_end_raises():
    # RUNB, RUNB is the run 2 + 2 * 2 = 6, past a block of 3
    with pytest.raises(CorruptStream, match="run overflows BWT block"):
        decode_payload(_block_payload(3, [RUNB, RUNB]), 3)


def test_run_ending_at_block_end_roundtrips():
    data = b"aaaa"
    fwd = bwt_forward(data)
    # "a", then a run of 3 = 1 + 2 * 1 that fills the block
    tokens = [ord("a") + 1, RUNA, RUNA]
    assert mtf_rle_encode(fwd.data) == tokens
    payload = _block_payload(len(data), tokens, fwd.primary_index)
    assert payload == encode_payload(data)
    assert decode_payload(payload, len(data)) == data
