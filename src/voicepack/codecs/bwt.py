"""Burrows-Wheeler block codec: transform, move-to-front, zero run
lengths, then the adaptive coder.

The forward transform sorts all cyclic rotations by prefix doubling,
each round in two stable radix passes over 16-bit ranks (Manber & Myers
1993), so equal rotations keep their original order; it keeps the index
of the unrotated string instead of appending a sentinel.

numpy is imported inside bwt_forward and bwt_inverse, not at module
level, so that importing voicepack and running any other codec does not
pay its start-up cost.

Zero runs from the move-to-front stage are written in bijective base 2
over two reserved tokens (RUNA=0, RUNB=1); any other move-to-front value
v is carried as token v+1, so the token alphabet is 0..256.

The input is cut into blocks of BLOCK_SIZE octets.  Payload layout per
block: block length, primary index and coded stream length (4 octets BE
each), then the coded token stream.
"""

import struct
from dataclasses import dataclass

from voicepack.codecs.arith import AdaptiveModel
from voicepack.codecs.rangecoder import RangeEncoder
from voicepack.errors import CorruptStream

BLOCK_SIZE = 65536

RUNA = 0
RUNB = 1
_TOKEN_ALPHABET = 257

_BLOCK_HDR = struct.Struct(">III")


@dataclass(frozen=True)
class BwtBlock:
    data: bytes
    primary_index: int


def bwt_forward(block):
    """Last column of the sorted rotations plus the unrotated row's index.

    Each round sorts the (rank, rank k octets on) pairs by two stable
    argsorts, second key first.  Ranks are below n <= BLOCK_SIZE = 2**16,
    so they fit in uint16, which numpy sorts by radix.  Raises ValueError
    for a longer block; encode_payload cuts blocks at BLOCK_SIZE.
    """
    n = len(block)
    if n > BLOCK_SIZE:
        raise ValueError(f"BWT block of {n} octets exceeds BLOCK_SIZE")
    if n == 0:
        return BwtBlock(b"", 0)
    import numpy as np
    arr = np.frombuffer(bytes(block), dtype=np.uint8)
    rank = arr.astype(np.uint16)
    k = 1
    while k < n:
        key2 = np.concatenate((rank[k:], rank[:k]))
        order = np.argsort(key2, kind="stable")
        order = order[np.argsort(rank[order], kind="stable")]
        r1 = rank[order]
        r2 = key2[order]
        new_rank = np.zeros(n, dtype=np.uint16)
        changed = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        np.cumsum(changed, dtype=np.uint16, out=new_rank[1:])
        rank[order] = new_rank
        if new_rank[-1] == n - 1:
            break
        k <<= 1
    order = np.argsort(rank, kind="stable")
    last = arr[(order - 1) % n]
    primary = int(np.nonzero(order == 0)[0][0])
    return BwtBlock(last.tobytes(), primary)


def bwt_inverse(block):
    """Rebuild the original string by walking the last-to-first mapping."""
    data = block.data
    n = len(data)
    p = block.primary_index
    if n == 0:
        if p != 0:
            raise CorruptStream("primary index out of range for empty block")
        return b""
    if not 0 <= p < n:
        raise CorruptStream(f"primary index {p} out of range for block of {n}")
    import numpy as np
    arr = np.frombuffer(data, dtype=np.uint8)
    nxt = np.argsort(arr, kind="stable").tolist()
    out = bytearray(n)
    i = nxt[p]
    for k in range(n):
        out[k] = data[i]
        i = nxt[i]
    return bytes(out)


def mtf_decode(values):
    table = bytearray(range(256))
    out = bytearray()
    append = out.append
    for i in values:
        b = table[i]
        append(b)
        if i:
            del table[i]
            table.insert(0, b)
    return bytes(out)


def _emit_run(out, n):
    # bijective base 2, least significant digit first: token t is digit t + 1
    while n > 0:
        t = RUNA if n & 1 else RUNB
        out.append(t)
        n = (n - t - 1) >> 1


def mtf_rle_encode(data):
    """Move-to-front over 0..255 to zero-run digits and shifted values."""
    table = bytearray(range(256))
    out = []
    append = out.append
    run = 0
    for b in data:
        i = table.index(b)
        if i:
            if run:
                _emit_run(out, run)
                run = 0
            append(i + 1)
            del table[i]
            table.insert(0, b)
        else:
            run += 1
    if run:
        _emit_run(out, run)
    return out


def encode_payload(data):
    out = bytearray()
    for at in range(0, len(data), BLOCK_SIZE):
        chunk = data[at:at + BLOCK_SIZE]
        fwd = bwt_forward(chunk)
        enc = RangeEncoder()
        model = AdaptiveModel(_TOKEN_ALPHABET)
        encode = model.encode
        for t in mtf_rle_encode(fwd.data):
            encode(enc, t)
        stream = enc.finish()
        out += _BLOCK_HDR.pack(len(chunk), fwd.primary_index, len(stream))
        out += stream
    return bytes(out)


def decode_payload(payload, original_len):
    out = bytearray()
    pos = 0
    end = len(payload)
    while pos < end:
        if end - pos < _BLOCK_HDR.size:
            raise CorruptStream("BWT block header truncated")
        block_len, primary, stream_len = _BLOCK_HDR.unpack_from(payload, pos)
        pos += _BLOCK_HDR.size
        if block_len == 0:
            raise CorruptStream("BWT block of length zero")
        # checked before decoding, so a lying header costs no decode work
        if block_len > BLOCK_SIZE or block_len > original_len - len(out):
            raise CorruptStream("BWT block overruns block size or declared length")
        if end - pos < stream_len:
            raise CorruptStream("BWT block stream truncated")
        stream = payload[pos:pos + stream_len]
        pos += stream_len

        vals = bytearray()
        run = 0
        weight = 1
        # block_len >= 1, so the loop ends at the break or the raise
        for t in AdaptiveModel(_TOKEN_ALPHABET).decoded(stream):
            if t <= RUNB:
                run += (t + 1) * weight
                weight <<= 1
            else:
                if run:
                    vals += bytes(run)
                    run = 0
                    weight = 1
                vals.append(t - 1)
            n = len(vals) + run
            if n >= block_len:
                if n > block_len:
                    raise CorruptStream("run overflows BWT block")
                break
        if run:
            vals += bytes(run)
        out += bwt_inverse(BwtBlock(mtf_decode(vals), primary))
    if len(out) != original_len:
        raise CorruptStream("BWT blocks do not sum to declared length")
    return bytes(out)
