"""Burrows-Wheeler block codec: transform, move-to-front, zero run
lengths, then the adaptive coder.

The forward transform sorts all cyclic rotations (prefix-doubling over
ranks, stable, so equal rotations keep their original order) and keeps
the index of the unrotated string instead of appending a sentinel.

Zero runs from the move-to-front stage are written in bijective base 2
over two reserved tokens (RUNA=0, RUNB=1); any other move-to-front value
v is carried as token v+1, so the token alphabet is 0..256.

The input is cut into blocks of BLOCK_SIZE octets.  Payload layout per
block: block length, primary index and coded stream length (4 octets BE
each), then the coded token stream.
"""

import struct
from dataclasses import dataclass

import numpy as np

from voicepack.codecs.arith import AdaptiveModel
from voicepack.codecs.rangecoder import RangeDecoder, RangeEncoder
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
    """Last column of the sorted rotations plus the unrotated row's index."""
    n = len(block)
    if n == 0:
        return BwtBlock(b"", 0)
    if n == 1:
        return BwtBlock(bytes(block), 0)
    arr = np.frombuffer(bytes(block), dtype=np.uint8)
    rank = arr.astype(np.int64)
    idx = np.arange(n, dtype=np.int64)
    k = 1
    while k < n:
        key2 = rank[(idx + k) % n]
        order = np.lexsort((key2, rank))
        r1 = rank[order]
        r2 = key2[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        new_rank = np.cumsum(changed)
        rank = np.empty(n, dtype=np.int64)
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
    arr = np.frombuffer(data, dtype=np.uint8)
    nxt = np.argsort(arr, kind="stable").tolist()
    out = bytearray(n)
    i = nxt[p]
    for k in range(n):
        out[k] = data[i]
        i = nxt[i]
    return bytes(out)


def mtf_encode(data):
    """Move-to-front over a 256-entry list initialized 0..255."""
    table = bytearray(range(256))
    out = bytearray()
    append = out.append
    for b in data:
        i = table.index(b)
        append(i)
        if i:
            del table[i]
            table.insert(0, b)
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
    # bijective base 2, least significant digit first: RUNA=1, RUNB=2
    while n > 0:
        if n & 1:
            out.append(RUNA)
            n = (n - 1) >> 1
        else:
            out.append(RUNB)
            n = (n - 2) >> 1


def rle0_encode(values):
    """Zero runs to RUNA/RUNB digits; nonzero values shift up by one."""
    out = []
    run = 0
    for v in values:
        if v == 0:
            run += 1
        else:
            if run:
                _emit_run(out, run)
                run = 0
            out.append(v + 1)
    if run:
        _emit_run(out, run)
    return out


def mtf_rle_encode(data):
    """Composed move-to-front and zero-run stage as one token sequence."""
    return rle0_encode(mtf_encode(data))


def encode_payload(data, block_size=BLOCK_SIZE):
    out = bytearray()
    for at in range(0, len(data), block_size):
        chunk = data[at:at + block_size]
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
        if end - pos < stream_len:
            raise CorruptStream("BWT block stream truncated")
        stream = payload[pos:pos + stream_len]
        pos += stream_len

        dec = RangeDecoder(stream)
        model = AdaptiveModel(_TOKEN_ALPHABET)
        decode = model.decode
        vals = bytearray()
        run = 0
        weight = 1
        while len(vals) + run < block_len:
            t = decode(dec)
            if t == RUNA:
                run += weight
                weight <<= 1
            elif t == RUNB:
                run += 2 * weight
                weight <<= 1
            else:
                if run:
                    vals += bytes(run)
                    run = 0
                    weight = 1
                vals.append(t - 1)
            if len(vals) + run > block_len:
                raise CorruptStream("run overflows BWT block")
        if run:
            vals += bytes(run)
        out += bwt_inverse(BwtBlock(mtf_decode(vals), primary))
    if len(out) != original_len:
        raise CorruptStream("BWT blocks do not sum to declared length")
    return bytes(out)
