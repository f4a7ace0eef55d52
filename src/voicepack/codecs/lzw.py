"""LZW with variable-width codes and a freeze-on-full dictionary.

Code j of the stream (counting from 0) takes

    min(14, max(9, (255 + j).bit_length()))

bits, 14 being MAX_CODE_BITS: the dictionary gains one entry per code
after the first, so a code is always narrower than the next free slot,
and both ends know every width from its position alone.  Once the
dictionary holds 2**14 entries it freezes: no further entries are added
and coding continues with the full table.  The width is not written
into the stream, so it is a constant of the format.  The packed payload
carries no code count; the decoder stops once it has produced the
declared number of octets.  Codes are packed most-significant bit first;
the final partial octet is zero-padded on the right.
"""

from voicepack.errors import CorruptStream

MAX_CODE_BITS = 14
_FIRST_FREE = 256
_START_WIDTH = 9

_SINGLE = [bytes([i]) for i in range(256)]


def lzw_encode(data):
    """Return the LZW code sequence for `data`.

    The dictionary is keyed on (prefix code, next octet) pairs, which is
    equivalent to string keys but avoids building the strings.
    """
    if not data:
        return []
    table = {}
    next_code = _FIRST_FREE
    cap = 1 << MAX_CODE_BITS
    codes = []
    cur = data[0]
    for b in memoryview(data)[1:]:
        key = (cur, b)
        entry = table.get(key)
        if entry is not None:
            cur = entry
        else:
            codes.append(cur)
            if next_code < cap:
                table[key] = next_code
                next_code += 1
            cur = b
    codes.append(cur)
    return codes


def pack_codes(codes):
    """Pack a code sequence into the variable-width bitstream.

    Width w runs up to code (1 << w) - 255; the widest takes the rest.
    """
    runs = []
    start = 0
    for w in range(_START_WIDTH, MAX_CODE_BITS + 1):
        end = len(codes) if w == MAX_CODE_BITS else (1 << w) - 255
        fmt = f"0{w}b"
        runs.append("".join([format(c, fmt) for c in codes[start:end]]))
        start = end
    bits = "".join(runs)
    bits += "0" * (-len(bits) % 8)
    return int(bits or "0", 2).to_bytes(len(bits) // 8, "big")


def encode_payload(data):
    return pack_codes(lzw_encode(data))


def decode_payload(payload, original_len):
    """Decode a packed stream, stopping at the declared output length."""
    table = _SINGLE[:]
    next_code = _FIRST_FREE
    cap = 1 << MAX_CODE_BITS
    w = _START_WIDTH
    threshold = 1 << w
    acc = nbits = pos = 0
    prev = b""
    out = bytearray()
    while len(out) < original_len:
        while nbits < w:
            if pos >= len(payload):
                raise CorruptStream("LZW payload exhausted")
            acc = (acc << 8) | payload[pos]
            pos += 1
            nbits += 8
        nbits -= w
        code = acc >> nbits
        acc &= (1 << nbits) - 1
        if code < next_code:
            entry = table[code]
        elif code == next_code and prev:
            entry = prev + prev[:1]
        else:
            raise CorruptStream(f"LZW code {code} exceeds next free slot {next_code}")
        out += entry
        # The first code has no prefix, so it adds no entry.
        if prev and next_code < cap:
            table.append(prev + entry[:1])
            next_code += 1
            if next_code == threshold and w < MAX_CODE_BITS:
                w += 1
                threshold <<= 1
        prev = entry
    if len(out) != original_len:
        raise CorruptStream("LZW stream does not align with declared length")
    return bytes(out)
