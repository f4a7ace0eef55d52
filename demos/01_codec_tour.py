#!/usr/bin/env python3
"""Tour of the six codecs on one voice-like payload.

Compresses the same payload with every algorithm, prints the container
sizes, ratios and SMS counts side by side, and shows that each stream
decodes back to the exact input.
"""

from voicepack import AlgorithmId, compress, decompress, sms_count
from voicepack.bench import CorpusSpec, generate_corpus

# one synthetic "spoken sentence" payload from the benchmark corpus
item = next(i for i in generate_corpus(CorpusSpec(seed=42))
            if i.sentence_id == "S2" and i.trial == 1)
payload = item.payload.data
print(f'payload: "{item.text}"')
print(f"rendered as {len(payload)} octets of synthetic voice data\n")

print(f"{'algorithm':>10} {'octets':>8} {'ratio':>7} {'sms':>5}")
baseline = len(compress(payload, AlgorithmId.NONE).to_bytes())
for alg in AlgorithmId:
    blob = compress(payload, alg)
    wire = blob.to_bytes()
    assert decompress(blob) == payload, "lossless means lossless"
    print(f"{alg.label:>10} {len(wire):>8} {baseline / len(wire):>7.2f} "
          f"{sms_count(len(wire)):>5}")

print("\nevery stream decoded back to the identical payload")

# the container is self-describing: algorithm octet, original length, CRC-32
blob = compress(payload, AlgorithmId.PPM)
wire = blob.to_bytes()
head = wire[:len(wire) - len(blob.payload)]
print(f"container header for ppm: {head.hex(' ')}")
print(f"  = 0x80 | algorithm 0x04 | original length {len(payload)} as LEB128"
      f" | CRC-32 {blob.crc:08x}")
