"""Byte-exact golden outputs: every codec's container on three fixed
input sets.

The digests pin the wire bytes, so a refactor or speed-up that changes
any output octet fails here.  A deliberate wire-format change updates
them and says so.  Each digest is the SHA-256 over the input set of
every container, each prefixed by its length as 4 octets big-endian.
The third set holds edge cases: the empty input, one octet, a short
word, a long repeat, one corpus clip and 300 random octets.
"""

import hashlib
import random

import pytest

from conftest import mixed_payloads
from voicepack import bench
from voicepack.codecs import AlgorithmId, CompressedBlob, compress, decompress

GOLDEN = {
    "seed42_trial1": {
        "none": "4ba163b0aa82cf39ebdc731ac28672b2d1e21b056a201ef75bc165e68231bd8d",
        "lzw": "11ab99eb52a390c4edc828f380823f0e6165cc6f695656ed98499721c3fe36c3",
        "lzma": "b4b3cdc546b1ce2ae57b119754297bcb2286f6346429d8a49433a726344acbc5",
        "huffman": "ea455795fe2be491f3f765cb2a39be5034d1aaef291a3b0880e47f0d728ebfbe",
        "ppm": "606c28d3a23c5a4db6ac0299e90eb660ee7f7a079795870cdb69971ed9fd7583",
        "ac": "584847f8b02dc7a950368973c776dda4b2a681ec0b28fc9ca38ead8084c3ebe8",
        "bwt": "3bbd49a653f28fcac41c967a59269aebb581ca4a60f3299a1b235a222866a111",
    },
    "mixed_20250808": {
        "none": "dc8ed0299c2c0b8117a8c4935c8a1e4133176a8fb949b88c741d879a186ed89e",
        "lzw": "75eaf84aae91954a9f7a0607bc79a2ddabfff40b4d052870123c9e045ee5dd45",
        "lzma": "19d593078524ea7ce080871daa86938ecc7c39dc0743188cd586592b53eb2d87",
        "huffman": "362b4a9232180a65146ced08bb50c857ba45b79690868349bc953e288dcec39a",
        "ppm": "3b363dce20a6d7e5772f8ef1e21950b60d62d784a3b2286538b63e992304ecaa",
        "ac": "5e27a0a1f48efa782b1d0dc8042affa173eb67e0eaa55cabaf61e1f896950c5a",
        "bwt": "c3ac91c3058a4513b3ea5de3ed0db07ce5918d612b9b4e47e0fcc637f9dc7b2a",
    },
    "edge_cases": {
        "none": "fd5de1b1bc9c2e691c856fe516c01bf8d7ec15c4fe85050d8d82d2671e75299e",
        "lzw": "68e0df7271e73820dccb500b11cb1d3577b48ecf9edfe36e23b0f7f01c9d5c23",
        "lzma": "eabab7e24ee371d47563249be52f64254463e4ea349a1ff2090a0765c81bcf04",
        "huffman": "81c0d82c25dbb87fdc3db59250a78e46450a38640bfcf931800c5a29888615e5",
        "ppm": "012a13ff20202207461bce29b00c6cdd6cdc4183cb223ccdde7b413b3ced2c74",
        "ac": "e16b1efc4fd11313089c6f2af787bc47f4a74d26e0487202c26aa795adaaa115",
        "bwt": "47cc4939c9c44b9a4f2600ec80c3723ff542eb4818f8605913e7433ad5fc9999",
    },
}


def _inputs(name):
    if name == "seed42_trial1":
        corpus = bench.generate_corpus(bench.CorpusSpec(seed=42))
        return [item.payload.data for item in corpus if item.trial == 1]
    if name == "edge_cases":
        corpus = bench.generate_corpus(bench.CorpusSpec(seed=42))
        return [b"", b"v", b"abracadabra", b"the quick brown fox " * 50,
                corpus[0].payload.data, random.Random(300).randbytes(300)]
    return mixed_payloads(20250808, 60)


def container_digest(payloads, alg):
    h = hashlib.sha256()
    for data in payloads:
        raw = compress(data, alg).to_bytes()
        h.update(len(raw).to_bytes(4, "big"))
        h.update(raw)
    return h.hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_containers_match_golden_digests(name):
    payloads = _inputs(name)
    got = {alg.label: container_digest(payloads, alg) for alg in AlgorithmId}
    assert got == GOLDEN[name]


@pytest.mark.parametrize("alg", list(AlgorithmId), ids=lambda alg: alg.label)
def test_edge_cases_round_trip(alg):
    for data in _inputs("edge_cases"):
        assert decompress(CompressedBlob.parse(compress(data, alg).to_bytes())) == data
