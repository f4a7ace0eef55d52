"""Byte-exact golden outputs: every codec's container on two fixed inputs.

The digests pin the wire bytes, so a refactor or speed-up that changes
any output octet fails here.  A deliberate wire-format change updates
them and says so.  Each digest is the SHA-256 over the input set of
every container, each prefixed by its length as 4 octets big-endian.
"""

import hashlib

import pytest

from conftest import mixed_payloads
from voicepack import bench
from voicepack.codecs import AlgorithmId, compress

GOLDEN = {
    "seed42_trial1": {
        "none": "c15235c0d1bfccd389ba055da7700db864ca8a1cf1cc65f4e65b0bbc851d63b8",
        "lzw": "6b4ba1c715c3933ffcb364c7236efcfdd29f6ae74b9580bde66852ac9c00f41b",
        "lzma": "19e473909b003d9309178c97dc3d385491ae50d4e03f80c4de34911618b1b768",
        "huffman": "2b1f8020d215dbbf12510eb1706acd30f42bab5c6419c75331bb6f0048f7e636",
        "ppm": "b2f48c986a9e14ca4cb30e28dbdb2e5f49355f4e96a66f356d7a684c624625ea",
        "ac": "a3d048859062ccd076dd2dbd09c48151cbb64399db5fbec087c8577776bfbf8d",
        "bwt": "6079ca5f79604e7d51e0e9c68771bc3d3acb97ee45370b3d8e48249cebfc1bb2",
    },
    "mixed_20250808": {
        "none": "52d33e6367dc8e5431b30c9fc12ecd026532b011dc76c7eac318f1a27adc8957",
        "lzw": "1dd0b6f7f3a87f4891922da82d2daa6bb56d2c8c2f29413bdaf5e556c6986fd7",
        "lzma": "84509d4c43664d8ad0ae7ce4c6239af64143c0cf8a8fac2f97a7952c3eed005c",
        "huffman": "b62d2531b3be66798600fddd4bd0281794cc49c9e212fe3a4d1546336e9f886f",
        "ppm": "9425139db8b26ed0b1d1f29648ed5132d506ed0b299632d36f43baaec1f9fd2f",
        "ac": "2f11e1324529eb998b31f2c9d1e2afeba6ed7bfa33a4feef918677aa3b35bf01",
        "bwt": "cce248b4eac9f8f90a3ac9c1539d00cf27bb9d2a51f826a6036627e07b436edf",
    },
}


def _inputs(name):
    if name == "seed42_trial1":
        corpus = bench.generate_corpus(bench.CorpusSpec(seed=42))
        return [item.payload.data for item in corpus if item.trial == 1]
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
