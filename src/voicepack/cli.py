"""Command-line front end.

Commands mirror the pipeline stages: compress/decompress move between a
raw payload file and the serialized container, send/receive run the full
payload-to-SMS path through a directory transport, bench and corpus
drive the benchmark harness.  Exit status: 0 success, 1 usage error,
2 data error; diagnostics go to stderr, machine output to stdout/files.
"""

import argparse
import os
import sys
from pathlib import Path

from voicepack import bench, sms
from voicepack.codecs import (AlgorithmId, CodecConfig, CompressedBlob, DEFAULT_CONFIG,
                              compress, decompress)
from voicepack.errors import VoicepackError
from voicepack.pipeline import SmsBundle, decode_message, encode_message

ENV_ROOT = "VOICEPACK_ROOT"

_ALG_CHOICES = [a.label for a in AlgorithmId]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; data errors are reserved for exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_codec_flags(p, with_alg=True, alg_default="ppm"):
    if with_alg:
        p.add_argument("--alg", choices=_ALG_CHOICES, default=alg_default,
                       help=f"compression algorithm (default {alg_default})")
    lzw_bits = DEFAULT_CONFIG.lzw_max_code_bits
    ppm_order = DEFAULT_CONFIG.ppm_order
    p.add_argument("--lzw-bits", type=int, default=lzw_bits, metavar="N",
                   help=f"maximum LZW code width, 9..16 (default {lzw_bits})")
    p.add_argument("--ppm-order", type=int, default=ppm_order, metavar="K",
                   help=f"PPM context order, 0..8 (default {ppm_order})")


def _config(args):
    return CodecConfig(lzw_max_code_bits=args.lzw_bits, ppm_order=args.ppm_order)


def _root(args):
    root = args.root or os.environ.get(ENV_ROOT)
    if not root:
        raise VoicepackError(f"no transport root: pass --root or set {ENV_ROOT}")
    return sms.TransportDir.under(root)


def build_parser():
    parser = _Parser(prog="voicepack",
                     description="Compress voice payloads and carry them over SMS segments.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("compress", parents=[], help="compress a file into a container")
    _add_codec_flags(p)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")

    p = sub.add_parser("decompress", help="restore a file from a container")
    _add_codec_flags(p, with_alg=False)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")

    p = sub.add_parser("send", help="compress a payload file and write SMS segments")
    _add_codec_flags(p)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--root", metavar="DIR", help=f"transport root (default ${ENV_ROOT})")
    p.add_argument("--ref", type=int, default=1, metavar="N",
                   help="message reference octet (default 1)")

    p = sub.add_parser("receive", help="reassemble inbox segments and restore the payload")
    _add_codec_flags(p, with_alg=False)
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    p.add_argument("--root", metavar="DIR", help=f"transport root (default ${ENV_ROOT})")
    p.add_argument("--ref", type=int, default=1, metavar="N")

    p = sub.add_parser("bench", help="run every algorithm over the corpus and write reports")
    p.add_argument("--seed", type=int, default=42, metavar="N")
    p.add_argument("--out", dest="out_path", required=True, metavar="DIR")
    p.add_argument("--manifest", metavar="PATH",
                   help="benchmark payload files listed in a manifest.csv instead "
                        "of the synthetic corpus")

    p = sub.add_parser("corpus", help="write the synthetic corpus payloads and manifest")
    p.add_argument("--seed", type=int, default=42, metavar="N")
    p.add_argument("--out", dest="out_path", required=True, metavar="DIR")
    return parser


def _cmd_compress(args):
    data = Path(args.in_path).read_bytes()
    blob = compress(data, AlgorithmId.from_label(args.alg), _config(args))
    Path(args.out_path).write_bytes(blob.to_bytes())
    print(args.out_path)
    return 0


def _cmd_decompress(args):
    blob = CompressedBlob.parse(Path(args.in_path).read_bytes())
    Path(args.out_path).write_bytes(decompress(blob, _config(args)))
    print(args.out_path)
    return 0


def _cmd_send(args):
    data = Path(args.in_path).read_bytes()
    bundle = encode_message(data, AlgorithmId.from_label(args.alg), _config(args),
                            ref=args.ref)
    tdir = _root(args)
    for seg in bundle.segments:
        print(sms.outbox_write(seg, tdir))
    return 0


def _cmd_receive(args):
    segments = sms.inbox_collect(_root(args), args.ref)
    bundle = SmsBundle(args.ref, tuple(segments), None)
    Path(args.out_path).write_bytes(decode_message(bundle, _config(args)).data)
    print(args.out_path)
    return 0


def _cmd_bench(args):
    if args.manifest:
        corpus = bench.load_corpus_manifest(args.manifest)
    else:
        corpus = bench.generate_corpus(bench.CorpusSpec(seed=args.seed))
    records = bench.run_benchmark(corpus)
    for path in bench.emit_report(records, args.out_path):
        print(path)
    return 0


def _cmd_corpus(args):
    corpus = bench.generate_corpus(bench.CorpusSpec(seed=args.seed))
    print(bench.write_corpus_files(corpus, args.out_path))
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "send": _cmd_send,
    "receive": _cmd_receive,
    "bench": _cmd_bench,
    "corpus": _cmd_corpus,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"voicepack: {exc}", file=sys.stderr)
        return 1
    except VoicepackError as exc:
        print(f"voicepack: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"voicepack: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
