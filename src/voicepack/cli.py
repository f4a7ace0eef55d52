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
from voicepack.codecs import AlgorithmId, CompressedBlob, compress, decompress
from voicepack.errors import MissingSegment, VoicepackError
from voicepack.pipeline import SmsBundle, decode_message, encode_message

ENV_ROOT = "VOICEPACK_ROOT"

_ALG_CHOICES = [a.label for a in AlgorithmId]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; data errors are reserved for exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_alg_flag(p):
    p.add_argument("--alg", choices=_ALG_CHOICES, default="ppm",
                   help="compression algorithm (default ppm)")


def _root(args):
    root = args.root or os.environ.get(ENV_ROOT)
    if not root:
        raise VoicepackError(f"no transport root: pass --root or set {ENV_ROOT}")
    return sms.TransportDir.under(root)


def build_parser():
    parser = _Parser(prog="voicepack",
                     description="Compress voice payloads and carry them over SMS segments.")
    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    p = sub.add_parser("compress", help="compress a file into a container")
    p.set_defaults(run=_cmd_compress)
    _add_alg_flag(p)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")

    p = sub.add_parser("decompress", help="restore a file from a container")
    p.set_defaults(run=_cmd_decompress)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")

    p = sub.add_parser("send", help="compress a payload file and write SMS segments")
    p.set_defaults(run=_cmd_send)
    _add_alg_flag(p)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--root", metavar="DIR", help=f"transport root (default ${ENV_ROOT})")
    p.add_argument("--ref", type=int, default=1, metavar="N",
                   help="message reference octet (default 1)")

    p = sub.add_parser("receive", help="reassemble inbox segments and restore the payload")
    p.set_defaults(run=_cmd_receive)
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    p.add_argument("--root", metavar="DIR", help=f"transport root (default ${ENV_ROOT})")
    p.add_argument("--ref", type=int, default=1, metavar="N")

    p = sub.add_parser("bench", help="run every algorithm over the corpus and write reports")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--seed", type=int, default=42, metavar="N")
    p.add_argument("--out", dest="out_path", required=True, metavar="DIR")
    p.add_argument("--manifest", metavar="PATH",
                   help="benchmark payload files listed in a manifest.csv instead "
                        "of the synthetic corpus")

    p = sub.add_parser("corpus", help="write the synthetic corpus payloads and manifest")
    p.set_defaults(run=_cmd_corpus)
    p.add_argument("--seed", type=int, default=42, metavar="N")
    p.add_argument("--out", dest="out_path", required=True, metavar="DIR")
    return parser


def _cmd_compress(args):
    data = Path(args.in_path).read_bytes()
    blob = compress(data, AlgorithmId.from_label(args.alg))
    Path(args.out_path).write_bytes(blob.to_bytes())
    print(args.out_path)
    return 0


def _cmd_decompress(args):
    blob = CompressedBlob.parse(Path(args.in_path).read_bytes())
    Path(args.out_path).write_bytes(decompress(blob))
    print(args.out_path)
    return 0


def _cmd_send(args):
    data = Path(args.in_path).read_bytes()
    bundle = encode_message(data, AlgorithmId.from_label(args.alg), ref=args.ref)
    tdir = _root(args)
    for seg in bundle.segments:
        print(sms.outbox_write(seg, tdir))
    return 0


def _cmd_receive(args):
    tdir = _root(args)
    segments = sms.inbox_collect(tdir, args.ref)
    if not segments:
        raise MissingSegment((), f"no segment with reference {args.ref} in {tdir.inbox}")
    bundle = SmsBundle(args.ref, tuple(segments), None)
    Path(args.out_path).write_bytes(decode_message(bundle).data)
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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.run(args)
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
