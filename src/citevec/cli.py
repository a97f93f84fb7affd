"""Command-line surface for corpus prep, training, querying, and evaluation.

Every mutating command (train, synth, export) writes a JSON run manifest
next to its output file before doing the work, so interrupted runs leave a
record of what was attempted.  Data goes to stdout, diagnostics to stderr;
with fixed flags the data outputs are byte-identical across runs.  The
manifest is a run log, not a data output: it carries wall-clock timestamps
and is the one file allowed to differ between identical runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .corpus import (
    SyntheticSpec,
    _parse_lines,
    extract_relations,
    generate_synthetic_corpus,
    parse_corpus,
    split_train_test,
)
from .errors import CitevecError
from .evaluation import evaluate
from .model import (_EXPORTABLE, VARIANTS, EmbeddingConfig, export_word2vec_text, init_model,
                    load_model, save_model)
from .recommend import CASES, recommend
from .train import train

__all__ = ["RunManifest", "main"]

# Desk-scale defaults; research-scale values are one flag away
_CLI_NEGATIVE = 5
_CLI_ITERATIONS = 20


@dataclasses.dataclass
class RunManifest:
    """Provenance record written alongside every file-producing command."""

    command: str
    argv: list[str]
    config: dict | None
    input_checksum: str | None
    seed: int | None
    started_at: str
    finished_at: str | None = None
    output_checksum: str | None = None

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".manifest.json")


def _start_manifest(args, command: str, out_path: Path, config: dict | None,
                    input_path: Path | None, seed: int | None) -> RunManifest:
    manifest = RunManifest(
        command=command,
        argv=list(args.raw_argv),
        config=config,
        input_checksum=_sha256(input_path) if input_path is not None else None,
        seed=seed,
        started_at=_utc_now(),
    )
    manifest.write(_manifest_path(out_path))
    return manifest


def _finish_manifest(manifest: RunManifest, out_path: Path) -> None:
    manifest.finished_at = _utc_now()
    manifest.output_checksum = _sha256(out_path)
    manifest.write(_manifest_path(out_path))


def _add_field_flags(parser: argparse.ArgumentParser, defaults, **extras) -> None:
    """One ``--field-name`` flag per field of the dataclass instance
    ``defaults``, defaulting to its value; a bool field also takes
    ``--no-field-name``.  A keyword in ``extras`` names a field and holds
    more add_argument keywords for its flag."""
    for field in dataclasses.fields(defaults):
        default = getattr(defaults, field.name)
        kind = ({"action": argparse.BooleanOptionalAction} if isinstance(default, bool)
                else {"type": type(default)})
        parser.add_argument("--" + field.name.replace("_", "-"), default=default, **kind,
                            **extras.get(field.name, {}))


def _from_flags(cls, args):
    """The dataclass ``cls`` built from the flags ``_add_field_flags`` added."""
    return cls(**{field.name: getattr(args, field.name) for field in dataclasses.fields(cls)})


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", type=int, choices=CASES, default=1)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--keep-prob", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--test-fraction", type=float, default=None)
    group.add_argument(
        "--test-ids", type=str, default=None,
        help="comma-separated doc ids to hold out",
    )
    parser.add_argument("--split-seed", type=int, default=0)


def _split_corpus(line_docs, window: int, args):
    """The split that the flags ask for, of the corpus's line documents
    (``_parse_lines``): the whole corpus's vocabulary is never built."""
    test_ids = args.test_ids.split(",") if args.test_ids else None
    return split_train_test(
        line_docs,
        window=window,
        fraction=args.test_fraction,
        test_ids=test_ids,
        seed=args.split_seed,
    )


def _cmd_train(args, out) -> int:
    config = _from_flags(EmbeddingConfig, args)
    corpus_path = Path(args.corpus)
    held_out = args.test_fraction is not None or args.test_ids is not None
    parsed = _parse_lines(corpus_path) if held_out else parse_corpus(corpus_path)
    manifest = _start_manifest(
        args, "train", Path(args.model),
        config=dataclasses.asdict(config),
        input_path=corpus_path, seed=config.seed,
    )
    if held_out:
        split = _split_corpus(parsed, config.window, args)
        docs, vocab = split.train_docs, split.train_vocab
        print(f"holding out {len(split.test_doc_ids)} docs for testing", file=sys.stderr)
    else:
        docs, vocab = parsed.docs, parsed.vocab
    relations = extract_relations(docs, vocab, config.window)
    model = init_model(vocab, config)
    train(
        model, relations, docs,
        on_progress=lambda p: print(p.record(), file=out),
        on_content=lambda p: print("phase=content", p.record(), file=sys.stderr),
    )
    with open(args.model, "wb") as sink:
        save_model(model, sink)
    _finish_manifest(manifest, Path(args.model))
    return 0


def _cmd_recommend(args, out) -> int:
    model = load_model(Path(args.model))
    if args.text_file is not None:
        text = Path(args.text_file).read_text(encoding="utf-8")
    else:
        text = sys.stdin.read()
    if not text.strip():
        raise CitevecError("no input text given")
    result = recommend(
        model, text,
        case=args.case, k=args.k, keep_prob=args.keep_prob, seed=args.seed,
    )
    print(f"dropped {result.unknown_words} unknown words", file=sys.stderr)
    for rank, (doc_id, score) in enumerate(result.ranked, start=1):
        print(f"{rank}\t{doc_id}\t{float(score)!r}", file=out)
    return 0


def _cmd_evaluate(args, out) -> int:
    if args.test_fraction is None and args.test_ids is None:
        raise CitevecError("one of --test-fraction and --test-ids is required")
    model = load_model(Path(args.model))
    split = _split_corpus(_parse_lines(Path(args.corpus)), model.config.window, args)
    if not split.train_vocab.same_bindings(model.vocab):
        # a split that holds out other docs numbers the vocabulary another way,
        # and the model was trained on some of its held-out citations
        raise CitevecError(
            "the split does not reproduce the model's training vocabulary: pass the "
            "--test-fraction or --test-ids and the --split-seed the model was trained with"
        )
    report = evaluate(
        model, split.ground_truth,
        case=args.case, k=args.k, keep_prob=args.keep_prob, seed=args.seed,
    )
    for line in report.records():
        print(line, file=out)
    return 0


def _cmd_export(args, out) -> int:
    model_path = Path(args.model)
    model = load_model(model_path)
    which = args.which.replace("-", "_")
    manifest = _start_manifest(
        args, "export", Path(args.out),
        config={"which": which},
        input_path=model_path, seed=model.config.seed,
    )
    with open(args.out, "w", encoding="utf-8") as sink:
        export_word2vec_text(model, which, sink)
    _finish_manifest(manifest, Path(args.out))
    return 0


def _cmd_synth(args, out) -> int:
    spec = _from_flags(SyntheticSpec, args)
    manifest = _start_manifest(
        args, "synth", Path(args.out),
        config=dataclasses.asdict(spec),
        input_path=None, seed=spec.seed,
    )
    Path(args.out).write_bytes(generate_synthetic_corpus(spec))
    _finish_manifest(manifest, Path(args.out))
    return 0


@functools.cache  # one parser per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citevec",
        description="Citation-aware document embeddings: train, query, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a corpus file")
    p_train.add_argument("corpus")
    p_train.add_argument("model", help="output model path")
    _add_field_flags(
        p_train, EmbeddingConfig(negative=_CLI_NEGATIVE, iterations=_CLI_ITERATIONS),
        variant={"choices": VARIANTS},
        structural_context={"help": "include co-cited documents in training contexts"},
    )
    _add_split_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_rec = sub.add_parser("recommend", help="rank documents for manuscript text")
    p_rec.add_argument("model")
    _add_query_flags(p_rec)
    p_rec.add_argument("--text-file", default=None, help="read text here instead of stdin")
    p_rec.set_defaults(func=_cmd_recommend)

    p_eval = sub.add_parser("evaluate", help="three-case protocol on a held-out split")
    p_eval.add_argument("model")
    p_eval.add_argument("corpus")
    _add_split_flags(p_eval)
    _add_query_flags(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_exp = sub.add_parser("export", help="dump a matrix in word2vec text format")
    p_exp.add_argument("model")
    p_exp.add_argument("out")
    p_exp.add_argument("--which", choices=[name.replace("_", "-") for name in _EXPORTABLE],
                       default="doc-in")
    p_exp.set_defaults(func=_cmd_export)

    p_syn = sub.add_parser("synth", help="generate a synthetic co-citation corpus")
    p_syn.add_argument("out")
    _add_field_flags(p_syn, SyntheticSpec())
    p_syn.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = list(argv)
    try:
        return args.func(args, sys.stdout)
    except (CitevecError, OSError) as exc:
        print(f"citevec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
