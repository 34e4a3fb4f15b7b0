"""Command-line front end: prepare, train, predict, evaluate, inspect-embeddings.

Every command is batch-mode and non-interactive.  Exit codes: 0 success,
2 usage/config/data error, 3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from .corpus import (LANGUAGES, TASK_QUESTIONS, assemble_examples,
                     load_external, merge_external, parse_integer,
                     parse_uli_csv, read_csv, read_dataset, split_train_test,
                     write_dataset)
from .embeddings import build_matrix, load_vectors
from .errors import (AbusekitError, ConfigurationError, NumericError,
                     ParseError, SchemaError)
from .text import (PreprocessConfig, Vocabulary, _write_json, atomic_write,
                   encode_batch, open_text)
from .text import preprocess as preprocess_text

# training, model, layers and metrics load inside the commands that run
# them, so prepare and inspect-embeddings never compile the model code

__all__ = ["main"]


def _process_count(threads: int | None) -> int:
    """The processes sharing the folds: --threads, else as many as the usable
    CPUs hold at the BLAS thread count that every process inherits
    (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS), else 1.  An unpinned BLAS
    already runs a thread per CPU, so more processes would oversubscribe it."""
    if threads is not None:
        if threads < 1:
            raise ConfigurationError(f"threads must be positive, got {threads}")
        return threads
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isascii() and value.isdigit() and int(value) > 0:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            return max(1, cpus // int(value))
    return 1


def load_run_config(path):
    """Read a run config file into a RunConfig and check every value (read_config)."""
    from .training import RunConfig, read_config
    try:
        raw = json.loads("".join(open_text(path)))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=str(path)) from None
    train = raw.get("train") if isinstance(raw, dict) else None
    if isinstance(train, dict) and "threads" in train:   # perfbench's configs state it
        del train["threads"]
        print("note: train.threads is no longer read; set the process count with "
              "--threads", file=sys.stderr)
    return read_config(RunConfig, raw, "config", complete=False)


def _parse_external_arg(value: str) -> tuple[str, str]:
    if "=" not in value:
        raise ConfigurationError(
            f"--external expects SOURCE=PATH, got {value!r}")
    source, path = value.split("=", 1)
    return source.strip().lower(), path


def cmd_prepare(args) -> int:
    rows = parse_uli_csv(args.input)
    rows = [r for r in rows if r.language == args.language]
    if not rows:
        raise SchemaError(f"no rows for language {args.language!r}", path=args.input)
    total_posts = len({r.id for r in rows})
    examples = assemble_examples(rows, TASK_QUESTIONS[args.task])
    dropped = total_posts - len(examples)

    split = split_train_test(examples, ratio=args.ratio, seed=args.seed,
                             stratified=args.stratified)
    train, test = split.train, split.test

    external_counts = {}
    for source, path in (args.external or []):
        extra = load_external(path, source, args.language)
        # External corpora augment training only; the held-out side stays
        # pure shared-task data.
        train = merge_external(train, extra)
        external_counts[source] = external_counts.get(source, 0) + len(extra)

    # prepare.json marks a finished prepare: a rerun cut short leaves none
    os.makedirs(args.out, exist_ok=True)
    manifest_path = os.path.join(args.out, "prepare.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    write_dataset(train, os.path.join(args.out, "train.jsonl"))
    write_dataset(test, os.path.join(args.out, "test.jsonl"))

    def label_counts(items):
        counts = {}
        for ex in items:
            for key, value in ex.labels.items():
                bucket = counts.setdefault(key, {"0": 0, "1": 0})
                bucket[str(value)] += 1
        return counts

    manifest = {
        "task": args.task,
        "language": args.language,
        "ratio": args.ratio,
        "seed": args.seed,
        "stratified": args.stratified,
        "posts_parsed": total_posts,
        "posts_kept": len(examples),
        "posts_dropped": dropped,
        "train_count": len(train),
        "test_count": len(test),
        "external_counts": external_counts,
        "train_label_counts": label_counts(train),
        "test_label_counts": label_counts(test),
    }
    _write_json(manifest, manifest_path)

    print(f"posts parsed: {total_posts}   kept: {len(examples)}   dropped: {dropped}")
    print(f"train: {len(train)} examples   test: {len(test)} examples")
    for key, bucket in sorted(label_counts(train).items()):
        print(f"train label {key}: 0={bucket['0']} 1={bucket['1']}")
    for source, count in sorted(external_counts.items()):
        print(f"external {source}: {count} examples merged into train")
    return 0


def cmd_train(args) -> int:
    from .training import run_cv
    processes = _process_count(args.threads)
    config = load_run_config(args.config)
    out_dir = args.out_dir or config.output_dir
    if not out_dir:
        raise ConfigurationError("give --out-dir or output_dir in the config")

    train_config = replace(config.train, seed=config.train.seed if args.seed is None
                           else args.seed)
    prep_config = PreprocessConfig.from_files(**asdict(config.preprocess))

    examples = read_dataset(config.data.train)
    if not examples:
        raise ConfigurationError("training dataset is empty")
    # run_cv reads the vector file itself and frees it once the matrix is built
    report = run_cv(examples, train_config, config.data.embeddings, out_dir,
                    config.model, prep_config, processes)
    print(f"task {train_config.task} ({train_config.language})  "
          f"folds={train_config.folds}  epochs={train_config.epochs}  "
          f"batch={train_config.batch_size}")
    print(f"vocab size: {len(Vocabulary.load(os.path.join(out_dir, 'vocab.txt')))}   "
          f"embedding coverage: {report.embedding_coverage:.3f}")
    header = f"{'fold':>4}  {'head':>4}  {'precision':>9}  {'recall':>9}  {'macro_f1':>9}"
    print(header)
    for fold_report in report.folds:
        for key, cr in fold_report.head_reports.items():
            print(f"{fold_report.fold:>4}  {key:>4}  {cr.macro_precision:>9.4f}  "
                  f"{cr.macro_recall:>9.4f}  {cr.macro_f1:>9.4f}")
    for key, avg in report.averaged.items():
        print(f" avg  {key:>4}  {avg['macro_precision']:>9.4f}  "
              f"{avg['macro_recall']:>9.4f}  {avg['macro_f1']:>9.4f}")
    print(f"outputs written to {out_dir}")
    return 0


def _read_id_csv(path, column: str) -> list[tuple[int, int, str]]:
    """(line, post id, raw cell of column) for each row of a CSV with an id
    column; each id must be an integer and appear once."""
    rows, seen = [], set()
    for index, (line, record) in enumerate(read_csv(path, ("id", column))[1]):
        try:
            post_id = parse_integer(record["id"])
        except ValueError:
            raise ParseError(f"row {index}: non-integer id {record['id']!r}",
                             path=path, line=line) from None
        if post_id in seen:
            raise ParseError(f"row {index}: duplicate id {post_id}",
                             path=path, line=line)
        seen.add(post_id)
        rows.append((line, post_id, record[column]))
    return rows


def _read_label_csv(path, column: str = "label") -> dict[int, int]:
    out = {}
    for index, (line, post_id, raw) in enumerate(_read_id_csv(path, column)):
        try:
            label = parse_integer(raw)
        except ValueError:
            raise ParseError(f"row {index}: bad label {raw!r}",
                             path=path, line=line) from None
        if label not in (0, 1):
            raise ParseError(f"row {index}: label must be 0 or 1, got {label}",
                             path=path, line=line)
        out[post_id] = label
    return out


def cmd_predict(args) -> int:
    from .training import ensemble_predict, read_run
    processes = _process_count(args.threads)
    run = read_run(args.run_dir)
    mode = args.ensemble or run.train_config.ensemble
    chosen = [run.best_fold] if mode == "best" else range(run.train_config.folds)

    rows = _read_id_csv(args.input, "text")
    ids = [post_id for _, post_id, _ in rows]
    token_lists = [preprocess_text(text, run.train_config.language, run.prep_config)
                   for _, _, text in rows]
    sequences = encode_batch(token_lists, run.vocab, max_len=run.model_config.seq_len)
    # --out opens first, so an unwritable path fails before any fold runs
    with atomic_write(args.out) as fh:
        labels = ensemble_predict(run, chosen, sequences, processes)
        columns = ["label"] if len(labels) == 1 else [f"label_{k}" for k in run.head_keys]
        fh.write(",".join(["id", *columns]) + "\n")
        for i, post_id in enumerate(ids):
            fh.write(",".join([str(post_id), *(str(h[i]) for h in labels)]) + "\n")
    print(f"wrote {len(ids)} predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .metrics import classification_report
    golds = _read_label_csv(args.gold)
    preds = _read_label_csv(args.pred, column=args.column)
    if golds.keys() != preds.keys():
        offenders = sorted(golds.keys() ^ preds.keys())[:10]
        raise SchemaError(
            f"gold and prediction ids differ; first offenders: {offenders}",
            path=args.pred)
    ordered = sorted(golds)
    report = classification_report([golds[i] for i in ordered], [preds[i] for i in ordered])
    json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_inspect_embeddings(args) -> int:
    vectors = load_vectors(args.file)
    print(f"dimension: {vectors.dimension}")
    print(f"entries: {len(vectors)}")
    print(f"header: {'yes' if vectors.had_header else 'no'}")
    if args.vocab:
        vocab = Vocabulary.load(args.vocab)
        print(f"coverage: {build_matrix(vocab, vectors)[1]}")
    return 0


_THREADS_HELP = ("processes sharing the folds (default: the usable CPUs over the "
                "pinned BLAS threads, or 1 if OPENBLAS_NUM_THREADS/OMP_NUM_THREADS "
                "is unset)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abusekit",
        description="CNN-BiLSTM gendered-abuse classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest raw CSVs into canonical datasets")
    p.add_argument("--input", required=True, help="shared-task CSV path")
    p.add_argument("--language", required=True, choices=list(LANGUAGES))
    p.add_argument("--task", required=True, type=int, choices=[1, 2, 3])
    p.add_argument("--external", action="append", type=_parse_external_arg,
                   metavar="SOURCE=PATH",
                   help="external corpus to merge into train (macd=... or multilate=...)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stratified", action="store_true")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="run k-fold cross-validated training")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out-dir", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write submission CSV from a trained run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--input", required=True, help="CSV with id,text columns")
    p.add_argument("--out", required=True, help="submission CSV path")
    p.add_argument("--ensemble", choices=["average", "best"],
                   help="fold combination (default: the run's train.ensemble)")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--gold", required=True, help="CSV with id,label")
    p.add_argument("--pred", required=True, help="CSV with id,label")
    p.add_argument("--column", default="label",
                   help="prediction column name (label_1/label_3 for task 3 files)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect-embeddings", help="summarize a vector file")
    p.add_argument("--file", required=True)
    p.add_argument("--vocab", help="vocabulary file for coverage")
    p.set_defaults(func=cmd_inspect_embeddings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # parse_args may raise too: --external validation runs inside argparse
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (AbusekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
