"""Cross-validated training runs: fold loop, run directory, curves, fold
ensembling.

A run builds one vocabulary from the whole training partition, trains a
fresh seeded model per fold, records per-epoch loss/accuracy, scores each
held-out fold, and averages macro scores across folds.  run_cv writes the
run directory and read_run reads it back.  Test predictions average
softmax probabilities over the fold models.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
import sys
import threading
import tokenize
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import partial
from html import escape

import numpy as np

from .corpus import (KEY_TO_LABEL, LANGUAGES, TASK_QUESTIONS, LabeledExample,
                     kfold_indices)
from .embeddings import WordVectorFile, build_matrix, load_vectors
from .errors import (AbusekitError, ConfigurationError, CorruptionError,
                     DataIntegrityError, NumericError, ParseError)
from .layers import AdamConfig, softmax, softmax_cross_entropy
from .metrics import ClassificationReport, classification_report
from .model import (HEAD_CLASSES, ModelConfig, Network, labels_from_probs,
                    load_checkpoint, save_checkpoint, train_step)
from .text import (PreprocessConfig, Vocabulary, _write_json, atomic_write,
                   build_vocab, encode_batch, open_text)
from .text import preprocess as preprocess_text

__all__ = [
    "EpochRecord",
    "FORMAT_VERSION",
    "FoldReport",
    "RunReport",
    "SavedRun",
    "TrainConfig",
    "best_fold_index",
    "emit_curves",
    "ensemble_predict",
    "evaluate",
    "one_hot",
    "read_config",
    "read_run",
    "run_cv",
    "run_folds",
    "task_head_keys",
    "train_epoch",
    "write_report",
]

_TASK_DEFAULTS = {1: (32, 5), 2: (64, 7), 3: (32, 5)}
# Version of the run directory layout: run_report.json and the fold
# weights.bin files it describes.
FORMAT_VERSION = 7


def task_head_keys(task: int) -> list[str]:
    """The label keys a task's heads predict, in head order."""
    return [KEY_TO_LABEL[q] for q in TASK_QUESTIONS[task]]


@dataclass
class TrainConfig:
    # a run config must state both; the defaults serve code that builds one
    task: int = field(default=1, metadata={"required": True})
    language: str = field(default="en", metadata={"required": True})
    folds: int = 5
    batch_size: int | None = None   # None: the task's default
    epochs: int | None = None       # None: the task's default
    optimizer: AdamConfig = field(default_factory=AdamConfig)
    seed: int = 0
    ensemble: str = "average"

    def __post_init__(self):
        """Defaults per task: batch 32 / 5 epochs, except task 2 at 64 / 7."""
        batch, epochs = _TASK_DEFAULTS.get(self.task, _TASK_DEFAULTS[1])
        self.batch_size = batch if self.batch_size is None else self.batch_size
        self.epochs = epochs if self.epochs is None else self.epochs

    def validate(self) -> None:
        if self.task not in (1, 2, 3):
            raise ConfigurationError(f"task must be 1, 2, or 3, got {self.task}")
        if self.language not in LANGUAGES:
            raise ConfigurationError(f"language must be one of {sorted(LANGUAGES)}")
        if self.folds < 2:
            raise ConfigurationError("folds must be at least 2")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigurationError("batch_size and epochs must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must not be negative, got {self.seed}")
        if self.ensemble not in ("average", "best"):
            raise ConfigurationError(
                f"ensemble must be 'average' or 'best', got {self.ensemble!r}")
        self.optimizer.validate()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FoldReport:
    fold: int
    epochs: list[EpochRecord]
    head_reports: dict[str, ClassificationReport]

    def to_dict(self) -> dict:
        return {"fold": self.fold,
                "epochs": [r.to_dict() for r in self.epochs],
                "head_reports": {k: r.to_dict() for k, r in self.head_reports.items()}}


@dataclass
class RunReport:
    folds: list[FoldReport]
    averaged: dict[str, dict[str, float]]
    train_config: dict
    model_config: dict
    embedding_coverage: float

    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.__dataclass_fields__}
        data.update(format_version=FORMAT_VERSION,
                    folds=[f.to_dict() for f in self.folds])
        return data


def one_hot(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((len(labels), HEAD_CLASSES), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def train_epoch(network: Network, sequences: np.ndarray,
                labels_per_head: list[np.ndarray], batch_size: int,
                optimizer: AdamConfig, rng: np.random.Generator
                ) -> tuple[float, float]:
    """One shuffled pass; returns (mean per-example loss, accuracy).

    Both are train-mode figures, dropout on, accumulated over the epoch's
    steps as each batch is trained: the accuracy is the share of correct
    predictions over all examples and heads.  No eval pass follows the
    updates.  The last incomplete batch is trained, not dropped.
    """
    n = len(sequences)
    if n == 0:
        raise ConfigurationError("cannot train on an empty set")
    order = rng.permutation(n)
    onehots = [one_hot(labels) for labels in labels_per_head]
    label_arrays = [np.asarray(labels) for labels in labels_per_head]
    loss_sum = 0.0
    hits = 0
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        batch_targets = [oh[idx] for oh in onehots]
        loss, preds = train_step(network, sequences[idx], batch_targets,
                                 optimizer, rng=rng)
        loss_sum += loss * len(idx)
        hits += sum(int((p == labels[idx]).sum())
                    for p, labels in zip(preds, label_arrays))
    return loss_sum / n, hits / (n * len(label_arrays))


def evaluate(network: Network, sequences: np.ndarray,
             labels_per_head: list[np.ndarray]) -> tuple[float, float, list[np.ndarray]]:
    """Eval-mode (mean loss, accuracy averaged over heads, per-head preds)
    from one Network.forward over the posts.

    The loss is taken once over every post's logits, so no figure depends
    on the batch size.
    """
    n = len(sequences)
    if n == 0:
        raise ConfigurationError("cannot evaluate on an empty set")
    num_heads = len(network.heads)
    logits = network.forward(sequences)
    loss_sum = 0.0
    for z, labels in zip(logits, labels_per_head):
        loss_sum += softmax_cross_entropy(z, one_hot(labels))[0] * n / num_heads
    preds = [labels_from_probs(softmax(z)) for z in logits]
    accuracy = float(np.mean([(p == np.asarray(labels)).mean()
                              for p, labels in zip(preds, labels_per_head)]))
    return loss_sum / n, accuracy, preds


def _train_fold(model_config: ModelConfig, sequences, label_arrays, head_keys, folds,
                config: TrainConfig, out_dir, vocab_size: int, fold: int) -> FoldReport:
    """Train one fold around the run's embedding.npy and write its
    weights.bin; only its report outlives it."""
    val_idx = folds.val_indices(fold)
    train_idx = folds.train_indices(fold)
    assert not set(val_idx.tolist()) & set(train_idx.tolist())

    seed = np.random.SeedSequence(config.seed).generate_state(config.folds)[fold]
    rng = np.random.default_rng(int(seed))
    matrix = _load_embedding(os.path.join(out_dir, "embedding.npy"),
                             (vocab_size, model_config.embed_dim))
    network = Network(model_config, matrix, len(head_keys), rng)
    train_labels = [label_arrays[k][train_idx] for k in head_keys]
    val_labels = [label_arrays[k][val_idx] for k in head_keys]

    records = []
    val_preds = None
    for epoch in range(1, config.epochs + 1):
        train_loss, train_acc = train_epoch(
            network, sequences[train_idx], train_labels,
            config.batch_size, config.optimizer, rng)
        val_loss, val_acc, val_preds = evaluate(network, sequences[val_idx], val_labels)
        records.append(EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc))
    save_checkpoint(network, os.path.join(out_dir, f"fold{fold}"))
    head_reports = {
        key: classification_report(val_labels[h], val_preds[h],
                                   num_classes=HEAD_CLASSES)
        for h, key in enumerate(head_keys)
    }
    return FoldReport(fold=fold, epochs=records, head_reports=head_reports)


def run_cv(examples: list[LabeledExample], config: TrainConfig,
           vectors: WordVectorFile | str | os.PathLike, out_dir,
           model_config: ModelConfig | None = None,
           prep_config: PreprocessConfig | None = None,
           processes: int = 1) -> RunReport:
    """Full k-fold run over labeled examples into the run directory out_dir.

    The vocabulary comes from all given examples (the training partition),
    so every fold shares one embedding matrix.  embedding.npy, vocab.txt and
    preprocess.json are written first, each fold{k}/weights.bin as its fold
    ends, and curves.* and run_report.json, the returned report, last.
    The folds run in processes processes (run_folds).  vectors is a
    parsed file or a path that load_vectors reads here; given a path, the
    parsed file is freed once the matrix is built, before the first fold.
    """
    config.validate()
    if model_config is None:
        model_config = ModelConfig()
    if prep_config is None:
        prep_config = PreprocessConfig.from_files()
    head_keys = task_head_keys(config.task)
    model_config.validate()

    n = len(examples)
    if n < config.folds:
        raise ConfigurationError(f"{n} examples cannot fill {config.folds} folds")
    for ex in examples:
        missing = [k for k in head_keys if k not in ex.labels]
        if missing:
            raise DataIntegrityError(f"example lacks labels for keys {missing}")

    token_lists = [preprocess_text(ex.text, ex.language, prep_config)
                   for ex in examples]
    vocab = build_vocab(token_lists)
    if not isinstance(vectors, WordVectorFile):
        vectors = load_vectors(vectors)
    matrix, coverage = build_matrix(vocab, vectors, expected_dim=model_config.embed_dim)
    del vectors
    sequences = encode_batch(token_lists, vocab, max_len=model_config.seq_len)
    label_arrays = {k: np.array([ex.labels[k] for ex in examples]) for k in head_keys}

    # run_report.json marks a finished run: it goes before any new file
    # lands, so a retrain cut short never vouches for a mix of two runs.
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "run_report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    for name in os.listdir(out_dir):
        match = re.fullmatch(r"fold([0-9]+)", name)
        path = os.path.join(out_dir, name)
        if match and int(match.group(1)) >= config.folds and os.path.isdir(path):
            shutil.rmtree(path)
    with atomic_write(os.path.join(out_dir, "embedding.npy"), "wb") as fh:
        np.save(fh, matrix.astype("<f4", copy=False))
    del matrix   # each fold reads embedding.npy
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    _write_json(prep_config.to_dict(), os.path.join(out_dir, "preprocess.json"))

    folds = kfold_indices(n, k=config.folds, seed=config.seed)
    job = partial(_train_fold, model_config, sequences, label_arrays, head_keys,
                  folds, config, out_dir, len(vocab))
    fold_reports = run_folds(job, range(config.folds), processes)

    averaged = {key: {name: float(np.mean([getattr(fr.head_reports[key], name)
                                           for fr in fold_reports]))
                      for name in ("macro_precision", "macro_recall", "macro_f1",
                                   "macro_f1_class_mean", "accuracy")}
                for key in head_keys}
    report = RunReport(folds=fold_reports, averaged=averaged,
                       train_config=config.to_dict(),
                       model_config=model_config.to_dict(),
                       embedding_coverage=coverage)
    emit_curves(report, os.path.join(out_dir, "curves.csv"),
                os.path.join(out_dir, "curves.svg"))
    write_report(report, report_path)
    return report


def _score_fold(run: SavedRun, sequences: np.ndarray, fold: int) -> list[np.ndarray]:
    """ensemble_predict's job: load one fold and return its per-head softmax
    probabilities (N x classes) for the posts."""
    return [softmax(z) for z in run.load_fold(fold).forward(sequences)]


def ensemble_predict(run: SavedRun, folds, test_sequences: np.ndarray,
                     processes: int = 1) -> list[np.ndarray]:
    """Average per-head softmax probabilities over the run's folds, then
    argmax (exact two-way ties go to class 1).  The folds run in processes
    processes (run_folds), each loaded where it is scored, so a process
    holds one network at a time.  Each adds p / k in fold order: the labels
    are bit-identical at any process count.  A fold that fails to load is
    an AbusekitError carrying load_checkpoint's message."""
    test_sequences = np.asarray(test_sequences)
    fold_probs = run_folds(partial(_score_fold, run, test_sequences), folds, processes)
    sums = [np.zeros((len(test_sequences), HEAD_CLASSES), dtype=np.float32)
            for _ in run.head_keys]
    for probs in fold_probs:
        for h, p in enumerate(probs):
            sums[h] += p / len(fold_probs)
    return [labels_from_probs(s) for s in sums]


def run_folds(job, folds, processes: int = 1) -> list:
    """[job(fold) for fold in folds], in fold order.

    folds is cut in order into min(processes, len(folds)) shares.  This
    process runs the first share; a child process (python -m
    abusekit._foldworker) runs each other share meanwhile, so job must
    pickle: a module-level function or a functools.partial of one.  A
    child's NumericError is a NumericError here and its other failures an
    AbusekitError, each naming the child's folds and carrying its message.
    """
    folds = list(folds)
    if not folds:
        raise ConfigurationError("no folds given")
    shares = [share.tolist() for share in
              np.array_split(folds, min(processes, len(folds)))]
    workers = []
    try:
        for share in shares[1:]:
            workers.append(_FoldWorker(job, share))
        results = [job(fold) for fold in shares[0]]
        for worker in workers:
            results += worker.result()
    finally:
        for worker in workers:
            worker.close()
    return results


class _FoldWorker:
    """A child process running [job(fold) for fold in folds]: the parent
    side of abusekit._foldworker.  A plain subprocess, so no helper process
    outlives the command; close() reaps it."""

    def __init__(self, job, folds: list[int]):
        # imported here: only a parallel run starts a process, and the
        # import would cost every other command time and memory
        import subprocess

        self.folds = folds
        request = pickle.dumps((job, folds), protocol=pickle.HIGHEST_PROTOCOL)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "abusekit._foldworker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # The job outgrows a pipe's buffer: a thread feeds it and drains
        # the reply, so the parent starts its own folds at once.
        self._talker = threading.Thread(target=self._communicate, args=(request,))
        self._talker.start()

    def _communicate(self, request: bytes) -> None:
        self._output = self._proc.communicate(request)

    def result(self) -> list:
        """[job(fold) for fold in self.folds], as the child returned it."""
        self._talker.join()
        out, err = self._output
        code = self._proc.returncode
        if code != 0:
            lines = err.decode("utf-8", "replace").splitlines()
            error = NumericError if code == 3 else AbusekitError
            raise error(f"worker for folds {self.folds} exited {code}: "
                        + (lines[-1] if lines else "no message"))
        # the reply of this command's own child, over its own pipe
        return pickle.loads(out)

    def close(self) -> None:
        """Stop the process if it still runs; communicate() reaps it."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._talker.join()


def best_fold_index(report: dict) -> int:
    """Fold whose validation macro-F1 (mean over heads) is highest.

    report is a run report in its JSON form: RunReport.to_dict(), or
    run_report.json as read back from a run directory.
    """
    keys = task_head_keys(report["train_config"]["task"])
    scores = [float(np.mean([fr["head_reports"][k]["macro_f1"] for k in keys]))
              for fr in report["folds"]]
    return int(np.argmax(scores))


def write_report(report: RunReport, path) -> None:
    _write_json(report.to_dict(), path)


@dataclass
class SavedRun:
    """A finished run directory as read_run reads it; folds load on demand."""

    directory: str
    model_config: ModelConfig
    train_config: TrainConfig
    best_fold: int
    vocab: Vocabulary
    prep_config: PreprocessConfig
    matrix: np.ndarray

    @property
    def head_keys(self) -> list[str]:
        return task_head_keys(self.train_config.task)

    def load_fold(self, fold: int) -> Network:
        return load_checkpoint(os.path.join(self.directory, f"fold{fold}"),
                               self.model_config, len(self.head_keys), self.matrix)

    def __reduce__(self):
        # a worker reads and checks the directory itself (read_run)
        return read_run, (self.directory,)


def _read_run_json(path, parse):
    """parse(the JSON object of a run-directory file).  A file that is
    missing, garbled or not an object, that lacks a key parse reads, or
    whose values fail validation is a CorruptionError naming it (exit 2)."""
    try:
        data = json.loads("".join(open_text(path)))
        if not isinstance(data, dict):
            raise CorruptionError("not a JSON object")
        return parse(data)
    except FileNotFoundError:
        raise CorruptionError(f"missing {path}") from None
    except ParseError as exc:   # open_text's message names the path
        raise CorruptionError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise CorruptionError(f"{path}: invalid JSON ({exc})") from None
    except KeyError as exc:
        raise CorruptionError(f"{path}: missing key {exc}") from None
    except (AbusekitError, TypeError, ValueError) as exc:
        raise CorruptionError(f"{path}: {exc}") from None


def _run_settings(report: dict):
    """(model config, train config, best fold) of run_report.json.
    Every config field must be stated: a default would silently guess the
    trained network's shape, activation or dropout."""
    version = report.get("format_version")
    if version != FORMAT_VERSION:
        raise CorruptionError(f"format_version {version}, this version of abusekit "
                              f"reads {FORMAT_VERSION}; retrain older runs")
    return (read_config(ModelConfig, report["model_config"], "model_config", True),
            read_config(TrainConfig, report["train_config"], "train_config", True),
            best_fold_index(report))


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               dict: "a JSON object", tuple: "a JSON array", frozenset: "a JSON array"}


def read_config(cls, data, where: str, complete: bool):
    """The dataclass cls built from the JSON object data; its fields are the
    only schema.  An unknown or missing key, or a value of the wrong JSON
    type (an int may stand for a float, a bool never for a number), is a
    ConfigurationError naming where and the key.  Missing means any field
    if complete, as in a run directory, else one with no default or marked
    required.  Dataclass fields are read alike; each validate() runs."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where}: not a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")
    for f in fields(cls):
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        if f.name not in data and (complete or f.metadata.get("required")
                                   or not has_default):
            raise ConfigurationError(f"{where}: missing key {f.name!r}")
    types = typing.get_type_hints(cls)
    config = cls(**{name: _read_value(types[name], value, f"{where}.{name}", complete)
                    for name, value in data.items()})
    if hasattr(config, "validate"):
        config.validate()
    return config


def _read_value(tp, value, where: str, complete: bool):
    """value, of the JSON type of the annotation tp, converted to tp."""
    if is_dataclass(tp):
        return read_config(tp, value, where, complete)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:   # X | None
        return None if value is None else _read_value(args[0], value, where, complete)
    if origin is dict and isinstance(value, dict):
        return {key: _read_value(args[1], item, f"{where}.{key}", complete)
                for key, item in value.items()}
    if origin in (tuple, frozenset) and isinstance(value, list):
        # tuple[X, ...] and frozenset[X] hold any number of X
        item_types = args if len(args) > 1 and args[1] is not Ellipsis \
            else args[:1] * len(value)
        if len(item_types) == len(value):
            return origin(_read_value(t, item, f"{where}[{i}]", complete)
                          for i, (t, item) in enumerate(zip(item_types, value)))
    if tp is float and type(value) in (int, float):
        return float(value)
    if origin is None and type(value) is tp:
        return value
    raise ConfigurationError(
        f"{where}: expected {_JSON_TYPES[origin or tp]}, got {value!r}")


def _load_embedding(path, shape: tuple[int, int]) -> np.ndarray:
    """The run's frozen embedding matrix: float32, one row per vocabulary index."""
    try:
        with open(path, "rb") as fh:
            matrix = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError:
        raise CorruptionError(f"missing {path}") from None
    except (OSError, ValueError, EOFError, tokenize.TokenError) as exc:
        # TokenError: numpy re-tokenizes a header that does not parse
        raise CorruptionError(f"{path}: unreadable ({exc})") from None
    if matrix.dtype != np.float32 or matrix.shape != shape:
        raise CorruptionError(
            f"{path}: {matrix.dtype} array of shape {matrix.shape}, expected float32 "
            f"of shape {shape}: a row per vocab.txt index, a column per "
            "model_config.embed_dim of run_report.json")
    if not np.isfinite(matrix).all():
        raise CorruptionError(f"{path} holds a non-finite value")
    return matrix


def read_run(run_dir) -> SavedRun:
    """Read and check the run directory that run_cv finished.  A damaged
    or incomplete file is a CorruptionError naming it; each weights.bin is
    checked as SavedRun.load_fold reads it."""
    model_config, train_config, best_fold = _read_run_json(
        os.path.join(run_dir, "run_report.json"), _run_settings)
    vocab = Vocabulary.load(os.path.join(run_dir, "vocab.txt"))
    prep_config = _read_run_json(
        os.path.join(run_dir, "preprocess.json"),
        lambda data: read_config(PreprocessConfig, data, "preprocess", True))
    matrix = _load_embedding(os.path.join(run_dir, "embedding.npy"),
                             (len(vocab), model_config.embed_dim))
    return SavedRun(run_dir, model_config, train_config, best_fold,
                    vocab, prep_config, matrix)


_CURVE_FIELDS = ("fold", "epoch", "train_loss", "train_acc", "val_loss", "val_acc")


def emit_curves(report: RunReport, csv_path, svg_path=None) -> None:
    """Write fold x epoch curves as CSV, optionally plus a small SVG chart.

    Floats are written with repr so a re-parse reproduces them exactly.
    """
    with atomic_write(csv_path) as fh:
        fh.write(",".join(_CURVE_FIELDS) + "\n")
        for fr in report.folds:
            for rec in fr.epochs:
                fh.write(",".join([
                    str(fr.fold), str(rec.epoch),
                    repr(rec.train_loss), repr(rec.train_accuracy),
                    repr(rec.val_loss), repr(rec.val_accuracy)]) + "\n")
    if svg_path is not None:
        with atomic_write(svg_path) as fh:
            fh.write(_render_curves_svg(report))


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f")


def _panel(title, series, x0, width, height) -> list[str]:
    # series: list of (values, color, dash); shared x axis = epoch.
    pad = 34.0
    plot_w, plot_h = width - 2 * pad, height - 2 * pad
    all_vals = [v for values, _, _ in series for v in values]
    lo, hi = min(all_vals), max(all_vals)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    epochs = max(len(values) for values, _, _ in series)

    def sx(e):
        return x0 + pad + (plot_w * (e / max(epochs - 1, 1)))

    def sy(v):
        return pad + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f'<rect x="{x0 + pad:.2f}" y="{pad:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#999" />',
        f'<text x="{x0 + width / 2:.2f}" y="{pad - 10:.2f}" text-anchor="middle" '
        f'font-size="12">{escape(title, quote=False)}</text>',
        f'<text x="{x0 + pad - 4:.2f}" y="{pad + 10:.2f}" text-anchor="end" '
        f'font-size="9">{hi:.3f}</text>',
        f'<text x="{x0 + pad - 4:.2f}" y="{pad + plot_h:.2f}" text-anchor="end" '
        f'font-size="9">{lo:.3f}</text>',
    ]
    for values, color, dash in series:
        points = " ".join(f"{sx(e):.2f},{sy(v):.2f}" for e, v in enumerate(values))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2"'
                     f'{dash_attr} points="{points}" />')
    return parts


def _render_curves_svg(report: RunReport) -> str:
    width, height = 860, 300
    panel_w = width / 2
    body = []
    for x0, (title, train, val) in zip((0, panel_w), (
            ("loss", "train_loss", "val_loss"),
            ("accuracy", "train_accuracy", "val_accuracy"))):
        series = []
        for fr in report.folds:
            color = _SVG_COLORS[fr.fold % len(_SVG_COLORS)]
            series.append(([getattr(r, train) for r in fr.epochs], color, "3,3"))
            series.append(([getattr(r, val) for r in fr.epochs], color, ""))
        mean_val = [float(np.mean([getattr(fr.epochs[e], val) for fr in report.folds]))
                    for e in range(len(report.folds[0].epochs))]
        series.append((mean_val, "#000000", ""))
        body += _panel(f"{title} (dashed = train)", series, x0, panel_w, height)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        + "\n".join(body) + "\n</svg>\n"
    )
