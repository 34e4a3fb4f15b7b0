"""Multi-annotator corpus ingestion, label aggregation, splits, and fold indices.

The primary input is the shared-task CSV layout: each post appears on three
rows (one per label question), with per-annotator vote columns grouped by
language.  Votes aggregate to a binary label by strict majority over the
countable votes, ties resolving to 1 and vote-free rows dropping out.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigurationError,
    DataIntegrityError,
    ParseError,
    SchemaError,
)
from .text import atomic_write, open_text

__all__ = [
    "ANNOTATOR_COLUMNS",
    "KEY_TO_LABEL",
    "LANGUAGES",
    "MACD_LABEL_MAP",
    "MULTILATE_LABEL_MAP",
    "TASK_KEYS",
    "TASK_QUESTIONS",
    "DatasetSplit",
    "FoldAssignment",
    "LabeledExample",
    "RawAnnotationRow",
    "Vote",
    "aggregate_label",
    "assemble_examples",
    "kfold_indices",
    "load_external",
    "merge_external",
    "parse_integer",
    "parse_uli_csv",
    "read_csv",
    "read_dataset",
    "split_train_test",
    "write_dataset",
]

LANGUAGES = ("en", "hi", "ta")

_LANGUAGE_ALIASES = {
    "en": "en", "english": "en",
    "hi": "hi", "hindi": "hi",
    "ta": "ta", "tamil": "ta",
}

ANNOTATOR_COLUMNS = {
    "en": tuple(f"en_a{i}" for i in range(1, 7)),
    "hi": tuple(f"hi_a{i}" for i in range(1, 6)),
    "ta": tuple(f"ta_a{i}" for i in range(1, 7)),
}

# CSV question key -> the label key it fills in LabeledExample.labels.
KEY_TO_LABEL = {"question_1": "1", "question_2": "2", "question_3": "3"}

TASK_KEYS = tuple(KEY_TO_LABEL)

# The questions each task trains on, in model head order.
TASK_QUESTIONS = {1: ("question_1",), 2: ("question_1",),
                  3: ("question_1", "question_3")}

# Raw external-corpus labels mapped onto the label-1 convention (1 = abusive).
# The MACD files annotate 0 for abusive and 1 for non-abusive, so polarity flips.
MACD_LABEL_MAP = {0: 1, 1: 0}
MULTILATE_LABEL_MAP = {"hate": 1, "not-hate": 0}


class Vote(Enum):
    """One annotator's cell for one (post, question) row."""

    AGREE = "agree"
    DISAGREE = "disagree"
    NOT_ANNOTATED = "not_annotated"   # assigned but left blank ("NL")
    NOT_ASSIGNED = "not_assigned"     # post never assigned (empty / NaN cell)

    @classmethod
    def from_cell(cls, cell: str | None) -> "Vote":
        s = (cell or "").strip()
        if s == "" or s.lower() == "nan":
            return cls.NOT_ASSIGNED
        if s.upper() == "NL":
            return cls.NOT_ANNOTATED
        # columns containing NaN get rendered as floats, so accept "1.0"/"0.0"
        try:
            value = float(s)
        except ValueError:
            raise ParseError(f"unrecognized vote cell {cell!r}") from None
        if value == 1.0:
            return cls.AGREE
        if value == 0.0:
            return cls.DISAGREE
        raise ParseError(f"unrecognized vote cell {cell!r}")


@dataclass
class RawAnnotationRow:
    """One CSV record: a post shown for one label question, with its votes."""

    id: int
    text: str
    language: str
    key: str
    votes: list[tuple[str, Vote]]

    def vote_values(self) -> list[Vote]:
        return [v for _, v in self.votes]


@dataclass
class LabeledExample:
    """A post with its aggregated binary label per task key."""

    text: str
    language: str
    labels: dict[str, int]
    source: str = "uli"


@dataclass
class DatasetSplit:
    train: list[LabeledExample]
    test: list[LabeledExample]


@dataclass
class FoldAssignment:
    """Balanced fold membership: ``membership[i]`` is example i's fold in [0, k)."""

    k: int
    membership: np.ndarray

    def val_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.membership == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.membership != fold)


_INTEGER_RE = re.compile(r"([+-]?\d+)(?:\.0*)?")


def parse_integer(raw: str) -> int:
    """Strict integer cell: digits, optionally with a zero fraction ("12.0").

    Parsed as text, never through float, so ids above 2**53 keep every
    digit.  Anything else ("1.7", "1e3", "") raises ValueError.
    """
    match = _INTEGER_RE.fullmatch(raw.strip())
    if match is None:
        raise ValueError(f"not an integer: {raw!r}")
    return int(match.group(1))


def _normalize_language(raw: str, line: int | None = None, path=None) -> str:
    lang = _LANGUAGE_ALIASES.get((raw or "").strip().lower())
    if lang is None:
        raise ParseError(f"unrecognized language {raw!r}", path=path, line=line)
    return lang


def _normalize_key(raw: str, line: int | None = None, path=None) -> str:
    key = (raw or "").strip().lower().replace(" ", "_")
    if key not in TASK_KEYS:
        raise ParseError(f"unrecognized key {raw!r}", path=path, line=line)
    return key


def read_csv(path, required) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    """A CSV file's column names (stripped, lowercased) and, for each
    non-blank row, (line, {column: cell}); a later column of a repeated
    name wins.  Every CSV input is read through here: a file with no
    header, a header without a required column, a row without a required
    cell or with more cells than the header is an error naming the path."""
    reader = csv.reader(open_text(path, newline=""))
    try:
        header = next(reader, None)
        rows = [(reader.line_num, cells) for cells in reader if cells]
    except csv.Error as exc:
        raise ParseError(str(exc), path=path, line=reader.line_num) from None
    if header is None:
        raise SchemaError("file is empty", path=path)
    columns = [name.strip().lower() for name in header]
    for name in required:
        if name not in columns:
            raise SchemaError(f"missing required column {name!r}", path=path)
    records = []
    for index, (line, cells) in enumerate(rows):
        if len(cells) > len(columns):
            raise ParseError(f"row {index}: more cells than the header "
                             "(quote a cell that holds a comma)", path=path, line=line)
        record = dict(zip(columns, cells))
        if len(cells) < len(columns):
            for name in required:
                if name not in record:
                    raise ParseError(f"row {index}: no {name!r} cell", path=path, line=line)
        records.append((line, record))
    return columns, records


def parse_uli_csv(path) -> list[RawAnnotationRow]:
    """Parse the shared-task CSV into one row object per record.

    Required columns: id, text, language, key.  Vote cells come from the
    annotator column group matching each row's language; text is preserved
    byte-exact (the csv module handles quoted commas/newlines).
    """
    columns, records = read_csv(path, ("id", "text", "language", "key"))
    annotator_cols = {lang: [c for c in cols if c in columns]
                      for lang, cols in ANNOTATOR_COLUMNS.items()}
    rows: list[RawAnnotationRow] = []
    width = len(set(columns))
    for index, (line, record) in enumerate(records):
        if len(record) < width:   # a cut vote cell is not a vote left unassigned
            cut = next(c for c in columns if c not in record)
            raise ParseError(f"row {index}: no {cut!r} cell", path=path, line=line)
        language = _normalize_language(record["language"], line, path)
        key = _normalize_key(record["key"], line, path)
        cols = annotator_cols[language]
        if not cols:
            raise SchemaError(
                f"missing annotator columns for language {language!r} "
                f"(expected e.g. {ANNOTATOR_COLUMNS[language][0]!r})",
                path=path,
            )
        raw_id = record["id"].strip()
        try:
            row_id = parse_integer(raw_id)
        except ValueError:
            raise ParseError(f"non-integer id {raw_id!r}", path=path, line=line) from None
        try:
            votes = [(c, Vote.from_cell(record[c])) for c in cols]
        except ParseError as exc:
            raise ParseError(f"row id {row_id}: {exc}", path=path, line=line) from None
        rows.append(RawAnnotationRow(id=row_id, text=record["text"], language=language,
                                     key=key, votes=votes))
    return rows


def aggregate_label(votes: list[Vote]) -> int | None:
    """Collapse one row's votes to a binary label.

    Strict majority of AGREE vs DISAGREE wins; equal nonzero counts give 1;
    rows with no countable votes yield None (dropped downstream).
    """
    agree = sum(1 for v in votes if v is Vote.AGREE)
    disagree = sum(1 for v in votes if v is Vote.DISAGREE)
    if agree == 0 and disagree == 0:
        return None
    if agree == disagree:
        return 1
    return 1 if agree > disagree else 0


def assemble_examples(rows: list[RawAnnotationRow], keys) -> list[LabeledExample]:
    """Join the per-question rows of each post into one labeled example.

    Posts missing any requested key's label (no row for that key, or no
    countable votes) are excluded.
    """
    keys = tuple(keys)
    for key in keys:
        if key not in TASK_KEYS:
            raise ConfigurationError(f"unknown task key {key!r}")
    by_id: dict[int, dict[str, RawAnnotationRow]] = {}
    order: list[int] = []
    for row in rows:
        group = by_id.get(row.id)
        if group is None:
            group = by_id[row.id] = {}
            order.append(row.id)
        if row.key in group:
            raise DataIntegrityError(f"duplicate (id, key) pair ({row.id}, {row.key})")
        group[row.key] = row
    examples = []
    for post_id in order:
        group = by_id[post_id]
        labels: dict[str, int] = {}
        complete = True
        for key in keys:
            row = group.get(key)
            label = aggregate_label(row.vote_values()) if row is not None else None
            if label is None:
                complete = False
                break
            labels[KEY_TO_LABEL[key]] = label
        if not complete:
            continue
        first = group[keys[0]]
        examples.append(
            LabeledExample(text=first.text, language=first.language, labels=labels)
        )
    return examples


def load_external(path, source: str, language: str) -> list[LabeledExample]:
    """Load an external corpus CSV (columns: text, label) onto the label-1 convention."""
    source = source.lower()
    if source not in ("macd", "multilate"):
        raise ConfigurationError(f"unknown external source {source!r}")
    language = _normalize_language(language)
    examples = []
    for index, (line, record) in enumerate(read_csv(path, ("text", "label"))[1]):
        raw = record["label"].strip()
        try:
            label = (MACD_LABEL_MAP[parse_integer(raw)] if source == "macd"
                     else MULTILATE_LABEL_MAP[raw.lower()])
        except (ValueError, KeyError):
            raise ParseError(f"row {index}: unrecognized label {raw!r}",
                             path=path, line=line) from None
        examples.append(LabeledExample(text=record["text"], language=language,
                                       labels={"1": label}, source=source))
    return examples


def merge_external(
    base: list[LabeledExample], extra: list[LabeledExample]
) -> list[LabeledExample]:
    """Concatenate base then extra; no deduplication."""
    base_langs = {ex.language for ex in base}
    extra_langs = {ex.language for ex in extra}
    if base_langs and extra_langs and base_langs != extra_langs:
        raise ConfigurationError(
            f"language mismatch: base has {sorted(base_langs)}, "
            f"extra has {sorted(extra_langs)}"
        )
    return list(base) + list(extra)


def split_train_test(
    examples: list[LabeledExample],
    ratio: float = 0.8,
    seed: int = 0,
    stratified: bool = False,
) -> DatasetSplit:
    """Shuffle with a seeded RNG and partition into train/test.

    Train size is round(n * ratio), clamped so both sides are non-empty.
    With ``stratified`` the ratio is applied within each group of label "1".
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigurationError(f"ratio must be in (0, 1), got {ratio}")
    n = len(examples)
    if n < 2:
        raise ConfigurationError(f"need at least 2 examples to split, got {n}")
    rng = np.random.default_rng(seed)

    def partition(indices: np.ndarray) -> tuple[list[int], list[int]]:
        shuffled = indices[rng.permutation(len(indices))]
        n_train = int(round(len(shuffled) * ratio))
        n_train = min(max(n_train, 1), len(shuffled) - 1) if len(shuffled) > 1 else n_train
        return list(shuffled[:n_train]), list(shuffled[n_train:])

    if stratified:
        groups: dict[int, list[int]] = {}
        for i, ex in enumerate(examples):
            groups.setdefault(ex.labels.get("1", -1), []).append(i)
        train_idx: list[int] = []
        test_idx: list[int] = []
        for value in sorted(groups):
            tr, te = partition(np.asarray(groups[value]))
            train_idx.extend(tr)
            test_idx.extend(te)
        train_idx = [train_idx[i] for i in rng.permutation(len(train_idx))]
        test_idx = [test_idx[i] for i in rng.permutation(len(test_idx))]
    else:
        train_idx, test_idx = partition(np.arange(n))

    return DatasetSplit(
        train=[examples[i] for i in train_idx],
        test=[examples[i] for i in test_idx],
    )


def kfold_indices(n: int, k: int = 5, seed: int = 0) -> FoldAssignment:
    """Assign each of n examples to one of k balanced folds, seeded."""
    if n < k:
        raise ConfigurationError(f"cannot make {k} folds from {n} examples")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    membership = np.empty(n, dtype=np.int64)
    base, remainder = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < remainder else 0)
        membership[perm[start : start + size]] = fold
        start += size
    return FoldAssignment(k=k, membership=membership)


def write_dataset(examples: list[LabeledExample], path) -> None:
    """Write the canonical dataset file, one JSON object per line, through
    atomic_write: a failed write leaves no partial file."""
    with atomic_write(path) as fh:
        for ex in examples:
            record = {
                "text": ex.text,
                "language": ex.language,
                "labels": ex.labels,
                "source": ex.source,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_dataset(path) -> list[LabeledExample]:
    """Read a canonical dataset file written by :func:`write_dataset`."""
    examples = []
    for line_no, line in enumerate(open_text(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            text, language, labels = record["text"], record["language"], record["labels"]
            if not (type(text) is str and type(language) is str and type(labels) is dict):
                raise TypeError("text and language must be JSON strings, labels an object")
            text.encode("utf-8")   # a lone surrogate ("\udcff") is not text
            example = LabeledExample(
                text=text,
                language=_normalize_language(language),
                labels=labels,
                source=record.get("source", "uli"),
            )
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise ParseError(f"bad record: {exc}", path=path, line=line_no) from None
        for value in example.labels.values():
            if type(value) is not int or value not in (0, 1):   # not 0.9, true or "1"
                raise ParseError(
                    f"label values must be 0/1, got {value!r}", path=path, line=line_no
                )
        examples.append(example)
    return examples
