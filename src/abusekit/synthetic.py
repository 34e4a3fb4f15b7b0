"""Deterministic synthetic corpora for tests, demos, and pipeline checks.

Texts are nonsense-word sentences; each label is carried entirely by the
presence of a marker token, so a working model can separate the classes
perfectly.  Classes are exactly balanced per head.  A matching random
vector file gives every pool word a nonzero embedding (the lookup table is
frozen, so words without vectors are invisible to the model).
"""

from __future__ import annotations

import csv

import numpy as np

from .corpus import ANNOTATOR_COLUMNS, KEY_TO_LABEL, LabeledExample
from .embeddings import WordVectorFile

__all__ = [
    "DEFAULT_MARKERS",
    "make_marker_corpus",
    "make_vector_file",
    "pool_tokens",
    "vocabulary_of",
    "write_gold_csv",
    "write_test_csv",
    "write_uli_csv",
]

DEFAULT_MARKERS = {"1": "zarnok", "3": "vexum"}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def pool_tokens(size: int, seed: int = 7) -> list[str]:
    """Pronounceable nonsense words, distinct and deterministic."""
    rng = np.random.default_rng(seed)
    words: list[str] = []
    seen = set(DEFAULT_MARKERS.values())
    while len(words) < size:
        syllables = rng.integers(2, 4)
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))]
            + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def make_marker_corpus(
    n: int,
    markers: dict[str, str] | None = None,
    seed: int = 0,
    language: str = "en",
    pool_size: int = 40,
    length_range: tuple[int, int] = (5, 10),
) -> list[LabeledExample]:
    """n examples where label k = 1 iff marker token k appears in the text.

    Each head's positives number exactly n // 2, assigned independently per
    head, so single-head corpora are balanced and two-head corpora cover all
    four label combinations.
    """
    if markers is None:
        markers = {"1": DEFAULT_MARKERS["1"]}
    rng = np.random.default_rng(seed)
    pool = pool_tokens(pool_size)
    lo, hi = length_range

    positives = {}
    for key in sorted(markers):
        chosen = rng.permutation(n)[: n // 2]
        positives[key] = set(chosen.tolist())

    examples = []
    for i in range(n):
        words = [pool[rng.integers(len(pool))]
                 for _ in range(rng.integers(lo, hi + 1))]
        labels = {}
        for key in sorted(markers):
            if i in positives[key]:
                words.insert(rng.integers(len(words) + 1), markers[key])
                labels[key] = 1
            else:
                labels[key] = 0
        examples.append(LabeledExample(
            text=" ".join(words), language=language, labels=labels,
            source="synthetic"))
    return examples


def make_vector_file(tokens, dim: int = 300, seed: int = 0) -> WordVectorFile:
    """Random uniform vectors for every given token."""
    rng = np.random.default_rng(seed)
    entries = {
        token: rng.uniform(-0.5, 0.5, size=dim).astype(np.float32)
        for token in tokens
    }
    return WordVectorFile(dimension=dim, entries=entries, had_header=False)


def vocabulary_of(examples: list[LabeledExample]) -> list[str]:
    """All whitespace tokens appearing in the corpus, sorted."""
    seen = set()
    for ex in examples:
        seen.update(ex.text.split())
    return sorted(seen)


# Vote patterns per aggregated label, written against a 6-annotator group.
# Tie patterns (2 vs 2) appear among the label-1 rows on purpose.
_POSITIVE_PATTERNS = (
    ["1", "1", "1", "0", "NL", ""],
    ["1", "1", "0", "0", "", ""],       # tie resolves to 1
    ["1", "1", "1", "", "", ""],
    ["1.0", "1.0", "0.0", "1.0", "NL", ""],
)
_NEGATIVE_PATTERNS = (
    ["0", "0", "0", "1", "NL", ""],
    ["0", "0", "", "", "", ""],
    ["0.0", "1.0", "0.0", "", "", ""],
)
_DROP_PATTERN = ["NL", "NL", "", "", "", ""]


def _pattern_for(label: int | None, counter: int, width: int) -> list[str]:
    if label is None:
        pattern = _DROP_PATTERN
    elif label == 1:
        pattern = _POSITIVE_PATTERNS[counter % len(_POSITIVE_PATTERNS)]
    else:
        pattern = _NEGATIVE_PATTERNS[counter % len(_NEGATIVE_PATTERNS)]
    pattern = pattern[:width]
    # Trimming must not change the outcome; these patterns decide within
    # the first five cells, where hi's group ends.
    return pattern + [""] * (width - len(pattern))


def write_uli_csv(path, examples: list[LabeledExample], language: str = "en",
                  drop_first_n: int = 0, start_id: int = 1) -> int:
    """Write a shared-task-layout CSV: three rows per post, vote columns.

    The first ``drop_first_n`` posts get vote-free rows for every question,
    so ingestion must drop them.  Labels absent from an example fall back
    to 0 votes for that question.  Returns the number of posts written.
    """
    columns = list(ANNOTATOR_COLUMNS[language])
    width = len(columns)
    header = ["id", "text", "language", "key"] + columns
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, ex in enumerate(examples):
            post_id = start_id + i
            dropped = i < drop_first_n
            for question, key in KEY_TO_LABEL.items():
                label = None if dropped else ex.labels.get(key, 0)
                votes = _pattern_for(label, post_id * 3 + int(key), width)
                writer.writerow([post_id, ex.text, ex.language, question] + votes)
    return len(examples)


def write_test_csv(path, examples: list[LabeledExample], start_id: int = 1) -> list[int]:
    """Unlabeled prediction input: id,text. Returns the ids written."""
    ids = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text"])
        for i, ex in enumerate(examples):
            post_id = start_id + i
            writer.writerow([post_id, ex.text])
            ids.append(post_id)
    return ids


def write_gold_csv(path, ids, labels) -> None:
    """Scorer gold file: id,label."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for post_id, label in zip(ids, labels):
            writer.writerow([post_id, int(label)])
