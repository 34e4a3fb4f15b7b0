"""Full-data benchmarks against the reference macro-F1 targets.

These train on the real shared-task corpus with real 300-dim word vectors
and take hours of CPU time, so they only run when the environment points
at prepared data:

    ULI_TASK1_TRAIN_JSONL   prepare output for task 1 English
    ULI_TASK2_TRAIN_JSONL   prepare output for task 2 English (externals merged)
    WORD_VECTORS            text-format 300-dim vector file

Targets: averaged 5-fold macro-F1 within 0.09 of 0.79 (task 1 English)
and 0.84 (task 2 English).  Held-out test-set scores are out of scope:
the gold test labels were never published.
"""

import os

import pytest

from abusekit.corpus import read_dataset
from abusekit.embeddings import parse_vector_file
from abusekit.training import TrainConfig, run_cv

TARGETS = {1: 0.79, 2: 0.84}
TOLERANCE = 0.09


def run_benchmark(task: int, train_jsonl: str, vectors_path: str,
                  out_dir) -> float:
    examples = read_dataset(train_jsonl)
    vectors = parse_vector_file(vectors_path)
    config = TrainConfig(task=task, language="en")
    return run_cv(examples, config, vectors, out_dir).averaged["1"]["macro_f1"]


@pytest.mark.skipif(
    not (os.environ.get("ULI_TASK1_TRAIN_JSONL") and os.environ.get("WORD_VECTORS")),
    reason="needs ULI_TASK1_TRAIN_JSONL and WORD_VECTORS")
def test_task1_english_reference_score(tmp_path):
    score = run_benchmark(1, os.environ["ULI_TASK1_TRAIN_JSONL"],
                          os.environ["WORD_VECTORS"], tmp_path)
    assert abs(score - TARGETS[1]) <= TOLERANCE, f"macro-F1 {score:.4f}"


@pytest.mark.skipif(
    not (os.environ.get("ULI_TASK2_TRAIN_JSONL") and os.environ.get("WORD_VECTORS")),
    reason="needs ULI_TASK2_TRAIN_JSONL and WORD_VECTORS")
def test_task2_english_reference_score(tmp_path):
    score = run_benchmark(2, os.environ["ULI_TASK2_TRAIN_JSONL"],
                          os.environ["WORD_VECTORS"], tmp_path)
    assert abs(score - TARGETS[2]) <= TOLERANCE, f"macro-F1 {score:.4f}"
