"""Confusion-matrix evaluation: per-class precision/recall and macro averages.

The headline ``macro_f1`` is the harmonic mean of the macro-averaged
precision and the macro-averaged recall.  Many toolkits instead report the
arithmetic mean of per-class F1 scores; that variant is computed alongside
as ``macro_f1_class_mean`` so numbers can be compared across toolkits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, ShapeError

__all__ = [
    "ClassificationReport",
    "classification_report",
    "confusion",
    "macro_average",
    "macro_f1",
    "per_class_pr",
]


def confusion(golds, preds, num_classes: int) -> np.ndarray:
    """Build the count matrix M with M[g, p] = #examples of gold class g predicted p."""
    golds = np.asarray(golds, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if golds.ndim != 1 or golds.shape != preds.shape:
        raise ShapeError(
            f"golds and preds must be equal-length 1-d arrays, "
            f"got {golds.shape} and {preds.shape}"
        )
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    if golds.size:
        joint = np.concatenate([golds, preds])
        bad = joint[(joint < 0) | (joint >= num_classes)]
        if bad.size:
            raise BoundsError(f"label {bad[0]} outside [0, {num_classes})")
        np.add.at(matrix, (golds, preds), 1)
    return matrix


def per_class_pr(matrix: np.ndarray, c: int) -> tuple[float, float]:
    """Precision and recall of class ``c``; a zero denominator yields 0.0."""
    tp = float(matrix[c, c])
    fp = float(matrix[:, c].sum()) - tp
    fn = float(matrix[c, :].sum()) - tp
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return precision, recall


def macro_average(matrix: np.ndarray) -> tuple[float, float]:
    """Unweighted mean of per-class precision and recall over all classes."""
    n = matrix.shape[0]
    pairs = [per_class_pr(matrix, c) for c in range(n)]
    map_ = sum(p for p, _ in pairs) / n
    mar = sum(r for _, r in pairs) / n
    return map_, mar


def macro_f1(map_: float, mar: float) -> float:
    """Harmonic mean of the macro-averaged precision and recall.

    Note this is NOT the mean of per-class F1 scores; see module docstring.
    """
    if map_ + mar == 0:
        return 0.0
    return 2.0 * map_ * mar / (map_ + mar)


@dataclass
class ClassificationReport:
    """Scores for one label head on one evaluation set."""

    matrix: np.ndarray
    precision: list[float]
    recall: list[float]
    support: list[int]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_f1_class_mean: float
    zero_division_count: int = 0

    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.__dataclass_fields__}
        data["confusion"] = data.pop("matrix").tolist()
        return data


def classification_report(golds, preds, num_classes: int = 2) -> ClassificationReport:
    """Score predictions against gold labels."""
    matrix = confusion(golds, preds, num_classes)
    precision, recall, support = [], [], []
    per_class_f1 = []
    for c in range(num_classes):
        p, r = per_class_pr(matrix, c)
        precision.append(p)
        recall.append(r)
        support.append(int(matrix[c, :].sum()))
        per_class_f1.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    # a class with no gold or no predicted example divides by zero
    zero_div = int(((matrix.sum(axis=0) == 0) | (matrix.sum(axis=1) == 0)).sum())
    total = int(matrix.sum())
    accuracy = float(np.trace(matrix)) / total if total else 0.0
    map_, mar = macro_average(matrix)
    return ClassificationReport(
        matrix=matrix,
        precision=precision,
        recall=recall,
        support=support,
        accuracy=accuracy,
        macro_precision=map_,
        macro_recall=mar,
        macro_f1=macro_f1(map_, mar),
        macro_f1_class_mean=sum(per_class_f1) / num_classes,
        zero_division_count=zero_div,
    )
