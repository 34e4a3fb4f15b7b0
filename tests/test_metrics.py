import numpy as np
import pytest
from conftest import binary_macro_average
from hypothesis import given, settings
from hypothesis import strategies as st

from abusekit.errors import BoundsError, ShapeError
from abusekit.metrics import (classification_report, confusion, macro_average,
                              macro_f1, per_class_pr)


def brute_force_scores(golds, preds, num_classes):
    """Per-example counting, no matrix: the independent oracle.  Returns
    (macro precision, macro recall, classes with a zero denominator)."""
    precisions, recalls = [], []
    zero_division = 0
    for c in range(num_classes):
        tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
        fp = sum(1 for g, p in zip(golds, preds) if g != c and p == c)
        fn = sum(1 for g, p in zip(golds, preds) if g == c and p != c)
        precisions.append(tp / (tp + fp) if tp + fp else 0.0)
        recalls.append(tp / (tp + fn) if tp + fn else 0.0)
        zero_division += not (tp + fp and tp + fn)
    map_ = sum(precisions) / num_classes
    mar = sum(recalls) / num_classes
    return map_, mar, zero_division


class TestConfusion:
    def test_diagonal_when_perfect(self):
        golds = [0, 1, 1, 0, 1]
        matrix = confusion(golds, golds, 2)
        assert matrix[0, 1] == 0 and matrix[1, 0] == 0
        assert matrix[0, 0] == 2 and matrix[1, 1] == 3

    def test_hand_counted_case(self):
        matrix = confusion([1, 1, 1, 0, 0], [1, 0, 1, 0, 1], 2)
        np.testing.assert_array_equal(matrix, [[1, 1], [1, 2]])

    def test_empty_inputs(self):
        np.testing.assert_array_equal(confusion([], [], 3), np.zeros((3, 3)))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([0, 1], [0], 2)

    def test_out_of_range_label(self):
        with pytest.raises(BoundsError):
            confusion([0, 2], [0, 1], 2)


class TestPerClass:
    def test_perfect_classifier(self):
        matrix = confusion([0, 1, 0, 1], [0, 1, 0, 1], 2)
        for c in range(2):
            assert per_class_pr(matrix, c) == (1.0, 1.0)

    def test_hand_case_both_classes(self):
        matrix = confusion([1, 1, 1, 0, 0], [1, 0, 1, 0, 1], 2)
        p1, r1 = per_class_pr(matrix, 1)
        p0, r0 = per_class_pr(matrix, 0)
        assert p1 == pytest.approx(2 / 3) and r1 == pytest.approx(2 / 3)
        assert p0 == pytest.approx(1 / 2) and r0 == pytest.approx(1 / 2)

    def test_absent_class_convention(self):
        # class 2 never appears in gold or prediction
        matrix = confusion([0, 1], [0, 1], 3)
        assert per_class_pr(matrix, 2) == (0.0, 0.0)


class TestMacro:
    def test_hand_case_averages(self):
        matrix = confusion([1, 1, 1, 0, 0], [1, 0, 1, 0, 1], 2)
        map_, mar = macro_average(matrix)
        assert map_ == pytest.approx(7 / 12)
        assert mar == pytest.approx(7 / 12)
        assert macro_f1(map_, mar) == pytest.approx(7 / 12)

    def test_f1_of_equal_inputs_is_identity(self):
        for x in (0.0, 0.25, 0.5833, 1.0):
            assert macro_f1(x, x) == pytest.approx(x)

    def test_f1_zero_when_one_side_zero(self):
        assert macro_f1(1.0, 0.0) == 0.0
        assert macro_f1(0.0, 0.0) == 0.0

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60),
           st.data())
    def test_class_permutation_invariance(self, golds, data):
        preds = data.draw(st.lists(st.sampled_from([0, 1]),
                                   min_size=len(golds), max_size=len(golds)))
        matrix = confusion(golds, preds, 2)
        swapped = confusion([1 - g for g in golds], [1 - p for p in preds], 2)
        np.testing.assert_allclose(macro_average(matrix), macro_average(swapped))


class TestOracleAgreement:
    """The implementation must match per-example counting exactly."""

    @given(st.integers(2, 5), st.lists(st.integers(0, 4), min_size=1, max_size=80),
           st.data())
    @settings(max_examples=150)
    def test_matches_brute_force(self, num_classes, raw_golds, data):
        golds = [g % num_classes for g in raw_golds]
        preds = data.draw(st.lists(st.integers(0, num_classes - 1),
                                   min_size=len(golds), max_size=len(golds)))
        matrix = confusion(golds, preds, num_classes)
        map_, mar = macro_average(matrix)
        want_map, want_mar, want_zero = brute_force_scores(golds, preds, num_classes)
        assert abs(map_ - want_map) < 1e-12
        assert abs(mar - want_mar) < 1e-12
        report = classification_report(golds, preds, num_classes)
        assert (report.macro_precision, report.macro_recall) == (map_, mar)
        assert report.zero_division_count == want_zero

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60), st.data())
    @settings(max_examples=150)
    def test_binary_equals_multiclass_at_two_classes(self, golds, data):
        preds = data.draw(st.lists(st.sampled_from([0, 1]),
                                   min_size=len(golds), max_size=len(golds)))
        matrix = confusion(golds, preds, 2)
        assert binary_macro_average(matrix) == macro_average(matrix)


class TestClassificationReport:
    def test_report_fields(self):
        report = classification_report([1, 1, 1, 0, 0], [1, 0, 1, 0, 1])
        assert report.macro_f1 == pytest.approx(7 / 12)
        assert report.accuracy == pytest.approx(3 / 5)
        assert report.support == [2, 3]
        assert 0.0 <= report.macro_f1_class_mean <= 1.0

    def test_outputs_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            golds = rng.integers(0, 2, size=n)
            preds = rng.integers(0, 2, size=n)
            report = classification_report(golds, preds)
            for value in (report.macro_precision, report.macro_recall,
                          report.macro_f1, report.accuracy):
                assert 0.0 <= value <= 1.0
            assert report.macro_f1 <= max(report.macro_precision,
                                          report.macro_recall) + 1e-15

    def test_to_dict_round_trip_keys(self):
        report = classification_report([0, 1], [0, 1])
        data = report.to_dict()
        assert data["macro_f1"] == 1.0
        assert data["confusion"] == [[1, 0], [0, 1]]
