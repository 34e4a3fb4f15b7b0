"""Shared numeric helpers for the test suite."""

import ctypes
import glob
import os

import numpy as np
import pytest

from abusekit.layers import softmax
from abusekit.model import save_checkpoint
from abusekit.training import SavedRun, TrainConfig


def pytest_report_header(config):
    # the bitwise eval tests hold on the kernel their row rules were
    # measured on (SkylakeX) and fail on Haswell: see ROADMAP item 18
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"OpenBLAS core: {openblas_corename()}, OPENBLAS_NUM_THREADS={threads}"


def openblas_corename() -> str:
    """The kernel numpy's bundled scipy_openblas picked for this CPU, read
    through its get_corename symbol, or "unknown"."""
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*scipy_openblas*"):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode("ascii", "replace")
    return "unknown"


def numerical_grad(loss_fn, array, eps=1e-5):
    """Central finite differences of a scalar function w.r.t. one array.

    Mutates entries of ``array`` in place (restoring them), so ``loss_fn``
    must recompute the forward pass from that same array on every call.
    """
    grad = np.zeros(array.shape, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        original = flat[j]
        flat[j] = original + eps
        hi = loss_fn()
        flat[j] = original - eps
        lo = loss_fn()
        flat[j] = original
        gflat[j] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_error(analytic, numeric, floor=1e-8):
    """max |a - n| / max(|a| + |n|, floor), the usual gradcheck metric."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def binary_macro_average(matrix):
    """Two-class macro averages written out via TP/FP/FN/TN counts.

    Treats class 1 as positive and class 0 as negative and averages the two
    class scores: an independent oracle for metrics.macro_average, which
    must agree with it exactly on every 2x2 matrix.
    """
    assert matrix.shape == (2, 2)
    tp = float(matrix[1, 1])
    fp = float(matrix[0, 1])
    fn = float(matrix[1, 0])
    tn = float(matrix[0, 0])
    p_pos = tp / (tp + fp) if tp + fp > 0 else 0.0
    r_pos = tp / (tp + fn) if tp + fn > 0 else 0.0
    p_neg = tn / (tn + fn) if tn + fn > 0 else 0.0
    r_neg = tn / (tn + fp) if tn + fp > 0 else 0.0
    return (p_pos + p_neg) / 2, (r_pos + r_neg) / 2


def boolean_mask_sigmoid(x):
    """Two-branch logistic function split by boolean masks.

    1/(1+exp(-x)) where x >= 0 and exp(x)/(1+exp(x)) elsewhere: the oracle
    that layers.sigmoid must match bit for bit.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assert_same_bits(actual, expected):
    """Same dtype, shape and bit pattern; NaNs need only match in place."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


def held_caches(network):
    """Names of the network's layers still holding a forward cache or a
    dropout mask.  Only a train-mode forward keeps them, and an eval-mode
    forward drops them, so this is empty after any eval pass."""
    layers = {"spatial_dropout": network.spatial_dropout, "conv": network.conv,
              "bilstm": network.bilstm, "dense": network.dense,
              "final_dropout": network.final_dropout}
    layers.update((f"head{h}", head) for h, head in enumerate(network.heads))
    return [name for name, layer in layers.items()
            if getattr(layer, "_cache", None) is not None
            or getattr(layer, "_mask", None) is not None]


def fold_probabilities(network, sequences):
    """One fold model's per-head softmax probabilities (N x classes), as
    ensemble_predict's fold job takes them from Network.forward's logits."""
    return [softmax(z) for z in network.forward(sequences)]


def train_forward(network, batch, rng=None):
    """Each head's logits from a train-mode pass through the trunk and the
    heads, which keeps every cache and dropout mask that a backward reads."""
    shared = network.trunk_forward(batch, train_mode=True, rng=rng)
    return [head.forward(shared, train_mode=True) for head in network.heads]


def saved_run(directory, networks):
    """A SavedRun whose folds 0, 1, ... are networks (of one config and head
    count), saved as fold{k}/weights.bin under directory.  It holds no
    vocabulary or preprocessing: ensemble_predict reads neither."""
    first = networks[0]
    for fold, network in enumerate(networks):
        save_checkpoint(network, os.path.join(directory, f"fold{fold}"))
    task = {1: 1, 2: 3}[len(first.heads)]   # task 3 scores two heads
    return SavedRun(os.fspath(directory), first.config,
                    TrainConfig(task=task, language="en", folds=len(networks)),
                    best_fold=0, vocab=None, prep_config=None,
                    matrix=first.embedding.matrix)


needs_proc_children = pytest.mark.skipif(
    not glob.glob("/proc/self/task/*/children"),
    reason="needs /proc/<pid>/task/<tid>/children")


def run_dir_bytes(run_dir):
    """Every file of a run directory, by relative path."""
    return {str(path.relative_to(run_dir)): path.read_bytes()
            for path in sorted(run_dir.rglob("*")) if path.is_file()}


def child_pids() -> list[str]:
    """Every child of this process, reaped or not, from any of its threads."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                pids += fh.read().split()
        except FileNotFoundError:   # the thread ended after the glob
            continue
    return pids
