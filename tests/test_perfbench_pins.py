"""The package names that perfbench pins still resolve.

perfbench/tracing.py wraps package functions and methods by name, and
perfbench/run.py marks the end of each command's set-up by name.  A
refactor that renames, moves or inherits one of them breaks the traced
benchmark; these tests resolve every name the way the tracer's Patcher
does, so that break shows in the test suite.
"""

import functools
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import abusekit.cli  # noqa: F401  perfbench's child imports every module first
from abusekit import model
from abusekit.layers import AdamConfig
from abusekit.model import ModelConfig, Network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's tracing and run modules, imported from its directory;
    its modules and sys.path entry are dropped afterwards."""
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("run")
    finally:
        sys.path[:] = saved_path
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


def benchmark_names(tracing, run):
    marks = [run.TrainKfold.mark, run.PredictEnsemble.mark, *run.Ingest.marks.values()]
    return ([target for target, _, _ in tracing.TARGETS]
            + [name for mark in marks for name in mark.split(",")])


def test_every_pinned_name_resolves(perfbench):
    tracing, run = perfbench
    names = benchmark_names(tracing, run)
    assert len(names) > 40
    for target in names:
        module_name, _, qualname = target.partition(":")
        originals = []

        def wrap(fn):
            originals.append(fn)
            return functools.wraps(fn)(lambda *args, **kwargs: fn(*args, **kwargs))

        patcher = tracing.Patcher()
        try:
            # a method must be in its class's own __dict__, or this raises
            wrapper = patcher.replace(target, wrap)
            bound = importlib.import_module(module_name)
            for part in qualname.split("."):
                bound = getattr(bound, part)
            assert bound is wrapper, target
        finally:
            patcher.restore()
        original, = originals
        assert callable(original) and original.__module__.startswith("abusekit"), target


def test_tracer_times_both_dropouts_of_a_train_step(perfbench):
    # the spatial dropout and the final dropout each record a span of
    # their own, and every layer of a train step is timed
    tracing, _ = perfbench
    config = ModelConfig(seq_len=6, embed_dim=4, conv_filters=3, conv_kernel=2,
                         lstm_units=2, dense_units=3, spatial_dropout_rate=0.5,
                         final_dropout_rate=0.5)
    rng = np.random.default_rng(0)
    network = Network(config, rng.uniform(-1, 1, (10, 4)).astype(np.float32), 1, rng)
    batch = rng.integers(0, 10, size=(4, 6), dtype=np.int32)
    target = np.eye(2, dtype=np.float32)[[0, 1, 0, 1]]
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    tracer.install(patcher)
    try:
        model.train_step(network, batch, [target], AdamConfig(), rng=rng)
    finally:
        patcher.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("layers.dropout.forward") == 2
    for name in ("model.train_step", "layers.embedding.forward", "layers.conv1d.forward",
                 "layers.bilstm.forward", "layers.bilstm.backward",
                 "layers.dense.forward", "layers.heads.backward", "layers.adam_step"):
        assert name in names, name
