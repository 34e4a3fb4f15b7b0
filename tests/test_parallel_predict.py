"""Process-parallel ensemble predict: the parent loads and runs the first
share of the folds, one at a time, and worker processes (python -m
abusekit._foldworker) run the rest.

Submissions must be byte-identical at any worker count, a fold that fails
anywhere exits 2 naming its file, and no process outlives the command.
"""

import gc
import shutil
from functools import partial

import numpy as np
import pytest
from conftest import child_pids, fold_probabilities, needs_proc_children

from abusekit import cli, training
from abusekit.cli import _read_id_csv, main
from abusekit.errors import AbusekitError
from abusekit.layers import AdamConfig
from abusekit.model import ModelConfig, Network
from abusekit.synthetic import (make_marker_corpus, make_vector_file,
                                vocabulary_of, write_test_csv)
from abusekit.text import encode_batch, preprocess
from abusekit.training import TrainConfig, ensemble_predict, read_run, run_cv

MODEL = ModelConfig(seq_len=12, embed_dim=8, conv_filters=4, conv_kernel=2,
                    lstm_units=4, dense_units=4)

@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Finished 2-fold and 5-fold runs and one posts CSV to predict."""
    root = tmp_path_factory.mktemp("parallel")
    examples = make_marker_corpus(60, seed=4, pool_size=20)
    vectors = make_vector_file(vocabulary_of(examples), dim=8, seed=1)
    for k in (2, 5):
        config = TrainConfig(task=1, language="en", folds=k, epochs=2,
                             batch_size=8, seed=k, optimizer=AdamConfig(lr=5e-3))
        run_cv(examples, config, vectors, root / f"k{k}", MODEL)
    write_test_csv(root / "posts.csv", make_marker_corpus(40, seed=9, pool_size=20))
    return root


def predict(runs, k, out, *flags):
    return main(["predict", "--run-dir", str(runs / f"k{k}"),
                 "--input", str(runs / "posts.csv"), "--out", str(out), *flags])


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("mode", ["average", "best"])
def test_submission_identical_at_any_worker_count(runs, tmp_path, monkeypatch, k, mode):
    monkeypatch.delenv("ABUSE_DETECT_THREADS", raising=False)
    submissions = set()
    for threads in ("1", "2", "3", "4", "5"):
        out = tmp_path / f"{threads}.csv"
        assert predict(runs, k, out, "--ensemble", mode, "--threads", threads) == 0
        submissions.add(out.read_bytes())
    assert len(submissions) == 1
    submission, = submissions
    assert submission.count(b"\n") == 41
    assert b",0\n" in submission and b",1\n" in submission


def sequences_of(run, path):
    tokens = [preprocess(text, run.train_config.language, run.prep_config)
              for _, _, text in _read_id_csv(path, "text")]
    return encode_batch(tokens, run.vocab, max_len=run.model_config.seq_len)


def test_worker_probabilities_bit_identical(runs):
    # the parent adds each worker's p / k itself, so a worker must hand back
    # exactly the probabilities this process would compute
    run = read_run(runs / "k5")
    sequences = sequences_of(run, runs / "posts.csv")
    worker = training._FoldWorker(
        partial(training._score_fold, run, sequences), [3, 1])
    try:
        remote = worker.result()
    finally:
        worker.close()
    for fold, probs in zip([3, 1], remote):
        local = fold_probabilities(run.load_fold(fold), sequences)
        assert [p.tobytes() for p in probs] == [p.tobytes() for p in local]
        assert probs[0].dtype == local[0].dtype and probs[0].shape == (40, 2)


@pytest.mark.parametrize("processes", [2, 3, 4, 5])
def test_labels_identical_however_folds_are_spread(runs, processes):
    # the five folds in 2 to 5 shares: [0 1 2][3 4] ... [0][1][2][3][4]
    run = read_run(runs / "k5")
    sequences = sequences_of(run, runs / "posts.csv")
    expected = ensemble_predict(run, range(5), sequences)
    got = ensemble_predict(run, range(5), sequences, processes)
    np.testing.assert_array_equal(got[0], expected[0])


def test_parent_holds_one_fold_network_at_a_time(runs, tmp_path, monkeypatch):
    # the command loads each fold of its own share where it scores it, and
    # drops it before it loads the next
    def live_networks():
        gc.collect()
        return sum(isinstance(o, Network) for o in gc.get_objects())

    forward, held = Network.forward, []

    def counting(network, sequences):
        held.append(live_networks() - before)
        return forward(network, sequences)

    monkeypatch.setattr(Network, "forward", counting)
    monkeypatch.delenv("ABUSE_DETECT_THREADS", raising=False)
    before = live_networks()
    assert predict(runs, 5, tmp_path / "out.csv", "--threads", "1") == 0
    assert held == [1] * 5


@pytest.mark.parametrize("case", ["truncated", "missing"])
def test_damaged_fold_in_workers_share_exits_2(runs, tmp_path, capsys, case):
    # the worker's load fails with load_checkpoint's own message, and the
    # command writes nothing
    clone = tmp_path / "run"
    shutil.copytree(runs / "k5", clone)
    weights = clone / "fold4" / "weights.bin"
    size = weights.stat().st_size
    if case == "missing":
        weights.unlink()
    else:
        weights.write_bytes(weights.read_bytes()[:-4])
    rc = main(["predict", "--run-dir", str(clone), "--input", str(runs / "posts.csv"),
               "--out", str(tmp_path / "out.csv"), "--threads", "2"])
    assert rc == 2
    expected = f"missing {weights}" if case == "missing" else \
        f"{weights} holds {size - 4} bytes, the model config needs {size}"
    assert expected in capsys.readouterr().err
    assert list(tmp_path.glob("out.csv*")) == []   # no submission, no temporary file


def test_unwritable_out_fails_before_any_fold(runs, tmp_path, monkeypatch, capsys):
    # --out is opened before the folds run, so a missing directory costs
    # no fold; the same command into a writable path scores all five
    calls, score = [], training._score_fold
    monkeypatch.setattr(training, "_score_fold",
                        lambda run, sequences, fold: calls.append(fold)
                        or score(run, sequences, fold))
    out = tmp_path / "missing" / "x.csv"
    assert predict(runs, 5, out, "--threads", "1") == 2
    assert str(out) in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert predict(runs, 5, tmp_path / "out.csv", "--threads", "1") == 0
    assert calls == [0, 1, 2, 3, 4]


@needs_proc_children
def test_fold_failing_inside_a_worker_is_named(runs, tmp_path):
    # the error names the worker's folds and the file, with no process left
    clone = tmp_path / "run"
    shutil.copytree(runs / "k5", clone)
    run = read_run(clone)
    weights = clone / "fold4" / "weights.bin"
    weights.write_bytes(weights.read_bytes()[:-4])
    before = child_pids()
    with pytest.raises(AbusekitError) as caught:
        ensemble_predict(run, range(5), sequences_of(run, runs / "posts.csv"), 2)
    message = str(caught.value)
    assert "worker for folds [3, 4] exited 2" in message
    assert f"{weights} holds" in message
    assert child_pids() == before


@pytest.mark.parametrize("flags, env, message", [
    (["--threads", "0"], None, "threads must be positive, got 0"),
    (["--threads", "-1"], None, "threads must be positive, got -1"),
    ([], "x", "ABUSE_DETECT_THREADS='x' is not an integer"),
    ([], "0", "threads must be positive, got 0"),
])
def test_bad_thread_count_exits_2(runs, tmp_path, monkeypatch, capsys, flags, env,
                                  message):
    if env is None:
        monkeypatch.delenv("ABUSE_DETECT_THREADS", raising=False)
    else:
        monkeypatch.setenv("ABUSE_DETECT_THREADS", env)
    assert predict(runs, 2, tmp_path / "out.csv", *flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("cpus, openblas, omp, expected", [
    (2, None, None, 1),  # an unpinned BLAS already uses every CPU
    (2, "1", None, 2),
    (8, "2", "1", 4),    # OPENBLAS_NUM_THREADS wins, as in OpenBLAS
    (8, "x", "4", 2),
    (8, "²", "4", 2),    # a digit to str.isdigit, not to int()
    (8, "0", None, 1),
    (2, "4", None, 1),
])
def test_default_process_count_follows_blas_threads(monkeypatch, cpus, openblas, omp,
                                                    expected):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    assert cli._default_processes() == expected


@needs_proc_children
@pytest.mark.parametrize("threads", ["2", "5"])
def test_no_process_outlives_predict(runs, tmp_path, threads):
    before = child_pids()
    assert predict(runs, 5, tmp_path / "out.csv", "--threads", threads) == 0
    assert child_pids() == before


@needs_proc_children
def test_parent_failure_stops_its_workers(runs, monkeypatch):
    # the parent's own fold fails while its worker still runs: the worker
    # is stopped and reaped before the error leaves ensemble_predict
    run = read_run(runs / "k5")
    sequences = sequences_of(run, runs / "posts.csv")

    def diverge(network, sequences):
        raise AbusekitError("parent fold failed")

    monkeypatch.setattr(Network, "forward", diverge)
    before = child_pids()
    with pytest.raises(AbusekitError, match="parent fold failed"):
        ensemble_predict(run, range(5), sequences, 2)
    assert child_pids() == before
