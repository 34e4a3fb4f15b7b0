import csv
import gc
import hashlib
import importlib
import json
import math
import os
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import (assert_same_bits, child_pids, fold_probabilities,
                      held_caches, needs_proc_children, run_dir_bytes, saved_run,
                      train_forward)

from abusekit import model, training
from abusekit.errors import (ConfigurationError, CorruptionError, DataIntegrityError,
                             NumericError)
from abusekit.layers import AdamConfig
from abusekit.metrics import classification_report
from abusekit.model import (ModelConfig, Network, labels_from_probs,
                            save_checkpoint, train_step)
from abusekit.synthetic import (make_marker_corpus, make_vector_file,
                                vocabulary_of)
from abusekit.training import (EpochRecord, FoldReport, RunReport,
                               TrainConfig, best_fold_index, emit_curves,
                               ensemble_predict, evaluate, one_hot,
                               read_config, read_run, run_cv, run_folds,
                               task_head_keys, train_epoch, write_report)


def small_model_config(**overrides):
    base = dict(seq_len=12, embed_dim=8, conv_filters=6, conv_kernel=2,
                lstm_units=4, dense_units=8, lstm_dropout=0.0,
                lstm_recurrent_dropout=0.0, spatial_dropout_rate=0.0,
                final_dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def build(config, matrix, num_heads=1, seed=0):
    """Network with a fresh generator seeded at seed."""
    return Network(config, matrix, num_heads, np.random.default_rng(seed))


def marker_setup(n=40, markers=None, seed=0):
    examples = make_marker_corpus(n, markers=markers, seed=seed)
    vectors = make_vector_file(vocabulary_of(examples), dim=8, seed=1)
    return examples, vectors


class TestTrainConfig:
    def test_task_defaults(self):
        assert (TrainConfig(task=1, language="en").batch_size,
                TrainConfig(task=1, language="en").epochs) == (32, 5)
        assert (TrainConfig(task=2, language="hi").batch_size,
                TrainConfig(task=2, language="hi").epochs) == (64, 7)
        assert (TrainConfig(task=3, language="ta").batch_size,
                TrainConfig(task=3, language="ta").epochs) == (32, 5)

    def test_overrides_apply(self):
        config = TrainConfig(task=2, language="en", epochs=3, folds=2, seed=9)
        assert config.epochs == 3 and config.batch_size == 64
        assert config.folds == 2 and config.seed == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(task=4, language="en").validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(task=1, language="fr").validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(folds=1).validate()
        with pytest.raises(ConfigurationError, match="ensemble"):
            TrainConfig(ensemble="median").validate()

    def test_head_keys(self):
        assert task_head_keys(1) == ["1"]
        assert task_head_keys(2) == ["1"]
        assert task_head_keys(3) == ["1", "3"]

    def test_to_dict_shape(self):
        data = TrainConfig(task=1, language="en").to_dict()
        assert data["optimizer"] == {"lr": 1e-3, "beta1": 0.9,
                                     "beta2": 0.999, "eps": 1e-7}
        assert data["task"] == 1 and data["language"] == "en"

    def test_dict_round_trip(self):
        config = TrainConfig(task=3, language="ta", folds=4, ensemble="best")
        assert read_config(TrainConfig, config.to_dict(), "train", True) == config
        data = config.to_dict()
        del data["ensemble"]   # no silent default for a field of the run
        with pytest.raises(ConfigurationError, match="missing key 'ensemble'"):
            read_config(TrainConfig, data, "train", True)
        with pytest.raises(ConfigurationError, match="ensemble"):
            read_config(TrainConfig, {**config.to_dict(), "ensemble": "median"},
                        "train", True)

    def test_reader_numbers(self):
        # an int stands for a float and is stored as one; a bool is no number
        section = {"task": 2, "language": "hi", "optimizer": {"lr": 1}}
        config = read_config(TrainConfig, section, "train", False)
        assert config.optimizer.lr == 1.0 and type(config.optimizer.lr) is float
        assert (config.batch_size, config.epochs) == (64, 7)   # task defaults
        with pytest.raises(ConfigurationError, match=r"train\.optimizer\.lr"):
            read_config(TrainConfig, {**section, "optimizer": {"lr": True}},
                        "train", False)
        with pytest.raises(ConfigurationError, match="missing key 'language'"):
            read_config(TrainConfig, {"task": 1}, "train", False)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 1, 1]))
        np.testing.assert_array_equal(out, [[1, 0], [0, 1], [0, 1]])

    def test_empty(self):
        assert one_hot(np.array([], dtype=int)).shape == (0, 2)


class TestTrainEpoch:
    def test_step_count_includes_partial_batch(self):
        config = small_model_config()
        examples, vectors = marker_setup(n=10)
        # 100 sequences at batch 32: 3 full batches plus a partial one
        rng = np.random.default_rng(0)
        sequences = rng.integers(0, 5, size=(100, config.seq_len), dtype=np.int32)
        labels = [rng.integers(0, 2, size=100)]
        from abusekit.embeddings import build_matrix
        from abusekit.text import build_vocab
        from abusekit.text import preprocess as preprocess_text
        prep = None
        vocab = build_vocab([ex.text.split() for ex in examples])
        matrix = build_matrix(vocab, vectors, expected_dim=8)[0]
        net = build(config, matrix)
        loss, acc = train_epoch(net, sequences, labels, batch_size=32,
                                optimizer=AdamConfig(), rng=np.random.default_rng(1))
        assert net.parameters()[0].step_count == 4
        assert math.isfinite(loss) and 0.0 <= acc <= 1.0

    def test_identical_seeds_identical_losses(self):
        config = small_model_config()
        examples, vectors = marker_setup(n=10)
        from abusekit.embeddings import build_matrix
        from abusekit.text import build_vocab
        vocab = build_vocab([ex.text.split() for ex in examples])
        matrix = build_matrix(vocab, vectors, expected_dim=8)[0]
        outcomes = []
        for _ in range(2):
            net = build(config, matrix)
            rng = np.random.default_rng(42)
            data_rng = np.random.default_rng(7)
            sequences = data_rng.integers(0, 5, size=(20, config.seq_len),
                                          dtype=np.int32)
            labels = [data_rng.integers(0, 2, size=20)]
            outcomes.append(train_epoch(net, sequences, labels, 8,
                                        AdamConfig(), rng))
        assert outcomes[0] == outcomes[1]

    # 21 examples at batch 8: two full batches and one of 5
    N, BATCH, SEED = 21, 8, 9

    def dropout_network(self, num_heads):
        # every dropout on, so the epoch's RNG draws shape the result
        config = small_model_config(lstm_dropout=0.2,
                                    lstm_recurrent_dropout=0.2,
                                    spatial_dropout_rate=0.2,
                                    final_dropout_rate=0.2)
        examples, vectors = marker_setup(n=10)
        from abusekit.embeddings import build_matrix
        from abusekit.text import build_vocab
        vocab = build_vocab([ex.text.split() for ex in examples])
        return build(config, build_matrix(vocab, vectors, expected_dim=8)[0], num_heads)

    def epoch_data(self, num_heads):
        rng = np.random.default_rng(5)
        sequences = rng.integers(0, 5, size=(self.N, 12), dtype=np.int32)
        labels = [rng.integers(0, 2, size=self.N) for _ in range(num_heads)]
        return sequences, labels

    def manual_epoch(self, net, sequences, labels):
        """train_step over train_epoch's permutation and RNG; returns the
        hit-count accuracy over all examples and heads."""
        rng = np.random.default_rng(self.SEED)
        order = rng.permutation(self.N)
        hits = 0
        for start in range(0, self.N, self.BATCH):
            idx = order[start:start + self.BATCH]
            _, preds = train_step(net, sequences[idx],
                                  [one_hot(y[idx]) for y in labels],
                                  AdamConfig(), rng=rng)
            for got, y in zip(preds, labels):
                hits += int(np.count_nonzero(got == y[idx]))
        return hits / (self.N * len(labels))

    def test_makes_no_evaluate_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("train_epoch called evaluate")

        monkeypatch.setattr(training, "evaluate", forbidden)
        sequences, labels = self.epoch_data(1)
        train_epoch(self.dropout_network(1), sequences, labels, self.BATCH,
                    AdamConfig(), np.random.default_rng(self.SEED))

    def test_empty_set_rejected(self):
        empty = np.zeros((0, 12), dtype=np.int32)
        with pytest.raises(ConfigurationError, match="empty set"):
            train_epoch(self.dropout_network(1), empty, [np.zeros(0, dtype=int)],
                        self.BATCH, AdamConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_accuracy_counts_step_predictions(self, num_heads):
        sequences, labels = self.epoch_data(num_heads)
        _, accuracy = train_epoch(self.dropout_network(num_heads), sequences,
                                  labels, self.BATCH, AdamConfig(),
                                  np.random.default_rng(self.SEED))
        expected = self.manual_epoch(self.dropout_network(num_heads),
                                     sequences, labels)
        assert accuracy == expected

    @pytest.mark.parametrize("num_heads", [1, 2])
    def test_weights_match_manual_steps(self, num_heads):
        sequences, labels = self.epoch_data(num_heads)
        net = self.dropout_network(num_heads)
        train_epoch(net, sequences, labels, self.BATCH, AdamConfig(),
                    np.random.default_rng(self.SEED))
        reference = self.dropout_network(num_heads)
        self.manual_epoch(reference, sequences, labels)
        for got, want in zip(net.parameters(), reference.parameters()):
            assert got.value.tobytes() == want.value.tobytes(), got.name


class TestEvaluate:
    def test_empty_set_rejected(self):
        # a zero-row set used to die in np.concatenate with a ValueError
        config = small_model_config()
        examples, vectors = marker_setup(n=10)
        from abusekit.embeddings import build_matrix
        from abusekit.text import build_vocab
        vocab = build_vocab([ex.text.split() for ex in examples])
        net = build(config, build_matrix(vocab, vectors, expected_dim=8)[0])
        empty = np.zeros((0, config.seq_len), dtype=np.int32)
        with pytest.raises(ConfigurationError, match="empty set"):
            evaluate(net, empty, [np.zeros(0, dtype=int)])

    def test_releases_network(self, monkeypatch):
        config = small_model_config()
        examples, vectors = marker_setup(n=10)
        from abusekit.embeddings import build_matrix
        from abusekit.text import build_vocab
        vocab = build_vocab([ex.text.split() for ex in examples])
        net = build(config, build_matrix(vocab, vectors, expected_dim=8)[0])
        sequences = np.random.default_rng(0).integers(
            0, 5, size=(10, config.seq_len), dtype=np.int32)
        train_forward(net, sequences)
        assert held_caches(net) == ["conv", "bilstm", "dense", "head0"]
        monkeypatch.setattr(model, "EVAL_BATCH", 4)
        evaluate(net, sequences, [np.zeros(10, dtype=int)])
        assert held_caches(net) == []

    def test_batch_size_changes_nothing(self, monkeypatch):
        # the loss is one mean over the set, not a sum of batch means
        matrix = np.random.default_rng(2).uniform(-0.5, 0.5, (50, 8)).astype(np.float32)
        net = build(small_model_config(), matrix, num_heads=2)
        rng = np.random.default_rng(3)
        sequences = rng.integers(0, 50, size=(200, 12), dtype=np.int32)
        labels = [rng.integers(0, 2, 200), rng.integers(0, 2, 200)]
        monkeypatch.setattr(model, "EVAL_BATCH", 256)
        loss, accuracy, preds = evaluate(net, sequences, labels)
        for batch_size in (7, 64):
            monkeypatch.setattr(model, "EVAL_BATCH", batch_size)
            got = evaluate(net, sequences, labels)
            assert got[:2] == (loss, accuracy)
            for a, b in zip(got[2], preds):
                np.testing.assert_array_equal(a, b)


class TestRunCv:
    def run_small(self, out_dir, processes=1, seed=0):
        examples, vectors = marker_setup(n=40, seed=seed)
        config = TrainConfig(task=1, language="en", folds=4, epochs=2,
                             batch_size=8, seed=3)
        return run_cv(examples, config, vectors, out_dir,
                      model_config=small_model_config(), processes=processes)

    def test_report_structure(self, tmp_path):
        report = self.run_small(tmp_path)
        assert len(report.folds) == 4
        assert all(len(fr.epochs) == 2 for fr in report.folds)
        assert list(report.averaged) == ["1"]
        assert set(report.averaged["1"]) == {
            "macro_precision", "macro_recall", "macro_f1",
            "macro_f1_class_mean", "accuracy"}
        assert report.embedding_coverage == 1.0
        # the run directory it wrote, read back
        assert sorted(os.listdir(tmp_path)) == [
            "curves.csv", "curves.svg", "embedding.npy", "fold0", "fold1",
            "fold2", "fold3", "preprocess.json", "run_report.json", "vocab.txt"]
        written = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
        assert written == json.loads(json.dumps(report.to_dict()))
        assert "vocab_size" not in written and "preprocess_summary" not in written
        run = read_run(tmp_path)
        assert run.head_keys == ["1"]
        assert len(run.vocab) > 2
        assert run.matrix.shape == (len(run.vocab), 8)
        for fold in range(4):
            assert len(run.load_fold(fold).heads) == 1

    def test_fold_network_dropped_before_next_fold_saves(self, tmp_path,
                                                         monkeypatch):
        # a fold keeps only its report: at 1 process no earlier fold's
        # network is alive when the next one reaches its checkpoint, and the
        # network saved holds no forward cache
        saved = []

        def checked_save(network, directory):
            gc.collect()
            assert [ref() for ref in saved] == [None] * len(saved)
            assert held_caches(network) == []
            saved.append(weakref.ref(network))
            save_checkpoint(network, directory)

        monkeypatch.setattr(training, "save_checkpoint", checked_save)
        self.run_small(tmp_path)
        assert len(saved) == 4

    def test_whole_run_determinism(self, tmp_path):
        a = self.run_small(tmp_path / "a").to_dict()
        b = self.run_small(tmp_path / "b").to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_thread_count_invisible_in_results(self, tmp_path):
        serial = self.run_small(tmp_path / "serial", processes=1).to_dict()
        threaded = self.run_small(tmp_path / "threaded", processes=2).to_dict()
        # the report records what the run is, not how many processes ran it
        assert "threads" not in serial["train_config"]
        assert json.dumps(serial, sort_keys=True) == json.dumps(threaded,
                                                                sort_keys=True)
        # every file byte for byte: run_report.json, each weights.bin, the
        # matrix, vocab, preprocess and curves
        files = run_dir_bytes(tmp_path / "serial")
        assert sum(name.endswith("weights.bin") for name in files) == 4
        assert "run_report.json" in files
        assert files == run_dir_bytes(tmp_path / "threaded")

    def test_two_head_task(self, tmp_path):
        examples, vectors = marker_setup(
            n=24, markers={"1": "zarnok", "3": "vexum"})
        config = TrainConfig(task=3, language="en", folds=3, epochs=1,
                             batch_size=8, seed=1)
        report = run_cv(examples, config, vectors, tmp_path,
                        model_config=small_model_config())
        assert list(report.averaged) == ["1", "3"]
        run = read_run(tmp_path)
        assert run.head_keys == ["1", "3"]
        assert all(len(run.load_fold(fold).heads) == 2 for fold in range(3))
        for fr in report.folds:
            assert set(fr.head_reports) == {"1", "3"}

    def test_missing_head_label_rejected(self, tmp_path):
        examples, vectors = marker_setup(n=12)   # labels carry key "1" only
        config = TrainConfig(task=3, language="en", folds=3, epochs=1, batch_size=4)
        with pytest.raises(DataIntegrityError):
            run_cv(examples, config, vectors, tmp_path,
                   model_config=small_model_config())

    def test_truncated_embedding_is_named(self, tmp_path, monkeypatch):
        # each fold reads embedding.npy through the checked reader: a file
        # cut short is a CorruptionError naming it, not numpy's ValueError
        train_fold = training._train_fold

        def truncating(*args):
            path = tmp_path / "embedding.npy"
            path.write_bytes(path.read_bytes()[:-4])
            return train_fold(*args)

        monkeypatch.setattr(training, "_train_fold", truncating)
        with pytest.raises(CorruptionError, match=r"embedding\.npy: unreadable"):
            self.run_small(tmp_path)

    def test_too_few_examples(self, tmp_path):
        examples, vectors = marker_setup(n=4)
        config = TrainConfig(task=1, language="en", folds=5, epochs=1)
        with pytest.raises(ConfigurationError):
            run_cv(examples, config, vectors, tmp_path,
                   model_config=small_model_config())

    def test_validation_accuracy_trend_on_separable_corpus(self, tmp_path):
        examples = make_marker_corpus(90, seed=5, pool_size=30)
        vectors = make_vector_file(vocabulary_of(examples), dim=16, seed=1)
        config = TrainConfig(task=1, language="en", folds=3, epochs=12,
                             batch_size=8, seed=2, optimizer=AdamConfig(lr=5e-3))
        report = run_cv(examples, config, vectors, tmp_path,
                        model_config=small_model_config(
                            embed_dim=16, conv_filters=8, lstm_units=8))
        for fr in report.folds:
            assert fr.epochs[-1].val_accuracy >= fr.epochs[0].val_accuracy


FOLD_JOBS = """
from abusekit.errors import NumericError

def square(fold):
    return fold * fold

def diverge_at_1(fold):
    if fold == 1:
        raise NumericError(f"fold {fold} diverged")
    return fold
"""


class TestRunFolds:
    @pytest.fixture
    def jobs(self, tmp_path, monkeypatch):
        """Fold jobs in a module that the worker processes import too."""
        (tmp_path / "fold_jobs.py").write_text(FOLD_JOBS, encoding="utf-8")
        monkeypatch.syspath_prepend(str(tmp_path))
        paths = [str(tmp_path), os.environ.get("PYTHONPATH", "")]
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        return importlib.import_module("fold_jobs")

    @pytest.mark.parametrize("processes", [1, 2, 3, 5, 8])
    def test_results_in_fold_order(self, jobs, processes):
        assert run_folds(jobs.square, range(5), processes) == [0, 1, 4, 9, 16]

    def test_no_folds(self, jobs):
        with pytest.raises(ConfigurationError, match="no folds given"):
            run_folds(jobs.square, [], 2)

    @needs_proc_children
    def test_worker_numeric_error_stays_numeric(self, jobs):
        # fold 1 is the worker's share: its exit 3 is a NumericError here,
        # so the command exits 3 as a fold in its own process would
        before = child_pids()
        with pytest.raises(NumericError,
                           match=r"worker for folds \[1\] exited 3: fold 1 diverged"):
            run_folds(jobs.diverge_at_1, range(2), 2)
        assert child_pids() == before


def rigged_network(config, matrix, p1: float):
    """Network whose single head always outputs (1-p1, p1)."""
    net = build(config, matrix)
    head = net.heads[0]
    head.weight.value[...] = 0.0
    head.bias.value[...] = np.array([math.log(1.0 - p1), math.log(p1)],
                                    dtype=net.dtype)
    return net


class TestEnsemble:
    def setup_matrix(self):
        examples, vectors = marker_setup(n=10)
        from abusekit.embeddings import build_matrix
        from abusekit.text import build_vocab
        vocab = build_vocab([ex.text.split() for ex in examples])
        return build_matrix(vocab, vectors, expected_dim=8)[0]

    def test_arithmetic_oracle(self, tmp_path):
        # 3 models at p(1)=0.9 and 2 at p(1)=0.2 average to 0.62: label 1
        config = small_model_config()
        matrix = self.setup_matrix()
        states = [rigged_network(config, matrix, 0.9) for _ in range(3)]
        states += [rigged_network(config, matrix, 0.2) for _ in range(2)]
        sequences = np.random.default_rng(0).integers(
            0, 5, size=(7, config.seq_len), dtype=np.int32)
        labels = ensemble_predict(saved_run(tmp_path, states), range(5), sequences)[0]
        np.testing.assert_array_equal(labels, 1)

    def test_minority_high_confidence_loses(self, tmp_path):
        # 2 models at 0.9 and 3 at 0.2 average to 0.48: label 0
        config = small_model_config()
        matrix = self.setup_matrix()
        states = [rigged_network(config, matrix, 0.9) for _ in range(2)]
        states += [rigged_network(config, matrix, 0.2) for _ in range(3)]
        sequences = np.random.default_rng(0).integers(
            0, 5, size=(4, config.seq_len), dtype=np.int32)
        run = saved_run(tmp_path, states)
        np.testing.assert_array_equal(ensemble_predict(run, range(5), sequences)[0], 0)

    def test_exact_tie_goes_high(self, tmp_path):
        config = small_model_config()
        matrix = self.setup_matrix()
        run = saved_run(tmp_path, [rigged_network(config, matrix, 0.5) for _ in range(2)])
        sequences = np.random.default_rng(1).integers(
            0, 5, size=(3, config.seq_len), dtype=np.int32)
        np.testing.assert_array_equal(ensemble_predict(run, range(2), sequences)[0], 1)

    def test_identical_models_match_single(self, tmp_path):
        config = small_model_config()
        matrix = self.setup_matrix()
        run = saved_run(tmp_path, [build(config, matrix, seed=13) for _ in range(5)])
        sequences = np.random.default_rng(2).integers(
            0, 5, size=(9, config.seq_len), dtype=np.int32)
        ensembled = ensemble_predict(run, range(5), sequences)[0]
        single = ensemble_predict(run, [0], sequences)[0]
        np.testing.assert_array_equal(ensembled, single)

    def test_order_invariance(self, tmp_path):
        config = small_model_config()
        matrix = self.setup_matrix()
        run = saved_run(tmp_path, [rigged_network(config, matrix, p) for p in
                                   (0.9, 0.2, 0.7, 0.4, 0.55)])
        sequences = np.random.default_rng(3).integers(
            0, 5, size=(6, config.seq_len), dtype=np.int32)
        forward = ensemble_predict(run, range(5), sequences)[0]
        backward = ensemble_predict(run, range(4, -1, -1), sequences)[0]
        np.testing.assert_array_equal(forward, backward)

    def test_empty_states_rejected(self, tmp_path):
        run = saved_run(tmp_path, [build(small_model_config(), self.setup_matrix())])
        with pytest.raises(ConfigurationError, match="no folds"):
            ensemble_predict(run, [], np.zeros((1, 12), dtype=np.int32))

    def test_releases_every_fold(self, tmp_path, monkeypatch):
        matrix = self.setup_matrix()
        run = saved_run(tmp_path, [build(small_model_config(), matrix, seed=s)
                                   for s in range(3)])
        loaded, load_fold = [], run.load_fold

        def recording_load_fold(fold):
            loaded.append(load_fold(fold))
            return loaded[-1]

        run.load_fold = recording_load_fold
        monkeypatch.setattr(model, "EVAL_BATCH", 2)
        ensemble_predict(run, range(3), np.zeros((5, 12), dtype=np.int32))
        assert len(loaded) == 3
        for state in loaded:
            assert held_caches(state) == []

    def test_eval_batch_keeps_the_bits(self, monkeypatch):
        # The default shape with shorter posts: every batch size from 8 to
        # 256 gives each post the same logit bits, so EVAL_BATCH is free to
        # change.  Batch 1 may differ (by ~1e-7 here), because BLAS
        # takes another path for a one-row product.
        config = ModelConfig(seq_len=20)
        rng = np.random.default_rng(5)
        matrix = rng.uniform(-0.5, 0.5, (400, config.embed_dim)).astype(np.float32)
        net = Network(config, matrix, 2, rng)
        posts = rng.integers(0, 400, size=(256, config.seq_len), dtype=np.int32)
        monkeypatch.setattr(model, "EVAL_BATCH", 256)
        want = net.forward(posts)
        assert held_caches(net) == []
        for batch_size in (8, 16, 32, 64, 128):
            monkeypatch.setattr(model, "EVAL_BATCH", batch_size)
            for got, expected in zip(net.forward(posts), want):
                assert_same_bits(got, expected)

    @staticmethod
    def padded_posts(n, **config):
        """A default-shape network and n posts of 1 to 30 ids, PAD after."""
        config = ModelConfig(seq_len=30, **config)
        rng = np.random.default_rng(7)
        matrix = rng.uniform(-0.5, 0.5, (400, config.embed_dim)).astype(np.float32)
        posts = rng.integers(2, 400, size=(n, config.seq_len), dtype=np.int32)
        posts[np.arange(config.seq_len) >= rng.integers(1, 31, (n, 1))] = 0
        return Network(config, matrix, 2, rng), posts

    def test_batches_run_longest_first(self):
        # Sorted stably by length, but the last N mod 64 posts keep their
        # input order; a last 1 or 2 join the sorted batch before them,
        # which repeats its first rows up to a whole block of 4.
        posts = np.zeros((131, 5), dtype=np.int32)
        lengths = np.random.default_rng(0).integers(0, 6, 131)
        posts[np.arange(5) < lengths[:, None]] = 3
        for n, sizes, kept in ((131, [64, 64, 3], 3), (130, [64, 66 + 2], 0),
                               (129, [64, 65 + 3], 0), (128, [64, 64], 0),
                               (67, [64, 3], 3), (66, [66 + 2], 0), (2, [2], 0),
                               (7, [7], 7)):
            batches = model._eval_batches(posts[:n])
            assert [len(rows) for rows in batches] == sizes
            rows = np.concatenate(batches)
            assert np.array_equal(rows[:n - kept],
                                  np.argsort(-lengths[:n - kept], kind="stable"))
            assert np.array_equal(rows[n - kept:n], np.arange(n - kept, n))
            assert np.array_equal(rows[n:], batches[-1][:len(rows) - n])

    def test_posts_keep_the_bits_of_plain_batches(self):
        # Each post gets the bits of scoring the input in order, 64 posts at
        # a time, through the plain path: every position embedded and
        # convolved, both LSTM cells over every step of every row.  With no
        # dropout a train-mode trunk is that path.  150 posts end in a batch
        # of 22: its last 2 rows fall past a block of 4 in the heads' product.
        net, posts = self.padded_posts(150, lstm_dropout=0.0, lstm_recurrent_dropout=0.0,
                                       spatial_dropout_rate=0.0, final_dropout_rate=0.0)
        want = [[] for _ in net.heads]
        for start in range(0, 150, model.EVAL_BATCH):
            for out, logits in zip(want, train_forward(
                    net, posts[start:start + model.EVAL_BATCH])):
                out.append(logits)
        for got, expected in zip(net.forward(posts), want):
            assert_same_bits(got, np.concatenate(expected))

    def test_permuted_posts_keep_their_bits(self):
        # A post's logits do not depend on its batch mates or its
        # row, except for the heads' rows past a block of 4 (the test
        # above): with 148 posts the last batch is 20, whole blocks.
        net, posts = self.padded_posts(148)
        order = np.random.default_rng(8).permutation(148)
        for got, want in zip(net.forward(posts[order]), net.forward(posts)):
            assert_same_bits(got, want[order])

    @pytest.mark.parametrize("full_batches", [1, 2])
    def test_post_past_full_batches_keeps_its_bits(self, full_batches):
        # 64k + 1 posts: the last post is scored in a batch of 65 (filled to
        # 68), not alone through BLAS's 1-row path, so every post gets the
        # bits it has in a whole batch.  (Its 1-row features differ in most
        # of their bits, but softmax can round the difference away: at k = 1
        # it shows.)
        n = full_batches * model.EVAL_BATCH + 1
        net, posts = self.padded_posts(n)
        got = fold_probabilities(net, posts)
        for a, b, c in zip(got, fold_probabilities(net, posts[:-1]),
                           fold_probabilities(net, posts[-model.EVAL_BATCH:])):
            assert_same_bits(a[:-1], b)
            assert_same_bits(a[-1], c[-1])

    @pytest.mark.parametrize("num_heads", [1, 2])
    @pytest.mark.parametrize("batch_size", [256, 7, 1])
    def test_matches_batch_outer_reference(self, tmp_path, monkeypatch, num_heads,
                                           batch_size):
        # fold-outer order adds the same p / k terms per post, in fold order
        matrix = self.setup_matrix()
        states = [build(small_model_config(), matrix, num_heads, seed=s)
                  for s in range(5)]
        sequences = np.random.default_rng(4).integers(
            0, matrix.shape[0], size=(30, 12), dtype=np.int32)
        for state in states:   # centre each head's logit gap: mixed labels
            shared = state.trunk_forward(sequences)
            for head in state.heads:
                logits = head.forward(shared)
                head.bias.value[1] -= np.median(logits[:, 1] - logits[:, 0])
        outs = [[] for _ in range(num_heads)]
        for start in range(0, len(sequences), batch_size):
            batch = sequences[start:start + batch_size]
            mean_probs = None
            for state in states:
                probs = fold_probabilities(state, batch)
                if mean_probs is None:
                    mean_probs = [p / len(states) for p in probs]
                else:
                    for h, p in enumerate(probs):
                        mean_probs[h] += p / len(states)
            for h in range(num_heads):
                outs[h].append(labels_from_probs(mean_probs[h]))
        monkeypatch.setattr(model, "EVAL_BATCH", batch_size)
        got = ensemble_predict(saved_run(tmp_path, states), range(5), sequences)
        assert len(got) == num_heads
        for h in range(num_heads):
            want = np.concatenate(outs[h])
            assert 0 < want.sum() < len(want)
            assert np.array_equal(got[h], want)


def report_with_scores(per_fold_preds):
    """RunReport scaffold with handcrafted per-fold validation quality."""
    golds = np.array([0, 0, 1, 1])
    folds = []
    for i, preds in enumerate(per_fold_preds):
        head_report = classification_report(golds, np.array(preds), num_classes=2)
        folds.append(FoldReport(
            fold=i,
            epochs=[EpochRecord(1, 0.5, 0.5, 0.5, head_report.accuracy)],
            head_reports={"1": head_report}))
    return RunReport(folds=folds, averaged={},
                     train_config=TrainConfig(task=1, language="en").to_dict(),
                     model_config={}, embedding_coverage=1.0)


class TestReportHelpers:
    def test_best_fold_index(self):
        report = report_with_scores([[0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 0, 0]])
        assert best_fold_index(report.to_dict()) == 1   # the perfect fold

    def test_write_report_round_trips(self, tmp_path):
        report = report_with_scores([[0, 0, 1, 1]])
        path = tmp_path / "report.json"
        write_report(report, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["train_config"]["task"] == 1
        assert data["folds"][0]["head_reports"]["1"]["accuracy"] == 1.0

    def test_curves_row_count_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        folds = []
        for f in range(5):
            epochs = [EpochRecord(e + 1, rng.random(), rng.random(),
                                  rng.random(), rng.random())
                      for e in range(5)]
            folds.append(FoldReport(fold=f, epochs=epochs, head_reports={}))
        report = RunReport(folds=folds, averaged={}, train_config={}, model_config={},
                           embedding_coverage=1.0)
        csv_path = tmp_path / "curves.csv"
        svg_path = tmp_path / "curves.svg"
        emit_curves(report, csv_path, svg_path)

        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "fold,epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 1 + 25

        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 25
        flat = [(f.fold, r.epoch, r.train_loss, r.train_accuracy,
                 r.val_loss, r.val_accuracy)
                for f in folds for r in f.epochs]
        parsed = [(int(fold), int(epoch), *map(float, values))
                  for fold, epoch, *values in rows]
        assert parsed == flat   # repr floats survive exactly

        tree = ET.fromstring(svg_path.read_text(encoding="utf-8"))
        assert tree.tag.endswith("svg")

    def test_curves_svg_bytes_with_markup_in_title(self, tmp_path, monkeypatch):
        # a title holding & < > is escaped as text (quotes stay); the whole
        # file is pinned by its digest, so any change to the output shows
        rng = np.random.default_rng(4)
        folds = [FoldReport(fold=f, head_reports={},
                            epochs=[EpochRecord(e + 1, rng.random(), rng.random(),
                                                rng.random(), rng.random())
                                    for e in range(3)])
                 for f in range(2)]
        report = RunReport(folds=folds, averaged={}, train_config={}, model_config={},
                           embedding_coverage=1.0)
        panel = training._panel
        monkeypatch.setattr(training, "_panel",
                            lambda title, *rest: panel(title + ' & <"x">', *rest))
        svg_path = tmp_path / "curves.svg"
        emit_curves(report, tmp_path / "curves.csv", svg_path)
        svg = svg_path.read_bytes()
        assert b'loss (dashed = train) &amp; &lt;"x"&gt;</text>' in svg
        assert hashlib.sha256(svg).hexdigest() == \
            "1326b68a61298ff3b6661510467394188259266aab2bad9df4db345ad86b6067"
