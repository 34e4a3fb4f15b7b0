"""End-to-end command tests: prepare -> train -> predict -> evaluate.

Everything runs through main(argv) on a small synthetic corpus, so the
full pipeline stays fast enough for the default suite.  The tests that use
child_env() start a child interpreter, and `--threads 2` starts workers.
"""

import contextlib
import errno
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import child_pids, needs_proc_children, run_dir_bytes

import abusekit
from abusekit import cli, corpus, training
from abusekit.cli import _read_id_csv, main
from abusekit.corpus import read_dataset
from abusekit.embeddings import (WordVectorFile, parse_vector_file, write_cache,
                                 write_vector_file)
from abusekit.errors import NumericError
from abusekit.layers import Conv1D
from abusekit.model import ModelConfig, load_checkpoint, save_checkpoint
from abusekit.synthetic import (make_marker_corpus, make_vector_file,
                                vocabulary_of, write_gold_csv, write_test_csv,
                                write_uli_csv)
from abusekit.text import PreprocessConfig
from abusekit.training import FORMAT_VERSION, best_fold_index, read_config

MODEL_SECTION = {
    "seq_len": 12, "embed_dim": 16, "conv_filters": 8, "conv_kernel": 2,
    "lstm_units": 8, "dense_units": 8, "lstm_dropout": 0.0,
    "lstm_recurrent_dropout": 0.0, "spatial_dropout_rate": 0.0,
    "final_dropout_rate": 0.0,
}


def child_env(**extra):
    """The environment for a child interpreter that imports this abusekit."""
    src = str(Path(abusekit.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def write_config(path, train_jsonl, embeddings, out_dir=None, preprocess=None,
                 **train_overrides):
    train = {"task": 1, "language": "en", "folds": 3, "epochs": 8,
             "batch_size": 8, "seed": 5, "optimizer": {"lr": 5e-3}}
    train.update(train_overrides)
    config = {
        "data": {"train": str(train_jsonl), "embeddings": str(embeddings)},
        "model": dict(MODEL_SECTION),
        "train": train,
    }
    if out_dir is not None:
        config["output_dir"] = str(out_dir)
    if preprocess is not None:
        config["preprocess"] = preprocess
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def filling(real_atomic_write, writes):
    """An atomic_write whose file raises ENOSPC after the given writes."""

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes > writes:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    @contextlib.contextmanager
    def atomic_write(path, mode="w"):
        with real_atomic_write(path, mode) as fh:
            yield FullDisk(fh)
    return atomic_write


def record_processes(monkeypatch):
    """The process count of each training.run_folds call, in call order."""
    counts, real = [], training.run_folds

    def run_folds(job, folds, processes=1):
        counts.append(processes)
        return real(job, folds, processes)

    monkeypatch.setattr(training, "run_folds", run_folds)
    return counts


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full prepare->train->predict run shared by the assertion tests."""
    saved_env = os.environ.pop("ABUSE_DETECT_THREADS", None)
    root = tmp_path_factory.mktemp("cli")
    examples = make_marker_corpus(80, seed=3, pool_size=30)
    uli_csv = root / "uli.csv"
    write_uli_csv(uli_csv, examples, language="en", drop_first_n=2)

    vectors = make_vector_file(vocabulary_of(examples), dim=16, seed=1)
    emb_path = root / "vectors.txt"
    write_vector_file(vectors, emb_path)

    prep_dir = root / "prep"
    rc = main(["prepare", "--input", str(uli_csv), "--language", "en",
               "--task", "1", "--out", str(prep_dir), "--seed", "0"])
    assert rc == 0

    config_path = write_config(root / "run.json", prep_dir / "train.jsonl",
                               emb_path, out_dir=root / "run")
    rc = main(["train", "--config", str(config_path)])
    assert rc == 0

    test_examples = read_dataset(prep_dir / "test.jsonl")
    test_csv = root / "test_posts.csv"
    ids = write_test_csv(test_csv, test_examples)
    gold_csv = root / "gold.csv"
    write_gold_csv(gold_csv, ids, [ex.labels["1"] for ex in test_examples])

    sub_csv = root / "submission.csv"
    rc = main(["predict", "--run-dir", str(root / "run"),
               "--input", str(test_csv), "--out", str(sub_csv)])
    assert rc == 0

    yield {
        "root": root, "examples": examples, "uli_csv": uli_csv,
        "emb_path": emb_path, "prep_dir": prep_dir, "config": config_path,
        "run_dir": root / "run", "test_csv": test_csv, "gold_csv": gold_csv,
        "sub_csv": sub_csv, "test_count": len(test_examples),
    }
    if saved_env is not None:
        os.environ["ABUSE_DETECT_THREADS"] = saved_env


class TestPrepare:
    def test_split_files_and_manifest(self, pipeline):
        prep = pipeline["prep_dir"]
        train = read_dataset(prep / "train.jsonl")
        test = read_dataset(prep / "test.jsonl")
        manifest = json.loads((prep / "prepare.json").read_text(encoding="utf-8"))
        assert manifest["posts_parsed"] == 80
        assert manifest["posts_dropped"] == 2
        assert manifest["posts_kept"] == 78
        assert len(train) == manifest["train_count"] == round(78 * 0.8)
        assert len(test) == manifest["test_count"] == 78 - round(78 * 0.8)
        assert all(set(ex.labels) == {"1"} for ex in train + test)

    def test_no_rows_for_language(self, pipeline, tmp_path, capsys):
        rc = main(["prepare", "--input", str(pipeline["uli_csv"]),
                   "--language", "ta", "--task", "1",
                   "--out", str(tmp_path / "none")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_external_merged_into_train_only(self, pipeline, tmp_path):
        macd = tmp_path / "macd.csv"
        # macd polarity is inverted on load: 0 means abusive
        macd.write_text("text,label\nfoo bar,0\nbaz qux,1\n", encoding="utf-8")
        out = tmp_path / "prep_ext"
        rc = main(["prepare", "--input", str(pipeline["uli_csv"]),
                   "--language", "en", "--task", "2",
                   "--external", f"macd={macd}", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "prepare.json").read_text(encoding="utf-8"))
        assert manifest["external_counts"] == {"macd": 2}
        train = read_dataset(out / "train.jsonl")
        test = read_dataset(out / "test.jsonl")
        merged = [ex for ex in train if ex.source == "macd"]
        assert len(merged) == 2
        assert {ex.text for ex in merged} == {"foo bar", "baz qux"}
        assert {ex.labels["1"] for ex in merged if ex.text == "foo bar"} == {1}
        assert all(ex.source != "macd" for ex in test)
        assert len(train) == round(78 * 0.8) + 2

    def test_failed_record_write_leaves_nothing(self, pipeline, tmp_path, monkeypatch,
                                                capsys):
        # the disk fills on train.jsonl's third record: exit 2, and neither
        # a partial train.jsonl, a temporary file nor prepare.json is left
        monkeypatch.setattr(corpus, "atomic_write", filling(corpus.atomic_write, 2))
        out = tmp_path / "prep"
        rc = main(["prepare", "--input", str(pipeline["uli_csv"]), "--language", "en",
                   "--task", "1", "--out", str(out)])
        assert rc == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_failed_rerun_drops_the_manifest(self, pipeline, tmp_path, monkeypatch,
                                             capsys):
        # a rerun into a prepared dir whose test.jsonl write fails leaves the
        # new train.jsonl beside the old test.jsonl: no prepare.json may
        # vouch for that mix
        out = tmp_path / "prep"
        argv = ["prepare", "--input", str(pipeline["uli_csv"]), "--language", "en",
                "--task", "1", "--out", str(out)]
        assert main(argv + ["--seed", "0"]) == 0
        real_atomic_write = corpus.atomic_write

        def failing_test_write(path, mode="w"):
            if os.path.basename(path) == "test.jsonl":
                return filling(real_atomic_write, 0)(path, mode)
            return real_atomic_write(path, mode)

        monkeypatch.setattr(corpus, "atomic_write", failing_test_write)
        capsys.readouterr()
        assert main(argv + ["--seed", "1"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["test.jsonl", "train.jsonl"]

    def test_bad_external_spec(self, pipeline, tmp_path, capsys):
        rc = main(["prepare", "--input", str(pipeline["uli_csv"]),
                   "--language", "en", "--task", "1",
                   "--external", "nonsense", "--out", str(tmp_path / "x")])
        assert rc == 2
        capsys.readouterr()


class TestTrain:
    def test_artifacts_written(self, pipeline):
        # the README's "Run directory" list, exactly
        run = pipeline["run_dir"]
        assert sorted(os.listdir(run)) == [
            "curves.csv", "curves.svg", "embedding.npy", "fold0", "fold1",
            "fold2", "preprocess.json", "run_report.json", "vocab.txt"]
        matrix = np.load(run / "embedding.npy", allow_pickle=False)
        assert matrix.dtype == np.dtype("<f4") and matrix.shape[1] == 16
        report = json.loads((run / "run_report.json").read_text(encoding="utf-8"))
        config = read_config(ModelConfig, report["model_config"], "model_config",
                             True)
        for fold in range(3):
            fold_dir = run / f"fold{fold}"
            assert os.listdir(fold_dir) == ["weights.bin"]
            params = load_checkpoint(fold_dir, config, 1, matrix).parameters()
            assert os.path.getsize(fold_dir / "weights.bin") == \
                4 * sum(p.value.size for p in params)

    def test_report_contents(self, pipeline):
        report = json.loads(
            (pipeline["run_dir"] / "run_report.json").read_text(encoding="utf-8"))
        assert report["format_version"] == FORMAT_VERSION == 7
        # each fact once: vocab.txt, preprocess.json and train_config are
        # not restated, and model_config holds exactly the model's fields
        assert "vocab_size" not in report and "preprocess_summary" not in report
        assert not {"task", "language", "head_keys"} & set(report)
        assert sorted(report["model_config"]) == sorted(ModelConfig().to_dict())
        assert len(report["model_config"]) == 12
        assert report["train_config"]["task"] == 1
        assert report["train_config"]["batch_size"] == 8
        # how the run ran is not what it is: no process count
        assert "threads" not in report["train_config"]
        assert report["train_config"]["epochs"] == 8
        assert len(report["folds"]) == 3
        assert all(len(f["epochs"]) == 8 for f in report["folds"])
        assert report["embedding_coverage"] == 1.0
        assert report["train_config"]["ensemble"] == "average"

    def test_curves_rows(self, pipeline):
        lines = (pipeline["run_dir"] / "curves.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3 * 8

    def test_summary_printed(self, pipeline, tmp_path, capsys):
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2)
        rc = main(["train", "--config", str(config),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "task 1 (en)" in out
        assert "macro_f1" in out and " avg " in out

    def test_seed_override_determinism(self, pipeline, tmp_path):
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=2, folds=2)
        reports = []
        for name in ("a", "b"):
            rc = main(["train", "--config", str(config), "--seed", "7",
                       "--out-dir", str(tmp_path / name)])
            assert rc == 0
            reports.append(
                (tmp_path / name / "run_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_unknown_config_key(self, pipeline, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        data = json.loads(pipeline["config"].read_text(encoding="utf-8"))
        data["surprise"] = True
        config_path.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["train", "--config", str(config_path),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_num_heads_rejected(self, pipeline, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        data = json.loads(pipeline["config"].read_text(encoding="utf-8"))
        data["model"]["num_heads"] = 2
        config_path.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["train", "--config", str(config_path),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "num_heads" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    BAD_VALUES = {   # case: (dotted key, value, what the message must hold)
        "folds-string": ("train.folds", "2", "config.train.folds"),
        "batch-size-float": ("train.batch_size", 2.5, "config.train.batch_size"),
        "epochs-bool": ("train.epochs", True, "config.train.epochs"),
        "seed-string": ("train.seed", "a", "config.train.seed"),
        "seed-negative": ("train.seed", -1, "seed must not be negative"),
        "seq-len-string": ("model.seq_len", "12", "config.model.seq_len"),
        "conv-activation-gelu": ("model.conv_activation", "gelu",
                                 "conv_activation='gelu' is not one of"),
        "dense-activation-gelu": ("model.dense_activation", "gelu",
                                  "dense_activation='gelu' is not one of"),
        "model-list": ("model", [], "config.model"),
        # the run's seed is train.seed; every head is binary
        "model-seed": ("model.seed", 0, "unknown keys in config.model: ['seed']"),
        "model-classes-per-head": ("model.classes_per_head", 2,
                                   "unknown keys in config.model: ['classes_per_head']"),
        # only train.threads is let through, with a note (test below)
        "model-threads": ("model.threads", 1, "unknown keys in config.model: ['threads']"),
        "train-thread": ("train.thread", 1, "unknown keys in config.train: ['thread']"),
        "lr-string": ("train.optimizer.lr", "x", "config.train.optimizer.lr"),
        "lr-negative": ("train.optimizer.lr", -1.0, "lr=-1.0"),
        "beta1-one": ("train.optimizer.beta1", 1.0, "beta1=1.0 outside [0, 1)"),
        "stopword-files-string": ("preprocess.stopword_files", "x",
                                  "config.preprocess.stopword_files"),
        "strip-urls-string": ("preprocess.strip_urls", "no",
                              "config.preprocess.strip_urls"),
        "output-dir-int": ("output_dir", 5, "config.output_dir"),
        "train-path-int": ("data.train", 0, "config.data.train"),
    }

    @pytest.mark.parametrize("case", list(BAD_VALUES))
    def test_bad_value_rejected(self, pipeline, tmp_path, capsys, case):
        # every value is checked for its type and range before any work
        key, value, message = self.BAD_VALUES[case]
        data = json.loads(write_config(
            tmp_path / "c.json", pipeline["prep_dir"] / "train.jsonl",
            pipeline["emb_path"], out_dir=tmp_path / "run", epochs=1,
            folds=2).read_text(encoding="utf-8"))
        *sections, name = key.split(".")
        target = data
        for section in sections:
            target = target.setdefault(section, {})
        target[name] = value
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["train", "--config", str(config_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_emoji_file_alone_keeps_packaged_stopwords(self, pipeline, tmp_path):
        # each named file replaces only its packaged counterpart
        ranges = tmp_path / "emoji.txt"
        ranges.write_text("1F600-1F64F\n", encoding="utf-8")
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2,
                              preprocess={"emoji_range_file": str(ranges)})
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(run)]) == 0
        saved = json.loads((run / "preprocess.json").read_text(encoding="utf-8"))
        packaged = PreprocessConfig.from_files().to_dict()
        assert saved["stopwords"] == packaged["stopwords"]
        assert set(saved["stopwords"]) == {"en", "hi", "ta"}
        assert saved["emoji_ranges"] == [[0x1F600, 0x1F64F]]

    def test_stopword_file_replaces_only_its_language(self, pipeline, tmp_path):
        words = tmp_path / "en.txt"
        words.write_text("the\nzzz\n", encoding="utf-8")
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2,
                              preprocess={"stopword_files": {"en": str(words)}})
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(run)]) == 0
        saved = json.loads((run / "preprocess.json").read_text(encoding="utf-8"))
        packaged = PreprocessConfig.from_files().to_dict()
        assert saved["stopwords"]["en"] == ["the", "zzz"]
        for lang in ("hi", "ta"):
            assert saved["stopwords"][lang] == packaged["stopwords"][lang]
        assert saved["emoji_ranges"] == packaged["emoji_ranges"]

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.json"),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        capsys.readouterr()

    def test_env_thread_fallback(self, pipeline, tmp_path, monkeypatch):
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2)
        counts = record_processes(monkeypatch)
        monkeypatch.setenv("ABUSE_DETECT_THREADS", "2")
        rc = main(["train", "--config", str(config),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 0
        assert counts == [2]
        report = json.loads(
            (tmp_path / "run" / "run_report.json").read_text(encoding="utf-8"))
        assert "threads" not in report["train_config"]

    @pytest.mark.parametrize("flags, env, count", [
        (["--threads", "0"], None, 0), (["--threads", "-1"], "2", -1), ([], "0", 0)])
    def test_bad_thread_count_exits_2(self, pipeline, tmp_path, monkeypatch, capsys,
                                      flags, env, count):
        # checked before the config, the data or the vectors are read
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2)
        if env is None:
            monkeypatch.delenv("ABUSE_DETECT_THREADS", raising=False)
        else:
            monkeypatch.setenv("ABUSE_DETECT_THREADS", env)
        rc = main(["train", "--config", str(config),
                   "--out-dir", str(tmp_path / "run"), *flags])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: threads must be positive, got {count}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags, env, count", [
        ([], None, 1), ([], "2", 2), (["--threads", "2"], "3", 2)])
    def test_config_threads_key_is_noted_and_not_read(self, pipeline, tmp_path,
                                                      monkeypatch, capsys, flags,
                                                      env, count):
        # a run config may still name train.threads: it trains at the
        # --threads / ABUSE_DETECT_THREADS / 1 count, with one note on
        # stderr, into the run dir a config without the key gives
        train_jsonl = pipeline["prep_dir"] / "train.jsonl"
        noted = write_config(tmp_path / "noted.json", train_jsonl,
                             pipeline["emb_path"], epochs=1, folds=2, threads=4)
        plain = write_config(tmp_path / "plain.json", train_jsonl,
                             pipeline["emb_path"], epochs=1, folds=2)
        if env is None:
            monkeypatch.delenv("ABUSE_DETECT_THREADS", raising=False)
        else:
            monkeypatch.setenv("ABUSE_DETECT_THREADS", env)
        counts = record_processes(monkeypatch)
        assert main(["train", "--config", str(noted),
                     "--out-dir", str(tmp_path / "noted"), *flags]) == 0
        assert counts == [count]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "train.threads is no longer read" in err[0]
        assert "--threads" in err[0] and "ABUSE_DETECT_THREADS" in err[0]
        assert main(["train", "--config", str(plain),
                     "--out-dir", str(tmp_path / "plain"), "--threads", "1"]) == 0
        assert capsys.readouterr().err == ""
        assert run_dir_bytes(tmp_path / "noted") == run_dir_bytes(tmp_path / "plain")

    def test_env_thread_garbage(self, pipeline, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2)
        monkeypatch.setenv("ABUSE_DETECT_THREADS", "many")
        rc = main(["train", "--config", str(config),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "ABUSE_DETECT_THREADS" in capsys.readouterr().err

    def test_interrupted_retrain_leaves_no_report(self, pipeline, tmp_path, capsys,
                                                  monkeypatch):
        # the old report must not vouch for a mix of old and new weights
        run = tmp_path / "run"
        shutil.copytree(pipeline["run_dir"], run)

        def fail_on_fold1(network, directory):
            if os.path.basename(directory) == "fold1":
                raise OSError("disk full")
            save_checkpoint(network, directory)

        monkeypatch.setattr("abusekit.training.save_checkpoint", fail_on_fold1)
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1)
        rc = main(["train", "--config", str(config), "--out-dir", str(run)])
        assert rc == 2 and "disk full" in capsys.readouterr().err
        assert not (run / "run_report.json").exists()
        fold0 = (run / "fold0" / "weights.bin").read_bytes()
        assert fold0 != (pipeline["run_dir"] / "fold0" / "weights.bin").read_bytes()
        rc = main(["predict", "--run-dir", str(run),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "missing" in err and "run_report.json" in err

    def test_failed_fold_leaves_finished_folds_and_no_report(
            self, pipeline, tmp_path, capsys, monkeypatch):
        # folds are written as they end: fold 0 survives fold 1's failure
        # byte for byte, and the old run's report is gone
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1)
        clean = tmp_path / "clean"
        assert main(["train", "--config", str(config), "--out-dir", str(clean)]) == 0
        run = tmp_path / "run"
        shutil.copytree(pipeline["run_dir"], run)
        train_fold = training._train_fold

        def fail_fold1(*args):
            if args[-1] == 1:
                raise NumericError("fold 1 diverged")
            return train_fold(*args)

        monkeypatch.setattr(training, "_train_fold", fail_fold1)
        rc = main(["train", "--config", str(config), "--out-dir", str(run)])
        assert rc == 3 and "fold 1 diverged" in capsys.readouterr().err
        assert not (run / "run_report.json").exists()
        for name in ("fold0/weights.bin", "embedding.npy", "vocab.txt",
                     "preprocess.json"):
            assert (run / name).read_bytes() == (clean / name).read_bytes()
        rc = main(["predict", "--run-dir", str(run),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "run_report.json" in capsys.readouterr().err

    def test_vector_file_freed_before_the_first_fold(self, pipeline, tmp_path,
                                                     monkeypatch):
        # only build_matrix reads the parsed vector file, which can be many
        # times the matrix: neither cmd_train nor run_cv holds it after that
        refs, alive = [], []
        load_vectors, train_fold = training.load_vectors, training._train_fold

        def load(path):
            vectors = load_vectors(path)
            refs.append(weakref.ref(vectors))
            return vectors

        def fold(*args):
            alive.append(refs[0]() is not None)
            return train_fold(*args)

        monkeypatch.setattr(training, "load_vectors", load)
        monkeypatch.setattr(training, "_train_fold", fold)
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1)
        assert main(["train", "--config", str(config),
                     "--out-dir", str(tmp_path / "run")]) == 0
        assert alive == [False] * 3

    def test_embeddings_cache_key_rejected(self, pipeline, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        data = json.loads(pipeline["config"].read_text(encoding="utf-8"))
        data["data"]["embeddings_cache"] = str(tmp_path / "vectors.cache")
        config_path.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["train", "--config", str(config_path),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown keys" in err and "embeddings_cache" in err

    def test_cache_file_trains_like_its_text_file(self, pipeline, tmp_path):
        # embeddings may name a write_cache file: its magic is sniffed
        cache = tmp_path / "vectors.cache"
        write_cache(parse_vector_file(pipeline["emb_path"]), cache)
        train_jsonl = pipeline["prep_dir"] / "train.jsonl"
        for name, vectors in (("text", pipeline["emb_path"]), ("cache", cache)):
            config = write_config(tmp_path / f"{name}.json", train_jsonl,
                                  vectors, epochs=1, folds=2)
            rc = main(["train", "--config", str(config),
                       "--out-dir", str(tmp_path / name)])
            assert rc == 0
        for name in ("embedding.npy", "fold0/weights.bin", "fold1/weights.bin"):
            assert (tmp_path / "cache" / name).read_bytes() == \
                (tmp_path / "text" / name).read_bytes()

    def test_non_finite_cache_trains_nothing(self, pipeline, tmp_path, capsys):
        # the vectors are read before the run directory is made
        vectors = parse_vector_file(pipeline["emb_path"])
        word = next(iter(vectors.entries))
        vectors.entries[word] = np.full(vectors.dimension, np.nan, np.float32)
        cache = tmp_path / "vectors.cache"
        write_cache(vectors, cache)
        config = write_config(tmp_path / "c.json", pipeline["prep_dir"] / "train.jsonl",
                              cache, epochs=1, folds=2)
        rc = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cache}: damaged vector cache: entry 0 ({word!r}) "
            "holds a non-finite vector component"]
        assert not (tmp_path / "run").exists()

    def test_retrain_with_fewer_folds_drops_old_folds(self, pipeline, tmp_path):
        # fold2/ and fold3/ of the 4-fold run belong to no run once the
        # 2-fold retrain lands, so they must not stay beside it
        train_jsonl = pipeline["prep_dir"] / "train.jsonl"
        four = write_config(tmp_path / "four.json", train_jsonl,
                            pipeline["emb_path"], epochs=1, folds=4)
        two = write_config(tmp_path / "two.json", train_jsonl,
                           pipeline["emb_path"], epochs=1, folds=2)
        for config, name in ((four, "run"), (two, "run"), (two, "fresh")):
            rc = main(["train", "--config", str(config),
                       "--out-dir", str(tmp_path / name)])
            assert rc == 0
        assert sorted(os.listdir(tmp_path / "run")) == [
            "curves.csv", "curves.svg", "embedding.npy", "fold0", "fold1",
            "preprocess.json", "run_report.json", "vocab.txt"]
        submissions = []
        for name in ("run", "fresh"):
            out = tmp_path / f"{name}.csv"
            rc = main(["predict", "--run-dir", str(tmp_path / name),
                       "--input", str(pipeline["test_csv"]), "--out", str(out)])
            assert rc == 0
            submissions.append(out.read_bytes())
        assert submissions[0] == submissions[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_numeric_blowup_exits_3(self, pipeline, tmp_path, capsys, threads):
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=2, folds=2,
                              optimizer={"lr": 1e25})
        with np.errstate(all="ignore"):
            rc = main(["train", "--config", str(config),
                       "--out-dir", str(tmp_path / "run"), "--threads", threads])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "run" / "run_report.json").exists()

    @needs_proc_children
    def test_no_process_outlives_train(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.delenv("ABUSE_DETECT_THREADS", raising=False)
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2)
        before = child_pids()
        rc = main(["train", "--config", str(config),
                   "--out-dir", str(tmp_path / "run"), "--threads", "2"])
        assert rc == 0
        assert child_pids() == before

    @needs_proc_children
    def test_failed_worker_fold_exits_2_and_leaves_no_process(
            self, pipeline, tmp_path, capsys, monkeypatch):
        # at 2 processes the worker trains fold 1, whose directory cannot
        # be made: a file stands in its place
        monkeypatch.delenv("ABUSE_DETECT_THREADS", raising=False)
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2)
        run = tmp_path / "run"
        run.mkdir()
        (run / "fold1").write_text("not a directory", encoding="utf-8")
        before = child_pids()
        rc = main(["train", "--config", str(config), "--out-dir", str(run),
                   "--threads", "2"])
        assert rc == 2
        assert "worker for folds [1] exited 2" in capsys.readouterr().err
        assert child_pids() == before
        assert (run / "fold0" / "weights.bin").exists()
        assert not (run / "run_report.json").exists()

    def test_non_finite_gradient_exits_3(self, pipeline, tmp_path, capsys,
                                         monkeypatch):
        # the loss stays finite; only one parameter's gradient goes bad
        backward = Conv1D.backward

        def poisoned(self, grad_out, **kwargs):
            dx = backward(self, grad_out, **kwargs)
            self.kernels.grad[0, 0, 0] = np.nan
            return dx

        monkeypatch.setattr(Conv1D, "backward", poisoned)
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2)
        rc = main(["train", "--config", str(config),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "conv.kernels" in err


class TestPredict:
    def test_submission_format_exact(self, pipeline):
        blob = pipeline["sub_csv"].read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")
        lines = blob.decode("utf-8").splitlines()
        assert lines[0] == "id,label"
        assert len(lines) == 1 + pipeline["test_count"]
        for line in lines[1:]:
            post_id, label = line.split(",")
            assert label in ("0", "1")
            int(post_id)

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "again.csv"
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(pipeline["test_csv"]), "--out", str(again)])
        assert rc == 0
        assert again.read_bytes() == pipeline["sub_csv"].read_bytes()

    def test_best_fold_mode(self, pipeline, tmp_path):
        best = tmp_path / "best.csv"
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(best), "--ensemble", "best"])
        assert rc == 0
        lines = best.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,label"
        assert len(lines) == 1 + pipeline["test_count"]

        # only the chosen fold is loaded: the others may be gone
        report = json.loads(
            (pipeline["run_dir"] / "run_report.json").read_text(encoding="utf-8"))
        chosen = best_fold_index(report)
        clone = tmp_path / "run_clone"
        shutil.copytree(pipeline["run_dir"], clone)
        for fold in range(3):
            if fold != chosen:
                shutil.rmtree(clone / f"fold{fold}")
        again = tmp_path / "again.csv"
        rc = main(["predict", "--run-dir", str(clone),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(again), "--ensemble", "best"])
        assert rc == 0
        assert again.read_bytes() == best.read_bytes()

    def test_missing_run_dir(self, pipeline, tmp_path, capsys):
        rc = main(["predict", "--run-dir", str(tmp_path / "ghost"),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        capsys.readouterr()

    def test_missing_fold_checkpoint(self, pipeline, tmp_path, capsys):
        clone = tmp_path / "run_clone"
        shutil.copytree(pipeline["run_dir"], clone)
        shutil.rmtree(clone / "fold1")
        rc = main(["predict", "--run-dir", str(clone),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "fold1" in capsys.readouterr().err

    def test_old_checkpoint_version(self, pipeline, tmp_path, capsys):
        clone = tmp_path / "run_clone"
        shutil.copytree(pipeline["run_dir"], clone)
        report_path = clone / "run_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["format_version"] = 6
        report_path.write_text(json.dumps(report), encoding="utf-8")
        rc = main(["predict", "--run-dir", str(clone),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "run_report.json" in err
        assert "format_version 6" in err and "reads 7" in err

    @pytest.mark.parametrize("case", ["missing", "truncated", "float64", "1-D",
                                      "row-count", "width", "unbalanced-header"])
    def test_damaged_embedding(self, pipeline, tmp_path, capsys, case):
        clone = tmp_path / "run_clone"
        shutil.copytree(pipeline["run_dir"], clone)
        path = clone / "embedding.npy"
        matrix = np.load(path, allow_pickle=False)
        if case == "missing":
            path.unlink()
        elif case == "truncated":
            path.write_bytes(path.read_bytes()[:-4])
        elif case == "float64":
            np.save(path, matrix.astype(np.float64))
        elif case == "1-D":
            np.save(path, matrix.ravel())
        elif case == "unbalanced-header":   # numpy re-tokenizes it: TokenError
            path.write_bytes(path.read_bytes().replace(b"), }", b"(, }", 1))
        elif case == "row-count":
            vocab = clone / "vocab.txt"
            vocab.write_text("".join(vocab.read_text(encoding="utf-8")
                                     .splitlines(keepends=True)[:-1]),
                             encoding="utf-8")
        else:
            np.save(path, np.ascontiguousarray(matrix[:, :8]))
        rc = main(["predict", "--run-dir", str(clone),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "embedding.npy" in err
        if case == "width":   # narrower than the report's embed_dim
            assert "embed_dim of run_report.json" in err

    @pytest.mark.parametrize("named", ["fold0/weights.bin", "embedding.npy"])
    def test_non_finite_value(self, pipeline, tmp_path, capsys, named):
        # training exits 3 on a non-finite loss or gradient, so a run dir
        # that holds a NaN or an infinity is damaged, though its sizes fit
        clone = tmp_path / "run_clone"
        shutil.copytree(pipeline["run_dir"], clone)
        path = clone / named
        if named == "embedding.npy":
            matrix = np.load(path, allow_pickle=False)
            matrix[2, 0] = np.inf
            np.save(path, matrix)
        else:
            values = np.fromfile(path, dtype="<f4")
            values[len(values) // 2] = np.nan
            values.tofile(path)
        out = tmp_path / "out.csv"
        rc = main(["predict", "--run-dir", str(clone),
                   "--input", str(pipeline["test_csv"]), "--out", str(out)])
        assert rc == 2
        assert f"{named} holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_header_only_input(self, pipeline, tmp_path, threads):
        # no posts: every fold scores an empty batch, and the submission
        # is its header alone
        posts = tmp_path / "posts.csv"
        posts.write_text("id,text\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(posts), "--out", str(out), "--threads", threads])
        assert rc == 0
        assert out.read_bytes() == b"id,label\n"

    def test_run_ensemble_setting_is_default(self, pipeline, tmp_path):
        config = write_config(tmp_path / "c.json",
                              pipeline["prep_dir"] / "train.jsonl",
                              pipeline["emb_path"], epochs=1, folds=2,
                              ensemble="best")
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(run)]) == 0
        outputs = []
        for flags in ([], ["--ensemble", "best"]):
            out = tmp_path / f"sub{len(outputs)}.csv"
            rc = main(["predict", "--run-dir", str(run),
                       "--input", str(pipeline["test_csv"]), "--out", str(out)]
                      + flags)
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    DAMAGED_RUN_FILES = {   # case: (file, expected message)
        "bare-object": ("run_report.json", "missing key 'model_config'"),
        "no-model-config": ("run_report.json", "missing key 'model_config'"),
        "no-ensemble": ("run_report.json", "missing key 'ensemble'"),
        "median-ensemble": ("run_report.json", "ensemble must be 'average' or 'best'"),
        "no-macro-f1": ("run_report.json", "missing key 'macro_f1'"),
        # each passes the weights.bin size check, so only the key check
        # stops a default from standing in for the trained value
        "no-seq-len": ("run_report.json", "missing key 'seq_len'"),
        "no-conv-activation": ("run_report.json", "missing key 'conv_activation'"),
        "no-lstm-dropout": ("run_report.json", "missing key 'lstm_dropout'"),
        "gelu-conv-activation": ("run_report.json", "conv_activation='gelu' is not one of"),
        "list": ("run_report.json", "not a JSON object"),
        "garbled": ("run_report.json", "invalid JSON"),
        "no-emoji-ranges": ("preprocess.json", "missing key 'emoji_ranges'"),
        "strip-urls-string": ("preprocess.json", "preprocess.strip_urls"),
        "preprocess-unknown-key": ("preprocess.json", "unknown keys"),
        "train-config-unknown-key": ("run_report.json", "unknown keys"),
    }

    @pytest.mark.parametrize("case", list(DAMAGED_RUN_FILES))
    def test_partial_manifest(self, pipeline, tmp_path, capsys, case):
        # run_report.json is the run's manifest; preprocess.json is read
        # through the same checked reader
        named, message = self.DAMAGED_RUN_FILES[case]
        clone = tmp_path / "run_clone"
        shutil.copytree(pipeline["run_dir"], clone)
        path = clone / named
        data = json.loads(path.read_text(encoding="utf-8"))
        if case == "bare-object":
            data = {"format_version": FORMAT_VERSION}
        elif case == "no-model-config":
            del data["model_config"]
        elif case == "no-ensemble":
            del data["train_config"]["ensemble"]
        elif case == "median-ensemble":
            data["train_config"]["ensemble"] = "median"
        elif case == "no-macro-f1":
            del data["folds"][1]["head_reports"]["1"]["macro_f1"]
        elif case in ("no-seq-len", "no-conv-activation", "no-lstm-dropout"):
            del data["model_config"][case[3:].replace("-", "_")]
        elif case == "gelu-conv-activation":
            data["model_config"]["conv_activation"] = "gelu"
        elif case == "list":
            data = [data]
        elif case == "no-emoji-ranges":
            del data["emoji_ranges"]
        elif case == "strip-urls-string":
            data["strip_urls"] = "no"
        elif case == "preprocess-unknown-key":
            data["bogus"] = 1
        elif case == "train-config-unknown-key":
            data["train_config"]["bogus"] = 1
        path.write_text("{bad" if case == "garbled" else json.dumps(data),
                        encoding="utf-8")
        rc = main(["predict", "--run-dir", str(clone),
                   "--input", str(pipeline["test_csv"]),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and message in err

    def test_short_row_rejected(self, pipeline, tmp_path, capsys):
        posts = tmp_path / "posts.csv"
        posts.write_text("id,text\n4,hello\n5\n", encoding="utf-8")
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(posts), "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "row 1: no 'text' cell" in capsys.readouterr().err

    def test_long_row_rejected(self, pipeline, tmp_path, capsys):
        posts = tmp_path / "posts.csv"
        posts.write_text('id,text\n4,"hello, world"\n5,hello, world\n',
                         encoding="utf-8")
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(posts), "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "row 1: more cells than the header" in capsys.readouterr().err
        posts.write_text('id,text\n4,"hello, world"\n', encoding="utf-8")
        assert _read_id_csv(posts, "text") == [(2, 4, "hello, world")]   # (line, id, cell)

    def test_duplicate_id_rejected(self, pipeline, tmp_path, capsys):
        # evaluate would refuse a submission that names an id twice
        posts = tmp_path / "posts.csv"
        posts.write_text("id,text\n5,hello\n5,world\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(posts), "--out", str(out)])
        assert rc == 2
        assert f"{posts}:3: row 1: duplicate id 5" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_leaves_no_submission(self, pipeline, tmp_path, monkeypatch,
                                               capsys):
        # the disk fills after the header: exit 2, and neither a truncated
        # submission nor a temporary file is left behind
        monkeypatch.setattr(cli, "atomic_write", filling(cli.atomic_write, 1))
        out = tmp_path / "out.csv"
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(pipeline["test_csv"]), "--out", str(out)])
        assert rc == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_names_the_given_path(self, pipeline, tmp_path, capsys):
        # the submission is written through a temporary file beside it, but
        # the error names the path the user gave
        out = tmp_path / "missing" / "x.csv"
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(pipeline["test_csv"]), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"missing{os.sep}x.csv" in err[0], err
        assert ".tmp" not in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_ids_parsed_strictly(self, pipeline, tmp_path, capsys):
        posts = tmp_path / "posts.csv"
        posts.write_text("id,text\n9007199254740993,hello\n12.0,there\n",
                         encoding="utf-8")
        out = tmp_path / "out.csv"
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(posts), "--out", str(out)])
        assert rc == 0
        ids = [line.split(",")[0] for line in
               out.read_text(encoding="utf-8").splitlines()[1:]]
        assert ids == ["9007199254740993", "12"]

        posts.write_text("id,text\n1.7,hello\n", encoding="utf-8")
        rc = main(["predict", "--run-dir", str(pipeline["run_dir"]),
                   "--input", str(posts), "--out", str(out)])
        assert rc == 2
        assert "non-integer id '1.7'" in capsys.readouterr().err


class TestEvaluate:
    def test_report_on_real_predictions(self, pipeline, capsys):
        rc = main(["evaluate", "--gold", str(pipeline["gold_csv"]),
                   "--pred", str(pipeline["sub_csv"])])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for key in ("macro_precision", "macro_recall", "macro_f1",
                    "accuracy", "confusion"):
            assert key in report
        assert 0.0 <= report["macro_f1"] <= 1.0

    def test_gold_vs_gold_is_perfect(self, pipeline, capsys):
        rc = main(["evaluate", "--gold", str(pipeline["gold_csv"]),
                   "--pred", str(pipeline["gold_csv"])])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["macro_f1"] == 1.0 and report["accuracy"] == 1.0

    def test_hand_case(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        pred = tmp_path / "pred.csv"
        gold.write_text("id,label\n1,1\n2,1\n3,1\n4,0\n5,0\n",
                        encoding="utf-8")
        pred.write_text("id,label\n1,1\n2,0\n3,1\n4,0\n5,1\n",
                        encoding="utf-8")
        rc = main(["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["macro_f1"] - 7 / 12) < 1e-12

    def test_id_mismatch_lists_offenders(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        pred = tmp_path / "pred.csv"
        gold.write_text("id,label\n1,1\n2,0\n3,1\n", encoding="utf-8")
        pred.write_text("id,label\n2,0\n3,1\n999,0\n", encoding="utf-8")
        rc = main(["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert rc == 2
        err = capsys.readouterr().err
        # ids on either side only: gold-only 1 and pred-only 999 both shown
        assert "offenders" in err and "1" in err and "999" in err

    def test_bad_label_value(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,label\n1,1\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        pred.write_text("id,label\n1,2\n", encoding="utf-8")
        rc = main(["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert rc == 2
        assert f"{pred}:2: row 0: label must be 0 or 1, got 2" in capsys.readouterr().err

    def test_ids_above_2_53_stay_distinct(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        pred = tmp_path / "pred.csv"
        gold.write_text("id,label\n9007199254740992,0\n9007199254740993,1\n",
                        encoding="utf-8")
        pred.write_text("id,label\n9007199254740993.0,1\n9007199254740992,0\n",
                        encoding="utf-8")
        rc = main(["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0

    @pytest.mark.parametrize("rows, message", [   # each names the row's line
        ("1,1\n2,0\n1,0\n", ":4: row 2: duplicate id 1"),
        ("1.7,1\n2,0\n", ":2: row 0: non-integer id '1.7'"),
        ("1,0.5\n2,0\n", ":2: row 0: bad label '0.5'")],
        ids=["duplicate-id", "fractional-id", "fractional-label"])
    def test_bad_rows_rejected(self, tmp_path, capsys, rows, message):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,label\n1,1\n2,0\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        pred.write_text("id,label\n" + rows, encoding="utf-8")
        rc = main(["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert rc == 2
        assert f"{pred}{message}" in capsys.readouterr().err


class TestInspectEmbeddings:
    def test_plain_file(self, pipeline, capsys):
        rc = main(["inspect-embeddings", "--file", str(pipeline["emb_path"])])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dimension: 16" in out
        assert "header: no" in out
        assert "entries:" in out

    def test_header_file_and_coverage(self, pipeline, tmp_path, capsys):
        examples = pipeline["examples"]
        vectors = make_vector_file(vocabulary_of(examples), dim=16, seed=1)
        with_header = tmp_path / "with_header.txt"
        write_vector_file(vectors, with_header, header=True)
        rc = main(["inspect-embeddings", "--file", str(with_header),
                   "--vocab", str(pipeline["run_dir"] / "vocab.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "header: yes" in out
        assert "coverage: 1.0" in out

    def test_disjoint_vocab_coverage_zero(self, pipeline, tmp_path, capsys):
        vocab_path = tmp_path / "vocab.txt"
        vocab_path.write_text("unrelated\nwords\n", encoding="utf-8")
        rc = main(["inspect-embeddings", "--file", str(pipeline["emb_path"]),
                   "--vocab", str(vocab_path)])
        assert rc == 0
        assert "coverage: 0.0" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("word 1 2\nother 1\n", encoding="utf-8")
        rc = main(["inspect-embeddings", "--file", str(bad)])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension, rows, message", [
        (3, {"cat": [1, 2, 3], "dog": [np.nan, 1, 1], "eel": [np.inf, 0, 0]},
         "entry 1 ('dog') holds a non-finite vector component"),
        (0, {}, "no entries"),
    ])
    def test_damaged_cache_is_one_error_line(self, tmp_path, capsys, dimension, rows,
                                            message):
        # a cache holds the rules a text vector file does
        cache = tmp_path / "vectors.bin"
        write_cache(WordVectorFile(dimension, {word: np.array(row, np.float32)
                                               for word, row in rows.items()}, False),
                    cache)
        rc = main(["inspect-embeddings", "--file", str(cache)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {cache}: damaged vector cache: {message}"]

    def test_overflow_is_one_error_line(self, tmp_path):
        # 1e39 overflows float32 to inf; a fresh interpreter shows any numpy
        # warning on stderr, and the user sees only the path:line error
        bad = tmp_path / "overflow.txt"
        bad.write_text("cat 1 2\ndog 1e39 2\n", encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "abusekit", "inspect-embeddings", "--file", str(bad)],
            env=child_env(), capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"error: {bad}:2: non-finite vector component"]


@pytest.mark.parametrize("module", ["abusekit", "abusekit.cli"])
def test_runs_as_module(module, tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args], env=child_env(),
                              cwd=tmp_path, capture_output=True, text=True)

    shown = run("--help")
    assert shown.returncode == 0 and "inspect-embeddings" in shown.stdout
    missing = run("inspect-embeddings", "--file", "missing")
    assert missing.returncode == 2 and "missing" in missing.stderr


def test_cli_import_skips_network_modules(pipeline, tmp_path):
    # every command and every predict worker pays the CLI's imports in a
    # fresh interpreter; the four network modules cost 29-46 ms and no
    # command uses them, and without a .pyc the model code costs the data
    # commands ~40 ms of compiling, so it loads only where a command runs it
    model_code = ("abusekit.training", "abusekit.model", "abusekit.layers",
                  "abusekit.metrics")
    checked = ("urllib.request", "http.client", "email.parser", "ssl", *model_code)
    report = f"print(' '.join(sorted(m for m in {checked!r} if m in sys.modules)))"

    def loaded(code):
        done = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{report}"],
                              env=child_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1] if done.stdout else ""

    assert loaded("import abusekit\nassert abusekit.text.clean is abusekit.clean") == ""
    assert loaded("import abusekit.cli") == ""
    # the data commands run in one interpreter load none of the model code
    cache = tmp_path / "vectors.emb"
    write_cache(parse_vector_file(pipeline["emb_path"]), cache)
    commands = [["prepare", "--input", str(pipeline["uli_csv"]), "--language", "en",
                 "--task", "1", "--out", str(tmp_path / "prep")],
                ["inspect-embeddings", "--file", str(pipeline["emb_path"])],
                ["inspect-embeddings", "--file", str(cache),
                 "--vocab", str(pipeline["run_dir"] / "vocab.txt")]]
    assert loaded("from abusekit.cli import main\n"
                  f"assert [main(argv) for argv in {commands!r}] == [0, 0, 0]") == ""


def test_fold_threads_invisible_at_two_blas_threads(pipeline, tmp_path):
    # Seeded runs are bit-identical at a fixed BLAS thread count; a BLAS
    # count of 2 may round differently from 1, but fold threads must still
    # change nothing.  Default model shape, so BLAS has work to split.
    env = child_env(OPENBLAS_NUM_THREADS="2")
    env.pop("ABUSE_DETECT_THREADS", None)
    vectors = tmp_path / "vectors300.txt"
    write_vector_file(make_vector_file(vocabulary_of(pipeline["examples"]),
                                       dim=300, seed=1), vectors)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data": {"train": str(pipeline["prep_dir"] / "train.jsonl"),
                 "embeddings": str(vectors)},
        "model": {},
        "train": {"task": 1, "language": "en", "folds": 2, "epochs": 1,
                  "batch_size": 16, "seed": 5},
    }), encoding="utf-8")
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "abusekit", "train", "--config", str(config),
             "--out-dir", str(tmp_path / threads), "--threads", threads],
            env=env, cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    for name in ("fold0/weights.bin", "fold1/weights.bin", "curves.csv"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()
