"""abusekit benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload train-kfold --seed 1 --seconds 36 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
The package is imported from ``src/`` of the same checkout; nothing is
installed.  Every input is generated from ``--seed``.  Each measured
command runs in a fresh child interpreter, so wall time includes start-up
as a user sees it and ``ru_maxrss`` belongs to that command alone.
Children get ``OPENBLAS_NUM_THREADS=1`` and ``train`` runs at
``--threads 1``: on a small shared machine fold threads are bound by the
interpreter lock and would measure the scheduler.

Workloads (closed loop, one client, one command at a time):

- ``train-kfold``: ``abusekit train``, default model shape (300d, L=100,
  conv 64, BiLSTM 128, dense 128, batch 32), task 1, 48 Hindi mixed-script
  posts, 3 folds, 2 epochs.  The vector file covers only the vocabulary.
- ``predict-ensemble``: ``abusekit predict`` of 256 posts (one B=256 eval
  batch) through a 5-fold average ensemble.  The run directory is made
  untimed, by ``abusekit train`` itself (1 epoch, 80 posts).
- ``ingest``: ``abusekit prepare`` on a 2000-post annotation CSV with ties,
  NL and blank votes; the corpus-to-ids stage of ``train``;
  ``inspect-embeddings`` on a 24000-row text vector file; ``write_cache``
  of that file; ``inspect-embeddings`` on the cache.

With ``--trace 0`` a run measures for ``--seconds`` and the last line of
stdout is the result, whose end-to-end metrics are:

- ``items_per_s``: over all passes of the run, training examples consumed
  per second of ``train`` (folds x epochs x train-partition size / wall),
  posts labelled per second of ``predict``, or annotation posts per second
  of the whole five-step ingest pass;
- ``setup_s``: median over commands of the time from spawning a command
  to its first model step (``train_step``, ``Network.forward``) or, for
  ingest, its first data call;
- ``peak_rss_mb``: median over passes of the largest ``ru_maxrss`` of the
  pass's child processes, in MB (10^6 bytes).

The lines before it print the issue-level figures for the workload
(``train_examples_per_s``, ``predict_posts_per_s``, ``prepare_posts_per_s``,
``preprocess_posts_per_s``, ``vectors_text_mb_per_s``,
``vectors_cache_mb_per_s``, ``failed_share``) with unit, median, tail
percentile and sample count, and the environment.  ``failed_share`` is
``failed / attempted`` of the result line: every command and every output
check counts once.

With ``--trace 1`` each pass runs twice, untraced and traced, in alternating
order.  The traced child wraps the package's public functions (see
tracing.py) and the result carries the per-layer metrics (analysis.py),
including the tracing overhead against the untraced passes.  Traced and
untraced outputs must be byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from analysis import Trace, per_layer_metrics, roadmap_table  # noqa: E402

WORKLOADS = ("train-kfold", "predict-ensemble", "ingest")
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
# A run must end well inside 180 s even if a command hangs: children are
# killed at this deadline, counted from the start of the run.
RUN_DEADLINE_S = 165.0
MB = 1e6


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def environment(child_env: dict) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # older numpy has no dict mode; record why
        blas = {"error": repr(exc)}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": child_env["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


@dataclass
class ChildRun:
    ok: bool
    wall: float
    setup: float | None
    rss_mb: float
    result: dict
    stdout: str


@dataclass
class Pass:
    wall: float = 0.0
    items: float = 0.0
    setups: list = field(default_factory=list)
    rss_mb: float = 0.0
    rates: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    readouts: dict = field(default_factory=dict)


class Runner:
    """Spawns measured children and keeps the tally of commands and checks."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        self.env.pop("ABUSE_DETECT_THREADS", None)
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
        self._serial = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def child(self, mode: str, mark: str, kind: str, args: list[str]) -> ChildRun:
        self._serial += 1
        base = self.work / f"child{self._serial}"
        result_path = base.with_suffix(".json")
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, mark,
               kind, *map(str, args)]
        with open(base.with_suffix(".out"), "wb") as out, \
                open(base.with_suffix(".err"), "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work)
            status, usage = self._wait(proc, self.deadline)
            wall = time.monotonic() - start
        code = os.waitstatus_to_exitcode(status)
        stdout = base.with_suffix(".out").read_text(encoding="utf-8", errors="replace")
        result = {}
        if result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        label = f"{kind} {' '.join(map(str, args[:1]))}".strip()
        ok = self.check(code == 0 and result.get("exit") == 0,
                        f"{label}: exit {code}: "
                        + base.with_suffix(".err").read_text(errors="replace")[-500:])
        first = result.get("first_call")
        setup = first - start if first is not None else None
        return ChildRun(ok=ok, wall=wall, setup=setup, rss_mb=usage.ru_maxrss * 1024 / MB,
                        result=result, stdout=stdout)

    @staticmethod
    def _wait(proc, deadline: float):
        # pidfd + wait4: the child's own rusage, with a deadline, and no
        # polling interval added to the wall time.
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage


class TrainKfold:
    posts, folds, epochs = 48, 3, 2
    mark = "abusekit.model:train_step"

    def __init__(self, runner: Runner, seed: int):
        self.runner, self.work = runner, runner.work
        gen = inputs.PostGenerator(seed)
        posts = gen.posts(self.posts)
        inputs.write_dataset_jsonl(self.work / "train.jsonl", posts)
        inputs.write_vector_text(self.work / "vectors.txt", gen.words,
                                 np.random.default_rng([seed, 2]))
        self.config = self.work / "run.json"
        self.config.write_text(json.dumps({
            "data": {"train": "train.jsonl", "embeddings": "vectors.txt"},
            "model": {},
            "train": {"task": 1, "language": inputs.LANGUAGE, "folds": self.folds,
                      "epochs": self.epochs, "batch_size": 32, "seed": seed,
                      "threads": 1},
        }), encoding="utf-8")
        self.reference = None

    def run_pass(self, mode: str, index: int) -> Pass:
        out = self.work / f"run{index}"
        child = self.runner.child(mode, self.mark, "cli",
                                  ["train", "--config", self.config, "--out-dir", out,
                                   "--threads", "1"])
        result = Pass(wall=child.wall, rss_mb=child.rss_mb,
                      items=self.epochs * (self.folds - 1) * self.posts,
                      setups=[child.setup], spans=[child.result.get("spans")])
        result.rates["train_examples_per_s"] = result.items / child.wall
        if child.ok:
            result.readouts = check_run_dir(self.runner, out, self.folds, self.epochs)
            digest = sha256(out / "run_report.json")
            self.reference = self.reference or digest
            self.runner.check(digest == self.reference,
                              f"train pass {index} ({mode}): run_report.json differs")
        shutil.rmtree(out, ignore_errors=True)
        return result


def check_run_dir(runner: Runner, out: Path, folds: int, epochs: int) -> dict:
    """Checks a finished `train` run directory; returns the quality readouts."""
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    runner.check(len(report["folds"]) == folds, f"{out.name}: expected {folds} folds")
    runner.check(all(len(f["epochs"]) == epochs for f in report["folds"]),
                 f"{out.name}: expected {epochs} epochs per fold")
    losses = [e[k] for f in report["folds"] for e in f["epochs"]
              for k in ("train_loss", "val_loss")]
    runner.check(all(math.isfinite(v) for v in losses), f"{out.name}: non-finite loss")
    runner.check(all((out / f"fold{k}" / "weights.bin").exists() for k in range(folds)),
                 f"{out.name}: missing fold checkpoints")
    return {"final_train_loss": statistics.fmean(f["epochs"][-1]["train_loss"]
                                                 for f in report["folds"]),
            "val_macro_f1": report["averaged"]["1"]["macro_f1"]}


class PredictEnsemble:
    train_posts, posts, folds = 80, 256, 5
    mark = "abusekit.model:Network.forward"

    def __init__(self, runner: Runner, seed: int):
        self.runner, self.work = runner, runner.work
        gen = inputs.PostGenerator(seed)
        train = gen.posts(self.train_posts)
        inputs.write_dataset_jsonl(self.work / "train.jsonl", train)
        inputs.write_vector_text(self.work / "vectors.txt", gen.words,
                                 np.random.default_rng([seed, 2]))
        # Drawn after the training posts: same language, some unseen words.
        self.ids = inputs.write_id_text_csv(self.work / "posts.csv", gen.posts(self.posts))
        config = self.work / "run.json"
        config.write_text(json.dumps({
            "data": {"train": "train.jsonl", "embeddings": "vectors.txt"},
            "model": {},
            "train": {"task": 1, "language": inputs.LANGUAGE, "folds": self.folds,
                      "epochs": 1, "batch_size": 32, "seed": seed, "threads": 1,
                      "ensemble": "average"},
        }), encoding="utf-8")
        setup = runner.child("plain", "abusekit.model:train_step", "cli",
                             ["train", "--config", config, "--out-dir", "model",
                              "--threads", "1"])
        if not setup.ok:
            raise RuntimeError("the untimed train that makes the run directory failed")
        check_run_dir(runner, self.work / "model", self.folds, 1)
        self.reference = None

    def run_pass(self, mode: str, index: int) -> Pass:
        out = self.work / f"submission{index}.csv"
        child = self.runner.child(mode, self.mark, "cli",
                                  ["predict", "--run-dir", "model", "--input", "posts.csv",
                                   "--out", out])
        result = Pass(wall=child.wall, rss_mb=child.rss_mb, items=self.posts,
                      setups=[child.setup], spans=[child.result.get("spans")])
        result.rates["predict_posts_per_s"] = self.posts / child.wall
        if child.ok:
            lines = out.read_text(encoding="utf-8").splitlines()
            rows = [line.split(",") for line in lines[1:]]
            self.runner.check(lines[:1] == ["id,label"], f"submission {index}: header")
            self.runner.check([r[0] for r in rows] == [str(i) for i in self.ids],
                              f"submission {index}: not exactly one row per input id")
            self.runner.check(all(len(r) == 2 and r[1] in ("0", "1") for r in rows),
                              f"submission {index}: label outside {{0,1}}")
            digest = sha256(out)
            self.reference = self.reference or digest
            self.runner.check(digest == self.reference,
                              f"submission {index} ({mode}) differs from the first")
        out.unlink(missing_ok=True)
        return result


class Ingest:
    posts, vector_rows = 2000, 24000
    marks = {"prepare": "abusekit.corpus:parse_uli_csv",
             "ids": "abusekit.corpus:read_dataset",
             "vectors": "abusekit.embeddings:parse_vector_file,abusekit.embeddings:read_cache"}

    def __init__(self, runner: Runner, seed: int):
        self.runner, self.work = runner, runner.work
        self.seed = seed
        gen = inputs.PostGenerator(seed)
        posts = gen.posts(self.posts)
        self.expected = inputs.write_annotation_csv(self.work / "annotations.csv", posts,
                                                    np.random.default_rng([seed, 1]))
        words = sorted(gen.words)
        self.vectors = self.work / "vectors.txt"
        self.rows = inputs.write_vector_text(self.vectors, words,
                                             np.random.default_rng([seed, 2]),
                                             filler=max(0, self.vector_rows - len(words)))
        self.cache_bytes = 16 + sum(2 + len(w.encode("utf-8")) + 4 * inputs.DIM
                                    for w in self._file_words())
        self.reference = None

    def _file_words(self):
        with open(self.vectors, encoding="utf-8") as fh:
            next(fh)
            return [line.split(" ", 1)[0] for line in fh]

    def run_pass(self, mode: str, index: int) -> Pass:
        run, check = self.runner, self.runner.check
        d = self.work / f"pass{index}"
        prep, vocab, cache = d / "prep", d / "vocab.txt", d / "vectors.bin"
        result = Pass()
        steps = [
            run.child(mode, self.marks["prepare"], "cli",
                      ["prepare", "--input", "annotations.csv", "--language", "hi",
                       "--task", "1", "--out", prep, "--seed", self.seed]),
            run.child(mode, self.marks["ids"], "ids", [prep / "train.jsonl", vocab]),
            run.child(mode, self.marks["vectors"], "cli",
                      ["inspect-embeddings", "--file", self.vectors, "--vocab", vocab]),
            run.child(mode, self.marks["vectors"], "cache", [self.vectors, cache]),
            run.child(mode, self.marks["vectors"], "cli",
                      ["inspect-embeddings", "--file", cache, "--vocab", vocab]),
        ]
        prepare, ids, text_inspect, write, cache_inspect = steps
        result.wall = sum(s.wall for s in steps)
        result.items = self.posts
        result.setups = [s.setup for s in steps]
        result.rss_mb = max(s.rss_mb for s in steps)
        result.spans = [s.result.get("spans") for s in steps]
        text_mb = self.vectors.stat().st_size / MB
        result.rates["prepare_posts_per_s"] = self.posts / prepare.wall
        result.rates["vectors_text_mb_per_s"] = text_mb / text_inspect.wall
        if prepare.ok:
            manifest = json.loads((prep / "prepare.json").read_text(encoding="utf-8"))
            e = self.expected
            check(manifest["posts_parsed"] == e.posts, "prepare: posts_parsed")
            check(manifest["posts_kept"] == e.kept, "prepare: posts_kept (vote aggregation)")
            check(manifest["train_count"] + manifest["test_count"] == e.kept,
                  "prepare: train + test != kept")
            positives = sum(manifest[f"{side}_label_counts"]["1"]["1"]
                            for side in ("train", "test"))
            check(positives == e.kept_positive, "prepare: positive labels (ties go to 1)")
            if ids.ok:
                check(ids.result["rows"] == manifest["train_count"]
                      and ids.result["cols"] == 100 and ids.result["empty_rows"] == 0,
                      "corpus-to-ids: id matrix shape or empty rows")
                result.rates["preprocess_posts_per_s"] = ids.result["rows"] / ids.result["stage_s"]
        if write.ok:
            check(cache.stat().st_size == self.cache_bytes, "write_cache: cache size")
            result.rates["write_cache_mb_per_s"] = self.cache_bytes / MB / write.result["stage_s"]
            result.rates["vectors_cache_mb_per_s"] = self.cache_bytes / MB / cache_inspect.wall
        if text_inspect.ok and cache_inspect.ok:
            text_out = parse_inspect(text_inspect.stdout)
            cache_out = parse_inspect(cache_inspect.stdout)
            for out, header in ((text_out, "yes"), (cache_out, "no")):
                check(out.get("dimension") == str(inputs.DIM)
                      and out.get("entries") == str(self.rows) and out.get("header") == header,
                      f"inspect-embeddings summary (header {header})")
            coverage = float(text_out.get("coverage", "nan"))
            check(0.0 < coverage <= 1.0 and cache_out.get("coverage") == text_out.get("coverage"),
                  "inspect: coverage differs between text and cache")
        if all(s.ok for s in steps):
            digest = hashlib.sha256(b"".join(
                Path(p).read_bytes() for p in (prep / "train.jsonl", prep / "test.jsonl",
                                               vocab, cache))).hexdigest()
            self.reference = self.reference or digest
            check(digest == self.reference, f"ingest pass {index} ({mode}): outputs differ")
        shutil.rmtree(d, ignore_errors=True)
        return result


def parse_inspect(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def tail(values, higher_better: bool):
    """The highest percentile with at least 10 samples beyond it, on the bad side:
    slow times, low rates.  None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values, reverse=higher_better)
    return pct, ordered[max(1, math.ceil(pct / 100 * n)) - 1]


def print_figures(rows):
    print(f"{'metric':<24} {'unit':<6} {'median':>12} {'tail (10 beyond)':>20} {'samples':>8}")
    for name, unit, values, higher_better in rows:
        t = tail(values, higher_better)
        tail_text = f"p{t[0]}={t[1]:.4g}" if t else "n/a (<11 samples)"
        print(f"{name:<24} {unit:<6} {statistics.median(values):>12.6g} "
              f"{tail_text:>20} {len(values):>8}")


def measure(workload, seconds: float, trace: bool, deadline: float):
    """Closed loop: passes until the next one would overrun the time budget."""
    passes, traced = [], []
    start = time.monotonic()
    index = 0
    while True:
        if trace:
            order = ("plain", "trace") if len(traced) % 2 == 0 else ("trace", "plain")
            for mode in order:
                (traced if mode == "trace" else passes).append(workload.run_pass(mode, index))
                index += 1
        else:
            passes.append(workload.run_pass("plain", index))
            index += 1
        elapsed = time.monotonic() - start
        done = len(traced) if trace else len(passes)
        typical = statistics.median(p.wall for p in passes + traced) * (2 if trace else 1)
        enough = done >= (MIN_TRACE_PAIRS if trace else MIN_PASSES)
        if (enough and elapsed + typical > seconds) or time.monotonic() + typical > deadline:
            return passes, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abusekit" / "cli.py").is_file():
        print(f"error: no abusekit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    setup_start = time.monotonic()
    deadline = setup_start + RUN_DEADLINE_S
    runner = Runner(work, deadline)
    # Untimed: byte-compile the package and page in numpy before measuring.
    subprocess.run([sys.executable, "-c", "import abusekit.cli"], env=runner.env,
                   cwd=work, check=True)
    workload = {"train-kfold": TrainKfold, "predict-ensemble": PredictEnsemble,
                "ingest": Ingest}[args.workload](runner, args.seed)
    print(f"input set-up: {time.monotonic() - setup_start:.2f} s (untimed)")
    passes, traced = measure(workload, args.seconds, bool(args.trace), deadline)
    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1

    print("environment: " + json.dumps(environment(runner.env), sort_keys=True))
    setups = [s for p in passes for s in p.setups if s is not None]
    if not setups:
        print("error: no command reached its first step", file=sys.stderr)
        return 1
    rates = {}
    for p in passes:
        for name, value in p.rates.items():
            rates.setdefault(name, []).append(value)
    failed_share = len(runner.failures) / runner.attempted
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced passes"
          + (f", {len(traced)} traced passes" if traced else ""))
    print_figures([(name, "MB/s" if "_mb_" in name else "1/s", values, True)
                   for name, values in rates.items()]
                  + [("setup_s", "s", setups, False),
                     ("peak_rss_mb", "MB", [p.rss_mb for p in passes], False)])
    print(f"{'failed_share':<24} {'share':<6} {failed_share:>12.6g} "
          f"{'':>20} {runner.attempted:>8}")
    for failure in runner.failures[:20]:
        print(f"FAILED: {failure}")

    if args.trace:
        metrics = trace_report(args.workload, passes, traced)
    else:
        # Throughput is work done over time taken, across the whole run: on a
        # machine whose speed drifts, this averages the drift where a median
        # of per-pass rates would jump between fast and slow spells.
        metrics = {
            "items_per_s": {"value": sum(p.items for p in passes) / sum(p.wall for p in passes),
                            "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.rss_mb for p in passes),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


def trace_report(workload: str, passes, traced) -> dict:
    commands = [(i, spans) for i, p in enumerate(traced) for spans in p.spans if spans]
    trace = Trace(commands)
    # Each traced pass is paired with the untraced pass run next to it.
    overhead = statistics.median(t.wall / u.wall for u, t in zip(passes, traced)) - 1.0
    readouts = traced[-1].readouts if traced else {}
    values = per_layer_metrics(trace, readouts, overhead)
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in units["per_layer"]}

    print(f"tracing overhead: {overhead:+.2%} of untraced pass wall time "
          f"(median over {len(traced)} traced/untraced pass pairs)")
    print("self time per pass (traced):")
    print(f"  {'span':<34} {'calls':>8} {'incl s':>10} {'self s':>10}")
    for name, (calls, incl, own) in sorted(trace.self_time_table().items(),
                                           key=lambda kv: -kv[1][2]):
        print(f"  {name:<34} {calls:>8.1f} {incl:>10.4f} {own:>10.4f}")
    if workload == "train-kfold":
        print("per-layer ms per train step (B=32, L=100, 300d, train mode):")
        for line in roadmap_table(values):
            print("  " + line)
        print(f"train_step + evaluate passes = {values['training.step_and_eval_share']:.1%}"
              " of training.run_cv")
    if workload == "predict-ensemble":
        print(f"model.forward = {values['model.forward.share_of_command']:.1%}"
              " of the predict command (cli.main)")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


if __name__ == "__main__":
    sys.exit(main())
