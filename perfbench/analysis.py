"""Per-layer figures from the spans of traced commands.

Spans come from tracing.py.  A layer's self time is its span's duration
minus the time its direct child spans cover (one thread, so children never
overlap).  Layer figures for the model are taken per *model pass*: the sum
of a layer's spans inside one ``model.train_step`` (train-kfold, B=32,
train mode) or one ``model.forward`` (predict-ensemble, B=256, eval mode),
median over passes.  Other ``.s`` figures are medians per call.  A metric
reads 0 on a workload that does not run that code (dropout and backward
do not run in eval mode).

Which end-to-end figure each layer figure should move, and where:

- corpus.parse_uli_csv / assemble_examples / write_dataset:
  prepare_posts_per_s on ingest; corpus.read_dataset: setup_s on train-kfold.
- text.preprocess, build_vocab, encode_batch: preprocess_posts_per_s on
  ingest, and ~2% of predict_posts_per_s.  text.oov_token_share (predict) is
  a readout that performance changes should leave unchanged.
- embeddings.*: vectors_text_mb_per_s, vectors_cache_mb_per_s and
  peak_rss_mb on ingest, setup_s on train-kfold.  rows_used_share is the
  share of parsed rows the vocabulary needs: the work stream filtering cuts.
- layers.*, model.train_step: train_examples_per_s on train-kfold; the
  forward figures on predict-ensemble move predict_posts_per_s.
- model.forward.ms_per_post: predict_posts_per_s, and train-kfold through
  the eval passes.  model.load_checkpoint: setup_s on predict-ensemble.
- training.run_cv / train_epoch / evaluate.*: train_examples_per_s;
  training.eval_share is the eval passes' share of run_cv.
  training.ensemble_predict: predict_posts_per_s.
- training.final_train_loss and val_macro_f1 are readouts, not gates.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

LAYERS = ("embedding", "dropout", "conv1d", "lstm", "bilstm", "dense", "pool", "heads")


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values, default=0.0):
    return statistics.median(values) if values else default


class Trace:
    """Spans of every traced command of a run, indexed for queries.

    ``commands`` is a list of (pass_index, spans) pairs; span parent indices
    are local to their command and are rebased here.
    """

    def __init__(self, commands):
        self.name, self.dur, self.parent, self.attrs, self.pass_of = [], [], [], [], []
        self.passes = set()
        for pass_index, spans in commands:
            base = len(self.name)
            for name, start, end, parent, attrs in spans:
                self.name.append(name)
                self.dur.append(end - start)
                self.parent.append(parent + base if parent >= 0 else -1)
                self.attrs.append(attrs or {})
                self.pass_of.append(pass_index)
            self.passes.add(pass_index)
        self.by_name = defaultdict(list)
        child_time = [0.0] * len(self.name)
        for i, name in enumerate(self.name):
            self.by_name[name].append(i)
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child_time)]

    def durations(self, name):
        return [self.dur[i] for i in self.by_name.get(name, [])]

    def total(self, name):
        return sum(self.durations(name))

    def per_call(self, name):
        return median(self.durations(name))

    def per_pass_count(self, name):
        counts = defaultdict(int)
        for i in self.by_name.get(name, []):
            counts[self.pass_of[i]] += 1
        return median([counts[p] for p in self.passes])

    def _ancestor(self, i, names):
        j = self.parent[i]
        while j >= 0 and self.name[j] not in names:
            j = self.parent[j]
        return j

    def per_model_pass(self, name, pass_name):
        """Median over ``pass_name`` spans of the summed time of ``name`` within."""
        sums = {i: 0.0 for i in self.by_name.get(pass_name, [])}
        for i in self.by_name.get(name, []):
            j = self._ancestor(i, (pass_name,))
            if j in sums:
                sums[j] += self.dur[i]
        return median(list(sums.values()))

    def self_time_table(self):
        """name -> (calls per pass, inclusive s per pass, self s per pass)."""
        passes = max(1, len(self.passes))
        table = {}
        for name, indices in self.by_name.items():
            table[name] = (len(indices) / passes,
                           sum(self.dur[i] for i in indices) / passes,
                           sum(self.self_time[i] for i in indices) / passes)
        return table


def per_layer_metrics(trace: Trace, readouts: dict, overhead: float) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload does not run that code."""
    m: dict[str, float] = {}
    for name in ("corpus.parse_uli_csv", "corpus.assemble_examples",
                 "corpus.write_dataset", "corpus.read_dataset",
                 "text.build_vocab", "text.encode_batch",
                 "embeddings.parse_vector_file", "embeddings.build_matrix",
                 "embeddings.write_cache", "embeddings.read_cache",
                 "model.save_checkpoint", "model.load_checkpoint",
                 "training.run_cv", "training.train_epoch",
                 "training.evaluate.train_pass", "training.evaluate.val_pass",
                 "training.ensemble_predict", "cli.command"):
        m[name + ".s"] = trace.per_call(name)

    prep_us = [d * 1e6 for d in trace.durations("text.preprocess")]
    m["text.preprocess.us_per_post.p50"] = percentile(prep_us, 50) if prep_us else 0.0
    m["text.preprocess.us_per_post.p90"] = percentile(prep_us, 90) if prep_us else 0.0
    m["text.preprocess.calls"] = trace.per_pass_count("text.preprocess")
    encoded = [trace.attrs[i] for i in trace.by_name.get("text.encode_batch", [])]
    total_encoded = sum(a["encoded"] for a in encoded)
    m["text.oov_token_share"] = (sum(a["oov"] for a in encoded) / total_encoded
                                 if total_encoded else 0.0)

    rows = [trace.attrs[i]["rows"] for i in trace.by_name.get("embeddings.parse_vector_file", [])]
    m["embeddings.parse_vector_file.rows"] = median(rows)
    matrices = [trace.attrs[i] for i in trace.by_name.get("embeddings.build_matrix", [])]
    parsed = sum(a["rows"] for a in matrices)
    m["embeddings.rows_used_share"] = sum(a["hits"] for a in matrices) / parsed if parsed else 0.0

    # Train-mode passes on train-kfold, eval-mode passes on predict-ensemble.
    pass_name = "model.train_step" if trace.by_name.get("model.train_step") else "model.forward"
    train_mode = pass_name == "model.train_step"
    for layer in LAYERS:
        for direction in ("forward", "backward"):
            name = f"layers.{layer}.{direction}"
            runs = train_mode or (layer != "dropout" and direction == "forward")
            value = trace.per_model_pass(name, pass_name) * 1e3 if runs else 0.0
            m[name + ".ms"] = value
    m["layers.softmax_cross_entropy.ms"] = (
        trace.per_model_pass("layers.softmax_cross_entropy", "model.train_step") * 1e3)
    m["layers.adam_step.ms_per_train_step"] = (
        trace.per_model_pass("layers.adam_step", "model.train_step") * 1e3)

    steps = [d * 1e3 for d in trace.durations("model.train_step")]
    m["model.train_step.ms.p50"] = percentile(steps, 50) if steps else 0.0
    m["model.train_step.ms.p90"] = percentile(steps, 90) if steps else 0.0
    m["model.train_step.count"] = trace.per_pass_count("model.train_step")
    forward_name = "model.forward" if trace.by_name.get("model.forward") else "model.trunk_forward"
    per_post = [trace.dur[i] / trace.attrs[i]["batch"] * 1e3
                for i in trace.by_name.get(forward_name, [])
                if not trace.attrs[i]["train"] and trace.attrs[i]["batch"]]
    m["model.forward.ms_per_post"] = median(per_post)
    m["model.checkpoint_bytes"] = median(
        [trace.attrs[i]["bytes"] for i in trace.by_name.get("model.save_checkpoint", [])])

    run_cv = trace.total("training.run_cv")
    evals = trace.total("training.evaluate.train_pass") + trace.total("training.evaluate.val_pass")
    m["training.eval_share"] = evals / run_cv if run_cv else 0.0
    m["training.step_and_eval_share"] = (
        (evals + trace.total("model.train_step")) / run_cv if run_cv else 0.0)
    commands = trace.total("cli.command")
    m["model.forward.share_of_command"] = (
        trace.total("model.forward") / commands if commands else 0.0)
    m["cli.self.s"] = median([trace.self_time[i] for i in trace.by_name.get("cli.command", [])])
    m["training.final_train_loss"] = readouts.get("final_train_loss", 0.0)
    m["training.val_macro_f1"] = readouts.get("val_macro_f1", 0.0)
    m["trace.overhead_share"] = overhead
    return m


ROADMAP_ROWS = (("embedding", "embedding"), ("conv", "conv1d"), ("BiLSTM", "bilstm"),
                ("dense", "dense"), ("pool", "pool"), ("heads", "heads"))


def roadmap_table(metrics: dict[str, float]) -> list[str]:
    """Forward/backward ms per train step at the default shape, as ROADMAP asks."""
    lines = [f"{'part':<10} {'forward ms':>11} {'backward ms':>12}"]
    for label, layer in ROADMAP_ROWS:
        lines.append(f"{label:<10} {metrics[f'layers.{layer}.forward.ms']:>11.3f} "
                     f"{metrics[f'layers.{layer}.backward.ms']:>12.3f}")
    lines.append(f"{'Adam':<10} {'':>11} {metrics['layers.adam_step.ms_per_train_step']:>12.3f}"
                 "  (update, per step)")
    return lines
