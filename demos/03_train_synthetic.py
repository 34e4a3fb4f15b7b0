"""Cross-validated training on a synthetic separable corpus.

Generates 200 posts where a single marker token decides the label, then
runs 5-fold CV with a scaled-down model into a temporary run directory.
The run finishes in seconds and the averaged macro-F1 lands near 0.99,
which is the point: the training loop, fold splitting, and scoring all
work before any real data shows up.
"""

import tempfile
import time
from pathlib import Path

from abusekit.layers import AdamConfig
from abusekit.model import ModelConfig
from abusekit.synthetic import make_marker_corpus, make_vector_file, vocabulary_of
from abusekit.training import TrainConfig, run_cv


def main():
    examples = make_marker_corpus(200, seed=11, pool_size=30)
    positives = sum(ex.labels["1"] for ex in examples)
    print(f"corpus: {len(examples)} posts, {positives} positive")
    print(f"  sample positive: {next(ex.text for ex in examples if ex.labels['1'])!r}")
    print(f"  sample negative: {next(ex.text for ex in examples if not ex.labels['1'])!r}")

    vectors = make_vector_file(vocabulary_of(examples), dim=16, seed=1)
    train_config = TrainConfig(
        task=1, language="en", folds=5, epochs=12, batch_size=8, seed=4,
        optimizer=AdamConfig(lr=5e-3))
    model_config = ModelConfig(
        seq_len=12, embed_dim=16, conv_filters=8, lstm_units=8,
        dense_units=8, lstm_dropout=0.0, lstm_recurrent_dropout=0.0,
        spatial_dropout_rate=0.0, final_dropout_rate=0.0)

    with tempfile.TemporaryDirectory() as tmp:
        started = time.perf_counter()
        report = run_cv(examples, train_config, vectors, tmp, model_config)
        elapsed = time.perf_counter() - started

        print(f"\n5-fold CV in {elapsed:.1f}s")
        print("fold  macro_p  macro_r  macro_f1  acc")
        for fr in report.folds:
            r = fr.head_reports["1"]
            print(f"  {fr.fold}   {r.macro_precision:.4f}   {r.macro_recall:.4f}"
                  f"   {r.macro_f1:.4f}   {r.accuracy:.4f}")
        avg = report.averaged["1"]
        print(f" avg  {avg['macro_precision']:.4f}   {avg['macro_recall']:.4f}"
              f"   {avg['macro_f1']:.4f}   {avg['accuracy']:.4f}")

        run_dir = Path(tmp)
        rows = (run_dir / "curves.csv").read_text().splitlines()
        print(f"\ncurves: {len(rows) - 1} rows "
              f"({train_config.folds} folds x {train_config.epochs} epochs), "
              f"plus an SVG chart ({(run_dir / 'curves.svg').stat().st_size} bytes)")
        print(f"run directory: {', '.join(sorted(p.name for p in run_dir.iterdir()))}")


if __name__ == "__main__":
    main()
