"""Fold ensembling: averaged probabilities versus the single best fold.

Trains 5 folds on a synthetic corpus into a temporary run directory,
reads it back the way `abusekit predict` does, then labels fresh unseen
posts two ways: averaging softmax probabilities over all fold models, and
using only the fold with the highest validation macro-F1.  Also shows the
tie rule on a constructed 50/50 probability split.
"""

import tempfile

import numpy as np

from abusekit.layers import AdamConfig
from abusekit.model import ModelConfig, labels_from_probs
from abusekit.synthetic import make_marker_corpus, make_vector_file, vocabulary_of
from abusekit.text import encode_batch
from abusekit.text import preprocess as preprocess_text
from abusekit.training import TrainConfig, ensemble_predict, read_run, run_cv


def main():
    train = make_marker_corpus(200, seed=11, pool_size=30)
    held_out = make_marker_corpus(40, seed=99, pool_size=30)
    all_tokens = vocabulary_of(train + held_out)
    vectors = make_vector_file(all_tokens, dim=16, seed=1)

    train_config = TrainConfig(
        task=1, language="en", folds=5, epochs=12, batch_size=8, seed=4,
        optimizer=AdamConfig(lr=5e-3))
    model_config = ModelConfig(
        seq_len=12, embed_dim=16, conv_filters=8, lstm_units=8,
        dense_units=8, lstm_dropout=0.0, lstm_recurrent_dropout=0.0,
        spatial_dropout_rate=0.0, final_dropout_rate=0.0)
    with tempfile.TemporaryDirectory() as tmp:
        run_cv(train, train_config, vectors, tmp, model_config)
        run = read_run(tmp)
        token_lists = [preprocess_text(ex.text, ex.language, run.prep_config)
                       for ex in held_out]
        sequences = encode_batch(token_lists, run.vocab,
                                 max_len=run.model_config.seq_len)
        # folds load from the run directory one at a time as they are scored
        averaged = ensemble_predict(run, range(run.train_config.folds), sequences)[0]
        best = run.best_fold
        solo = ensemble_predict(run, [best], sequences)[0]
    gold = np.array([ex.labels["1"] for ex in held_out])

    print(f"40 unseen posts, gold positives: {gold.sum()}")
    print(f"ensemble of 5 folds accuracy:   {(averaged == gold).mean():.3f}")
    print(f"best single fold ({best}) accuracy: {(solo == gold).mean():.3f}")
    disagree = int((averaged != solo).sum())
    print(f"posts where the two modes disagree: {disagree}")

    probs = np.array([[0.5, 0.5], [0.6, 0.4], [0.4, 0.6]], dtype=np.float32)
    print(f"\ntie handling: probabilities {probs[0]} decode to label "
          f"{labels_from_probs(probs)[0]} (exact ties go to 1)")


if __name__ == "__main__":
    main()
