"""Release gate: one test per stated behavior contract, at its stated tolerance.

Each test finishes by printing a single ``[ACCEPTANCE] <name>: PASS`` line
(visible with ``pytest -s``); a failure reads as the missing line plus the
assertion.  The full-data benchmark lives in test_reference_scores.py and
only runs when the real corpus is configured.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
from conftest import binary_macro_average, max_rel_error, numerical_grad

from abusekit.corpus import Vote, aggregate_label
from abusekit.embeddings import (build_matrix, parse_vector_file, read_cache,
                                 write_cache, write_vector_file)
from abusekit.layers import (AdamConfig, BiLstm, Conv1D, Dense,
                             GlobalAveragePool1D, Lstm, softmax_cross_entropy)
from abusekit.metrics import confusion, macro_average, macro_f1
from abusekit.model import (ModelConfig, Network, load_checkpoint,
                            save_checkpoint)
from abusekit.synthetic import (make_marker_corpus, make_vector_file,
                                vocabulary_of)
from abusekit.text import PreprocessConfig, build_vocab, encode_batch
from abusekit.text import preprocess as preprocess_text
from abusekit.training import (TrainConfig, emit_curves, evaluate, run_cv,
                               train_epoch, write_report)


def stamp(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS")


def check_layer(layer, x, forward, tol):
    rng = np.random.default_rng(999)
    proj = rng.standard_normal(forward(x).shape)

    def loss():
        return float((forward(x) * proj).sum())

    layer.zero_grad()
    forward(x)
    dx = layer.backward(proj.copy())
    analytic = {id(p): p.grad.copy() for p in layer.parameters()}
    worst = max_rel_error(dx, numerical_grad(loss, x))
    for p in layer.parameters():
        err = max_rel_error(analytic[id(p)], numerical_grad(loss, p.value))
        worst = max(worst, err)
    return worst


def train_forward(layer):
    """The layer's forward in train mode, which keeps what backward reads."""
    return lambda x: layer.forward(x, train_mode=True)


def test_gradient_suite_all_layers_under_budget():
    started = time.perf_counter()
    worst = {"conv1d": 0.0, "dense": 0.0, "lstm_cell": 0.0,
             "bilstm": 0.0, "softmax_ce": 0.0}
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 7, 3))
        conv = Conv1D(3, 4, 2, rng, activation="tanh", dtype=np.float64)
        worst["conv1d"] = max(worst["conv1d"],
                              check_layer(conv, x, train_forward(conv), 1e-4))

        x = rng.standard_normal((2, 5, 4))
        dense = Dense(4, 6, rng, activation="tanh", dtype=np.float64)
        worst["dense"] = max(worst["dense"],
                             check_layer(dense, x, train_forward(dense), 1e-4))

        # length-1 sequence exercises exactly one cell application
        x = rng.standard_normal((2, 1, 3))
        cell = Lstm(3, 4, rng, dtype=np.float64)
        worst["lstm_cell"] = max(worst["lstm_cell"],
                                 check_layer(cell, x, train_forward(cell), 1e-4))

        x = rng.standard_normal((2, 6, 3))
        bilstm = BiLstm(3, 4, rng, dropout=0.0, recurrent_dropout=0.0,
                        dtype=np.float64)
        worst["bilstm"] = max(worst["bilstm"],
                              check_layer(bilstm, x, train_forward(bilstm), 1e-4))

        logits = rng.standard_normal((4, 3))
        onehot = np.eye(3)[rng.integers(0, 3, size=4)]
        _, grad = softmax_cross_entropy(logits, onehot)

        def ce_loss():
            return softmax_cross_entropy(logits, onehot)[0]

        err = max_rel_error(grad, numerical_grad(ce_loss, logits))
        worst["softmax_ce"] = max(worst["softmax_ce"], err)

    elapsed = time.perf_counter() - started
    for name, err in worst.items():
        tol = 1e-6 if name == "softmax_ce" else 1e-4
        assert err < tol, f"{name}: worst rel error {err:.3e} >= {tol}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    stamp("gradient suite (5 layers x 5 seeds, <2min)")


def test_analytic_anchors():
    loss, _ = softmax_cross_entropy(np.zeros((1, 2)), np.array([[1.0, 0.0]]))
    assert abs(loss - math.log(2.0)) < 1e-9

    rng = np.random.default_rng(0)
    conv = Conv1D(3, 4, 2, rng)
    out = conv.forward(rng.standard_normal((1, 100, 3)).astype(np.float32))
    assert out.shape == (1, 99, 4)

    bilstm = BiLstm(8, 128, rng)
    out = bilstm.forward(rng.standard_normal((1, 5, 8)).astype(np.float32))
    assert out.shape == (1, 5, 256)

    x = np.full((2, 8, 5), 3.5, dtype=np.float32)
    pooled = GlobalAveragePool1D().forward(x)
    assert pooled.shape == (2, 5)
    assert np.all(pooled == np.float32(3.5))
    stamp("analytic anchors (ln 2, conv length 99, 256 channels, exact GAP)")


def counting_oracle(golds, preds, classes):
    """Per-class precision/recall by direct counting, macro by plain means."""
    precisions, recalls = [], []
    for c in range(classes):
        tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
        fp = sum(1 for g, p in zip(golds, preds) if g != c and p == c)
        fn = sum(1 for g, p in zip(golds, preds) if g == c and p != c)
        precisions.append(tp / (tp + fp) if tp + fp else 0.0)
        recalls.append(tp / (tp + fn) if tp + fn else 0.0)
    map_ = sum(precisions) / classes
    mar = sum(recalls) / classes
    f1 = 2 * map_ * mar / (map_ + mar) if map_ + mar else 0.0
    return map_, mar, f1


def test_metrics_match_counting_oracle():
    rng = np.random.default_rng(42)
    for trial in range(1000):
        classes = int(rng.integers(2, 5))
        n = int(rng.integers(1, 40))
        golds = rng.integers(0, classes, size=n)
        preds = rng.integers(0, classes, size=n)
        matrix = confusion(golds, preds, classes)
        map_, mar = macro_average(matrix)
        want_map, want_mar, want_f1 = counting_oracle(
            golds.tolist(), preds.tolist(), classes)
        assert abs(map_ - want_map) < 1e-12, f"trial {trial}"
        assert abs(mar - want_mar) < 1e-12, f"trial {trial}"
        assert abs(macro_f1(map_, mar) - want_f1) < 1e-12, f"trial {trial}"
        if classes == 2:
            assert binary_macro_average(matrix) == (map_, mar)
    stamp("metrics oracle (1000 random vectors, binary == multiclass at C=2)")


def test_vote_aggregation_exhaustive():
    cells = ("1.0", "0.0", "NL", "")
    checked = 0
    for pattern in itertools.product(cells, repeat=6):
        ones = pattern.count("1.0")
        zeros = pattern.count("0.0")
        if ones == 0 and zeros == 0:
            expected = None
        elif ones == zeros:
            expected = 1
        else:
            expected = 1 if ones > zeros else 0
        votes = [Vote.from_cell(c) for c in pattern]
        assert aggregate_label(votes) == expected, pattern
        checked += 1
    assert checked == 4096
    stamp("aggregation exhaustive (4096 vote patterns, tie gives 1)")


def test_overfit_full_shape_small_corpus():
    examples = make_marker_corpus(64, seed=2, pool_size=40)
    prep = PreprocessConfig.default()
    token_lists = [preprocess_text(ex.text, ex.language, prep)
                   for ex in examples]
    vocab = build_vocab(token_lists)
    vectors = make_vector_file(vocabulary_of(examples), dim=300, seed=0)
    matrix, _ = build_matrix(vocab, vectors, expected_dim=300)

    config = ModelConfig()
    sequences = encode_batch(token_lists, vocab, max_len=config.seq_len)
    labels = np.array([ex.labels["1"] for ex in examples])
    network = Network(config, matrix, 1, np.random.default_rng(0))

    started = time.perf_counter()
    rng = np.random.default_rng(7)
    accuracy = 0.0
    epochs_used = 0
    for epoch in range(1, 201):
        train_epoch(network, sequences, [labels], batch_size=32,
                    optimizer=AdamConfig(), rng=rng)
        # eval-mode accuracy on the training set after the epoch's updates:
        # train_epoch's own figure is train-mode, with dropout on
        _, accuracy, _ = evaluate(network, sequences, [labels])
        epochs_used = epoch
        if accuracy >= 0.98:
            break
    elapsed = time.perf_counter() - started
    assert accuracy >= 0.98, f"only {accuracy:.3f} after {epochs_used} epochs"
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"
    stamp(f"overfit sanity (acc {accuracy:.2f} at epoch {epochs_used}, "
          f"{elapsed:.0f}s)")


def cv_ingredients():
    examples = make_marker_corpus(200, seed=11, pool_size=30)
    vectors = make_vector_file(vocabulary_of(examples), dim=16, seed=1)
    train_config = TrainConfig(
        task=1, language="en", folds=5, epochs=12, batch_size=8, seed=4,
        optimizer=AdamConfig(lr=5e-3))
    model_config = ModelConfig(
        seq_len=12, embed_dim=16, conv_filters=8, conv_kernel=2,
        lstm_units=8, dense_units=8, lstm_dropout=0.0,
        lstm_recurrent_dropout=0.0, spatial_dropout_rate=0.0,
        final_dropout_rate=0.0)
    return examples, vectors, train_config, model_config


def test_synthetic_cv_run(tmp_path):
    examples, vectors, train_config, model_config = cv_ingredients()
    report = run_cv(examples, train_config, vectors, tmp_path / "run", model_config)
    score = report.averaged["1"]["macro_f1"]
    assert score >= 0.95, f"averaged macro-F1 {score:.4f}"

    curves = tmp_path / "curves.csv"
    emit_curves(report, curves)
    lines = curves.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + train_config.folds * train_config.epochs
    stamp(f"synthetic CV (macro-F1 {score:.4f}, "
          f"{train_config.folds * train_config.epochs} curve rows)")


def test_synthetic_cv_deterministic(tmp_path):
    reports = []
    for name in ("a", "b"):
        examples, vectors, train_config, model_config = cv_ingredients()
        report = run_cv(examples, train_config, vectors, tmp_path / name,
                        model_config)
        path = tmp_path / f"{name}.json"
        write_report(report, path)
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    stamp("synthetic CV determinism (two runs byte-identical)")


def test_embedding_round_trip(tmp_path):
    examples = make_marker_corpus(30, seed=9)
    tokens = vocabulary_of(examples)
    vectors = make_vector_file(tokens, dim=24, seed=5)

    plain = tmp_path / "plain.txt"
    write_vector_file(vectors, plain)
    reparsed = parse_vector_file(plain)
    assert reparsed.had_header is False

    prep = PreprocessConfig.default()
    token_lists = [preprocess_text(ex.text, ex.language, prep)
                   for ex in examples]
    vocab = build_vocab(token_lists)
    original, _ = build_matrix(vocab, vectors)
    rebuilt, _ = build_matrix(vocab, reparsed)
    assert np.max(np.abs(original - rebuilt)) <= 1e-6

    with_header = tmp_path / "with_header.txt"
    write_vector_file(vectors, with_header, header=True)
    detected = parse_vector_file(with_header)
    assert detected.had_header is True
    assert detected.dimension == 24
    assert set(detected.entries) == set(vectors.entries)

    cache = tmp_path / "vectors.cache"
    write_cache(vectors, cache)
    reloaded = read_cache(cache)
    assert set(reloaded.entries) == set(vectors.entries)
    for word, row in vectors.entries.items():
        assert np.array_equal(reloaded.entries[word], row), word
    stamp("embedding round-trip (text 1e-6, header autodetect, exact cache)")


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    config = ModelConfig(seq_len=10, embed_dim=12, conv_filters=6,
                         lstm_units=5, dense_units=7)
    table_rows = rng.standard_normal((20, 12)).astype(np.float32)
    table_rows[:2] = 0.0
    network = Network(config, table_rows, 1, np.random.default_rng(8))

    batches = [rng.integers(0, 20, size=(4, 10)) for _ in range(3)]
    before = [[p.copy() for p in network.forward(b)] for b in batches]

    save_checkpoint(network, tmp_path / "ckpt")
    restored = load_checkpoint(tmp_path / "ckpt", config, 1, table_rows)
    for batch, probs in zip(batches, before):
        after = restored.forward(batch)
        for old, new in zip(probs, after):
            assert old.tobytes() == new.tobytes()
    stamp("checkpoint round-trip (forward bit-identical on 3 batches)")
