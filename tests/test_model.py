import importlib
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (assert_same_bits, fold_probabilities, held_caches,
                      max_rel_error, numerical_grad, saved_run, train_forward)

from abusekit import model
from abusekit.errors import (AbusekitError, BoundsError, ConfigurationError,
                             CorruptionError, ShapeError)
from abusekit.layers import AdamConfig, softmax, softmax_cross_entropy
from abusekit.model import (EVAL_BATCH, ModelConfig, Network, labels_from_probs,
                            load_checkpoint, save_checkpoint, train_step)
from abusekit.training import ensemble_predict, evaluate, read_config


def make_matrix(vocab_rows, dim, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.5, 0.5, size=(vocab_rows, dim)).astype(dtype)
    matrix[0] = 0.0
    matrix[1] = 0.0
    return matrix


def tiny_config(**overrides):
    base = dict(seq_len=8, embed_dim=6, conv_filters=5, conv_kernel=2,
                lstm_units=4, dense_units=7, lstm_dropout=0.0,
                lstm_recurrent_dropout=0.0, spatial_dropout_rate=0.0,
                final_dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def build(config, matrix, num_heads=1, seed=3, dtype=np.float32):
    """Network with a fresh generator seeded at seed."""
    return Network(config, matrix, num_heads, np.random.default_rng(seed), dtype)


def random_batch(config, vocab_rows, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab_rows, size=(batch, config.seq_len),
                        dtype=np.int32)


def traced_peak(run):
    """Peak bytes traced while run() runs; numpy reports its buffers to
    tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory_config():
    """A shape whose activations outweigh the fixed costs of a forward."""
    return ModelConfig(seq_len=40, embed_dim=16, conv_filters=16,
                       lstm_units=32, dense_units=16)


class TestConfig:
    def test_defaults_match_architecture(self):
        config = ModelConfig()
        assert (config.seq_len, config.embed_dim) == (100, 300)
        assert (config.conv_filters, config.conv_kernel) == (64, 2)
        assert config.lstm_units == 128 and config.dense_units == 128
        assert config.lstm_dropout == 0.1 and config.lstm_recurrent_dropout == 0.1
        config.validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(conv_filters=0).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(final_dropout_rate=1.0).validate()
        with pytest.raises(ConfigurationError):
            ModelConfig(seq_len=1, conv_kernel=2).validate()

    def test_reader_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            read_config(ModelConfig, {"seq_len": 10, "bogus": 1}, "model", False)

    def test_round_trip(self):
        config = tiny_config(dense_activation="tanh")
        assert read_config(ModelConfig, config.to_dict(), "model", True) == config


class TestShapes:
    def test_full_default_chain(self):
        config = ModelConfig()
        matrix = make_matrix(30, 300)
        net = build(config, matrix, seed=0)
        batch = random_batch(config, 30, batch=3)
        shared = net.trunk_forward(batch, train_mode=True, rng=np.random.default_rng(0))
        assert shared.shape == (3, 128)
        conv_out = net.conv._cache[-1]
        assert conv_out.shape == (3, 99, 64)
        logits = net.forward(batch)
        assert len(logits) == 1 and logits[0].shape == (3, 2)

    def test_two_heads_independent(self):
        config = tiny_config()
        net = build(config, make_matrix(20, 6), num_heads=2)
        assert len(net.heads) == 2
        for head in net.heads:
            assert head.weight.value.shape == (7, 2)
        assert not np.array_equal(net.heads[0].weight.value,
                                  net.heads[1].weight.value)

    def test_wrong_seq_len_rejected(self):
        config = tiny_config()
        net = build(config, make_matrix(20, 6))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((2, 9), dtype=np.int32))

    @pytest.mark.parametrize("shape", [(8,), (2, 9)], ids=["1-D", "width"])
    def test_forward_checks_shape_before_batching(self, monkeypatch, shape):
        net = build(tiny_config(), make_matrix(20, 6))

        def no_trunk(*args, **kwargs):
            raise AssertionError("trunk_forward reached")

        monkeypatch.setattr(net, "trunk_forward", no_trunk)
        with pytest.raises(ShapeError, match=r"\(B, 8\)"):
            net.forward(np.zeros(shape, dtype=np.int32))

    def test_table_dim_mismatch(self):
        with pytest.raises(ConfigurationError):
            build(tiny_config(), make_matrix(20, 12))


class TestForward:
    def test_probability_rows(self):
        config = tiny_config()
        net = build(config, make_matrix(25, 6), num_heads=2)
        probs = fold_probabilities(net, random_batch(config, 25, batch=5))
        for p in probs:
            assert np.all(p >= 0)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_eval_mode_repeatable(self):
        config = tiny_config()
        net = build(config, make_matrix(25, 6))
        batch = random_batch(config, 25)
        a = net.forward(batch)[0]
        b = net.forward(batch)[0]
        np.testing.assert_array_equal(a, b)

    def test_all_pad_input(self):
        config = tiny_config()
        net = build(config, make_matrix(25, 6))
        probs = fold_probabilities(net, np.zeros((2, 8), dtype=np.int32))[0]
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_seed_determinism(self):
        config = tiny_config()
        matrix = make_matrix(25, 6)
        a = build(config, matrix, seed=11)
        b = build(config, matrix, seed=11)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)
        batch = random_batch(config, 25)
        np.testing.assert_array_equal(a.forward(batch)[0], b.forward(batch)[0])


def padded_posts(rng, vocab_rows, batch, seq_len, lengths=None):
    """Posts of random ids, each followed by PAD up to seq_len."""
    if lengths is None:
        lengths = rng.integers(1, seq_len + 1, batch)
    posts = rng.integers(2, vocab_rows, (batch, seq_len), dtype=np.int32)
    posts[np.arange(seq_len) >= np.asarray(lengths)[:, None]] = 0
    return posts


def eval_case(name):
    """(config, matrix, batch) for one of TestSharedEvalWork's cases."""
    rng = np.random.default_rng(len(name))
    seq_len = {"seq-len-is-kernel": 2, "two-positions": 3}.get(name, 24)
    config = ModelConfig(seq_len=seq_len, lstm_dropout=0.0, lstm_recurrent_dropout=0.0,
                         spatial_dropout_rate=0.0, final_dropout_rate=0.0)
    matrix = make_matrix(60, config.embed_dim, seed=1)
    batch = padded_posts(rng, 60, 8, seq_len, rng.integers(1, seq_len // 2 + 1, 8))
    if name == "all-pad-row":
        batch[3] = 0
    elif name == "full-length-row":
        batch[5] = rng.integers(2, 60, seq_len)
    elif name == "one-distinct-id":
        batch[...] = 0
    elif name == "two-distinct-ids":
        batch[batch != 0] = 7
    elif name == "shared-real-tail":
        batch[:, -6:] = [9, 10, 11, 12, 13, 14]
    elif name == "nonzero-pad-row":
        matrix[0] = rng.uniform(-0.5, 0.5, config.embed_dim)
    elif name in ("batch-of-3", "batch-of-1"):
        batch = batch[:int(name[-1])]
    return config, matrix, batch


class TestSharedEvalWork:
    """An eval forward embeds and convolves each distinct id once, and runs
    the backward LSTM over a batch's shared trailing positions once; every
    post keeps the bits of the plain path.  With no dropout, a train-mode
    trunk is that plain path: every position embedded and convolved, and
    both LSTM cells run over every step of every row in one loop."""

    @pytest.mark.parametrize("name", [
        "short-posts", "all-pad-row", "full-length-row", "one-distinct-id",
        "two-distinct-ids", "shared-real-tail", "nonzero-pad-row",
        "seq-len-is-kernel", "two-positions", "batch-of-3", "batch-of-1"])
    def test_trunk_keeps_the_plain_bits(self, name):
        config, matrix, batch = eval_case(name)
        net = build(config, matrix, num_heads=2)
        want = net.trunk_forward(batch, train_mode=True)
        assert_same_bits(net.trunk_forward(batch), want)

    @pytest.mark.parametrize("bad", [-1, 60])
    def test_out_of_range_id_is_a_bounds_error(self, bad):
        # the eval pass counts the ids it embeds only once they are in range
        config, matrix, batch = eval_case("short-posts")
        net = build(config, matrix, num_heads=2)
        batch[2, 0] = bad
        for train_mode in (False, True):
            with pytest.raises(BoundsError):
                net.trunk_forward(batch, train_mode=train_mode)

    def test_forward_keeps_the_plain_bits(self):
        config, matrix, batch = eval_case("all-pad-row")
        net = build(config, matrix, num_heads=2)
        for got, want in zip(net.forward(batch), train_forward(net, batch)):
            assert_same_bits(got, want)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing():
    """perfbench's tracing module, imported from its directory; its module
    and sys.path entry are dropped afterwards."""
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path[:] = saved_path
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


class TestEvalForward:
    """Network.forward is the one eval forward: N posts in, each head's
    N x 2 logits out, the trunk run in _eval_batches' batches."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 130])
    def test_logits_are_the_batched_trunk_and_heads(self, n):
        rng = np.random.default_rng(n)
        config = tiny_config(seq_len=12)
        net = build(config, make_matrix(40, 6), num_heads=2)
        posts = padded_posts(rng, 40, n, config.seq_len)
        want = [np.full((n, 2), np.nan, dtype=np.float32) for _ in net.heads]
        for rows in model._eval_batches(posts):
            shared = net.trunk_forward(posts[rows])
            for out, head in zip(want, net.heads):
                out[rows] = head.forward(shared)
        got = net.forward(posts)
        for a, b in zip(got, want):
            assert not np.isnan(b).any()
            assert_same_bits(a, b)
        labels = [rng.integers(0, 2, n) for _ in net.heads]
        _, _, preds = evaluate(net, posts, labels)
        for p, z in zip(preds, got):
            np.testing.assert_array_equal(p, labels_from_probs(softmax(z)))

    def test_traced_forward_is_one_span(self, tracing):
        # perfbench's model.forward.ms_per_post divides a span's time by its
        # batch attribute: one span covers every post of the call
        config = tiny_config(seq_len=12)
        net = build(config, make_matrix(40, 6))
        posts = padded_posts(np.random.default_rng(0), 40, 130, config.seq_len)
        tracer, patcher = tracing.Tracer(), tracing.Patcher()
        tracer.install(patcher)
        try:
            net.forward(posts)
        finally:
            patcher.restore()
        forwards = [span for span in tracer.spans if span[0] == "model.forward"]
        assert [span[4] for span in forwards] == [{"batch": 130, "train": False}]
        trunks = [span for span in tracer.spans if span[0] == "model.trunk_forward"]
        assert len(trunks) == len(model._eval_batches(posts)) == 2
        assert all(span[3] == tracer.spans.index(forwards[0]) for span in trunks)


class TestTrainStep:
    def onehot(self, labels, classes=2):
        return np.eye(classes, dtype=np.float64)[labels]

    def test_loss_decreases_over_50_steps(self):
        config = tiny_config()
        net = build(config, make_matrix(30, 6))
        batch = random_batch(config, 30, batch=8, seed=5)
        labels = [self.onehot(np.array([0, 1] * 4))]
        optimizer = AdamConfig(lr=1e-3)
        losses = [train_step(net, batch, labels, optimizer)[0] for _ in range(50)]
        assert losses[-1] < losses[0]
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops >= 45   # near-monotone descent on a fixed batch

    def test_two_identical_heads_equal_single_loss(self):
        config = tiny_config()
        net = build(config, make_matrix(30, 6), num_heads=2)
        src, dst = net.heads
        dst.weight.value[...] = src.weight.value
        dst.bias.value[...] = src.bias.value
        batch = random_batch(config, 30, batch=4)
        target = self.onehot(np.array([0, 1, 1, 0]))

        shared = net.trunk_forward(batch)
        expected, _ = softmax_cross_entropy(net.heads[0].forward(shared), target)
        got, _ = train_step(net, batch, [target, target])
        assert abs(got - expected) < 1e-9

    def test_predictions_from_logits_before_update(self):
        # with every dropout rate at 0 the train-mode logits are the
        # eval-mode ones, so the step's labels match a forward before it
        config = tiny_config()
        net = build(config, make_matrix(30, 6), num_heads=2)
        batch = random_batch(config, 30, batch=6, seed=2)
        expected = [labels_from_probs(p) for p in fold_probabilities(net, batch)]
        target = self.onehot(np.array([0, 1, 1, 0, 1, 0]))
        _, preds = train_step(net, batch, [target, target])
        assert len(preds) == 2
        for got, want in zip(preds, expected):
            np.testing.assert_array_equal(got, want)

    def test_missing_head_labels(self):
        config = tiny_config()
        net = build(config, make_matrix(30, 6), num_heads=2)
        batch = random_batch(config, 30)
        with pytest.raises(ConfigurationError):
            train_step(net, batch, [self.onehot(np.array([0, 1]))])

    def test_embedding_never_updated(self):
        config = tiny_config()
        matrix = make_matrix(30, 6)
        frozen = matrix.copy()
        net = build(config, matrix)
        batch = random_batch(config, 30, batch=4)
        labels = [self.onehot(np.array([0, 1, 0, 1]))]
        for _ in range(3):
            train_step(net, batch, labels)
        np.testing.assert_array_equal(net.embedding.matrix, frozen)

    def test_grads_zeroed_after_step(self):
        config = tiny_config()
        net = build(config, make_matrix(30, 6))
        batch = random_batch(config, 30)
        train_step(net, batch, [self.onehot(np.array([0, 1]))])
        for p in net.parameters():
            assert not p.grad.any()


class TestEndToEndGradients:
    def setup(self):
        config = tiny_config()
        matrix = make_matrix(20, 6, dtype=np.float64)
        net = build(config, matrix, dtype=np.float64)
        batch = random_batch(config, 20, batch=2, seed=9)
        target = np.eye(2)[[0, 1]].astype(np.float64)
        return net, batch, target

    def worst_error(self, net, batch, target):
        def loss_fn():
            shared = net.trunk_forward(batch)
            total = 0.0
            for head in net.heads:
                loss, _ = softmax_cross_entropy(head.forward(shared), target)
                total += loss / len(net.heads)
            return total

        for p in net.parameters():
            p.zero_grad()
        shared = net.trunk_forward(batch, train_mode=True)
        grad_shared = np.zeros_like(shared)
        for head in net.heads:
            _, grad_logits = softmax_cross_entropy(
                head.forward(shared, train_mode=True), target)
            grad_shared += head.backward(grad_logits / len(net.heads))
        net.trunk_backward(grad_shared)

        worst = 0.0
        for p in net.parameters():
            numeric = numerical_grad(loss_fn, p.value)
            worst = max(worst, max_rel_error(p.grad, numeric))
        return worst

    def test_full_network_gradcheck(self):
        assert self.worst_error(*self.setup()) < 1e-3

    def test_gradcheck_after_eval_forward(self):
        # an eval forward keeps nothing that backward reads, and drops what
        # a train forward kept; a fresh train forward restores it
        net, batch, target = self.setup()
        train_forward(net, batch)
        net.forward(batch)
        with pytest.raises(AbusekitError, match="fresh forward"):
            net.trunk_backward(np.ones((2, net.config.dense_units)))
        assert self.worst_error(net, batch, target) < 1e-3


class TestRelease:
    """Only a train-mode forward keeps caches: an eval forward releases them."""

    def test_every_cache_and_mask_dropped(self):
        config = tiny_config(spatial_dropout_rate=0.2, final_dropout_rate=0.2,
                             lstm_dropout=0.1, lstm_recurrent_dropout=0.1)
        net = build(config, make_matrix(20, 6), num_heads=2)
        batch = random_batch(config, 20, batch=4)
        train_forward(net, batch, rng=np.random.default_rng(0))
        assert held_caches(net) == ["spatial_dropout", "conv", "bilstm", "dense",
                                    "final_dropout", "head0", "head1"]
        net.forward(batch)
        assert held_caches(net) == []

    def test_ensemble_peak_is_one_network(self, tmp_path):
        # loaded and run fold by fold, five networks need about what one
        # forward needs, not five times it
        config = memory_config()
        matrix = make_matrix(50, 16)
        nets = [build(config, matrix, seed=seed) for seed in range(5)]
        run = saved_run(tmp_path, nets)
        batch = random_batch(config, 50, batch=EVAL_BATCH, seed=4)
        single = traced_peak(lambda: nets[0].forward(batch))
        ensemble = traced_peak(lambda: ensemble_predict(run, range(5), batch))
        assert ensemble < 1.5 * single

    def test_predict_peak_is_one_batch(self):
        # Network.forward holds one batch's activations at a time, so four
        # batches of posts cost about what one batch costs
        config = memory_config()
        net = build(config, make_matrix(50, 16))
        posts = random_batch(config, 50, batch=4 * EVAL_BATCH, seed=4)
        one = traced_peak(lambda: net.forward(posts[:EVAL_BATCH]))
        four = traced_peak(lambda: net.forward(posts))
        assert four <= 1.2 * one


    def test_eval_bilstm_holds_no_gate_slab(self):
        # An eval BiLSTM projects its input a few steps at a time, so at the
        # default shape it holds its output plus chunk buffers and step
        # temporaries (about 1.6x the output).  A (2, B, L, 4H) gate slab is
        # 4x the output, so a peak under output + a quarter slab leaves room
        # for numpy's temporaries and still fails if the slab comes back.
        config = ModelConfig()
        net = build(config, make_matrix(50, config.embed_dim))
        posts = random_batch(config, 50, batch=EVAL_BATCH, seed=6)
        x = net.conv.forward(net.embedding.forward(posts))
        out = []
        peak = traced_peak(lambda: out.append(net.bilstm.forward(x)))
        batch, length, _ = x.shape
        slab = 2 * batch * length * 4 * config.lstm_units * x.itemsize
        assert peak < out[0].nbytes + slab / 4

    def test_train_step_keeps_only_what_backward_reads(self):
        # At the default shape and B=32 a train step peaks in the dense
        # backward.  It then holds the BiLSTM's gate slab and cell states,
        # the layer outputs the caches hold (the conv's input, the conv's
        # and the BiLSTM's output) and dense's pre-activation gradient, and
        # it makes dense's input gradient, a quarter slab.  Half a conv
        # output covers the masks and small temporaries, so a kept
        # pre-activation (one conv output or more), a repeated pool
        # gradient, or an LSTM masked-input or hidden-state slab fails.
        config = ModelConfig()
        net = build(config, make_matrix(50, config.embed_dim))
        batch = random_batch(config, 50, batch=32, seed=7)
        onehot = [np.eye(2, dtype=np.float32)[np.arange(32) % 2]]
        rng = np.random.default_rng(0)
        train_step(net, batch, onehot, rng=rng)   # gradients and Adam moments
        peak = traced_peak(lambda: train_step(net, batch, onehot, rng=rng))
        steps = config.seq_len - config.conv_kernel + 1
        size = 32 * np.dtype(np.float32).itemsize   # one float32 for each of 32 posts
        slab = 2 * steps * 4 * config.lstm_units * size
        cell_states = (steps + 1) * 2 * config.lstm_units * size
        conv_out = steps * config.conv_filters * size
        outputs = (config.seq_len * config.embed_dim * size + conv_out
                   + slab / 4 + steps * config.dense_units * size)
        assert peak < slab + cell_states + outputs + slab / 4 + conv_out / 2


class TestPredict:
    def test_tie_resolves_high(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_array_equal(labels_from_probs(probs), [1, 0, 1])

    def test_three_way_tie(self):
        probs = np.array([[0.4, 0.3, 0.3], [1 / 3, 1 / 3, 1 / 3]])
        np.testing.assert_array_equal(labels_from_probs(probs), [0, 2])

    def test_monotone_logit_invariance(self, tmp_path):
        config = tiny_config()
        net = build(config, make_matrix(30, 6))
        batch = random_batch(config, 30, batch=16, seed=21)
        before = ensemble_predict(saved_run(tmp_path / "before", [net]), [0], batch)[0]
        for head in net.heads:
            head.weight.value *= 2.0
            head.bias.value *= 2.0
        after = ensemble_predict(saved_run(tmp_path / "after", [net]), [0], batch)[0]
        np.testing.assert_array_equal(before, after)

    def test_batching_invisible(self, tmp_path, monkeypatch):
        config = tiny_config()
        run = saved_run(tmp_path, [build(config, make_matrix(30, 6))])
        batch = random_batch(config, 30, batch=10, seed=2)
        monkeypatch.setattr(model, "EVAL_BATCH", 3)
        small = ensemble_predict(run, [0], batch)[0]
        monkeypatch.setattr(model, "EVAL_BATCH", 64)
        np.testing.assert_array_equal(small, ensemble_predict(run, [0], batch)[0])


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        config = tiny_config()
        matrix = make_matrix(30, 6)
        net = build(config, matrix, num_heads=2, seed=8)
        batch = random_batch(config, 30, batch=4, seed=1)
        before = net.forward(batch)
        save_checkpoint(net, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt", config, 2, matrix)
        assert restored.config == net.config
        for pa, pb in zip(net.parameters(), restored.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)
        assert restored.embedding.matrix is matrix
        after = restored.forward(batch)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        # every value comes from weights.bin, so a load builds its network
        # without the orthogonal init's QR of each recurrent gate block
        config = tiny_config()
        matrix = make_matrix(30, 6)
        net = build(config, matrix, seed=8)
        run = saved_run(tmp_path, [net])

        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called during a load")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        loaded = run.load_fold(0)
        for pa, pb in zip(net.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_failed_save_keeps_old_weights(self, tmp_path, monkeypatch):
        # weights.bin is written beside itself and swapped in whole
        config = tiny_config()
        matrix = make_matrix(30, 6)
        save_checkpoint(build(config, matrix, seed=1), tmp_path / "ckpt")
        old = (tmp_path / "ckpt" / "weights.bin").read_bytes()
        net = build(config, matrix, seed=2)
        first = net.parameters()[0]

        def first_then_fail():
            yield first
            raise OSError("disk full")

        monkeypatch.setattr(net, "parameters", first_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(net, tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "weights.bin").read_bytes() == old
        assert os.listdir(tmp_path / "ckpt") == ["weights.bin"]

    def test_truncated_weights(self, tmp_path):
        # 16 bytes short, or 4 bytes (one float) over: either size is wrong
        config = tiny_config()
        matrix = make_matrix(30, 6)
        save_checkpoint(build(config, matrix), tmp_path / "ckpt")
        weights = tmp_path / "ckpt" / "weights.bin"
        blob = weights.read_bytes()
        for damaged in (blob[:-16], blob + bytes(4)):
            weights.write_bytes(damaged)
            with pytest.raises(CorruptionError, match=f"needs {len(blob)}"):
                load_checkpoint(tmp_path / "ckpt", config, 1, matrix)

    def test_missing_weights(self, tmp_path):
        matrix = make_matrix(30, 6)
        save_checkpoint(build(tiny_config(), matrix), tmp_path / "ckpt")
        (tmp_path / "ckpt" / "weights.bin").unlink()
        with pytest.raises(CorruptionError, match="missing .*weights.bin"):
            load_checkpoint(tmp_path / "ckpt", tiny_config(), 1, matrix)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CorruptionError):
            load_checkpoint(tmp_path / "absent", tiny_config(), 1,
                            make_matrix(30, 6))

    @pytest.mark.parametrize("shape", [(30,), (30, 5), (30, 7)])
    def test_embedding_width_checked(self, tmp_path, shape):
        save_checkpoint(build(tiny_config(), make_matrix(30, 6)),
                        tmp_path / "ckpt")
        with pytest.raises(ConfigurationError, match="embed_dim 6"):
            load_checkpoint(tmp_path / "ckpt", tiny_config(), 1,
                            np.zeros(shape, dtype=np.float32))

    def test_manifest_records_frozen_embedding(self, tmp_path):
        # the frozen matrix and the config are the run's, not the
        # checkpoint's: weights.bin is the trainable parameters alone
        net = build(tiny_config(), make_matrix(30, 6))
        save_checkpoint(net, tmp_path / "ckpt")
        assert os.listdir(tmp_path / "ckpt") == ["weights.bin"]
        total = os.path.getsize(tmp_path / "ckpt" / "weights.bin")
        assert total == 4 * sum(p.value.size for p in net.parameters())
