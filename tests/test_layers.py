"""Numeric verification of every hand-differentiated layer.

Each parameterized layer is checked against central finite differences at
64-bit precision over several seeds, plus independent slow-path oracles
for the convolution and the LSTM cell.
"""

import math
import time

import numpy as np
import pytest
from conftest import (assert_same_bits, boolean_mask_sigmoid, max_rel_error,
                      numerical_grad)

import abusekit.layers as layers_module
from abusekit.errors import (AbusekitError, BoundsError, ConfigurationError,
                             DataIntegrityError, ShapeError)
from abusekit.layers import (AdamConfig, BiLstm, Conv1D, Dense, Dropout,
                             EmbeddingLookup, GlobalAveragePool1D, Lstm,
                             Parameter, SpatialDropout1D, adam_step,
                             glorot_uniform, make_dropout_mask, orthogonal,
                             sigmoid, softmax)

GRAD_TOL = 1e-4
SEEDS = range(5)


def gradcheck(layer, x, forward, tol=GRAD_TOL):
    """Compare backward() against finite differences for input and params."""
    rng = np.random.default_rng(999)
    proj = rng.standard_normal(forward(x).shape)

    def loss():
        return float((forward(x) * proj).sum())

    layer.zero_grad()
    forward(x)
    dx = layer.backward(proj.copy())
    analytic = {id(p): p.grad.copy() for p in layer.parameters()}

    failures = []
    num_dx = numerical_grad(loss, x)
    err = max_rel_error(dx, num_dx)
    if err >= tol:
        failures.append(f"input grad rel err {err:.3e}")
    for p in layer.parameters():
        num = numerical_grad(loss, p.value)
        err = max_rel_error(analytic[id(p)], num)
        if err >= tol:
            failures.append(f"{p.name or 'param'} grad rel err {err:.3e}")
    assert not failures, "; ".join(failures)


class TestInitializers:
    def test_orthogonal_columns(self):
        rng = np.random.default_rng(0)
        for rows, cols in [(5, 5), (8, 3)]:
            q = orthogonal(rows, cols, rng, np.float64)
            np.testing.assert_allclose(q.T @ q, np.eye(cols), atol=1e-12)

    def test_orthogonal_determinism(self):
        a = orthogonal(6, 6, np.random.default_rng(4), np.float64)
        b = orthogonal(6, 6, np.random.default_rng(4), np.float64)
        np.testing.assert_array_equal(a, b)

    def test_glorot_bounds(self):
        rng = np.random.default_rng(2)
        w = glorot_uniform((200, 100), 200, 100, rng, np.float64)
        limit = math.sqrt(6.0 / 300.0)
        assert np.all(np.abs(w) <= limit)
        assert np.abs(w).max() > 0.9 * limit   # actually fills the range

    def test_sigmoid_extremes(self):
        x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
        s = sigmoid(x)
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 or s[0] < 1e-20
        assert s[2] == 0.5
        assert s[-1] == 1.0 or s[-1] > 1 - 1e-20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bits_match_two_branch_oracle(self, dtype):
        tiny = np.geomspace(1e-30, 120.0, 20_001)
        cases = [
            np.linspace(-120.0, 120.0, 480_001),
            np.concatenate([-tiny, tiny]),
            np.array([0.0, -0.0, np.inf, -np.inf, 1e4, -1e4, -1e4 - 1.0, np.nan]),
            np.random.default_rng(0).standard_normal((3, 5, 8))[:, 1:4, ::2] * 30,
        ]
        for x in cases:
            x = x.astype(dtype)
            expected = boolean_mask_sigmoid(x)
            assert_same_bits(sigmoid(x), expected)
            in_place = x.copy()
            assert sigmoid(in_place, out=in_place) is in_place
            assert_same_bits(in_place, expected)


class TestSoftmax:
    def test_rows_are_distributions(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            logits = rng.standard_normal((8, 5)) * 30
            p = softmax(logits)
            assert np.all(p >= 0)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 1000.0),
                                   atol=1e-12)

    def test_huge_logits_no_overflow(self):
        p = softmax(np.array([[1e5, 0.0]]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-12)


class TestCrossEntropy:
    def test_uniform_binary_is_ln2(self):
        from abusekit.layers import softmax_cross_entropy
        logits = np.zeros((4, 2))
        onehot = np.eye(2)[[0, 1, 0, 1]].astype(float)
        loss, _ = softmax_cross_entropy(logits, onehot)
        assert abs(loss - math.log(2.0)) < 1e-9

    def test_constant_rows_same_as_zero(self):
        from abusekit.layers import softmax_cross_entropy
        logits = np.full((3, 5), 7.25)
        onehot = np.eye(5)[[0, 2, 4]].astype(float)
        loss, _ = softmax_cross_entropy(logits, onehot)
        assert abs(loss - math.log(5.0)) < 1e-9

    def test_confident_correct_is_tiny(self):
        from abusekit.layers import softmax_cross_entropy
        logits = np.array([[20.0, 0.0], [0.0, 20.0]])
        onehot = np.eye(2).astype(float)
        loss, _ = softmax_cross_entropy(logits, onehot)
        assert loss < 1e-8

    def test_invalid_onehot_rejected(self):
        from abusekit.layers import softmax_cross_entropy
        logits = np.zeros((2, 2))
        with pytest.raises(DataIntegrityError):
            softmax_cross_entropy(logits, np.array([[0.7, 0.7], [1.0, 0.0]]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(logits, np.eye(3))

    def test_gradient_fine(self):
        from abusekit.layers import softmax_cross_entropy
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            logits = rng.standard_normal((4, 6))
            labels = rng.integers(0, 6, size=4)
            onehot = np.eye(6)[labels].astype(float)
            _, grad = softmax_cross_entropy(logits, onehot)
            num = numerical_grad(
                lambda: softmax_cross_entropy(logits, onehot)[0], logits)
            assert max_rel_error(grad, num) < 1e-6

    def test_soft_targets_supported(self):
        from abusekit.layers import softmax_cross_entropy
        logits = np.zeros((1, 2))
        loss, _ = softmax_cross_entropy(logits, np.array([[0.5, 0.5]]))
        assert abs(loss - math.log(2.0)) < 1e-9


class TestConv1D:
    def test_output_length(self):
        rng = np.random.default_rng(0)
        conv = Conv1D(3, 4, 2, rng, activation="linear", dtype=np.float64)
        out = conv.forward(np.zeros((2, 100, 3)))
        assert out.shape == (2, 99, 4)

    def test_too_short_sequence(self):
        rng = np.random.default_rng(0)
        conv = Conv1D(3, 4, 2, rng, dtype=np.float64)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 1, 3)))

    def test_all_ones_analytic(self):
        rng = np.random.default_rng(0)
        conv = Conv1D(3, 1, 2, rng, activation="linear", dtype=np.float64)
        conv.kernels.value[...] = 1.0
        conv.bias.value[...] = 0.0
        out = conv.forward(np.ones((2, 5, 3)))
        np.testing.assert_allclose(out, 6.0, atol=1e-12)   # k * C_in ones

    def test_matches_naive_oracle(self):
        def naive(x, kernels, bias):
            batch, length, _ = x.shape
            k, _, out_ch = kernels.shape
            out = np.zeros((batch, length - k + 1, out_ch))
            for b in range(batch):
                for t in range(length - k + 1):
                    for c in range(out_ch):
                        acc = bias[c]
                        for dt in range(k):
                            acc += float(x[b, t + dt] @ kernels[dt, :, c])
                        out[b, t, c] = acc
            return out

        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            conv = Conv1D(4, 5, 2, rng, activation="linear", dtype=np.float64)
            x = np.random.default_rng(seed + 100).standard_normal((2, 3, 4))
            got = conv.forward(x)
            want = naive(x, conv.kernels.value, conv.bias.value)
            assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("activation", ["linear", "tanh"])
    def test_gradients(self, activation):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            conv = Conv1D(3, 4, 2, rng, activation=activation, dtype=np.float64)
            x = np.random.default_rng(seed + 50).standard_normal((2, 5, 3))
            gradcheck(conv, x, lambda a: conv.forward(a, train_mode=True))

    def test_gradients_relu_away_from_kink(self):
        # relu has no gradient at 0; check on seeds whose pre-activations
        # stay clear of it so finite differences remain valid.  The relu
        # layer keeps no pre-activations, so a linear twin drawn from the
        # same seed gives them.
        checked = 0
        seed = 0
        while checked < 5 and seed < 60:
            conv, twin = (Conv1D(3, 4, 2, np.random.default_rng(seed), activation=act,
                                 dtype=np.float64) for act in ("relu", "linear"))
            x = np.random.default_rng(seed + 500).standard_normal((2, 5, 3))
            z = twin.forward(x)
            seed += 1
            if np.min(np.abs(z)) < 1e-3:
                continue
            gradcheck(conv, x, lambda a: conv.forward(a, train_mode=True))
            checked += 1
        assert checked == 5

    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(1)
        conv = Conv1D(3, 4, 2, rng, activation="linear", dtype=np.float64)
        x = rng.standard_normal((2, 6, 3))
        out = conv.forward(x, train_mode=True)
        dx = conv.backward(np.zeros_like(out))
        assert not dx.any()
        assert not conv.kernels.grad.any() and not conv.bias.grad.any()

    def test_backward_linearity(self):
        rng = np.random.default_rng(2)
        conv = Conv1D(3, 4, 2, rng, activation="linear", dtype=np.float64)
        x = rng.standard_normal((2, 6, 3))
        out = conv.forward(x)
        g1 = rng.standard_normal(out.shape)
        g2 = rng.standard_normal(out.shape)
        conv.zero_grad()
        conv.forward(x, train_mode=True)   # each backward consumes its forward
        dx1 = conv.backward(g1)
        k1 = conv.kernels.grad.copy()
        conv.zero_grad()
        conv.forward(x, train_mode=True)
        dx2 = conv.backward(g2)
        k2 = conv.kernels.grad.copy()
        conv.zero_grad()
        conv.forward(x, train_mode=True)
        dx12 = conv.backward(g1 + g2)
        np.testing.assert_allclose(dx12, dx1 + dx2, atol=1e-10)
        np.testing.assert_allclose(conv.kernels.grad, k1 + k2, atol=1e-10)

    def test_parameter_grads_without_input_grad(self):
        # the model's conv reads a frozen embedding: input_grad=False skips
        # the input product and leaves the parameter gradients' bits alone
        rng = np.random.default_rng(3)
        conv = Conv1D(5, 4, 2, rng)
        x = rng.standard_normal((3, 7, 5)).astype(np.float32)
        grad = rng.standard_normal((3, 6, 4)).astype(np.float32)
        conv.forward(x, train_mode=True)
        assert conv.backward(grad).shape == x.shape
        want = [p.grad.copy() for p in conv.parameters()]
        conv.zero_grad()
        conv.forward(x, train_mode=True)
        assert conv.backward(grad, input_grad=False) is None
        for param, expected in zip(conv.parameters(), want):
            assert_same_bits(param.grad, expected)

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_gradients_from_a_rebuilt_input(self, rate):
        # Given its input's source, a train conv keeps the (table, ids, mask)
        # triple in place of the input and backward rebuilds the input from
        # it: the input and parameter gradients still match finite differences.
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            conv = Conv1D(3, 4, 2, rng, activation="tanh", dtype=np.float64)
            table = rng.standard_normal((6, 3))
            ids = rng.integers(0, 6, (2, 5))
            mask = make_dropout_mask((2, 1, 3), rate, rng, np.float64) if rate else None
            source = (table, ids, mask)
            x = table[ids] if mask is None else table[ids] * mask
            conv.forward(x, train_mode=True, source=source)
            assert conv._cache[0] is source
            gradcheck(conv, x, lambda a: conv.forward(a, train_mode=True, source=source))

    @pytest.mark.parametrize("distinct", [1, 2, 3, 5, 40])
    def test_eval_table_keeps_the_bits(self, distinct):
        # An eval conv may read a table of distinct embedding rows and the
        # index of the row at each position: every product is then made once
        # per row, with the bits of the conv over the gathered input.  One
        # or two rows alone would take other BLAS paths.
        rng = np.random.default_rng(distinct)
        conv = Conv1D(300, 64, 2, rng)
        table = rng.uniform(-0.5, 0.5, (distinct, 300)).astype(np.float32)
        index = rng.integers(0, distinct, (6, 30))
        assert_same_bits(conv.forward(table, index=index), conv.forward(table[index]))

    def test_table_input_is_eval_only(self):
        rng = np.random.default_rng(0)
        conv = Conv1D(300, 64, 2, rng)
        table = rng.uniform(-0.5, 0.5, (5, 300)).astype(np.float32)
        with pytest.raises(ConfigurationError, match="eval-only"):
            conv.forward(table, train_mode=True, index=np.zeros((2, 6), dtype=np.int64))

    def test_eval_table_under_three_positions(self):
        # a post of 1 or 2 output positions makes its own 1- or 2-row
        # products, so the conv gathers the input for it first
        rng = np.random.default_rng(0)
        conv = Conv1D(300, 64, 2, rng)
        table = rng.uniform(-0.5, 0.5, (20, 300)).astype(np.float32)
        for length in (2, 3):
            index = rng.integers(0, 20, (5, length))
            assert_same_bits(conv.forward(table, index=index),
                             conv.forward(table[index]))


class TestDense:
    def test_identity_map(self):
        rng = np.random.default_rng(0)
        dense = Dense(4, 4, rng, activation="linear", dtype=np.float64)
        dense.weight.value[...] = np.eye(4)
        dense.bias.value[...] = 0.0
        x = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(dense.forward(x), x)

    def test_timestep_broadcast_shape(self):
        rng = np.random.default_rng(0)
        dense = Dense(256, 128, rng, dtype=np.float64)
        out = dense.forward(np.zeros((2, 99, 256)))
        assert out.shape == (2, 99, 128)

    def test_mismatched_features(self):
        rng = np.random.default_rng(0)
        dense = Dense(4, 2, rng, dtype=np.float64)
        with pytest.raises(ShapeError):
            dense.forward(np.zeros((3, 5)))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 5, 4)])
    def test_gradients(self, shape):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            dense = Dense(4, 3, rng, activation="tanh", dtype=np.float64)
            x = np.random.default_rng(seed + 70).standard_normal(shape)
            gradcheck(dense, x, lambda a: dense.forward(a, train_mode=True))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    def test_broadcast_gradient_bits(self, activation):
        # the pool's backward hands dense a read-only stride-0 view; the
        # gradients carry the bits of the same gradient materialised
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 30, 64)).astype(np.float32)
        g = rng.standard_normal((8, 1, 32)).astype(np.float32)
        grads = []
        for grad_out in (np.broadcast_to(g, (8, 30, 32)), np.repeat(g, 30, axis=1)):
            dense = Dense(64, 32, np.random.default_rng(4), activation=activation)
            dense.forward(x, train_mode=True)
            grads.append((dense.backward(grad_out), dense.weight.grad, dense.bias.grad))
        for broadcast, materialised in zip(*grads):
            assert_same_bits(broadcast, materialised)


@pytest.mark.parametrize("make", [
    lambda rng: Conv1D(3, 4, 2, rng, dtype=np.float64),
    lambda rng: Dense(3, 4, rng, dtype=np.float64)], ids=["conv", "dense"])
def test_backward_without_cache_is_typed(make):
    # never run, run in eval mode, or already consumed by a backward: a
    # typed error, not a TypeError from unpacking None
    layer = make(np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((2, 5, 3))
    with pytest.raises(AbusekitError, match="fresh forward"):
        layer.backward(np.ones((2, 4, 4)))
    out = layer.forward(x, train_mode=True)
    first = layer.backward(np.ones_like(out))
    with pytest.raises(AbusekitError, match="fresh forward"):
        layer.backward(np.ones_like(out))
    layer.forward(x, train_mode=True)
    assert_same_bits(layer.forward(x), out)   # and drops the train cache
    with pytest.raises(AbusekitError, match="fresh forward"):
        layer.backward(np.ones_like(out))
    layer.zero_grad()
    layer.forward(x, train_mode=True)
    assert_same_bits(layer.backward(np.ones_like(out)), first)


class TestGlobalAveragePool:
    def test_constant_sequence(self):
        pool = GlobalAveragePool1D()
        x = np.tile(np.array([1.0, -2.0, 3.0]), (2, 7, 1))
        np.testing.assert_allclose(pool.forward(x),
                                   [[1.0, -2.0, 3.0]] * 2, atol=1e-15)

    def test_two_point_mean(self):
        pool = GlobalAveragePool1D()
        x = np.array([[[1.0], [3.0]]])
        np.testing.assert_allclose(pool.forward(x), [[2.0]])

    def test_length_one_squeeze(self):
        pool = GlobalAveragePool1D()
        x = np.random.default_rng(0).standard_normal((3, 1, 5))
        np.testing.assert_array_equal(pool.forward(x), x[:, 0, :])

    def test_backward_distributes_evenly(self):
        pool = GlobalAveragePool1D()
        x = np.zeros((2, 4, 3))
        pool.forward(x)
        g = np.arange(6.0).reshape(2, 3)
        dx = pool.backward(g)
        assert dx.shape == x.shape
        np.testing.assert_allclose(dx, np.repeat(g[:, None, :] / 4, 4, axis=1))

    def test_gradients(self):
        pool = GlobalAveragePool1D()
        x = np.random.default_rng(8).standard_normal((2, 5, 3))
        gradcheck(pool, x, pool.forward)


class TestEmbeddingLookup:
    def table(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((6, 4)).astype(np.float32)
        matrix[0] = 0.0
        return matrix

    def test_lookup_and_pad(self):
        lookup = EmbeddingLookup(self.table())
        out = lookup.forward(np.array([[0, 2], [3, 0]], dtype=np.int32))
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out[0, 0], 0.0)
        np.testing.assert_array_equal(out[1, 1], 0.0)

    def test_identical_rows_identical_slices(self):
        lookup = EmbeddingLookup(self.table())
        idx = np.array([[1, 2, 3], [1, 2, 3]], dtype=np.int32)
        out = lookup.forward(idx)
        np.testing.assert_array_equal(out[0], out[1])

    def test_out_of_range(self):
        lookup = EmbeddingLookup(self.table())
        with pytest.raises(BoundsError):
            lookup.forward(np.array([[6]], dtype=np.int32))
        with pytest.raises(BoundsError):
            lookup.forward(np.array([[-1]], dtype=np.int32))

    def test_frozen_table(self):
        matrix = self.table()
        lookup = EmbeddingLookup(matrix)
        before = lookup.matrix.copy()
        out = lookup.forward(np.array([[1, 2]], dtype=np.int32))
        result = lookup.backward(np.ones_like(out))
        assert result is None
        np.testing.assert_array_equal(lookup.matrix, before)
        assert lookup.parameters() == []


class TestDropoutOps:
    def test_eval_mode_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 5, 3))
        for layer in (Dropout(0.4), SpatialDropout1D(0.4)):
            np.testing.assert_array_equal(layer.forward(x, train_mode=False), x)

    def test_rate_zero_identity_in_train(self):
        x = np.random.default_rng(0).standard_normal((2, 5, 3))
        rng = np.random.default_rng(1)
        for layer in (Dropout(0.0), SpatialDropout1D(0.0)):
            np.testing.assert_array_equal(
                layer.forward(x, train_mode=True, rng=rng), x)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            make_dropout_mask((3,), 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            make_dropout_mask((3,), -0.1, np.random.default_rng(0))

    def test_mask_values(self):
        mask = make_dropout_mask((10000,), 0.25, np.random.default_rng(3))
        values = set(np.unique(mask))
        assert values == {0.0, np.float32(1.0 / 0.75)}

    def test_expectation_monte_carlo(self):
        # 1e5 draws of a unit input at rate 0.1: scaled keep probability
        # must hold the mean within 1% of 1.0
        mask = make_dropout_mask((100000,), 0.1, np.random.default_rng(7),
                                 dtype=np.float64)
        assert abs(mask.mean() - 1.0) < 0.01

    def test_spatial_channels_constant_over_time(self):
        x = np.ones((4, 9, 8))
        layer = SpatialDropout1D(0.5)
        out = layer.forward(x, train_mode=True, rng=np.random.default_rng(5))
        # every (batch, channel) column is either all zero or all 2.0
        for b in range(4):
            for c in range(8):
                column = out[b, :, c]
                assert np.all(column == column[0])
                assert column[0] in (0.0, 2.0)
        assert (out == 0).any() and (out == 2.0).any()

    def test_spatial_expectation(self):
        x = np.ones((30000, 2, 4))
        layer = SpatialDropout1D(0.1)
        out = layer.forward(x, train_mode=True, rng=np.random.default_rng(11))
        assert abs(out.mean() - 1.0) < 0.01

    def test_backward_uses_same_mask(self):
        x = np.ones((3, 6, 4))
        for layer in (Dropout(0.3), SpatialDropout1D(0.3)):
            out = layer.forward(x, train_mode=True, rng=np.random.default_rng(2))
            dx = layer.backward(np.ones_like(out))
            np.testing.assert_array_equal(dx, out)

    def test_train_mode_deterministic_given_seed(self):
        x = np.random.default_rng(0).standard_normal((2, 5, 3))
        a = Dropout(0.4).forward(x, train_mode=True, rng=np.random.default_rng(9))
        b = Dropout(0.4).forward(x, train_mode=True, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


def scalar_lstm_cell(x_t, h_prev, c_prev, lstm, rec_mask=None):
    """Pure-Python per-element reference for one step of an Lstm layer."""
    W, U, b_ = lstm.W.value, lstm.U.value, lstm.b.value
    batch, hidden = h_prev.shape
    dim = x_t.shape[1]
    h_out = np.zeros((batch, hidden))
    c_out = np.zeros((batch, hidden))
    for b in range(batch):
        hm = [h_prev[b, j] * (rec_mask[b, j] if rec_mask is not None else 1.0)
              for j in range(hidden)]
        for j in range(hidden):
            acc = [0.0, 0.0, 0.0, 0.0]
            for gate in range(4):
                row = gate * hidden + j
                s = float(b_[row])
                for d in range(dim):
                    s += float(x_t[b, d]) * float(W[row, d])
                for k in range(hidden):
                    s += hm[k] * float(U[row, k])
                acc[gate] = s
            i = 1.0 / (1.0 + math.exp(-acc[0]))
            f = 1.0 / (1.0 + math.exp(-acc[1]))
            g = math.tanh(acc[2])
            o = 1.0 / (1.0 + math.exp(-acc[3]))
            c = f * float(c_prev[b, j]) + i * g
            c_out[b, j] = c
            h_out[b, j] = o * math.tanh(c)
    return h_out, c_out


def scalar_lstm_chain(x, lstm, in_mask=None, rec_mask=None):
    """Hidden states of the scalar reference run over a whole sequence."""
    batch, length, _ = x.shape
    h = np.zeros((batch, lstm.hidden_size))
    c = np.zeros((batch, lstm.hidden_size))
    out = np.zeros((batch, length, lstm.hidden_size))
    for t in range(length):
        x_t = x[:, t] if in_mask is None else x[:, t] * in_mask
        h, c = scalar_lstm_cell(x_t, h, c, lstm, rec_mask)
        out[:, t] = h
    return out


class TestLstmCell:
    """The per-step LSTM arithmetic, checked through the Lstm layer."""

    def make_lstm(self, seed, dim=3, hidden=4, **dropout):
        # Gaussian weights instead of the init scheme, to reach saturated gates
        rng = np.random.default_rng(seed)
        lstm = Lstm(dim, hidden, rng, dtype=np.float64, **dropout)
        for p in lstm.parameters():
            p.value[...] = rng.standard_normal(p.value.shape)
        return lstm

    def test_zero_weights_zero_output(self):
        lstm = self.make_lstm(0)
        for p in lstm.parameters():
            p.value[...] = 0.0
        x = np.random.default_rng(0).standard_normal((2, 5, 3))
        np.testing.assert_array_equal(lstm.forward(x), 0.0)

    def test_matches_scalar_oracle(self):
        for seed in SEEDS:
            lstm = self.make_lstm(seed)
            x = np.random.default_rng(seed + 40).standard_normal((2, 3, 3))
            ref = scalar_lstm_chain(x, lstm)
            assert np.max(np.abs(lstm.forward(x) - ref)) < 1e-12

    def test_matches_scalar_oracle_with_mask(self):
        # train mode draws the input mask, then the recurrent mask, from rng
        lstm = self.make_lstm(31, dropout=0.3, recurrent_dropout=0.5)
        x = np.random.default_rng(77).standard_normal((3, 4, 3))
        out = lstm.forward(x, train_mode=True, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        in_mask = make_dropout_mask((3, 3), 0.3, rng, dtype=np.float64)
        rec_mask = make_dropout_mask((3, 4), 0.5, rng, dtype=np.float64)
        assert (rec_mask == 0).any()
        ref = scalar_lstm_chain(x, lstm, in_mask, rec_mask)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_hidden_state_bounded(self):
        for seed in SEEDS:
            lstm = self.make_lstm(seed)
            x = np.random.default_rng(seed).standard_normal((2, 6, 3)) * 50
            assert np.all(np.abs(lstm.forward(x)) <= 1.0)   # |o * tanh(c)| <= 1


class TestLstmLayer:
    @pytest.mark.parametrize("length", [1, 4])
    def test_gradients(self, length):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            lstm = Lstm(3, 5, rng, dtype=np.float64)
            x = np.random.default_rng(seed + 30).standard_normal((2, length, 3))
            gradcheck(lstm, x, lambda a: lstm.forward(a, train_mode=True))

    def test_forward_matches_cell_chain(self):
        rng = np.random.default_rng(6)
        lstm = Lstm(3, 4, rng, dtype=np.float64)
        x = rng.standard_normal((2, 5, 3))
        out = lstm.forward(x)
        np.testing.assert_allclose(out, scalar_lstm_chain(x, lstm), atol=1e-12)

    def test_eval_deterministic(self):
        rng = np.random.default_rng(1)
        lstm = Lstm(3, 4, rng, dropout=0.3, recurrent_dropout=0.3,
                    dtype=np.float64)
        x = rng.standard_normal((2, 6, 3))
        np.testing.assert_array_equal(lstm.forward(x), lstm.forward(x))

    def test_train_mode_seeded_determinism(self):
        rng = np.random.default_rng(1)
        lstm = Lstm(3, 4, rng, dropout=0.3, recurrent_dropout=0.3,
                    dtype=np.float64)
        x = rng.standard_normal((2, 6, 3))
        a = lstm.forward(x, train_mode=True, rng=np.random.default_rng(55))
        b = lstm.forward(x, train_mode=True, rng=np.random.default_rng(55))
        np.testing.assert_array_equal(a, b)

    def test_gradients_with_dropout_masks_fixed(self):
        # masks are part of the differentiated function once drawn; rerunning
        # forward inside the loss closure must reuse them, which train_mode
        # cannot do, so the check runs the masked path via eval + pre-masking
        for seed in range(3):
            rng = np.random.default_rng(seed)
            lstm = Lstm(3, 5, rng, dtype=np.float64)
            x = np.random.default_rng(seed + 90).standard_normal((2, 4, 3))
            mask = make_dropout_mask((2, 3), 0.4, np.random.default_rng(seed),
                                     dtype=np.float64)

            def forward(a):
                return lstm.forward(a * mask[:, None, :], train_mode=True)

            out = forward(x)
            proj = np.random.default_rng(999).standard_normal(out.shape)
            lstm.zero_grad()
            forward(x)
            dx = lstm.backward(proj.copy()) * mask[:, None, :]
            num = numerical_grad(lambda: float((forward(x) * proj).sum()), x)
            assert max_rel_error(dx, num) < GRAD_TOL


class TestBiLstm:
    def test_output_channels(self):
        rng = np.random.default_rng(0)
        net = BiLstm(3, 128, rng, dropout=0.0, recurrent_dropout=0.0,
                     dtype=np.float64)
        out = net.forward(np.random.default_rng(1).standard_normal((1, 4, 3)))
        assert out.shape == (1, 4, 256)

    def test_gradients(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            net = BiLstm(3, 5, rng, dropout=0.0, recurrent_dropout=0.0,
                         dtype=np.float64)
            x = np.random.default_rng(seed + 20).standard_normal((2, 4, 3))
            gradcheck(net, x, lambda a: net.forward(a, train_mode=True))

    def test_reversal_swaps_directions(self):
        # with tied weights, feeding the reversed sequence must reproduce the
        # original output with direction halves swapped and time reversed
        rng = np.random.default_rng(3)
        net = BiLstm(3, 4, rng, dropout=0.0, recurrent_dropout=0.0,
                     dtype=np.float64)
        for src, dst in zip(net.forward_cell.parameters(),
                            net.backward_cell.parameters()):
            dst.value[...] = src.value
        x = rng.standard_normal((2, 5, 3))
        out = net.forward(x)
        rev_out = net.forward(x[:, ::-1, :])
        h = net.hidden_size
        np.testing.assert_allclose(rev_out[:, ::-1, h:], out[:, :, :h],
                                   atol=1e-12)
        np.testing.assert_allclose(rev_out[:, ::-1, :h], out[:, :, h:],
                                   atol=1e-12)

    def test_directions_independent(self):
        # the forward half at time t must not depend on inputs after t
        rng = np.random.default_rng(4)
        net = BiLstm(2, 3, rng, dropout=0.0, recurrent_dropout=0.0,
                     dtype=np.float64)
        x = rng.standard_normal((1, 6, 2))
        out = net.forward(x)
        h = net.hidden_size
        # forward half at time t sees only x[:t+1]
        tail_changed = x.copy()
        tail_changed[0, 4:] += 10.0
        out_tail = net.forward(tail_changed)
        np.testing.assert_allclose(out_tail[0, :4, :h], out[0, :4, :h],
                                   atol=1e-12)
        # backward half at time t sees only x[t:]
        head_changed = x.copy()
        head_changed[0, :2] += 10.0
        out_head = net.forward(head_changed)
        np.testing.assert_allclose(out_head[0, 2:, h:], out[0, 2:, h:],
                                   atol=1e-12)


class TestFusedLoop:
    """BiLstm runs both directions in one time loop over one gate slab."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bilstm_equals_two_lstm_runs(self, dtype):
        hidden = 7
        net = BiLstm(5, hidden, np.random.default_rng(8), dropout=0.3,
                     recurrent_dropout=0.4, dtype=dtype)
        data = np.random.default_rng(9)
        x = data.standard_normal((6, 9, 5)).astype(dtype)
        grad = data.standard_normal((6, 9, 2 * hidden)).astype(dtype)
        out = net.forward(x, train_mode=True, rng=np.random.default_rng(21))
        assert not np.array_equal(out, net.forward(x))   # dropout was on
        out = net.forward(x, train_mode=True, rng=np.random.default_rng(21))
        dx = net.backward(grad)
        fused_grads = [p.grad.copy() for p in net.parameters()]

        # Same mask draws: the forward cell's pair, then the backward cell's.
        net.zero_grad()
        rng = np.random.default_rng(21)
        fwd, bwd = net.forward_cell, net.backward_cell
        out_f = fwd.forward(x, train_mode=True, rng=rng)
        out_b = bwd.forward(np.ascontiguousarray(x[:, ::-1]), train_mode=True,
                            rng=rng)
        dx_f = fwd.backward(grad[:, :, :hidden])
        dx_b = bwd.backward(np.ascontiguousarray(grad[:, ::-1, hidden:]))

        assert_same_bits(out, np.concatenate([out_f, out_b[:, ::-1]], axis=2))
        assert_same_bits(dx, dx_f + dx_b[:, ::-1])
        for got, param in zip(fused_grads, net.parameters()):
            assert_same_bits(got, param.grad)

    layers = pytest.mark.parametrize("make", [
        lambda rng: Lstm(3, 4, rng, dtype=np.float64),
        lambda rng: BiLstm(3, 4, rng, dropout=0.0, recurrent_dropout=0.0,
                           dtype=np.float64)], ids=["lstm", "bilstm"])

    @layers
    def test_backward_consumes_the_forward_cache(self, make):
        # backward writes the gate gradients over the cached activations
        layer = make(np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 5, 3))
        out = layer.forward(x, train_mode=True)
        first = layer.backward(np.ones_like(out))
        with pytest.raises(AbusekitError, match="fresh forward"):
            layer.backward(np.ones_like(out))
        layer.zero_grad()
        layer.forward(x, train_mode=True)
        assert_same_bits(layer.backward(np.ones_like(out)), first)

    @pytest.mark.parametrize("batch, length", [
        (batch, length) for batch in (1, 2, 3, 5, 8, 64, 256)
        for length in (1, 2, 3, 17, 18, 99)] + [(1, 513), (2, 257)])
    def test_eval_chunks_keep_the_slab_bits(self, batch, length):
        # Eval mode projects max(8, ceil(512 / B)) steps at a time, train
        # mode every step at once.  The cases leave 1- and 2-step tails, and
        # at B <= 2 tails of 1 or 2 rows that must join the chunk before.
        net = BiLstm(64, 128, np.random.default_rng(length), dropout=0.0,
                     recurrent_dropout=0.0)
        x = np.random.default_rng(batch).standard_normal(
            (batch, length, 64)).astype(np.float32)
        train = net.forward(x, train_mode=True)
        assert_same_bits(net.forward(x), train)

    @pytest.mark.parametrize("batch", [3, 4, 64])
    @pytest.mark.parametrize("tail", [1, 2, 3, 16, 17, 18])
    def test_eval_shared_tail_keeps_the_bits(self, batch, tail, monkeypatch):
        # Where the last positions hold the same values in every row (a
        # length-sorted batch's padding), the backward cell runs them on 3
        # rows first, both cells then run the positions before them, and the
        # forward cell ends over them from one row's input; the bits are
        # those of the loop over every row from step 0.  A part under 3
        # steps, or a batch of 3, is not split off: of L = 19 steps, tails
        # of 1, 2, L - 2 and L - 1 leave such parts.
        length = 19
        net = BiLstm(64, 128, np.random.default_rng(tail), dropout=0.0,
                     recurrent_dropout=0.0)
        x = np.random.default_rng(batch).standard_normal(
            (batch, length, 64)).astype(np.float32)
        x[:, length - tail:] = x[0, length - tail:]
        runs, real = [], layers_module._lstm_forward

        def recording(cells, inputs, outputs, train_mode, rng, state=None):
            runs.append((len(cells), inputs[0].shape[:2], state is not None))
            return real(cells, inputs, outputs, train_mode, rng, state)

        monkeypatch.setattr(layers_module, "_lstm_forward", recording)
        got = net.forward(x)
        span = length - tail
        if 3 <= tail <= length - 3 and batch > 3:
            assert runs == [(1, (3, tail), False), (2, (batch, span), True),
                            (1, (1, tail), True)]
        else:
            assert runs == [(2, (batch, length), False)]
        assert_same_bits(got, net.forward(x, train_mode=True))

    @layers
    def test_eval_forward_keeps_no_cache(self, make):
        # the eval pass carries the cell state without its history: the
        # same bits as a train pass with no dropout, and nothing held
        layer = make(np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 5, 3))
        train = layer.forward(x, train_mode=True)
        assert layer._cache is not None
        assert_same_bits(layer.forward(x), train)
        assert layer._cache is None
        with pytest.raises(AbusekitError, match="fresh forward"):
            layer.backward(np.ones_like(train))


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_moments_updated_in_place(self, dtype):
        rng = np.random.default_rng(3)
        p = Parameter(rng.standard_normal(16).astype(dtype))
        m, v = p.adam_m, p.adam_v
        want_m, want_v = np.zeros_like(m), np.zeros_like(v)
        config = AdamConfig()
        for _ in range(20):
            g = rng.standard_normal(16).astype(dtype)
            p.grad[...] = g
            want_m = config.beta1 * want_m + (1.0 - config.beta1) * g
            want_v = config.beta2 * want_v + (1.0 - config.beta2) * (g * g)
            adam_step(p, config)
            assert p.adam_m is m and p.adam_v is v
            assert_same_bits(p.adam_m, want_m)
            assert_same_bits(p.adam_v, want_v)

    def test_first_step_magnitude(self):
        p = Parameter(np.zeros(1))
        p.grad[...] = 1.0
        adam_step(p, AdamConfig())
        assert abs(p.value[0] + 1e-3) < 1e-9
        assert p.step_count == 1

    def test_grad_zeroed_after_step(self):
        p = Parameter(np.ones(3))
        p.grad[...] = 2.0
        adam_step(p)
        assert not p.grad.any()

    def test_zero_gradient_fresh_param_unchanged(self):
        p = Parameter(np.full(2, 5.0))
        adam_step(p)   # grad is all zero, moments are all zero
        np.testing.assert_array_equal(p.value, 5.0)

    def test_zero_gradient_decays_moments(self):
        p = Parameter(np.full(2, 5.0))
        p.grad[...] = 1.0
        adam_step(p)
        m_before = p.adam_m.copy()
        v_before = p.adam_v.copy()
        adam_step(p)   # grad is all zero now; momentum still moves the value
        np.testing.assert_allclose(p.adam_m, 0.9 * m_before, atol=1e-15)
        np.testing.assert_allclose(p.adam_v, 0.999 * v_before, atol=1e-15)

    def test_quadratic_descent(self):
        p = Parameter(np.array([1.0]))
        config = AdamConfig(lr=0.1)
        for _ in range(100):
            p.grad[...] = 2.0 * p.value
            adam_step(p, config)
        assert abs(p.value[0]) < 0.1

    def test_step_direction_opposes_gradient(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            p = Parameter(rng.standard_normal(8))
            g = rng.standard_normal(8)
            before = p.value.copy()
            p.grad[...] = g
            adam_step(p)
            assert np.all(np.sign(p.value - before) == -np.sign(g))


class TestSuiteBudget:
    def test_gradient_suite_is_fast(self):
        # the whole-file wall clock is the real budget; this subcheck keeps a
        # margin visible by timing the heaviest single configuration
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        net = BiLstm(3, 5, rng, dropout=0.0, recurrent_dropout=0.0,
                     dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((2, 4, 3))
        gradcheck(net, x, lambda a: net.forward(a, train_mode=True))
        assert time.perf_counter() - start < 30.0
