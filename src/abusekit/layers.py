"""Hand-differentiated neural layers, loss, and optimizer on numpy arrays.

Every layer implements an explicit forward/backward pair instead of relying
on an autodiff graph, so each backward rule is checked against central
finite differences in the test suite.  Training runs in float32; the same
code paths run in float64 for gradient verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (AbusekitError, BoundsError, ConfigurationError,
                     DataIntegrityError, ShapeError)

__all__ = [
    "AdamConfig",
    "BiLstm",
    "Conv1D",
    "Dense",
    "Dropout",
    "EmbeddingLookup",
    "GlobalAveragePool1D",
    "Lstm",
    "Module",
    "Parameter",
    "SpatialDropout1D",
    "adam_step",
    "glorot_uniform",
    "make_dropout_mask",
    "orthogonal",
    "sigmoid",
    "softmax",
    "softmax_cross_entropy",
]


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function; exp only ever sees -|x|, so it cannot overflow.

    With e = exp(-|x|), the result is num / (1 + e) where the sign bit of x
    picks num: 1 for x >= +0, e otherwise.  Each element gets the same bits
    as 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) for x < 0.  The pick
    is an and/xor on the bit patterns, with no branch, gather or scatter.
    out may be x itself.
    """
    e = np.exp(-np.abs(x))
    den = e + 1
    ints = np.dtype(f"i{x.itemsize}")
    one = np.array(1, x.dtype).view(ints)
    num = e.view(ints)
    num ^= one
    # Arithmetic shift: all ones where x is negative (or -0), else zero.
    num &= x.view(ints) >> (8 * x.itemsize - 1)
    num ^= one
    return np.divide(e, den, out=e if out is None else out)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator | None, dtype=np.float32) -> np.ndarray:
    """Uniform draw in +-sqrt(6 / (fan_in + fan_out)); zeros without rng,
    for a layer whose values are loaded rather than trained from scratch."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def orthogonal(rows: int, cols: int, rng: np.random.Generator | None,
               dtype=np.float32) -> np.ndarray:
    """Orthogonal init via QR of a Gaussian draw, sign-corrected so the
    decomposition is unique; zeros without rng, as glorot_uniform."""
    if rng is None:
        return np.zeros((rows, cols), dtype=dtype)
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].astype(dtype)


@dataclass
class Parameter:
    """Trainable array.  Its gradient and Adam moments (grad, adam_m,
    adam_v) are zeros allocated at first use, by a backward or adam_step, so
    a network that is only loaded and run forward holds just its values."""

    value: np.ndarray
    step_count: int = field(default=0, init=False)
    name: str = ""

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for a missing attribute: a buffer not yet allocated
        if name not in ("grad", "adam_m", "adam_v"):
            raise AttributeError(name)
        buffer = np.zeros_like(self.value)
        setattr(self, name, buffer)
        return buffer

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7

    def validate(self) -> None:
        if not (self.lr > 0 and self.eps > 0):
            raise ConfigurationError(
                f"lr and eps must be positive, got lr={self.lr}, eps={self.eps}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name}={getattr(self, name)} outside [0, 1)")


def adam_step(param: Parameter, config: AdamConfig = AdamConfig()) -> None:
    """One bias-corrected Adam update; consumes and zeroes the gradient."""
    g = param.grad
    t = param.step_count + 1
    param.adam_m *= config.beta1
    param.adam_m += (1.0 - config.beta1) * g
    param.adam_v *= config.beta2
    param.adam_v += (1.0 - config.beta2) * (g * g)
    m_hat = param.adam_m / (1.0 - config.beta1 ** t)
    v_hat = param.adam_v / (1.0 - config.beta2 ** t)
    param.value -= config.lr * m_hat / (np.sqrt(v_hat) + config.eps)
    param.step_count = t
    param.zero_grad()


def make_dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator,
                      dtype=np.float32) -> np.ndarray:
    """Inverted-dropout keep mask: entries are 0 or 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return np.ones(shape, dtype=dtype)
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


_ACTIVATIONS = ("relu", "linear", "tanh")

# The eval paths' exactness rests on this rule, measured with OpenBLAS 0.3.31
# on one x86-64 CPU: a row of a product 64 or more columns wide gets the same
# bits in any product of this many rows or more (1 or 2 take other paths).
MIN_GEMM_ROWS = 3


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    return z


def _activate_backward(name: str, grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The pre-activation gradient from the output (relu: out > 0 iff z > 0),
    made C-contiguous: numpy may sum a broadcast grad's matmul in another order."""
    if name == "relu":
        return grad * (out > 0)
    if name == "tanh":
        return grad * (1.0 - out * out)
    return np.ascontiguousarray(grad)


class Module:
    """Base for layers: a train-mode forward caches what backward needs."""

    def parameters(self) -> list[Parameter]:
        return []

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


class EmbeddingLookup(Module):
    """Frozen row lookup. No gradient ever reaches the table."""

    def __init__(self, matrix: np.ndarray, dtype=np.float32):
        self.matrix = np.asarray(matrix, dtype=dtype)

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.matrix.shape[0]):
            raise BoundsError(
                f"embedding index outside [0, {self.matrix.shape[0]})")
        return self.matrix[indices]

    def backward(self, grad_out: np.ndarray) -> None:
        # Indices are not differentiable and the table is non-trainable.
        return None


class Dropout(Module):
    """Standard elementwise inverted dropout."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate {rate} outside [0, 1)")
        self.rate = rate
        self._mask = None

    def _mask_shape(self, x: np.ndarray) -> tuple[int, ...]:
        return x.shape

    def forward(self, x: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if not train_mode or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = make_dropout_mask(self._mask_shape(x), self.rate, rng,
                                       dtype=x.dtype)
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class SpatialDropout1D(Dropout):
    """Drops whole channels: one Bernoulli draw per (batch, channel) pair,
    applied across every timestep."""

    def _mask_shape(self, x: np.ndarray) -> tuple[int, ...]:
        batch, _, channels = x.shape
        return (batch, 1, channels)

    # Bound here, not only inherited: perfbench's tracer wraps the methods
    # it finds in each class's own __dict__, this class's included.
    forward = Dropout.forward
    backward = Dropout.backward


def _take_cache(layer: Module):
    """The layer's forward cache, which its backward consumes exactly once;
    none (never run in train mode, or already consumed) is an error."""
    cache = layer._cache
    if cache is None:
        raise AbusekitError(
            f"{type(layer).__name__}.backward needs a fresh forward pass")
    layer._cache = None
    return cache


class Conv1D(Module):
    """Valid cross-correlation over the time axis.

    Kernels have shape (k, C_in, C_out); the forward pass is a sum of k
    shifted matrix products rather than an explicit sliding window, which
    keeps everything in BLAS calls.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator | None, activation: str = "relu",
                 dtype=np.float32):
        if activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {activation!r}")
        self.kernel_size = kernel_size
        self.activation = activation
        fan_in = kernel_size * in_channels
        fan_out = kernel_size * out_channels
        self.kernels = Parameter(
            glorot_uniform((kernel_size, in_channels, out_channels),
                           fan_in, fan_out, rng, dtype),
            name="conv.kernels")
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype), name="conv.bias")
        self._cache = None

    def parameters(self) -> list[Parameter]:
        return [self.kernels, self.bias]

    def forward(self, x: np.ndarray, train_mode: bool = False,
                index: np.ndarray | None = None) -> np.ndarray:
        """With index (eval only), x holds distinct rows (n x C_in) that each
        kernel offset multiplies once, and the B x L index picks them; under
        MIN_GEMM_ROWS output positions, x[index] is convolved instead."""
        k = self.kernel_size
        if index is not None and train_mode:
            raise ConfigurationError("a table and index input is eval-only")
        if index is not None and index.shape[1] - k + 1 < MIN_GEMM_ROWS:
            x, index = x[index], None
        batch, length = (x if index is None else index).shape[:2]
        if length < k:
            raise ShapeError(f"sequence length {length} shorter than kernel {k}")
        out_len = length - k + 1
        z = np.tile(self.bias.value, (batch, out_len, 1))
        if index is None:
            for dt in range(k):
                z += x[:, dt:dt + out_len, :] @ self.kernels.value[dt]
        else:
            x = np.pad(x, ((0, max(0, MIN_GEMM_ROWS - len(x))), (0, 0)))
            for dt in range(k):
                z += (x @ self.kernels.value[dt])[index[:, dt:dt + out_len]]
        out = _activate(self.activation, z)
        self._cache = (x, out) if train_mode else None
        return out

    def backward(self, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the kernel and bias gradients and return the input
        gradient; with input_grad=False, for an input nothing trains (a
        frozen embedding), return None and skip that product."""
        x, out = _take_cache(self)
        if grad_out.shape != out.shape:
            raise ShapeError(f"gradient shape {grad_out.shape} != output {out.shape}")
        dz = _activate_backward(self.activation, grad_out, out)
        batch, out_len, out_ch = dz.shape
        k = self.kernel_size
        self.bias.grad += dz.sum(axis=(0, 1))
        dz_flat = dz.reshape(batch * out_len, out_ch)
        dx = np.zeros_like(x) if input_grad else None
        for dt in range(k):
            x_slice = x[:, dt:dt + out_len, :].reshape(batch * out_len, -1)
            self.kernels.grad[dt] += x_slice.T @ dz_flat
            if input_grad:
                dx[:, dt:dt + out_len, :] += dz @ self.kernels.value[dt].T
        return dx


class Dense(Module):
    """Affine map on the trailing axis; broadcasts over any leading dims."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None, activation: str = "relu",
                 dtype=np.float32):
        if activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {activation!r}")
        self.activation = activation
        self.weight = Parameter(
            glorot_uniform((in_features, out_features), in_features, out_features,
                           rng, dtype),
            name="dense.weight")
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), name="dense.bias")
        self._cache = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, train_mode: bool = False) -> np.ndarray:
        if x.shape[-1] != self.weight.value.shape[0]:
            raise ShapeError(
                f"input features {x.shape[-1]} != weight rows {self.weight.value.shape[0]}")
        z = x @ self.weight.value
        z += self.bias.value
        out = _activate(self.activation, z)
        self._cache = (x, out) if train_mode else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, out = _take_cache(self)
        dz = _activate_backward(self.activation, grad_out, out)
        flat_dz = dz.reshape(-1, dz.shape[-1])
        self.weight.grad += x.reshape(-1, x.shape[-1]).T @ flat_dz
        del x, out   # before the input-gradient product
        self.bias.grad += flat_dz.sum(axis=0)
        return dz @ self.weight.value.T


class GlobalAveragePool1D(Module):
    """Mean over the time axis: B x L x C -> B x C."""

    def __init__(self):
        self._length = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._length = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        step = grad_out[:, None, :] / self._length   # one row, viewed at every step
        return np.broadcast_to(step, (len(step), self._length, step.shape[2]))


def _init_lstm_params(input_dim: int, hidden: int, rng: np.random.Generator | None,
                      dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate parameters in gate order i, f, g, o along the first axis.

    W: (4H, D_in) input weights, U: (4H, H) recurrent weights, b: (4H,).
    """
    # Glorot per gate block for W, orthogonal per gate block for U; forget
    # gate bias starts at 1 so memory persists early in training.
    W = np.concatenate(
        [glorot_uniform((hidden, input_dim), input_dim, hidden, rng, dtype)
         for _ in range(4)], axis=0)
    U = np.concatenate(
        [orthogonal(hidden, hidden, rng, dtype) for _ in range(4)], axis=0)
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden:2 * hidden] = 1.0
    return W, U, b


def _eval_gates(cells, inputs, hidden):
    """Each step's D x B x 4H input projection plus bias, for eval mode.

    The projection is made a chunk of max(8, ceil(512 / B)) steps at a
    time into one reused time-major buffer: per cell, one GEMM of
    steps x B rows read from the cell's input view (the backward cell's
    view is time-reversed), so no full-length copy of the input or the
    gates is made.  A tail chunk of fewer than MIN_GEMM_ROWS rows joins the
    chunk before it, and shorter sequences keep the train path's
    per-sequence products: the bits are those of the train path's full slab.
    """
    batch, length, in_dim = inputs[0].shape
    dtype = inputs[0].dtype
    chunk = max(8, -(-512 // max(batch, 1)))
    bounds = list(range(0, length, chunk)) + [length]
    if len(bounds) > 2 and (length - bounds[-2]) * batch < MIN_GEMM_ROWS:
        del bounds[-2]
    widest = max((stop - start for start, stop in zip(bounds, bounds[1:])), default=0)
    xs = np.empty((widest, batch, in_dim), dtype=dtype)
    gates = np.empty((len(cells), widest, batch, 4 * hidden), dtype=dtype)
    for start, stop in zip(bounds, bounds[1:]):
        steps = stop - start
        for cell, x, z in zip(cells, inputs, gates):
            np.copyto(xs[:steps], x[:, start:stop].transpose(1, 0, 2))
            if length < MIN_GEMM_ROWS:
                np.matmul(xs[:steps].transpose(1, 0, 2), cell.W.value.T,
                          out=z[:steps].transpose(1, 0, 2))
            else:
                np.matmul(xs[:steps].reshape(steps * batch, in_dim), cell.W.value.T,
                          out=z[:steps].reshape(steps * batch, 4 * hidden))
            z[:steps] += cell.b.value
        for s in range(steps):
            yield gates[:, s]


def _lstm_forward(cells, inputs, outputs, train_mode, rng, state=None):
    """Run D Lstm cells of one shape through a single time loop.

    inputs[d] is cell d's B x L x D_in input in the order the cell reads it,
    and outputs[d] a B x L x H view its hidden states are written into, in
    the same order; either may be a time-reversed view.  Each step makes one
    stacked recurrent matmul and one activation pass over the D x B x 4H
    gate slice.  In train mode the gate slice of every step lives in one
    D x B x L x 4H slab, and the function returns the cache that
    _lstm_backward consumes (it holds the inputs and outputs themselves, so
    nothing may write into them before), and the final (c, h).  An eval pass
    keeps no history (the cache is None): the input projection is made a few
    steps at a time (_eval_gates).  It may start from state, a (c, h) pair of
    D x B x H arrays, and then each input may be one row that every row reads.
    """
    batch, length, _ = inputs[0].shape
    hidden = cells[0].hidden_size
    dtype = inputs[0].dtype

    rec_mask = None
    if train_mode:
        # Masks are drawn cell by cell, input mask before recurrent mask.
        in_masks, rec_masks = [], []
        for cell, x in zip(cells, inputs):
            in_mask = rec_mask = None
            if cell.dropout > 0.0:
                in_mask = make_dropout_mask((batch, x.shape[2]), cell.dropout, rng,
                                            dtype=dtype)
            if cell.recurrent_dropout > 0.0:
                rec_mask = make_dropout_mask((batch, hidden), cell.recurrent_dropout,
                                             rng, dtype=dtype)
            in_masks.append(in_mask)
            rec_masks.append(rec_mask)
        # the cells share their rates, so every cell has a mask or none does
        rec_mask = None if rec_masks[0] is None else np.stack(rec_masks)

        # gates[d, :, s] holds cell d's input projection for step s, then its
        # activations i, f, g, o; backward overwrites them with the gate grads.
        gates = np.empty((len(cells), batch, length, 4 * hidden), dtype=dtype)
        for d, (cell, x, in_mask) in enumerate(zip(cells, inputs, in_masks)):
            np.matmul(_masked(x, in_mask), cell.W.value.T, out=gates[d])
            gates[d] += cell.b.value
        step_gates = (gates[:, :, s] for s in range(length))
        # cs[s] is the cell state entering step s, so cs[s + 1] is its output.
        cs = np.empty((length + 1, len(cells), batch, hidden), dtype=dtype)
        cs[0] = 0.0
    else:
        step_gates = _eval_gates(cells, inputs, hidden)
    c, h = state or 2 * (np.zeros((len(cells), batch, hidden), dtype=dtype),)
    U_T = np.ascontiguousarray(
        np.stack([cell.U.value for cell in cells]).transpose(0, 2, 1))
    for s, z in enumerate(step_gates):
        hm = h if rec_mask is None else h * rec_mask
        zr = np.matmul(hm, U_T)
        z = np.add(z, zr, out=z if train_mode else zr)
        g = np.tanh(z[..., 2 * hidden:3 * hidden])
        sigmoid(z, out=z)
        z[..., 2 * hidden:3 * hidden] = g
        c = z[..., hidden:2 * hidden] * c + z[..., :hidden] * g
        if train_mode:
            cs[s + 1] = c
        h = z[..., 3 * hidden:] * np.tanh(c)
        for out, h_d in zip(outputs, h):
            out[:, s] = h_d
    cache = (inputs, outputs, in_masks, rec_mask, gates, cs) if train_mode else None
    return cache, (c, h)


def _masked(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """x (B x L x C) times its B x C dropout mask (if any) at every step, contiguous."""
    return np.ascontiguousarray(x if mask is None else x * mask[:, None, :])


def _lstm_backward(cells, layer, grads):
    """Backward of the _lstm_forward whose cache the layer holds, taken here
    so that no caller keeps cs alive; grads[d] is laid out like outputs[d].

    Accumulates every cell's parameter gradients and returns each cell's
    input gradient in its own time order.  Step s reads the activations
    in the gate slab before writing its gate gradients there.
    """
    inputs, outputs, in_masks, rec_mask, gates, cs = _take_cache(layer)
    _, batch, length, four_h = gates.shape
    hidden = four_h // 4
    dh_carry = np.zeros(cs.shape[1:], dtype=gates.dtype)
    dc_carry = np.zeros_like(dh_carry)
    U = np.stack([cell.U.value for cell in cells])
    for s in range(length - 1, -1, -1):
        a = gates[:, :, s]
        i, f = a[..., :hidden], a[..., hidden:2 * hidden]
        g, o = a[..., 2 * hidden:3 * hidden], a[..., 3 * hidden:]
        tanh_c = np.tanh(cs[s + 1])
        dh = np.stack([grad[:, s] for grad in grads])
        dh += dh_carry
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_carry
        df = dc * cs[s]
        di = dc * g
        dg = dc * i
        dc_carry = dc * f
        a[..., :hidden] = di * i * (1.0 - i)
        a[..., hidden:2 * hidden] = df * f * (1.0 - f)
        a[..., 2 * hidden:3 * hidden] = dg * (1.0 - g * g)
        a[..., 3 * hidden:] = do * o * (1.0 - o)
        dhm = np.matmul(a, U)
        dh_carry = dhm if rec_mask is None else dhm * rec_mask
    del cs

    dxs = []
    for d, (cell, d_z, in_mask) in enumerate(zip(cells, gates, in_masks)):
        dz_flat = d_z.reshape(batch * length, four_h)
        cell.W.grad += dz_flat.T @ _masked(inputs[d], in_mask).reshape(batch * length, -1)
        # the forward's step s read the zero state or output s - 1, masked
        h_m = np.zeros((batch, length, hidden), dtype=gates.dtype)
        h_m[:, 1:] = outputs[d][:, :-1]
        h_m *= 1 if rec_mask is None else rec_mask[d][:, None, :]
        cell.U.grad += dz_flat.T @ h_m.reshape(batch * length, hidden)
        del h_m
        cell.b.grad += dz_flat.sum(axis=0)
        dxs.append(_masked(d_z @ cell.W.value, in_mask))
    return dxs


class Lstm(Module):
    """Unidirectional LSTM emitting every timestep (B x L x H).

    Input dropout and recurrent dropout are variational (Gal & Ghahramani
    2016): one mask per sequence, reused at every timestep.
    """

    def __init__(self, input_dim: int, hidden_size: int, rng: np.random.Generator | None,
                 dropout: float = 0.0, recurrent_dropout: float = 0.0,
                 dtype=np.float32):
        W, U, b = _init_lstm_params(input_dim, hidden_size, rng, dtype)
        self.W = Parameter(W, name="lstm.W")
        self.U = Parameter(U, name="lstm.U")
        self.b = Parameter(b, name="lstm.b")
        self.hidden_size = hidden_size
        self.dropout = dropout
        self.recurrent_dropout = recurrent_dropout
        self._cache = None

    def parameters(self) -> list[Parameter]:
        return [self.W, self.U, self.b]

    def forward(self, x: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        out = np.empty(x.shape[:2] + (self.hidden_size,), dtype=x.dtype)
        self._cache = _lstm_forward((self,), (x,), (out,), train_mode, rng)[0]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return _lstm_backward((self,), self, (grad_out,))[0]


class BiLstm(Module):
    """Two LSTMs over opposite time directions, outputs concatenated.

    Output is B x L x 2H with the forward direction in channels [:H] and
    the backward direction in channels [H:].  Both directions advance in
    one time loop; the backward cell reads the time-reversed input.  A train
    forward's cache holds its input and output, which backward reads: a
    caller must not write into either before backward.
    """

    def __init__(self, input_dim: int, hidden_size: int, rng: np.random.Generator | None,
                 dropout: float = 0.1, recurrent_dropout: float = 0.1,
                 dtype=np.float32):
        self.forward_cell = Lstm(input_dim, hidden_size, rng, dropout,
                                 recurrent_dropout, dtype)
        self.backward_cell = Lstm(input_dim, hidden_size, rng, dropout,
                                  recurrent_dropout, dtype)
        self.hidden_size = hidden_size
        self._cache = None
        for prefix, cell in (("bilstm.fwd", self.forward_cell),
                             ("bilstm.bwd", self.backward_cell)):
            for param in cell.parameters():
                param.name = param.name.replace("lstm", prefix, 1)

    def parameters(self) -> list[Parameter]:
        return self.forward_cell.parameters() + self.backward_cell.parameters()

    def _directions(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a B x L x 2H array in each direction's time order."""
        hidden = self.hidden_size
        return a[:, :, :hidden], a[:, ::-1, hidden:]

    def forward(self, x: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """In eval mode, where the last positions hold the same bits in every
        row (a sorted batch's padding), the backward cell runs them on
        MIN_GEMM_ROWS rows, copied to the rest, both cells run the positions
        before them, and the forward cell ends over them from one row's input."""
        batch, length, _ = x.shape
        out = np.empty((batch, length, 2 * self.hidden_size), dtype=x.dtype)
        cells = (self.forward_cell, self.backward_cell)
        inputs, outputs = (x, x[:, ::-1, :]), self._directions(out)
        tail = 0
        if not train_mode and batch > MIN_GEMM_ROWS:
            bits = x.view(f"u{x.itemsize}")
            tail = np.logical_and.accumulate((bits == bits[:1]).all(axis=(0, 2))[::-1]).sum()
        span = length - tail
        if min(tail, span) < MIN_GEMM_ROWS:   # shorter parts: per-sequence products
            self._cache = _lstm_forward(cells, inputs, outputs, train_mode, rng)[0]
            return out
        self._cache = None
        fwd, bwd = outputs
        _, (c, h) = _lstm_forward(cells[1:], (inputs[1][:MIN_GEMM_ROWS, :tail],),
                                  (bwd[:MIN_GEMM_ROWS, :tail],), False, None)
        bwd[MIN_GEMM_ROWS:, :tail] = bwd[0, :tail]
        state = [np.concatenate([np.zeros_like(v[:, :1]), v[:, :1]]).repeat(batch, 1)
                 for v in (c, h)]
        _, (c, h) = _lstm_forward(cells, (x[:, :span], inputs[1][:, tail:]),
                                  (fwd[:, :span], bwd[:, tail:]), False, None, state)
        _lstm_forward(cells[:1], (x[:1, span:],), (fwd[:, span:],), False, None,
                      (c[:1], h[:1]))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        dx_f, dx_b = _lstm_backward((self.forward_cell, self.backward_cell),
                                    self, self._directions(grad_out))
        return dx_f + dx_b[:, ::-1, :]


def softmax_cross_entropy(logits: np.ndarray,
                          onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean categorical cross-entropy and its gradient w.r.t. logits.

    Uses the log-sum-exp form throughout; the gradient is (p - y) / B.
    """
    if logits.shape != onehot.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {onehot.shape}")
    if np.any(onehot < 0) or not np.allclose(onehot.sum(axis=1), 1.0, atol=1e-6):
        raise DataIntegrityError("target rows must be distributions summing to 1")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = float(-(onehot * log_p).sum(axis=1).mean())
    grad = (np.exp(log_p) - onehot) / logits.shape[0]
    return loss, grad
