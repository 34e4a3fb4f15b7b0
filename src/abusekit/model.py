"""CNN-BiLSTM network assembly, training step, checkpoints.

The trunk is shared by every classification head: embedding lookup, spatial
dropout, width-2 convolution, bidirectional LSTM over all timesteps, a
per-timestep dense layer, global average pooling, and a final dropout.
Tasks with one label use a single softmax head; the two-label task attaches
two heads to the same pooled vector and averages their losses.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (ConfigurationError, CorruptionError, NumericError,
                     ShapeError)
from .layers import (_ACTIVATIONS, MIN_GEMM_ROWS, AdamConfig, BiLstm, Conv1D,
                     Dense, Dropout, EmbeddingLookup, GlobalAveragePool1D,
                     SpatialDropout1D, adam_step, softmax, softmax_cross_entropy)
from .text import PAD_INDEX, atomic_write

__all__ = [
    "EVAL_BATCH",
    "HEAD_CLASSES",
    "ModelConfig",
    "Network",
    "labels_from_probs",
    "load_checkpoint",
    "save_checkpoint",
    "train_step",
]

_WEIGHTS_NAME = "weights.bin"
# each head scores one binary label: class 0 or 1
HEAD_CLASSES = 2
# Posts per trunk pass of Network.forward.  An eval forward keeps no cache,
# so a process holds one batch's activations at a time; the tests pin that
# batches of 8 to 256 give the same logit bits.
EVAL_BATCH = 64
# The heads' 2-column product gives the rows past its last whole block of
# this many rows other bits (OpenBLAS 0.3.31's SkylakeX kernel; the rules
# differ on Haswell, where the bitwise eval tests fail: ROADMAP item 18).
HEAD_ROW_BLOCK = 4


@dataclass
class ModelConfig:
    seq_len: int = 100
    embed_dim: int = 300
    conv_filters: int = 64
    conv_kernel: int = 2
    lstm_units: int = 128
    lstm_dropout: float = 0.1
    lstm_recurrent_dropout: float = 0.1
    dense_units: int = 128
    spatial_dropout_rate: float = 0.2
    final_dropout_rate: float = 0.1
    conv_activation: str = "relu"
    dense_activation: str = "relu"

    def validate(self) -> None:
        for name in ("seq_len", "embed_dim", "conv_filters", "conv_kernel",
                     "lstm_units", "dense_units"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("lstm_dropout", "lstm_recurrent_dropout",
                     "spatial_dropout_rate", "final_dropout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name}={rate} outside [0, 1)")
        if self.seq_len < self.conv_kernel:
            raise ConfigurationError("seq_len shorter than conv kernel")
        for name in ("conv_activation", "dense_activation"):
            if getattr(self, name) not in _ACTIVATIONS:
                raise ConfigurationError(
                    f"{name}={getattr(self, name)!r} is not one of {list(_ACTIVATIONS)}")

    def to_dict(self) -> dict:
        return asdict(self)


class Network:
    """Built model: layer stack, num_heads heads initialized from rng's
    draws (zero weights when rng is None, for values to be loaded), and the
    frozen embedding matrix (|V| x embed_dim)."""

    def __init__(self, config: ModelConfig, matrix: np.ndarray, num_heads: int,
                 rng: np.random.Generator | None, dtype=np.float32):
        config.validate()
        if matrix.ndim != 2 or matrix.shape[1] != config.embed_dim:
            raise ConfigurationError(
                f"embed_dim {config.embed_dim} does not fit an embedding matrix "
                f"of shape {matrix.shape}")
        self.config = config
        self.dtype = dtype
        self.embedding = EmbeddingLookup(matrix, dtype)
        self.spatial_dropout = SpatialDropout1D(config.spatial_dropout_rate)
        self.conv = Conv1D(config.embed_dim, config.conv_filters,
                           config.conv_kernel, rng,
                           activation=config.conv_activation, dtype=dtype)
        self.bilstm = BiLstm(config.conv_filters, config.lstm_units, rng,
                             dropout=config.lstm_dropout,
                             recurrent_dropout=config.lstm_recurrent_dropout,
                             dtype=dtype)
        self.dense = Dense(2 * config.lstm_units, config.dense_units, rng,
                           activation=config.dense_activation, dtype=dtype)
        self.pool = GlobalAveragePool1D()
        self.final_dropout = Dropout(config.final_dropout_rate)
        self.heads = [
            Dense(config.dense_units, HEAD_CLASSES, rng, activation="linear",
                  dtype=dtype)
            for _ in range(num_heads)
        ]
        for h, head in enumerate(self.heads):
            head.weight.name = f"head{h}.weight"
            head.bias.name = f"head{h}.bias"

    def parameters(self):
        params = (self.conv.parameters() + self.bilstm.parameters()
                  + self.dense.parameters())
        for head in self.heads:
            params += head.parameters()
        return params

    def trunk_forward(self, batch: np.ndarray, train_mode: bool = False,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Pooled features, B x dense_units.  Only a train-mode pass keeps
        the caches and dropout masks that trunk_backward reads; the conv's
        holds batch itself, so nothing may write into batch before then.
        An eval pass embeds and convolves each distinct token id once."""
        batch = self._checked(batch)
        ids, index = batch, None
        rows = len(self.embedding.matrix)   # out-of-range ids: the embedding's BoundsError
        if not train_mode and batch.size and 0 <= batch.min() and batch.max() < rows:
            present = np.bincount(batch.ravel(), minlength=rows) > 0
            ids, index = np.flatnonzero(present), (np.cumsum(present) - 1)[batch]
        x = self.embedding.forward(ids)
        x = self.spatial_dropout.forward(x, train_mode, rng)
        source = (self.embedding.matrix, ids, self.spatial_dropout._mask)
        x = self.conv.forward(x, train_mode, index, source if train_mode else None)
        x = self.bilstm.forward(x, train_mode, rng)
        x = self.dense.forward(x, train_mode)
        x = self.pool.forward(x)
        x = self.final_dropout.forward(x, train_mode, rng)
        if __debug__:
            assert x.shape == (batch.shape[0], self.config.dense_units)
        return x

    def trunk_backward(self, grad: np.ndarray) -> None:
        grad = self.final_dropout.backward(grad)
        grad = self.pool.backward(grad)
        grad = self.dense.backward(grad)
        grad = self.bilstm.backward(grad)
        # The embedding is frozen, so no gradient flows below the conv's
        # parameters: nothing reads the conv's input gradient.
        self.conv.backward(grad, input_grad=False)

    def forward(self, sequences: np.ndarray) -> list[np.ndarray]:
        """The eval-mode forward: each head's logits, N x classes, for N
        encoded posts, whose trunk runs in _eval_batches' batches."""
        sequences = self._checked(sequences)
        logits = [np.empty((len(sequences), HEAD_CLASSES), dtype=self.dtype)
                  for _ in self.heads]
        for rows in _eval_batches(sequences):
            shared = self.trunk_forward(sequences[rows])
            for out, head in zip(logits, self.heads):
                out[rows] = head.forward(shared)
        return logits

    def _checked(self, batch) -> np.ndarray:
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != self.config.seq_len:
            raise ShapeError(
                f"expected batch of shape (B, {self.config.seq_len}), got {batch.shape}")
        return batch


def _eval_batches(sequences: np.ndarray) -> list[np.ndarray]:
    """Each eval forward's rows: the posts sorted stably by length (the index
    after the last non-PAD id), longest first, into EVAL_BATCH batches that
    share their padding (BiLstm.forward), but the last N mod EVAL_BATCH posts
    stay in input order, so each keeps the bits of plain in-order batches
    (see HEAD_ROW_BLOCK).  A last 1 or 2 posts join the batch before, which
    repeats its first rows up to a whole HEAD_ROW_BLOCK."""
    n = len(sequences)
    rest = n % EVAL_BATCH if n % EVAL_BATCH >= MIN_GEMM_ROWS else 0
    ends = ((sequences[:n - rest] != PAD_INDEX) * np.arange(1, sequences.shape[1] + 1)).max(
        axis=1, initial=0)
    batches = np.split(np.argsort(-ends, kind="stable"),
                       range(EVAL_BATCH, n - rest - 2, EVAL_BATCH))
    batches = [rows for rows in batches if len(rows)] + [np.arange(n - rest, n)] * bool(rest)
    if batches and len(batches[-1]) > EVAL_BATCH:
        batches[-1] = np.concatenate([batches[-1],
                                      batches[-1][:-len(batches[-1]) % HEAD_ROW_BLOCK]])
    return batches


def train_step(network: Network, batch: np.ndarray,
               onehot_labels: list[np.ndarray],
               optimizer: AdamConfig = AdamConfig(),
               rng: np.random.Generator | None = None
               ) -> tuple[float, list[np.ndarray]]:
    """One forward/backward/Adam update.

    Returns the averaged head loss and each head's predicted labels for
    the batch, taken from the train-mode logits before the update.  A
    non-finite loss or gradient raises NumericError before any weight is
    updated.
    """
    if len(onehot_labels) != len(network.heads):
        raise ConfigurationError(
            f"{len(network.heads)} heads need {len(network.heads)} label arrays, "
            f"got {len(onehot_labels)}")
    shared = network.trunk_forward(batch, train_mode=True, rng=rng)
    num_heads = len(network.heads)
    total_loss = 0.0
    grad_shared = np.zeros_like(shared)
    preds = []
    for head, target in zip(network.heads, onehot_labels):
        logits = head.forward(shared, train_mode=True)
        preds.append(labels_from_probs(softmax(logits)))
        loss, grad_logits = softmax_cross_entropy(logits, target)
        total_loss += loss / num_heads
        grad_shared += head.backward(grad_logits / num_heads)
    if not np.isfinite(total_loss):
        raise NumericError(f"non-finite training loss {total_loss}")
    network.trunk_backward(grad_shared)
    params = network.parameters()
    for param in params:
        if not np.isfinite(param.grad).all():
            raise NumericError(f"non-finite gradient for {param.name}")
    for param in params:
        adam_step(param, optimizer)
    return total_loss, preds


def labels_from_probs(probs: np.ndarray) -> np.ndarray:
    """Argmax with ties resolved to the HIGHEST tied class index.

    For two classes an exact (0.5, 0.5) row yields 1, matching the
    annotation tie rule.
    """
    classes = probs.shape[1]
    return classes - 1 - np.argmax(probs[:, ::-1], axis=1)


def save_checkpoint(network: Network, directory) -> None:
    """Write weights.bin: the trainable arrays as f32 LE, in
    Network.parameters() order, with no header.

    The config and the frozen embedding matrix are the run's, stored once
    in run_report.json and embedding.npy; they fix every array's shape.
    """
    os.makedirs(directory, exist_ok=True)
    with atomic_write(os.path.join(directory, _WEIGHTS_NAME), "wb") as fh:
        for param in network.parameters():
            fh.write(np.ascontiguousarray(param.value, dtype="<f4").tobytes())


def load_checkpoint(directory, config: ModelConfig, num_heads: int,
                    matrix: np.ndarray) -> Network:
    """Build a network of the given config and heads around the run's frozen
    embedding matrix (|V| x embed_dim); fill its parameters, in order, from
    the directory's weights.bin."""
    path = os.path.join(directory, _WEIGHTS_NAME)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise CorruptionError(f"missing {path}") from None
    network = Network(config, matrix, num_heads, None)
    params = network.parameters()
    expected = 4 * sum(param.value.size for param in params)
    if len(raw) != expected:
        raise CorruptionError(
            f"{path} holds {len(raw)} bytes, the model config needs {expected}")
    values = np.frombuffer(raw, dtype="<f4")
    if not np.isfinite(values).all():   # training exits 3 before it saves one
        raise CorruptionError(f"{path} holds a non-finite value")
    offset = 0
    for param in params:
        size = param.value.size
        param.value[...] = values[offset:offset + size].reshape(param.value.shape)
        offset += size
    return network
