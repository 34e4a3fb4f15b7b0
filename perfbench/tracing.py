"""Span recording around the package's public functions and methods.

The wrappers live here, in the benchmark, not in the package: a traced
child process installs them before it runs a command, and the package
code is unchanged.  ``training``, ``cli`` and ``model`` import functions
by name (``from .model import train_step``), so a function is replaced in
every ``abusekit`` module that binds it, not only where it is defined.

A span is ``[name, start, end, parent_index, attrs]`` with perf_counter
times.  Spans stay in memory and the child writes them out when the
command has finished.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "abusekit" or name.startswith("abusekit."))]


class Patcher:
    """Rebinds a function or method everywhere it is looked up; undoable."""

    def __init__(self):
        self._undo = []

    def replace(self, target: str, make_wrapper):
        """target is "module:function" or "module:Class.method"."""
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            wrapper = make_wrapper(original)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            return wrapper
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))
        return wrapper

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class FirstCall:
    """Records time.monotonic() at the first call of any of the targets.

    The wrappers remove themselves on that call, so the rest of the command
    runs on the unwrapped functions.  time.monotonic() reads the same
    system-wide clock in the parent and the child, so the parent can
    subtract its own spawn time.
    """

    def __init__(self, targets):
        self.time = None
        self._patcher = Patcher()
        for target in targets:
            self._patcher.replace(target, self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self.time is None:
                self.time = time.monotonic()
                self._patcher.restore()
            return fn(*args, **kwargs)
        return marked


def _train_mode(args, kwargs):
    return bool(args[2] if len(args) > 2 else kwargs.get("train_mode", False))


def _evaluate_name(args, parent_name):
    # train_epoch makes its own eval pass over the training partition;
    # the fold loop makes the validation pass.
    if parent_name == "training.train_epoch":
        return "training.evaluate.train_pass"
    return "training.evaluate.val_pass"


def _dense_name(direction):
    def name(args, parent_name):
        role = "heads" if args[0].weight.name.startswith("head") else "dense"
        return f"layers.{role}.{direction}"
    return name


def _forward_attrs(args, kwargs, result):
    return {"batch": len(args[1]), "train": _train_mode(args, kwargs)}


def _encode_attrs(args, kwargs, result):
    from abusekit.text import OOV_INDEX, PAD_INDEX
    return {"encoded": int((result != PAD_INDEX).sum()),
            "oov": int((result == OOV_INDEX).sum())}


def _rows_attrs(args, kwargs, result):
    return {"rows": len(result)}


def _matrix_attrs(args, kwargs, result):
    vocab, vectors = args[0], args[1]
    hits = sum(1 for token in vocab.token_to_index if token in vectors.entries)
    return {"hits": hits, "rows": len(vectors)}


def _checkpoint_attrs(args, kwargs, result):
    directory = args[1]
    return {"bytes": sum(os.path.getsize(os.path.join(directory, f))
                         for f in os.listdir(directory))}


_M = "abusekit."
# (target, span name or naming function, attribute function or None)
TARGETS = [
    (_M + "corpus:parse_uli_csv", "corpus.parse_uli_csv", None),
    (_M + "corpus:assemble_examples", "corpus.assemble_examples", None),
    (_M + "corpus:write_dataset", "corpus.write_dataset", None),
    (_M + "corpus:read_dataset", "corpus.read_dataset", None),
    (_M + "text:preprocess", "text.preprocess", None),
    (_M + "text:build_vocab", "text.build_vocab", None),
    (_M + "text:encode_batch", "text.encode_batch", _encode_attrs),
    (_M + "embeddings:parse_vector_file", "embeddings.parse_vector_file", _rows_attrs),
    (_M + "embeddings:build_matrix", "embeddings.build_matrix", _matrix_attrs),
    (_M + "embeddings:write_cache", "embeddings.write_cache", None),
    (_M + "embeddings:read_cache", "embeddings.read_cache", _rows_attrs),
    (_M + "layers:EmbeddingLookup.forward", "layers.embedding.forward", None),
    (_M + "layers:EmbeddingLookup.backward", "layers.embedding.backward", None),
    (_M + "layers:SpatialDropout1D.forward", "layers.dropout.forward", None),
    (_M + "layers:SpatialDropout1D.backward", "layers.dropout.backward", None),
    (_M + "layers:Dropout.forward", "layers.dropout.forward", None),
    (_M + "layers:Dropout.backward", "layers.dropout.backward", None),
    (_M + "layers:Conv1D.forward", "layers.conv1d.forward", None),
    (_M + "layers:Conv1D.backward", "layers.conv1d.backward", None),
    (_M + "layers:Lstm.forward", "layers.lstm.forward", None),
    (_M + "layers:Lstm.backward", "layers.lstm.backward", None),
    (_M + "layers:BiLstm.forward", "layers.bilstm.forward", None),
    (_M + "layers:BiLstm.backward", "layers.bilstm.backward", None),
    (_M + "layers:Dense.forward", _dense_name("forward"), None),
    (_M + "layers:Dense.backward", _dense_name("backward"), None),
    (_M + "layers:GlobalAveragePool1D.forward", "layers.pool.forward", None),
    (_M + "layers:GlobalAveragePool1D.backward", "layers.pool.backward", None),
    (_M + "layers:softmax_cross_entropy", "layers.softmax_cross_entropy", None),
    (_M + "layers:adam_step", "layers.adam_step", None),
    (_M + "model:train_step", "model.train_step", None),
    (_M + "model:Network.forward", "model.forward", _forward_attrs),
    (_M + "model:Network.trunk_forward", "model.trunk_forward", _forward_attrs),
    (_M + "model:save_checkpoint", "model.save_checkpoint", _checkpoint_attrs),
    (_M + "model:load_checkpoint", "model.load_checkpoint", None),
    (_M + "training:run_cv", "training.run_cv", None),
    (_M + "training:train_epoch", "training.train_epoch", None),
    (_M + "training:evaluate", _evaluate_name, None),
    (_M + "training:ensemble_predict", "training.ensemble_predict", None),
    (_M + "cli:main", "cli.command", None),
]


class Tracer:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self, patcher: Patcher) -> None:
        for target, name, attrs in TARGETS:
            patcher.replace(target, functools.partial(self._wrap, name=name, attrs=attrs))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs):
        spans = self.spans
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            label = name if isinstance(name, str) else name(
                args, spans[parent][0] if parent >= 0 else None)
            record = [label, 0.0, 0.0, parent, None]
            with self._lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result
        return traced
