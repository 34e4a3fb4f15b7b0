"""Pretrained word-vector files and the frozen embedding matrix.

Handles whitespace-separated text vector files (GloVe style, or FastText
style with a leading "count dim" header), a binary cache for fast reloads,
and construction of a vocabulary-aligned matrix whose PAD and OOV rows stay
zero and which is never updated during training.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CorruptionError, ParseError
from .text import Vocabulary

__all__ = [
    "WordVectorFile",
    "build_matrix",
    "load_vectors",
    "parse_vector_file",
    "read_cache",
    "write_cache",
    "write_vector_file",
]

log = logging.getLogger(__name__)

_CACHE_MAGIC = b"EMB1"


@dataclass
class WordVectorFile:
    """Parsed vector file: word -> float32 vector, all the same dimension."""

    dimension: int
    entries: dict[str, np.ndarray]
    had_header: bool

    def __len__(self) -> int:
        return len(self.entries)


def _is_header(fields: list[str]) -> bool:
    # FastText convention: first line holds exactly two integer fields.
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def parse_vector_file(path) -> WordVectorFile:
    """Stream-parse a text vector file, inferring the dimension.

    The dimension is fixed by the first data line and enforced on every
    later line.  Duplicate words keep the last occurrence.  A word keeps
    its undecodable bytes (as surrogateescape does), so it stays distinct
    and never matches a vocabulary token.
    """
    entries: dict[str, np.ndarray] = {}
    dimension = None
    had_header = False
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(" ")
            if fields and fields[-1] == "":
                fields = fields[:-1]
            if not fields or fields == [""]:
                continue
            if line_no == 1 and _is_header(fields):
                had_header = True
                continue
            word, raw = fields[0], fields[1:]
            if dimension is None:
                dimension = len(raw)
                if dimension == 0:
                    raise ParseError("no vector components on first data line",
                                     path=str(path), line=line_no)
            elif len(raw) != dimension:
                raise ParseError(
                    f"expected {dimension} components, found {len(raw)}",
                    path=str(path), line=line_no)
            try:
                vec = np.array(raw, dtype=np.float32)
            except ValueError:
                raise ParseError("non-numeric vector component",
                                 path=str(path), line=line_no) from None
            if not np.all(np.isfinite(vec)):
                raise ParseError("non-finite vector component",
                                 path=str(path), line=line_no)
            if word in entries:
                log.warning("duplicate vector for %r at %s:%d; keeping the later one",
                            word, path, line_no)
            entries[word] = vec
    if dimension is None:
        raise ParseError("vector file has no data lines", path=str(path))
    return WordVectorFile(dimension=dimension, entries=entries, had_header=had_header)


def write_vector_file(vectors: WordVectorFile, path, header: bool = False) -> None:
    """Serialize back to the text format.

    Nine significant digits reproduce any float32 exactly on re-parse, so
    text round-trips are lossless, not merely close.
    """
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        if header:
            fh.write(f"{len(vectors.entries)} {vectors.dimension}\n")
        for word, vec in vectors.entries.items():
            fh.write(word + " " + " ".join("%.9g" % v for v in vec) + "\n")


def write_cache(vectors: WordVectorFile, path) -> None:
    """Binary cache: 'EMB1', u32 dim, u64 count, then length-prefixed entries."""
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<I", vectors.dimension))
        fh.write(struct.pack("<Q", len(vectors.entries)))
        for word, vec in vectors.entries.items():
            encoded = word.encode("utf-8", "surrogateescape")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def read_cache(path) -> WordVectorFile:
    """Load a cache written by write_cache, validating structure throughout."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CACHE_MAGIC:
            raise CorruptionError(f"{path}: damaged vector cache: bad magic {magic!r}, "
                                  f"expected {_CACHE_MAGIC!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise CorruptionError(f"{path}: truncated header")
        dimension = struct.unpack("<I", header[:4])[0]
        count = struct.unpack("<Q", header[4:])[0]
        entries: dict[str, np.ndarray] = {}
        vec_bytes = 4 * dimension
        # each entry takes 2 + vec_bytes bytes or more, so a damaged header
        # is caught here instead of asking read() for gigabytes
        if count * (2 + vec_bytes) > os.fstat(fh.fileno()).st_size - 16:
            raise CorruptionError(f"{path}: {count} entries of dimension {dimension} "
                                  "do not fit in the file")
        for i in range(count):
            raw_len = fh.read(2)
            if len(raw_len) != 2:
                raise CorruptionError(f"{path}: truncated at entry {i}")
            word_len = struct.unpack("<H", raw_len)[0]
            word_raw = fh.read(word_len)
            if len(word_raw) != word_len:
                raise CorruptionError(f"{path}: truncated word for entry {i}")
            word = word_raw.decode("utf-8", "surrogateescape")
            raw_vec = fh.read(vec_bytes)
            if len(raw_vec) != vec_bytes:
                raise CorruptionError(f"{path}: truncated vector for entry {i}")
            entries[word] = np.frombuffer(raw_vec, dtype="<f4").copy()
        if fh.read(1):
            raise CorruptionError(f"{path}: trailing bytes after {count} entries")
    return WordVectorFile(dimension=dimension, entries=entries, had_header=False)


def load_vectors(path) -> WordVectorFile:
    """Read a write_cache file or parse a text vector file: the first 16
    bytes tell which.  A cache header holds NUL bytes and the first line of
    a text vector file none, so read_cache gets a file with NUL there and a
    damaged magic too, and names it a damaged cache."""
    with open(path, "rb") as fh:
        head = fh.read(16)
    if head.startswith(_CACHE_MAGIC) or b"\0" in head:
        return read_cache(path)
    return parse_vector_file(path)


def build_matrix(
    vocab: Vocabulary,
    vectors: WordVectorFile,
    expected_dim: int | None = None,
) -> tuple[np.ndarray, float]:
    """The frozen |V| x dim lookup matrix for a vocabulary, and the share
    of its tokens that the file covers.

    Rows 0 (PAD) and 1 (OOV) are always zero, and so are the rows of
    tokens absent from the file.  Coverage counts only non-reserved tokens.
    """
    if expected_dim is not None and vectors.dimension != expected_dim:
        raise ConfigurationError(
            f"vector file has dimension {vectors.dimension}, model expects {expected_dim}")

    tokens = vocab.tokens()
    matrix = np.zeros((len(tokens) + 2, vectors.dimension), dtype=np.float32)
    hits = 0
    for token in tokens:
        row = vocab.index_of(token)
        vec = vectors.entries.get(token)
        if vec is not None:
            matrix[row] = vec
            hits += 1
    return matrix, hits / len(tokens) if tokens else 0.0
