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
import warnings
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
# characters read per readlines() call of parse_vector_file: a 1 MiB chunk
# of a 300-d file is ~460 lines and a ~0.6 MB float32 block
_CHUNK_CHARS = 1 << 20
# loadtxt strips these from a field's edges as whitespace, but float(), and
# so np.array, rejects a field that holds them
_LOADTXT_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


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


def _parse_row(fields: list[str], dimension: int, path, line_no: int) -> np.ndarray:
    """One data line's vector by the rule every line must pass: exactly
    dimension components, each a number that float() reads, all finite."""
    raw = fields[1:]
    if len(raw) != dimension:
        raise ParseError(f"expected {dimension} components, found {len(raw)}",
                         path=str(path), line=line_no)
    try:
        with np.errstate(over="ignore"):   # inf fails the check below
            vec = np.array(raw, dtype=np.float32)
    except ValueError:
        raise ParseError("non-numeric vector component",
                         path=str(path), line=line_no) from None
    if not np.all(np.isfinite(vec)):
        raise ParseError("non-finite vector component", path=str(path), line=line_no)
    return vec


def _parse_block(rests: list[str], dimension: int) -> np.ndarray | None:
    """The components after each line's word as one float32 block, or None
    when the chunk must go through _parse_row line by line.

    loadtxt reads each field as a double and casts it to float32, as
    np.array does, so a block it accepts holds _parse_row's rows bit for
    bit.  Where the two differ, the chunk goes to _parse_row: loadtxt
    rejects some fields that float() reads (``1_0``, non-ASCII digits),
    skips a line with no components (the shape check sees the missing
    row), and strips _LOADTXT_ONLY_SPACES (checked before it runs).
    """
    if any(sep in rest for rest in rests for sep in _LOADTXT_ONLY_SPACES):
        return None
    try:
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            # loadtxt warns of "no data" when every line is empty; the
            # shape check below sends such a chunk to _parse_row
            warnings.simplefilter("ignore", UserWarning)
            block = np.loadtxt(rests, dtype=np.float32, delimiter=" ",
                               comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(rests), dimension) or not np.isfinite(block).all():
        return None
    return block


def parse_vector_file(path) -> WordVectorFile:
    """Stream-parse a text vector file, inferring the dimension.

    The dimension is fixed by the first data line and enforced on every
    later line.  Duplicate words keep the last occurrence.  A word keeps
    its undecodable bytes (as surrogateescape does), so it stays distinct
    and never matches a vocabulary token.

    Lines are read in chunks and each chunk's numbers are converted by one
    loadtxt call into a float32 block, whose rows are the entries.  A chunk
    that fails in bulk is read again line by line with _parse_row, which
    names the first bad line.
    """
    entries: dict[str, np.ndarray] = {}
    dimension = None
    had_header = False
    line_no = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        while lines := fh.readlines(_CHUNK_CHARS):
            texts, numbers = [], []
            for line in lines:
                line_no += 1
                text = line.rstrip("\n")
                if text.endswith(" "):
                    text = text[:-1]
                if not text:
                    continue
                if line_no == 1 and _is_header(text.split(" ")):
                    had_header = True
                    continue
                texts.append(text)
                numbers.append(line_no)
            if not texts:
                continue
            if dimension is None:
                dimension = texts[0].count(" ")
                if dimension == 0:
                    raise ParseError("no vector components on first data line",
                                     path=str(path), line=numbers[0])
            words, _, rests = zip(*(text.partition(" ") for text in texts))
            rows = _parse_block(list(rests), dimension)
            if rows is None:
                rows = (_parse_row(text.split(" "), dimension, path, n)
                        for text, n in zip(texts, numbers))
            for word, row, n in zip(words, rows, numbers):
                if word in entries:
                    log.warning("duplicate vector for %r at %s:%d; keeping the later one",
                                word, path, n)
                entries[word] = row
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

    matrix = np.zeros((len(vocab), vectors.dimension), dtype=np.float32)
    hits = 0
    for token, row in vocab.token_to_index.items():
        vec = vectors.entries.get(token)
        if vec is not None:
            matrix[row] = vec
            hits += 1
    return matrix, hits / len(vocab.token_to_index) if vocab.token_to_index else 0.0
