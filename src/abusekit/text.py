"""Text normalization, vocabulary construction, and encoding.

Cleaning removes markup, URLs, @-mentions, emoji, and punctuation that is
not internal to a word, optionally lowercasing Latin script while leaving
Devanagari and Tamil text untouched.  Tokens are the cleaned text split on
whitespace.  Encoding maps them to a corpus-built vocabulary with reserved
indices 0 (padding) and 1 (out-of-vocabulary) and pads or truncates to a
fixed length.
"""

from __future__ import annotations

import functools
import json
import os
import re
import unicodedata
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigurationError, CorruptionError, ParseError

__all__ = [
    "CleaningFlags",
    "OOV_INDEX",
    "PAD_INDEX",
    "PreprocessConfig",
    "PreprocessFiles",
    "Vocabulary",
    "atomic_write",
    "build_vocab",
    "clean",
    "encode_batch",
    "load_emoji_ranges",
    "load_stopwords",
    "open_text",
    "preprocess",
    "remove_stopwords",
]

PAD_INDEX = 0
OOV_INDEX = 1

_HTML_RE = re.compile(r"<[^>]+>")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_KEEP_RE = re.compile(r"#(\w+)")
_HASHTAG_DROP_RE = re.compile(r"#\w+")

# Zero-width codepoints are deleted outright; visible emoji become a space.
_ZERO_WIDTH = (0x200D, *range(0xFE00, 0xFE10))   # ascending


def open_text(path, newline=None) -> Iterator[str]:
    """The file's lines as read, decoded as strict UTF-8, with open()'s
    newline handling (newline="" for csv).  Every text input is read
    through here: an undecodable byte is a ParseError naming the path and
    its line."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield from fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:   # read again to find the byte's line
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})",
                path=path, line=data.count(b"\n", 0, exc.start) + 1) from None
        raise   # the file changed between the two reads


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A file object (mode "w" for UTF-8 text with "\\n" newlines, or "wb")
    on a temporary file beside path, which replaces path (os.replace) once
    the block ends cleanly.  A reader sees the old file or the new one,
    never a part: if the block raises, path is untouched and the temporary
    file is removed; an OSError on the temporary file names path.  Every
    run-directory file is written through here."""
    temp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(temp, mode, **text) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException as exc:
        if os.path.exists(temp):
            os.remove(temp)
        if getattr(exc, "filename", None) == temp:   # an OSError names path, not temp
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def _write_json(data, path) -> None:
    """data as indented JSON with sorted keys, written through atomic_write."""
    with atomic_write(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _content_lines(text: str):
    """(line number, stripped line) for each non-blank, non-'#' line."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _parse_stopwords(text: str, source) -> frozenset[str]:
    tokens = frozenset(line for _, line in _content_lines(text))
    if not tokens:
        raise ConfigurationError(f"stopword file {source} is empty")
    return tokens


def _parse_ranges(text: str, source) -> tuple[tuple[int, int], ...]:
    ranges = []
    for line_no, line in _content_lines(text):
        try:
            lo_s, hi_s = line.split("-")
            ranges.append((int(lo_s, 16), int(hi_s, 16)))
        except ValueError:
            raise ConfigurationError(
                f"{source}:{line_no}: expected 'LO-HI' hex range, got {line!r}"
            ) from None
    return tuple(ranges)


def _packaged(parse, name: str):
    text = resources.files("abusekit.data").joinpath(name).read_text(encoding="utf-8")
    return parse(text, name)


def load_stopwords(path) -> frozenset[str]:
    """Read a stopword file: one token per line, '#' comment lines ignored."""
    return _parse_stopwords("".join(open_text(path)), path)


def load_emoji_ranges(path) -> tuple[tuple[int, int], ...]:
    """Read inclusive hex codepoint ranges, one 'LO-HI' per line."""
    return _parse_ranges("".join(open_text(path)), path)


@dataclass
class CleaningFlags:
    strip_urls: bool = True
    strip_mentions: bool = True
    strip_html: bool = True
    strip_hashmark: bool = True   # False removes the whole hashtag token instead
    lowercase_latin: bool = True


@dataclass
class PreprocessFiles(CleaningFlags):
    """A run config's preprocess section: cleaning flags plus the files
    that replace packaged stopword lists (per language) or the emoji table."""

    stopword_files: dict[str, str] = field(default_factory=dict)
    emoji_range_file: str | None = None


@dataclass
class PreprocessConfig(CleaningFlags):
    """Cleaning flags plus the loaded stopword sets and emoji ranges."""

    stopwords: dict[str, frozenset[str]] = field(default_factory=dict)
    emoji_ranges: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_files(cls, stopword_files: dict[str, str] | None = None,
                   emoji_range_file=None, **flags) -> "PreprocessConfig":
        """The packaged stopword lists and emoji table, each replaced only by
        the file named for it; the arguments are the fields of PreprocessFiles."""
        stopwords = {lang: _packaged(_parse_stopwords, f"stopwords_{lang}.txt")
                     for lang in ("en", "hi", "ta")}
        stopwords.update((lang, load_stopwords(path))
                         for lang, path in (stopword_files or {}).items())
        ranges = (_packaged(_parse_ranges, "emoji_ranges.txt") if emoji_range_file is None
                  else load_emoji_ranges(emoji_range_file))
        return cls(stopwords=stopwords, emoji_ranges=ranges, **flags)

    default = from_files   # the packaged lists and table, with the given flags

    def to_dict(self) -> dict:
        """The JSON form that training.read_config reads back."""
        return {**asdict(self),
                "stopwords": {lang: sorted(words) for lang, words in self.stopwords.items()},
                "emoji_ranges": [list(r) for r in self.emoji_ranges]}


@functools.lru_cache(maxsize=8)
def _emoji_classes(ranges) -> tuple[re.Pattern, re.Pattern]:
    """(zero-width class, other class): the inclusive codepoint ranges as two
    compiled character classes; an empty one matches nothing.  Bounds are
    clamped to [0, 0x10FFFF], and a reversed range matches nothing."""
    zero_width, other = [], []
    for lo, hi in ranges:
        lo, hi = max(lo, 0), min(hi, 0x10FFFF)
        for cp in _ZERO_WIDTH:
            if lo <= cp <= hi:
                zero_width.append((cp, cp))
                other.append((lo, cp - 1))
                lo = cp + 1
        other.append((lo, hi))
    classes = []
    for spans in (zero_width, other):
        body = "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in spans if lo <= hi)
        classes.append(re.compile(f"[{body}]" if body else "(?!)"))
    return tuple(classes)


def _strip_emoji(text: str, ranges) -> tuple[str, bool]:
    """Returns the text and whether a zero-width codepoint was deleted."""
    zero_width, other = _emoji_classes(ranges)
    text, deleted = zero_width.subn("", other.sub(" ", text))
    return text, deleted > 0


class _Categories(dict):
    """codepoint -> "P" for punctuation and symbols, "W" for a word
    character (letters, combining marks such as Devanagari matras, digits),
    "o" for the rest: a str.translate table that fills itself as it meets
    codepoints, so no table over all of Unicode is built."""

    def __missing__(self, codepoint: int) -> str:
        major = unicodedata.category(chr(codepoint))[0]
        letter = self[codepoint] = "P" if major in "PS" else "W" if major in "LMN" else "o"
        return letter


_CATEGORY = _Categories()
# a run of punctuation/symbols, each lacking a word character on one side
_LONE_SYMBOLS_RE = re.compile(r"(?:(?<!W)P|P(?!W))+")


def _strip_symbols(text: str) -> str:
    # Punctuation/symbols survive only when flanked by word characters on
    # both sides ("don't" keeps its apostrophe; a trailing comma does not);
    # each other one becomes a space.
    out, end = [], 0
    for match in _LONE_SYMBOLS_RE.finditer(text.translate(_CATEGORY)):
        start, stop = match.span()
        out += (text[end:start], " " * (stop - start))
        end = stop
    out.append(text[end:])
    return "".join(out)


# Latin blocks only (Basic through Extended-B), a no-op for Devanagari/Tamil.
# A list: translate keeps a character past its end, and indexes a list ~2x
# faster than it looks up a dict.
_LATIN_LOWER = [ch.lower() if ch.isupper() else ch for ch in map(chr, range(0x250))]


def _clean_pass(text: str, config: PreprocessConfig) -> tuple[str, bool]:
    """One cleaning pass; also reports whether it deleted characters
    (hashmarks, zero-width codepoints) without leaving a space behind."""
    s = text
    if config.strip_html:
        s = _HTML_RE.sub(" ", s)
    if config.strip_urls:
        s = _URL_RE.sub(" ", s)
    if config.strip_mentions:
        s = _MENTION_RE.sub(" ", s)
    if config.strip_hashmark:
        s, joined = _HASHTAG_KEEP_RE.subn(r"\1", s)
    else:
        s, joined = _HASHTAG_DROP_RE.sub(" ", s), 0
    s, deleted = _strip_emoji(s, config.emoji_ranges)
    s = _strip_symbols(s)
    if config.lowercase_latin:
        s = s.translate(_LATIN_LOWER)
    return " ".join(s.split()), bool(joined) or deleted


def _strippable(text: str, config: PreprocessConfig) -> bool:
    # Whether an early step of _clean_pass would still remove something.
    return bool((config.strip_html and _HTML_RE.search(text))
                or (config.strip_urls and _URL_RE.search(text))
                or (config.strip_mentions and _MENTION_RE.search(text))
                or _HASHTAG_DROP_RE.search(text))


def clean(text: str, config: PreprocessConfig) -> str:
    """Normalize one post. Idempotent; empty output is valid."""
    s, joined = _clean_pass(text, config)
    # A deletion can join its neighbours into a tag, URL, mention or
    # hashtag ("0@#0" -> "0@0") that an earlier step strips; only then is
    # the output cleaned again.
    while joined and _strippable(s, config):
        s, joined = _clean_pass(s, config)
    return s


def remove_stopwords(tokens: list[str], language: str, config: PreprocessConfig) -> list[str]:
    """Order-preserving stopword filter for the given language."""
    stopwords = config.stopwords.get(language)
    if stopwords is None:
        raise ConfigurationError(f"no stopword list configured for language {language!r}")
    return [t for t in tokens if t not in stopwords]


def preprocess(text: str, language: str, config: PreprocessConfig) -> list[str]:
    """clean -> split on whitespace -> remove_stopwords.  Each token holds a
    word character: clean keeps punctuation only between two of them."""
    return remove_stopwords(clean(text, config).split(), language, config)


@dataclass
class Vocabulary:
    """Token-to-index map with reserved indices 0 (PAD) and 1 (OOV).

    Real tokens occupy dense indices starting at 2, ordered by descending
    corpus frequency with lexicographic tie-breaks, so construction is
    deterministic for a given corpus.
    """

    token_to_index: dict[str, int]

    def __len__(self) -> int:
        return len(self.token_to_index) + 2

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def index_of(self, token: str) -> int:
        return self.token_to_index.get(token, OOV_INDEX)

    def tokens(self) -> list[str]:
        """Real tokens in index order (index 2 first)."""
        return sorted(self.token_to_index, key=self.token_to_index.__getitem__)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            for token in self.tokens():
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        mapping = {}
        for i, line in enumerate(open_text(path)):
            token = line.rstrip("\n")
            if not token or token in mapping:   # either would shift later indices
                raise CorruptionError(f"{path}:{i + 1}: token {token!r} is empty or "
                                      "repeated; each line holds one distinct token")
            mapping[token] = i + 2
        return cls(token_to_index=mapping)


def build_vocab(corpus: list[list[str]]) -> Vocabulary:
    """Build a vocabulary of every token of the tokenized training documents."""
    if not corpus:
        raise ConfigurationError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    kept = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocabulary(token_to_index={t: i + 2 for i, t in enumerate(kept)})


def encode_batch(corpus: list[list[str]], vocab: Vocabulary, max_len: int = 100) -> np.ndarray:
    """Encode many documents into one (N, max_len) int32 matrix.

    Each row keeps a document's first max_len tokens, then PAD.
    """
    out = np.full((len(corpus), max_len), PAD_INDEX, dtype=np.int32)
    for row, tokens in enumerate(corpus):
        for i, token in enumerate(tokens[:max_len]):
            out[row, i] = vocab.index_of(token)
    return out
