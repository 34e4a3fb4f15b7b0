"""Seeded input generation for the benchmark workloads.

Every input the program sees comes from here and depends only on the
seed.  Posts mix Zipf-distributed Latin nonsense words with Devanagari
and Tamil words, emoji, URLs, @-mentions, hashtags, markup and stray
punctuation; lengths run from 8 to well past the 100-token model window,
so truncation happens.  The label of a post is carried by a marker token,
as in the package's own synthetic corpora, so training has something
learnable.

The generator also keeps the set of words that survive the program's
cleaning (the core word of every token that is not a URL, mention, emoji
or punctuation), which is what the vector files are built from.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

MARKER = "vorzhak"
LANGUAGE = "hi"
DIM = 300  # the default ModelConfig.embed_dim
HI_ANNOTATORS = tuple(f"hi_a{i}" for i in range(1, 6))

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiouy"
_DEVANAGARI_CONSONANTS = [chr(c) for c in range(0x0915, 0x093A)]
_DEVANAGARI_SIGNS = ["", "ा", "ि", "ी", "ु", "ू",
                     "े", "ै", "ो", "ौ", "ं"]
_TAMIL_CONSONANTS = list("கஙசஞடணதநபமயரலவழளறன")
_TAMIL_SIGNS = ["", "ா", "ி", "ீ", "ு", "ூ",
                "ெ", "ே", "ை", "ொ", "ோ", "்"]
_EMOJI = ["\U0001F600", "\U0001F602", "\U0001F621", "\U0001F525",
          "❤️", "\U0001F44D\U0001F3FD", "\U0001F64F", "✨",
          "\U0001F92C", "\U0001F1EE\U0001F1F3"]
_PUNCT = ["!!", "?", "...", ",", "!?", ":)", "-", "\""]
_MARKUP = [("<b>", "</b>"), ("<i>", "</i>"), ("<a href=\"x\">", "</a>"),
           ("<span class=\"m\">", "</span>")]

# Token kinds and their probabilities: latin, devanagari, tamil, emoji,
# url, mention, hashtag, markup-wrapped latin, punctuation-only.
_KINDS = np.array([0.55, 0.15, 0.08, 0.06, 0.03, 0.04, 0.04, 0.03, 0.02])


def _syllable_words(rng, count, consonants, signs, syllables=(2, 4),
                    exclude=()):
    words, seen = [], set(exclude)
    while len(words) < count:
        n = int(rng.integers(*syllables))
        word = "".join(consonants[rng.integers(len(consonants))]
                       + signs[rng.integers(len(signs))] for _ in range(n))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_cdf(n, exponent):
    weights = np.cumsum(1.0 / np.arange(1, n + 1) ** exponent)
    return weights / weights[-1]


@dataclass
class Post:
    text: str
    label: int


class PostGenerator:
    """One stream of mixed-script posts; the same seed gives the same posts."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        # Word pools come from a fixed seed so that every workload and seed
        # draws from the same language; the seed picks the posts.
        pool_rng = np.random.default_rng(12345)
        self.latin = _syllable_words(pool_rng, 6000, _CONSONANTS,
                                     list(_VOWELS), exclude={MARKER})
        self.devanagari = _syllable_words(pool_rng, 1500, _DEVANAGARI_CONSONANTS,
                                          _DEVANAGARI_SIGNS)
        self.tamil = _syllable_words(pool_rng, 800, _TAMIL_CONSONANTS,
                                     _TAMIL_SIGNS)
        self.latin_cdf = _zipf_cdf(len(self.latin), 1.05)
        self.devanagari_cdf = _zipf_cdf(len(self.devanagari), 1.0)
        self.tamil_cdf = _zipf_cdf(len(self.tamil), 1.0)
        self.words: set[str] = set()

    def _zipf(self, pool, cdf) -> str:
        word = pool[min(int(np.searchsorted(cdf, self.rng.random())), len(pool) - 1)]
        self.words.add(word)
        return word

    def _latin(self) -> str:
        word = self._zipf(self.latin, self.latin_cdf)
        return word.capitalize() if self.rng.random() < 0.1 else word

    def _token(self, kind: int) -> str:
        rng = self.rng
        if kind == 0:
            return self._latin()
        if kind == 1:
            return self._zipf(self.devanagari, self.devanagari_cdf)
        if kind == 2:
            return self._zipf(self.tamil, self.tamil_cdf)
        if kind == 3:
            return _EMOJI[rng.integers(len(_EMOJI))]
        if kind == 4:
            tail = "".join(_CONSONANTS[i] for i in rng.integers(0, len(_CONSONANTS), 8))
            return (f"https://t.co/{tail}" if rng.random() < 0.5
                    else f"www.{tail}.com/p/{rng.integers(1000)}")
        if kind == 5:
            return f"@{self.latin[rng.integers(len(self.latin))]}{rng.integers(100)}"
        if kind == 6:
            word = self._latin().lower()
            return "#" + word
        if kind == 7:
            opening, closing = _MARKUP[rng.integers(len(_MARKUP))]
            return opening + self._latin() + closing
        return _PUNCT[rng.integers(len(_PUNCT))]

    def post(self) -> Post:
        rng = self.rng
        length = int(np.clip(round(np.exp(rng.normal(np.log(32.0), 0.7))), 8, 170))
        kinds = rng.choice(len(_KINDS), size=length, p=_KINDS)
        tokens = [self._token(int(k)) for k in kinds]
        for i in rng.integers(0, length, size=length // 8):
            tokens[i] += _PUNCT[rng.integers(len(_PUNCT))]
        label = int(rng.random() < 0.5)
        if label:
            # Early enough to survive truncation to the model window.
            tokens.insert(int(rng.integers(0, min(len(tokens), 60) + 1)), MARKER)
            self.words.add(MARKER)
        return Post(text=" ".join(tokens), label=label)

    def posts(self, n: int) -> list[Post]:
        return [self.post() for _ in range(n)]


def write_dataset_jsonl(path, posts: list[Post]) -> None:
    """The canonical dataset layout that `abusekit prepare` writes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for post in posts:
            fh.write(json.dumps({"text": post.text, "language": LANGUAGE,
                                 "labels": {"1": post.label}, "source": "uli"},
                                ensure_ascii=False) + "\n")


def write_id_text_csv(path, posts: list[Post]) -> list[int]:
    ids = list(range(1, len(posts) + 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text"])
        for post_id, post in zip(ids, posts):
            writer.writerow([post_id, post.text])
    return ids


# Vote cells for five Hindi annotators.  Ties (2 vs 2) resolve to 1, "NL"
# and blank cells do not count, and _NO_VOTES has no countable vote, so
# `prepare` drops a post with it on question_1.
_POSITIVE_VOTES = (["1", "1", "1", "0", "NL"], ["1", "1", "0", "0", ""],
                   ["1.0", "", "1.0", "NL", ""], ["1", "0", "1", "", "0"])
_NEGATIVE_VOTES = (["0", "0", "0", "1", "NL"], ["0", "", "", "", ""],
                   ["0.0", "1.0", "0.0", "", "NL"])
_NO_VOTES = ["NL", "", "NL", "", ""]


@dataclass
class AnnotationCsv:
    posts: int
    kept: int
    kept_positive: int


def write_annotation_csv(path, posts: list[Post], rng: np.random.Generator) -> AnnotationCsv:
    """Shared-task layout: three rows per post (question_1..3), vote columns.

    Returns what `prepare --task 1` must report for this file.
    """
    kept = kept_positive = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "language", "key", *HI_ANNOTATORS])
        for post_id, post in enumerate(posts, start=1):
            dropped = rng.random() < 0.03
            if not dropped:
                kept += 1
                kept_positive += post.label
            for question in ("question_1", "question_2", "question_3"):
                if dropped and question == "question_1":
                    votes = _NO_VOTES
                else:
                    label = post.label if question == "question_1" else int(rng.random() < 0.3)
                    choices = _POSITIVE_VOTES if label else _NEGATIVE_VOTES
                    votes = choices[rng.integers(len(choices))]
                writer.writerow([post_id, post.text, "hindi" if post_id % 7 == 0
                                 else LANGUAGE, question, *votes])
    return AnnotationCsv(posts=len(posts), kept=kept, kept_positive=kept_positive)


def write_vector_text(path, words, rng: np.random.Generator, filler: int = 0) -> int:
    """fastText-style text vectors with a "count dim" header line.

    ``filler`` extra rows for words the corpus never uses make the file
    larger than the vocabulary, as real pretrained files are.  Components
    are drawn from a fixed table of formatted numbers, which keeps
    generation cheap while the parser still reads every field.
    """
    table = np.array([f"{v:.4f}" for v in rng.normal(0.0, 0.3, size=4096)])
    rows = sorted(words)
    fillers = [f"zz{i:06d}{c}" for i, c in
               enumerate(rng.choice(list(_CONSONANTS), size=filler))]
    # Interleave filler rows so vocabulary rows are spread through the file.
    order = rows + fillers
    perm = rng.permutation(len(order))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(order)} {DIM}\n")
        for i in perm:
            fh.write(order[i] + " " + " ".join(table[rng.integers(0, len(table), DIM)]) + "\n")
    return len(order)
