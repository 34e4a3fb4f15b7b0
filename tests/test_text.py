import itertools
import unicodedata
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abusekit.errors import ConfigurationError
from abusekit.text import (_LATIN_LOWER, OOV_INDEX, PAD_INDEX, CleaningFlags,
                           PreprocessConfig, Vocabulary, _strip_emoji, build_vocab,
                           clean, encode_batch, load_emoji_ranges, load_stopwords,
                           preprocess, remove_stopwords)
from abusekit.training import read_config


@pytest.fixture(scope="module")
def config():
    return PreprocessConfig.default()


@pytest.fixture(scope="module")
def flag_configs(config):
    """config under each of the 32 on/off settings of the cleaning flags."""
    names = [f.name for f in fields(CleaningFlags)]
    return [replace(config, **dict(zip(names, values)))
            for values in itertools.product((False, True), repeat=len(names))]


class TestClean:
    def test_removal_rules_together(self, config):
        assert clean("Check this 😂 http://t.co/x @user", config) == "check this"

    def test_empty_identity(self, config):
        assert clean("", config) == ""

    def test_urls_and_mentions(self, config):
        assert clean("see www.example.com/x?y=1 now", config) == "see now"
        assert clean("@someone123 hi", config) == "hi"

    def test_html_tags(self, config):
        assert clean("<b>bold</b> and <a href='x'>link</a>", config) == "bold and link"

    def test_hashtag_keeps_word(self, config):
        assert clean("stop #Abuse now", config) == "stop abuse now"

    def test_hashtag_drop_mode(self):
        config = PreprocessConfig.default(strip_hashmark=False)
        assert clean("stop #Abuse now", config) == "stop now"

    def test_word_internal_punctuation_survives(self, config):
        assert clean("don't stop-me now.", config) == "don't stop-me now"

    def test_emoji_inside_word_removed(self, config):
        # emoji split words apart; plain symbols inside words do not
        assert clean("ab😂cd", config) == "ab cd"

    def test_zero_width_joiner_vanishes_without_space(self, config):
        # family emoji: the ZWJs must not leave gaps behind
        assert clean("a 👨‍👩‍👧 b", config) == "a b"

    def test_devanagari_untouched(self, config):
        text = "यह बहुत बुरा है"
        assert clean(text, config) == text

    def test_tamil_untouched(self, config):
        text = "இது மிகவும் மோசமானது"
        assert clean(text, config) == text

    def test_devanagari_matra_not_a_boundary(self, config):
        # combining marks count as word-internal, so a danda after a matra
        # goes away while the word survives intact
        assert clean("बुरा।", config) == "बुरा"

    def test_latin_lowercased_codeswitch(self, config):
        assert clean("यह BAD है", config) == "यह bad है"

    def test_lowercase_flag_off(self):
        config = PreprocessConfig.default(lowercase_latin=False)
        assert clean("Staying UP", config) == "Staying UP"

    def test_whitespace_collapsed(self, config):
        assert clean("a \t b\n\nc", config) == "a b c"

    def test_idempotent_on_fixed_cases(self, config):
        cases = ["Check this 😂 http://t.co/x @user", "##double #tag",
                 "a!!b c.d-e 🤔", "यह @user बुरा», है", "x👍🏽y",
                 "<p>HTML</p> with WWW.SITE.COM", "don't.. stop",
                 # a deleted hashmark or zero-width joiner glues a new
                 # mention, URL, tag or hashtag together
                 "0@#0", "a@\u200db", "w\u200dww.site.com x", "a##x",
                 "a#\u200dx", "w#ww.site.com x"]
        for text in cases:
            once = clean(text, config)
            assert clean(once, config) == once

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_property(self, text):
        config = PreprocessConfig.default()
        once = clean(text, config)
        assert clean(once, config) == once


# The per-character cleaning code that the compiled character classes and
# the translate table replaced, kept as the reference they must match; and
# the punctuation-token filter that preprocess dropped, kept to show that it
# never fires on cleaned text.
def reference_strip_emoji(text, ranges):
    out, deleted = [], False
    for ch in text:
        cp = ord(ch)
        if any(lo <= cp <= hi for lo, hi in ranges):
            if cp == 0x200D or 0xFE00 <= cp < 0xFE10:
                deleted = True
            else:
                out.append(" ")
            continue
        out.append(ch)
    return "".join(out), deleted


def reference_lowercase_latin(text):
    return "".join(ch.lower() if ch.isupper() and ord(ch) < 0x250 else ch for ch in text)


def reference_tokenize(text):
    tokens = []
    for token in text.split():
        if all(unicodedata.category(ch)[0] in ("P", "S") for ch in token):
            continue
        tokens.append(token)
    return tokens


# range ends and characters at the zero-width codepoints, the Latin limit,
# the surrogates, the emoji blocks and the codepoint limit, and one past each
EDGES = [0, 0x20, 0x41, 0x130, 0x24F, 0x250, 0x200C, 0x200D, 0x200E, 0xD800,
         0xDFFF, 0xFDFF, 0xFE00, 0xFE07, 0xFE0F, 0xFE10, 0x1F600, 0x10FFFF]
range_ends = st.one_of(st.sampled_from(EDGES + [-1, 0x110000, 0xFFFFFFFF]),
                       st.integers(-2, 0x110001))
edge_text = st.text(st.one_of(st.sampled_from([chr(c) for c in EDGES]),
                              st.characters()), max_size=40)


class TestCleaningReference:
    @given(edge_text, st.lists(st.tuples(range_ends, range_ends), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_emoji_classes_match_the_loop(self, text, ranges):
        ranges = tuple(ranges)
        assert _strip_emoji(text, ranges) == reference_strip_emoji(text, ranges)

    @given(edge_text)
    @settings(max_examples=100, deadline=None)
    def test_packaged_table_and_lowercasing_match_the_loops(self, text):
        ranges = PreprocessConfig.from_files().emoji_ranges
        assert _strip_emoji(text, ranges) == reference_strip_emoji(text, ranges)
        assert text.translate(_LATIN_LOWER) == reference_lowercase_latin(text)

    def test_every_latin_codepoint_lowercases_alike(self):
        chars = "".join(map(chr, range(0x300)))
        assert chars.translate(_LATIN_LOWER) == reference_lowercase_latin(chars)

    @given(edge_text)
    @settings(max_examples=300, deadline=None)
    def test_cleaned_text_keeps_punctuation_only_inside_words(self, flag_configs, text):
        for config in flag_configs:
            cleaned = clean(text, config)
            assert reference_tokenize(cleaned) == cleaned.split()
            categories = [unicodedata.category(ch)[0] for ch in cleaned]
            for i, category in enumerate(categories):
                if category in "PS":
                    assert 0 < i < len(cleaned) - 1, (text, cleaned)
                    assert categories[i - 1] in "LMN" and categories[i + 1] in "LMN", \
                        (text, cleaned)


class TestPreprocess:
    # "ta": the Tamil stopword list holds none of these words
    def test_plain_split(self, config):
        assert preprocess("this is fine", "ta", config) == ["this", "is", "fine"]

    def test_unicode_whitespace(self, config):
        assert preprocess("नमस्ते दुनिया", "ta", config) == ["नमस्ते", "दुनिया"]
        assert preprocess("नमस्ते\u3000दुनिया\u00a0x", "ta", config) == ["नमस्ते", "दुनिया", "x"]

    def test_no_truncation_here(self, config):
        text = " ".join(f"w{i}" for i in range(250))
        assert len(preprocess(text, "ta", config)) == 250

    def test_pure_punctuation_dropped(self, config):
        assert preprocess("a ... b !!", "ta", config) == ["a", "b"]


class TestStopwords:
    def test_english_filtering(self, config):
        assert remove_stopwords(["this", "is", "abuse"], "en", config) == ["abuse"]

    def test_order_preserved(self, config):
        tokens = ["abuse", "the", "worst", "of", "all"]
        assert remove_stopwords(tokens, "en", config) == ["abuse", "worst", "all"]

    def test_idempotent(self, config):
        tokens = ["this", "is", "abuse"]
        once = remove_stopwords(tokens, "en", config)
        assert remove_stopwords(once, "en", config) == once

    def test_missing_language(self, config):
        with pytest.raises(ConfigurationError):
            remove_stopwords(["x"], "fr", config)

    def test_empty_list_is_identity(self):
        config = PreprocessConfig.default()
        config.stopwords["en"] = frozenset()
        assert remove_stopwords(["this", "is"], "en", config) == ["this", "is"]

    def test_loaders(self, tmp_path):
        sw = tmp_path / "sw.txt"
        sw.write_text("# comment\nfoo\nbar\n\n", encoding="utf-8")
        assert load_stopwords(sw) == frozenset({"foo", "bar"})
        er = tmp_path / "er.txt"
        er.write_text("# emoji\n1F600-1F64F\n", encoding="utf-8")
        assert load_emoji_ranges(er) == ((0x1F600, 0x1F64F),)
        bad = tmp_path / "bad.txt"
        bad.write_text("oops\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_emoji_ranges(bad)
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_stopwords(empty)


class TestVocabulary:
    def test_reserved_indices(self):
        vocab = build_vocab([["a", "b"], ["b"]])
        assert PAD_INDEX == 0 and OOV_INDEX == 1
        assert vocab.index_of("b") == 2   # most frequent first
        assert vocab.index_of("a") == 3
        assert vocab.index_of("zzz") == OOV_INDEX

    def test_frequency_then_lexicographic(self):
        vocab = build_vocab([["pear", "apple", "pear", "kiwi", "apple"]])
        assert vocab.tokens() == ["apple", "pear", "kiwi"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            build_vocab([])

    def test_indices_dense_and_injective(self):
        vocab = build_vocab([["x", "y", "z", "x"]])
        indices = [vocab.index_of(t) for t in vocab.tokens()]
        assert indices == [2, 3, 4]

    def test_file_round_trip(self, tmp_path):
        vocab = build_vocab([["gamma", "alpha", "gamma", "beta"]])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        back = Vocabulary.load(path)
        assert back.token_to_index == vocab.token_to_index

    def test_failed_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        build_vocab([["old"]]).save(path)

        class Broken(Vocabulary):
            def tokens(self):
                yield "new"
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            Broken(token_to_index={"new": 2}).save(path)
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]

    def test_determinism(self):
        corpus = [["m", "n", "o"], ["n", "o"], ["o"]]
        assert build_vocab(corpus).token_to_index == build_vocab(corpus).token_to_index


class TestEncode:
    def test_fixed_length_always(self):
        vocab = build_vocab([["a", "b", "c"]])
        batch = encode_batch([[], ["a"], ["a"] * 250], vocab, max_len=100)
        assert batch.shape == (3, 100)
        assert batch.dtype == np.int32

    def test_truncation_keeps_prefix(self):
        vocab = build_vocab([["a", "b"]])
        row = encode_batch([["a", "b", "a", "b"]], vocab, max_len=2)[0]
        assert row.tolist() == [vocab.index_of("a"), vocab.index_of("b")]

    def test_post_padding(self):
        vocab = build_vocab([["a"]])
        row = encode_batch([["a"]], vocab, max_len=4)[0]
        assert row.tolist() == [2, 0, 0, 0]

    def test_oov_mapping(self):
        vocab = build_vocab([["known"]])
        row = encode_batch([["unknown", "known"]], vocab, max_len=3)[0]
        assert row.tolist() == [OOV_INDEX, 2, PAD_INDEX]

    def test_batch_matches_single(self):
        vocab = build_vocab([["a", "b", "c"]])
        docs = [["a", "c"], ["b"], []]
        batch = encode_batch(docs, vocab, max_len=5)
        assert batch.shape == (3, 5)
        for i, doc in enumerate(docs):
            np.testing.assert_array_equal(batch[i], encode_batch([doc], vocab, 5)[0])

    def test_no_test_leak_into_vocab(self):
        train = [["seen", "words"], ["seen"]]
        vocab = build_vocab(train)
        test_tokens = ["novel", "unseen", "seen"]
        row = encode_batch([test_tokens], vocab, max_len=3)[0]
        assert row.tolist()[:2] == [OOV_INDEX, OOV_INDEX]


class TestPipelineDeterminism:
    def test_same_input_same_encoding(self, config):
        text = "RT @user: This is #Disgusting 😡 http://x.co"
        a = preprocess(text, "en", config)
        b = preprocess(text, "en", config)
        assert a == b

    def test_config_round_trip(self, config):
        data = config.to_dict()
        back = read_config(PreprocessConfig, data, "preprocess", True)
        assert back.stopwords == config.stopwords
        assert back.emoji_ranges == config.emoji_ranges
        assert back.strip_hashmark == config.strip_hashmark
