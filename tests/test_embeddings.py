import logging
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abusekit import embeddings
from abusekit.embeddings import (WordVectorFile, build_matrix,
                                 parse_vector_file, read_cache, write_cache,
                                 write_vector_file)
from abusekit.errors import ConfigurationError, CorruptionError, ParseError
from abusekit.text import build_vocab


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_parse(path) -> WordVectorFile:
    """The line-at-a-time parser that the bulk parse must match: the same
    entries in the same order, the same float32 bits and the same errors."""
    entries = {}
    dimension = None
    had_header = False
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(" ")
            if fields and fields[-1] == "":
                fields = fields[:-1]
            if not fields or fields == [""]:
                continue
            if line_no == 1 and embeddings._is_header(fields):
                had_header = True
                continue
            word, raw = fields[0], fields[1:]
            if dimension is None:
                dimension = len(raw)
                if dimension == 0:
                    raise ParseError("no vector components on first data line",
                                     path=str(path), line=line_no)
            elif len(raw) != dimension:
                raise ParseError(f"expected {dimension} components, found {len(raw)}",
                                 path=str(path), line=line_no)
            try:
                with np.errstate(over="ignore"):   # inf is reported below
                    vec = np.array(raw, dtype=np.float32)
            except ValueError:
                raise ParseError("non-numeric vector component",
                                 path=str(path), line=line_no) from None
            if not np.all(np.isfinite(vec)):
                raise ParseError("non-finite vector component",
                                 path=str(path), line=line_no)
            entries[word] = vec
    if dimension is None:
        raise ParseError("vector file has no data lines", path=str(path))
    return WordVectorFile(dimension=dimension, entries=entries, had_header=had_header)


def parse_outcome(parse, path):
    """What a parser makes of a file, in comparable form: its error message,
    or its dimension, header flag and (word, dtype, bytes) of each entry."""
    try:
        vectors = parse(path)
    except ParseError as exc:
        return str(exc)
    return (vectors.dimension, vectors.had_header,
            [(word, vec.dtype.str, vec.tobytes()) for word, vec in vectors.entries.items()])


class TestParsing:
    def test_basic(self, tmp_path):
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 0.1 0.2 0.3", "dog -1 2 3.5"])
        vectors = parse_vector_file(path)
        assert vectors.dimension == 3
        assert vectors.had_header is False
        np.testing.assert_allclose(vectors.entries["cat"], [0.1, 0.2, 0.3])
        np.testing.assert_allclose(vectors.entries["dog"], [-1.0, 2.0, 3.5])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "v.txt"
        write_lines(path, ["2 3", "cat 0.1 0.2 0.3", "dog 1 2 3"])
        vectors = parse_vector_file(path)
        assert vectors.dimension == 3
        assert vectors.had_header is True
        assert set(vectors.entries) == {"cat", "dog"}

    def test_two_dim_vector_not_mistaken_for_header(self, tmp_path):
        # a first line with word + 2 floats is data, not a count header
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 0.5 0.25", "dog 1 2"])
        vectors = parse_vector_file(path)
        assert vectors.dimension == 2
        assert vectors.had_header is False
        assert "cat" in vectors.entries

    def test_dimension_mismatch_line_number(self, tmp_path):
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 1 2 3", "dog 1 2"])
        with pytest.raises(ParseError, match=r"v\.txt:2:"):
            parse_vector_file(path)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 1 2 3", "dog 1 oops 3"])
        with pytest.raises(ParseError, match=r"v\.txt:2:"):
            parse_vector_file(path)

    def test_undecodable_words_keep_their_bytes(self, tmp_path):
        # words cut mid-character stay distinct, match no vocabulary token,
        # and survive both writers byte for byte
        path = tmp_path / "v.txt"
        path.write_bytes(b"a\xff 1 2\na\xfe 3 4\nb 5 6\n")
        vectors = parse_vector_file(path)
        assert len(vectors) == 3
        _, coverage = build_matrix(build_vocab([["a\ufffd", "a", "b"]]), vectors)
        assert coverage == pytest.approx(1 / 3)
        text = tmp_path / "back.txt"
        write_vector_file(vectors, text)
        assert text.read_bytes() == path.read_bytes()
        cache = tmp_path / "v.bin"
        write_cache(vectors, cache)
        assert list(read_cache(cache).entries) == list(vectors.entries)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 1 nan 3"])
        with pytest.raises(ParseError, match=r"v\.txt:1:"):
            parse_vector_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_vector_file(path)

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 1 1", "cat 2 2"])
        with caplog.at_level("WARNING"):
            vectors = parse_vector_file(path)
        np.testing.assert_allclose(vectors.entries["cat"], [2.0, 2.0])
        assert any("cat" in rec.getMessage() for rec in caplog.records)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("cat 1 2\n\ndog 3 4\n", encoding="utf-8")
        vectors = parse_vector_file(path)
        assert set(vectors.entries) == {"cat", "dog"}


# words that repeat across a file, one of them cut mid-character
_WORDS = [b"cat", b"dog", "d\u00f6g".encode(), "\u0915\u093e".encode(),
          b"a\xff", "\u0915".encode()[:2], b"x"]


def _component(draw, value):
    """value written as write_vector_file does, as a short decimal, with an
    exponent, or as an integer."""
    kind = draw(st.sampled_from(["g9", "short", "exp", "int"]))
    if kind == "g9":
        return "%.9g" % np.float32(value)
    if kind == "short":
        return "%.*f" % (draw(st.integers(0, 4)), value)
    if kind == "exp":
        return "%.*e" % (draw(st.integers(0, 10)), value)
    return str(int(value * 100))


# tokens the per-line rule rejects, or reads where loadtxt does not
_ODD_TOKENS = ["nan", "-inf", "1e39", "oops", "", "1_0", "\x1c1", "1\x1f", "\t2",
               "\u0661", "0x10"]


@st.composite
def vector_files(draw):
    dim = draw(st.integers(1, 6))
    lines = []
    rows = draw(st.integers(0, 12))
    if draw(st.booleans()):
        lines.append(b"%d %d" % (rows, dim))
    for _ in range(rows):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([b"", b" "])))
        values = [_component(draw, draw(st.floats(-1e6, 1e6, width=32)))
                  for _ in range(dim)]
        if draw(st.integers(0, 15)) == 0:
            # a fault: an odd token, or one component too many or too few
            fault = draw(st.sampled_from(["token", "wide", "narrow"]))
            if fault == "token":
                values[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(_ODD_TOKENS))
            elif fault == "wide":
                values.append("1")
            else:
                values.pop()
        line = draw(st.sampled_from(_WORDS)) + b" " + " ".join(values).encode()
        if draw(st.booleans()):
            line += b" "   # fastText writes a space before each newline
        lines.append(line)
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    return newline.join(lines) + newline, draw(st.integers(1, 120))


class TestBulkParse:
    @given(vector_files())
    @settings(max_examples=300, deadline=None)
    def test_matches_line_at_a_time(self, case):
        # any chunk size, any mix of good and bad lines: the same entries,
        # bits and header flag, or the same path:line error
        data, chunk_chars = case
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "v.txt"
            path.write_bytes(data)
            expected = parse_outcome(reference_parse, path)
            with mock.patch.object(embeddings, "_CHUNK_CHARS", chunk_chars):
                assert parse_outcome(parse_vector_file, path) == expected

    @pytest.mark.parametrize("bad_line, message", [
        ("w5 1.5 oops 2.5", "non-numeric vector component"),
        ("w5 1.5 2.5", "expected 3 components, found 2"),
        ("w5 1.5 2.5 3.5 4.5", "expected 3 components, found 4"),
        ("w5 1.5 inf 2.5", "non-finite vector component"),
        ("w5 1.5 1e39 2.5", "non-finite vector component"),
        ("w5", "expected 3 components, found 0"),
        ("w5 1.5 \x1c2.5 3.5", "non-numeric vector component"),
    ])
    @pytest.mark.parametrize("bad_at", [3, 5, 6])
    def test_bad_line_in_a_later_chunk_is_named(self, tmp_path, monkeypatch,
                                               bad_line, message, bad_at):
        # lines of 16 characters and 2 lines per chunk: lines 3-4 are the
        # 2nd chunk, 5-6 the 3rd
        lines = [f"w{i} 1.5 2.5 3.5" for i in range(1, 9)]
        lines[bad_at - 1] = bad_line
        path = tmp_path / "v.txt"
        write_lines(path, lines)
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 32)
        with pytest.raises(ParseError) as caught:
            parse_vector_file(path)
        assert str(caught.value) == f"{path}:{bad_at}: {message}"
        assert str(caught.value) == parse_outcome(reference_parse, path)

    def test_chunk_of_bare_words_is_named_without_a_warning(self, tmp_path, monkeypatch):
        # lines 2-3 form a chunk with no components at all, which loadtxt
        # reads as "no data" with a UserWarning; the error alone is shown
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 1.5 2.5", "dog", "emu"])
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as caught:
                parse_vector_file(path)
        assert str(caught.value) == f"{path}:2: expected 2 components, found 0"

    def test_duplicate_across_chunks_keeps_the_later(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 1.5 2.5", "dog 3.5 4.5", "emu 5.5 6.5", "cat 7.5 8.5"])
        monkeypatch.setattr(embeddings, "_CHUNK_CHARS", 24)   # 2 lines a chunk
        with caplog.at_level(logging.WARNING, logger="abusekit.embeddings"):
            vectors = parse_vector_file(path)
        assert list(vectors.entries) == ["cat", "dog", "emu"]
        np.testing.assert_array_equal(vectors.entries["cat"], [7.5, 8.5])
        assert [rec.getMessage() for rec in caplog.records] == [
            f"duplicate vector for 'cat' at {path}:4; keeping the later one"]

    def test_float_syntax_loadtxt_lacks(self, tmp_path):
        # underscores and non-ASCII digits read as float() reads them
        path = tmp_path / "v.txt"
        write_lines(path, ["cat 1_0 \u0662.5", "dog 3 4"])
        vectors = parse_vector_file(path)
        np.testing.assert_array_equal(vectors.entries["cat"], [10.0, 2.5])
        np.testing.assert_array_equal(vectors.entries["dog"], [3.0, 4.0])

    def test_crlf_file_matches_lf(self, tmp_path):
        lines = ["2 3", "cat 0.1 0.2 0.3 ", "dog -1 2e-3 3.5 "]
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes("\n".join(lines).encode() + b"\n")
        crlf.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        assert parse_outcome(parse_vector_file, crlf) == \
            parse_outcome(parse_vector_file, lf)


class TestTextRoundTrip:
    def test_write_then_parse_close(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = {f"w{i}": rng.standard_normal(50).astype(np.float32)
                   for i in range(40)}
        vectors = WordVectorFile(dimension=50, entries=entries, had_header=False)
        path = tmp_path / "out.txt"
        write_vector_file(vectors, path)
        back = parse_vector_file(path)
        assert back.dimension == 50
        for word, vec in entries.items():
            np.testing.assert_array_equal(back.entries[word], vec)

    def test_header_written_on_request(self, tmp_path):
        vectors = WordVectorFile(dimension=2,
                                 entries={"a": np.zeros(2, dtype=np.float32)},
                                 had_header=False)
        path = tmp_path / "out.txt"
        write_vector_file(vectors, path, header=True)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "1 2"
        assert parse_vector_file(path).had_header is True

    def test_extreme_magnitudes_survive(self, tmp_path):
        entries = {"tiny": np.array([1.25e-4, -3e-5], dtype=np.float32),
                   "big": np.array([123.456, -0.5], dtype=np.float32)}
        vectors = WordVectorFile(dimension=2, entries=entries, had_header=False)
        path = tmp_path / "out.txt"
        write_vector_file(vectors, path)
        back = parse_vector_file(path)
        np.testing.assert_allclose(back.entries["tiny"], entries["tiny"], atol=1e-6)
        np.testing.assert_allclose(back.entries["big"], entries["big"], atol=1e-6)


class TestBinaryCache:
    def sample(self):
        rng = np.random.default_rng(11)
        entries = {f"token{i}": rng.standard_normal(20).astype(np.float32)
                   for i in range(30)}
        return WordVectorFile(dimension=20, entries=entries, had_header=False)

    def test_round_trip_identical(self, tmp_path):
        vectors = self.sample()
        # finite however large: the finiteness check must not overflow
        vectors.entries["huge"] = np.full(20, np.finfo(np.float32).max, np.float32)
        path = tmp_path / "v.bin"
        write_cache(vectors, path)
        back = read_cache(path)
        assert back.dimension == 20
        assert list(back.entries) == list(vectors.entries)
        for word in vectors.entries:
            assert back.entries[word].dtype == np.float32
            assert back.entries[word].flags.writeable
            np.testing.assert_array_equal(back.entries[word], vectors.entries[word])

    def test_unicode_words(self, tmp_path):
        entries = {"बुरा": np.ones(4, dtype=np.float32),
                   "மோசம்": np.zeros(4, dtype=np.float32)}
        vectors = WordVectorFile(dimension=4, entries=entries, had_header=False)
        path = tmp_path / "v.bin"
        write_cache(vectors, path)
        assert set(read_cache(path).entries) == set(entries)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorruptionError):
            read_cache(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.bin"
        write_cache(self.sample(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(CorruptionError):
            read_cache(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"EMB1\x04")
        with pytest.raises(CorruptionError):
            read_cache(path)

    def test_header_larger_than_file(self, tmp_path):
        # a damaged dimension is caught before any read of that size
        path = tmp_path / "v.bin"
        write_cache(self.sample(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 10**6)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="do not fit in the file"):
            read_cache(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "v.bin"
        write_cache(self.sample(), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptionError):
            read_cache(path)

    @pytest.mark.parametrize("dimension, rows, message", [
        # the rules parse_vector_file holds a text file to
        (3, {"cat": [1, 2, 3], "dog": [np.nan, 1, 1], "eel": [np.inf, 0, 0]},
         "entry 1 ('dog') holds a non-finite vector component"),
        (2, {"cat": [1, 2], "dog": [3, 4], "eel": [5, -np.inf]},
         "entry 2 ('eel') holds a non-finite vector component"),
        (0, {"cat": []}, "no vector components"),
        (0, {}, "no entries"),
        (4, {}, "no entries"),
    ])
    def test_text_file_rules_hold(self, tmp_path, dimension, rows, message):
        path = tmp_path / "v.bin"
        write_cache(WordVectorFile(dimension, {word: np.array(row, np.float32)
                                               for word, row in rows.items()}, False), path)
        with pytest.raises(CorruptionError) as caught:
            read_cache(path)
        assert str(caught.value) == f"{path}: damaged vector cache: {message}"


class TestMatrixAssembly:
    def test_reserved_rows_zero_and_coverage(self):
        vocab = build_vocab([["cat", "dog", "bird"]])
        entries = {"cat": np.array([1.0, 2.0], dtype=np.float32),
                   "dog": np.array([3.0, 4.0], dtype=np.float32)}
        vectors = WordVectorFile(dimension=2, entries=entries, had_header=False)
        matrix, coverage = build_matrix(vocab, vectors)
        assert len(vocab) == 5   # 3 tokens + PAD + OOV
        assert matrix.shape == (5, 2)
        assert matrix.dtype == np.float32
        np.testing.assert_array_equal(matrix[0], 0.0)
        np.testing.assert_array_equal(matrix[1], 0.0)
        np.testing.assert_array_equal(matrix[vocab.index_of("cat")], [1, 2])
        assert matrix[vocab.index_of("bird")].tolist() == [0.0, 0.0]
        assert coverage == pytest.approx(2 / 3)

    def test_expected_dim_enforced(self):
        vocab = build_vocab([["cat"]])
        vectors = WordVectorFile(dimension=7,
                                 entries={"cat": np.ones(7, dtype=np.float32)},
                                 had_header=False)
        with pytest.raises(ConfigurationError):
            build_matrix(vocab, vectors, expected_dim=300)

    def test_full_coverage(self):
        vocab = build_vocab([["x", "y"]])
        entries = {"x": np.ones(3, dtype=np.float32),
                   "y": np.ones(3, dtype=np.float32)}
        vectors = WordVectorFile(dimension=3, entries=entries, had_header=False)
        assert build_matrix(vocab, vectors)[1] == 1.0
