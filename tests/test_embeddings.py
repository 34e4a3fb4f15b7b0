import struct

import numpy as np
import pytest

from abusekit.embeddings import (WordVectorFile, build_matrix,
                                 parse_vector_file, read_cache, write_cache,
                                 write_vector_file)
from abusekit.errors import ConfigurationError, CorruptionError, ParseError
from abusekit.text import build_vocab


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        path = tmp_path / "v.bin"
        write_cache(vectors, path)
        back = read_cache(path)
        assert back.dimension == 20
        assert list(back.entries) == list(vectors.entries)
        for word in vectors.entries:
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
