"""Hostile bytes in any input give exit 2 naming the file, never a traceback.

The named tests each pin one damaged input and the message that names
it.  The property test mutates every file of a tiny run and every CLI
input (truncate, flip a bit, insert 0xff, duplicate a line) and runs the
command that reads it.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abusekit.cli import main
from abusekit.corpus import read_dataset
from abusekit.embeddings import WordVectorFile, write_cache, write_vector_file
from abusekit.errors import ParseError
from abusekit.synthetic import (make_marker_corpus, make_vector_file,
                                vocabulary_of, write_gold_csv, write_test_csv,
                                write_uli_csv)

MODEL_SECTION = {"seq_len": 12, "embed_dim": 8, "conv_filters": 4, "conv_kernel": 2,
                 "lstm_units": 4, "dense_units": 4}


def command(name, d):
    """argv of the command that reads an input of the workspace d.  Its
    outputs land beside the workspace's own, which stay as the fixture
    made them."""
    argv = {
        "prepare": ["prepare", "--input", d / "annotations.csv", "--language", "en",
                    "--task", "1", "--external", f"multilate={d / 'external.csv'}",
                    "--out", d / "reprepared"],
        "train": ["train", "--config", d / "run.json", "--out-dir", d / "retrained"],
        "predict": ["predict", "--run-dir", d / "run", "--input", d / "posts.csv",
                    "--out", d / "submission.csv"],
        "evaluate": ["evaluate", "--gold", d / "gold.csv", "--pred", d / "pred.csv"],
        "inspect-text": ["inspect-embeddings", "--file", d / "vectors.txt",
                         "--vocab", d / "run" / "vocab.txt"],
        "inspect-cache": ["inspect-embeddings", "--file", d / "vectors.bin",
                          "--vocab", d / "run" / "vocab.txt"],
    }[name]
    return [str(arg) for arg in argv]


# every input file of the workspace -> the command that reads it
INPUTS = {
    "annotations.csv": "prepare",
    "external.csv": "prepare",
    "prep/train.jsonl": "train",
    "run.json": "train",
    "stop_en.txt": "train",
    "emoji.txt": "train",
    "vectors.txt": "inspect-text",
    "vectors.bin": "inspect-cache",
    "run/vocab.txt": "predict",
    "run/preprocess.json": "predict",
    "run/run_report.json": "predict",
    "run/embedding.npy": "predict",
    "run/fold0/weights.bin": "predict",
    "run/fold1/weights.bin": "predict",
    "posts.csv": "predict",
    "gold.csv": "evaluate",
    "pred.csv": "evaluate",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny finished run (2 folds, embed_dim 8, seq_len 12) and every
    input of the five commands."""
    d = tmp_path_factory.mktemp("hostile")
    examples = make_marker_corpus(24, seed=2, pool_size=12)
    write_uli_csv(d / "annotations.csv", examples)
    (d / "external.csv").write_text("text,label\nsome post,hate\nanother post,not-hate\n",
                                    encoding="utf-8")
    vectors = make_vector_file(vocabulary_of(examples), dim=8, seed=1)
    write_vector_file(vectors, d / "vectors.txt")
    write_cache(vectors, d / "vectors.bin")
    (d / "stop_en.txt").write_text("# stopwords\nthe\na\n", encoding="utf-8")
    (d / "emoji.txt").write_text("1F600-1F64F\n", encoding="utf-8")
    config = {
        "data": {"train": str(d / "prep" / "train.jsonl"),
                 "embeddings": str(d / "vectors.txt")},
        "model": MODEL_SECTION,
        "train": {"task": 1, "language": "en", "folds": 2, "epochs": 1,
                  "batch_size": 8},
        "preprocess": {"stopword_files": {"en": str(d / "stop_en.txt")},
                       "emoji_range_file": str(d / "emoji.txt")},
    }
    (d / "run.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    test = examples[:6]
    ids = write_test_csv(d / "posts.csv", test)
    write_gold_csv(d / "gold.csv", ids, [ex.labels["1"] for ex in test])
    assert main([str(arg) for arg in
                 ["prepare", "--input", d / "annotations.csv", "--language", "en",
                  "--task", "1", "--out", d / "prep"]]) == 0
    assert main(["train", "--config", str(d / "run.json"),
                 "--out-dir", str(d / "run")]) == 0
    assert main(command("predict", d)) == 0
    (d / "pred.csv").write_bytes((d / "submission.csv").read_bytes())
    assert all((d / name).is_file() for name in INPUTS)
    for name in sorted(set(INPUTS.values())):   # each reads its inputs unmutated
        assert main(command(name, d)) == 0, name
    return d


@contextlib.contextmanager
def replaced(path, data: bytes):
    """path holds data inside the block and its own bytes again after it."""
    original = path.read_bytes()
    path.write_bytes(data)
    try:
        yield
    finally:
        path.write_bytes(original)


def with_line_before(data: bytes, line: int, prefix: bytes) -> bytes:
    """data with prefix inserted at the start of its 1-based line."""
    at = 0
    for _ in range(line - 1):
        at = data.index(b"\n", at) + 1
    return data[:at] + prefix + data[at:]


@pytest.mark.parametrize("name", ["posts.csv", "gold.csv", "run/vocab.txt",
                                  "prep/train.jsonl", "run.json", "run/preprocess.json",
                                  "run/run_report.json"])
def test_undecodable_byte_names_path_and_line(workspace, capsys, name):
    path = workspace / name
    with replaced(path, with_line_before(path.read_bytes(), 2, b"\xff")):
        rc = main(command(INPUTS[name], workspace))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}:2: not UTF-8 text: byte 0xff" in err
    assert err.count(str(path)) == 1


def test_undecodable_byte_far_into_a_file(tmp_path):
    # a file is decoded as it streams in: a bad byte past the first 64 KB
    # still names its own line
    record = json.dumps({"text": "a post", "language": "en", "labels": {"1": 0}})
    lines = [record.encode("utf-8")] * 2000
    lines[1500] = b"\xff" + lines[1500]
    path = tmp_path / "train.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert path.read_bytes().index(b"\xff") > 65536
    with pytest.raises(ParseError) as info:
        read_dataset(path)
    assert str(info.value) == f"{path}:1501: not UTF-8 text: byte 0xff (invalid start byte)"


def test_padded_header_cells_match(workspace, tmp_path):
    # header names match case- and space-insensitively, in every CSV input
    path = workspace / "annotations.csv"
    header, rest = path.read_bytes().split(b"\n", 1)
    padded = header.replace(b"id,text,language,key", b"id, text ,Language,KEY ")
    with replaced(path, padded + b"\n" + rest):
        assert main(["prepare", "--input", str(path), "--language", "en",
                     "--task", "1", "--out", str(tmp_path)]) == 0
    kept = read_dataset(tmp_path / "train.jsonl") + read_dataset(tmp_path / "test.jsonl")
    prepared = read_dataset(workspace / "prep" / "train.jsonl") \
        + read_dataset(workspace / "prep" / "test.jsonl")
    assert kept == prepared


ANNOTATION_ROWS = {   # case: (appended row, expected message)
    "short": (b"99,hello\n", "row 72: no 'language' cell"),
    # a cut vote cell is not an unassigned vote: the row is damaged
    "votes cut": (b"99,hello,en,question_1,1\n", "row 72: no 'en_a2' cell"),
    "long": (b"99,hello,en,question_1,1,1,1,1,1,1,extra\n",
             "row 72: more cells than the header"),
}


@pytest.mark.parametrize("case", list(ANNOTATION_ROWS))
def test_annotation_row_width(workspace, tmp_path, capsys, case):
    row, message = ANNOTATION_ROWS[case]
    path = workspace / "annotations.csv"
    with replaced(path, path.read_bytes() + row):
        rc = main(["prepare", "--input", str(path), "--language", "en",
                   "--task", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert f"{path}:74: {message}" in capsys.readouterr().err


EXTERNAL_FILES = {   # case: (file text, expected message)
    # the label column comes first, so a cut row keeps its label
    "short": ("label,text\nhate,some post\nnot-hate\n", "3: row 1: no 'text' cell"),
    "long": ("label,text\nhate,some post\nnot-hate,some, post\n",
             "3: row 1: more cells than the header"),
}


@pytest.mark.parametrize("case", list(EXTERNAL_FILES))
def test_external_row_width(workspace, tmp_path, capsys, case):
    text, message = EXTERNAL_FILES[case]
    external = tmp_path / "external.csv"
    external.write_text(text, encoding="utf-8")
    rc = main(["prepare", "--input", str(workspace / "annotations.csv"),
               "--language", "en", "--task", "1",
               "--external", f"multilate={external}", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{external}:{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oversized_csv_field(workspace, tmp_path, capsys):
    # the csv module's own errors are ParseErrors too
    posts = tmp_path / "posts.csv"
    posts.write_text("id,text\n1," + "x" * 200_000 + "\n", encoding="utf-8")
    rc = main(["predict", "--run-dir", str(workspace / "run"), "--input", str(posts),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert f"{posts}:2: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["duplicate", "blank"])
def test_vocab_line_shifting_later_tokens(workspace, capsys, case):
    vocab = workspace / "run" / "vocab.txt"
    lines = vocab.read_bytes().splitlines(keepends=True)
    inserted = lines[2] if case == "duplicate" else b"\n"
    with replaced(vocab, b"".join(lines[:3] + [inserted] + lines[3:])):
        rc = main(command("predict", workspace))
    assert rc == 2
    token = inserted.decode().strip()
    assert f"{vocab}:4: token {token!r} is empty or repeated" in capsys.readouterr().err


@pytest.mark.parametrize("text", [5, None])
def test_non_string_text(workspace, capsys, text):
    path = workspace / "prep" / "train.jsonl"
    bad = json.dumps({"text": text, "language": "en", "labels": {"1": 1}}).encode()
    with replaced(path, bad + b"\n" + path.read_bytes()):
        rc = main(command("train", workspace))
    assert rc == 2
    assert f"{path}:1: bad record: text and language must be JSON strings" \
        in capsys.readouterr().err


def test_lone_surrogate_text(workspace, capsys):
    # valid JSON, but "\udcff" is no character: it could not be written back
    path = workspace / "prep" / "train.jsonl"
    original = path.read_bytes()
    line = len(original.splitlines()) + 1
    bad = b'{"text": "a \\udcff", "language": "en", "labels": {"1": 1}}\n'
    with replaced(path, original + bad):
        rc = main(command("train", workspace))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: bad record:" in err
    assert "surrogates not allowed" in err


def test_damaged_cache_word_keeps_its_bytes(tmp_path, capsys):
    vectors = WordVectorFile(dimension=2, had_header=False, entries={
        "a~": np.zeros(2, np.float32), "a}": np.ones(2, np.float32)})
    cache = tmp_path / "vectors.bin"
    write_cache(vectors, cache)
    cache.write_bytes(cache.read_bytes().replace(b"a~", b"a\xff").replace(b"a}", b"a\xfe"))
    assert main(["inspect-embeddings", "--file", str(cache)]) == 0
    assert "entries: 2" in capsys.readouterr().out


@pytest.mark.parametrize("bit", range(32))
def test_damaged_cache_magic_named(tmp_path, capsys, bit):
    # the header's NUL bytes still tell a cache whose EMB1 magic is damaged
    cache = tmp_path / "vectors.bin"
    write_cache(WordVectorFile(dimension=2, had_header=False,
                               entries={"a": np.ones(2, np.float32)}), cache)
    blob = bytearray(cache.read_bytes())
    blob[bit // 8] ^= 1 << bit % 8
    cache.write_bytes(bytes(blob))
    assert main(["inspect-embeddings", "--file", str(cache)]) == 2
    assert f"{cache}: damaged vector cache: bad magic" in capsys.readouterr().err


def mutate(data: bytes, kind: str, at: int, bit: int) -> bytes:
    if kind == "truncate":
        return data[:at % (len(data) + 1)]
    if kind == "insert-0xff":
        at %= len(data) + 1
        return data[:at] + b"\xff" + data[at:]
    if kind == "flip-bit":
        at %= len(data)
        return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:]
    lines = data.splitlines(keepends=True)   # duplicate a line
    at %= len(lines)
    return b"".join(lines[:at + 1] + lines[at:])


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(INPUTS)),
       kind=st.sampled_from(["truncate", "flip-bit", "insert-0xff", "duplicate-line"]),
       at=st.integers(0, 2**20), bit=st.integers(0, 7))
def test_mutated_input_exits_0_or_2(workspace, name, kind, at, bit):
    path = workspace / name
    with replaced(path, mutate(path.read_bytes(), kind, at, bit)):
        assert main(command(INPUTS[name], workspace)) in (0, 2)
