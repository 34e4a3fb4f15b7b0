import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abusekit.corpus import (LabeledExample, Vote, aggregate_label,
                             assemble_examples, kfold_indices, load_external,
                             merge_external, parse_integer, parse_uli_csv,
                             read_csv, read_dataset, split_train_test,
                             write_dataset)
from abusekit.errors import (ConfigurationError, DataIntegrityError,
                             ParseError, SchemaError)

VOTE_VALUES = [Vote.AGREE, Vote.DISAGREE, Vote.NOT_ANNOTATED, Vote.NOT_ASSIGNED]


def oracle_label(votes):
    """Independent reading of the aggregation rule: strict majority of the
    countable votes, ties to 1, no countable votes at all drops the row."""
    ones = votes.count(Vote.AGREE)
    zeros = votes.count(Vote.DISAGREE)
    if ones + zeros == 0:
        return None
    if ones > zeros:
        return 1
    if zeros > ones:
        return 0
    return 1


class TestVoteParsing:
    @pytest.mark.parametrize("cell,expected", [
        ("1", Vote.AGREE), ("1.0", Vote.AGREE), (" 1 ", Vote.AGREE),
        ("0", Vote.DISAGREE), ("0.0", Vote.DISAGREE),
        ("NL", Vote.NOT_ANNOTATED), ("nl", Vote.NOT_ANNOTATED),
        ("", Vote.NOT_ASSIGNED), (None, Vote.NOT_ASSIGNED),
        ("nan", Vote.NOT_ASSIGNED), ("NaN", Vote.NOT_ASSIGNED),
    ])
    def test_cell_decoding(self, cell, expected):
        assert Vote.from_cell(cell) is expected

    @pytest.mark.parametrize("cell", ["2", "yes", "0.5", "-1"])
    def test_bad_cells_rejected(self, cell):
        with pytest.raises(ParseError):
            Vote.from_cell(cell)


class TestAggregation:
    def test_spec_examples(self):
        A, D, NL, NA = (Vote.AGREE, Vote.DISAGREE, Vote.NOT_ANNOTATED,
                        Vote.NOT_ASSIGNED)
        assert aggregate_label([A, A, D]) == 1
        assert aggregate_label([D, D, A]) == 0
        assert aggregate_label([A, D]) == 1          # tie resolves to 1
        assert aggregate_label([NL, NA]) is None     # nothing countable
        assert aggregate_label([A]) == 1             # single vote decides
        assert aggregate_label([D]) == 0

    def test_exhaustive_over_all_six_vote_patterns(self):
        """Every 4^6 pattern agrees with the independent oracle."""
        mismatches = 0
        for pattern in itertools.product(VOTE_VALUES, repeat=6):
            votes = list(pattern)
            if aggregate_label(votes) != oracle_label(votes):
                mismatches += 1
        assert mismatches == 0

    @given(st.lists(st.sampled_from(VOTE_VALUES), min_size=1, max_size=6))
    def test_order_never_matters(self, votes):
        base = aggregate_label(votes)
        assert aggregate_label(list(reversed(votes))) == base


def uli_rows(tmp_path, body, header=None):
    if header is None:
        header = ("id,text,language,key,"
                  "en_a1,en_a2,en_a3,en_a4,en_a5,en_a6")
    path = tmp_path / "uli.csv"
    path.write_text(header + "\n" + body, encoding="utf-8")
    return path


class TestReadCsv:
    def test_columns_and_rows(self, tmp_path):
        # names are stripped and lowercased; blank rows are skipped but
        # counted in the line numbers; a quoted cell may span lines
        path = tmp_path / "a.csv"
        path.write_text(' ID , Text\n1,"two\nlines"\n\n2,x\n', encoding="utf-8")
        columns, rows = read_csv(path, ("id", "text"))
        assert columns == ["id", "text"]
        assert rows == [(3, {"id": "1", "text": "two\nlines"}),
                        (5, {"id": "2", "text": "x"})]

    @pytest.mark.parametrize("text, error, message", [
        ("", SchemaError, "file is empty"),
        ("id,txt\n", SchemaError, "missing required column 'text'"),
        ("id,text\n1,a\n2\n", ParseError, "a.csv:3: row 1: no 'text' cell"),
        ("id,text\n1,a,b\n", ParseError, "a.csv:2: row 0: more cells than the header"),
    ])
    def test_rejects(self, tmp_path, text, error, message):
        path = tmp_path / "a.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error, match=message):
            read_csv(path, ("id", "text"))


class TestUliParsing:
    def test_basic_rows(self, tmp_path):
        path = uli_rows(tmp_path,
                        '7,"hello, there",en,question_1,1,0,1,NL,,\n'
                        "7,\"hello, there\",en,question_2,0,0,,,,\n"
                        "7,\"hello, there\",en,question_3,1,1,,,,\n")
        rows = parse_uli_csv(path)
        assert len(rows) == 3
        assert rows[0].id == 7
        assert rows[0].text == "hello, there"
        assert rows[0].key == "question_1"
        assert rows[0].vote_values()[:3] == [Vote.AGREE, Vote.DISAGREE, Vote.AGREE]

    def test_language_aliases_and_float_ids(self, tmp_path):
        header = "id,text,language,key,hi_a1,hi_a2,hi_a3,hi_a4,hi_a5"
        path = uli_rows(tmp_path, "3.0,namaste,Hindi,question_1,1.0,0.0,NL,,\n",
                        header)
        rows = parse_uli_csv(path)
        assert rows[0].id == 3
        assert rows[0].language == "hi"

    def test_missing_required_column(self, tmp_path):
        path = uli_rows(tmp_path, "", header="id,text,language")
        with pytest.raises(SchemaError):
            parse_uli_csv(path)

    def test_missing_annotator_group(self, tmp_path):
        header = "id,text,language,key,en_a1"
        path = uli_rows(tmp_path, "1,x,ta,question_1,1\n", header)
        with pytest.raises(SchemaError):
            parse_uli_csv(path)

    def test_bad_vote_cell_reports_row(self, tmp_path):
        path = uli_rows(tmp_path, "5,x,en,question_1,maybe,,,,,\n")
        with pytest.raises(ParseError, match="row id 5"):
            parse_uli_csv(path)

    def test_non_integer_id(self, tmp_path):
        for raw in ("x9", "1.7"):
            path = uli_rows(tmp_path, f"{raw},x,en,question_1,1,,,,,\n")
            with pytest.raises(ParseError, match="non-integer"):
                parse_uli_csv(path)


class TestParseInteger:
    @pytest.mark.parametrize("raw, value", [
        ("12", 12), (" 12.0 ", 12), ("-3", -3), ("7.", 7),
        ("9007199254740993", 2**53 + 1), ("9007199254740993.00", 2**53 + 1)])
    def test_integral_spellings(self, raw, value):
        assert parse_integer(raw) == value

    @pytest.mark.parametrize("raw", ["1.7", "1e3", "", "x9", "nan", "inf",
                                     "1.0.0", "0x10"])
    def test_everything_else_rejected(self, raw):
        with pytest.raises(ValueError):
            parse_integer(raw)


class TestAssembly:
    def make_rows(self, tmp_path, body):
        return parse_uli_csv(uli_rows(tmp_path, body))

    def test_joins_by_id(self, tmp_path):
        rows = self.make_rows(tmp_path,
                              "1,alpha,en,question_1,1,1,0,,,\n"
                              "1,alpha,en,question_3,0,0,,,,\n"
                              "2,beta,en,question_1,0,,,,,\n"
                              "2,beta,en,question_3,1,,,,,\n")
        examples = assemble_examples(rows, ("question_1", "question_3"))
        assert len(examples) == 2
        assert examples[0].labels == {"1": 1, "3": 0}
        assert examples[1].labels == {"1": 0, "3": 1}

    def test_incomplete_posts_excluded(self, tmp_path):
        rows = self.make_rows(tmp_path,
                              "1,alpha,en,question_1,1,,,,,\n"
                              "2,beta,en,question_1,NL,NL,,,,\n"   # no countable votes
                              "3,gamma,en,question_3,1,,,,,\n")    # missing question_1
        examples = assemble_examples(rows, ("question_1",))
        assert [ex.text for ex in examples] == ["alpha"]

    def test_duplicate_id_key_rejected(self, tmp_path):
        rows = self.make_rows(tmp_path,
                              "1,alpha,en,question_1,1,,,,,\n"
                              "1,alpha,en,question_1,0,,,,,\n")
        with pytest.raises(DataIntegrityError):
            assemble_examples(rows, ("question_1",))

    def test_unknown_key_rejected(self, tmp_path):
        rows = self.make_rows(tmp_path, "1,alpha,en,question_1,1,,,,,\n")
        with pytest.raises(ConfigurationError):
            assemble_examples(rows, ("question_9",))


class TestExternalCorpora:
    def test_macd_polarity_flip(self, tmp_path):
        path = tmp_path / "macd.csv"
        path.write_text("text,label\nbad stuff,0\nfine stuff,1\n", encoding="utf-8")
        examples = load_external(path, "macd", "hi")
        # MACD annotates 0 for abusive, so the labels invert.
        assert examples[0].labels == {"1": 1}
        assert examples[1].labels == {"1": 0}
        assert examples[0].source == "macd"
        assert examples[0].language == "hi"

    def test_multilate_names(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("text,label\nx,Hate\ny,not-hate\n", encoding="utf-8")
        examples = load_external(path, "multilate", "ta")
        assert [ex.labels["1"] for ex in examples] == [1, 0]

    def test_unknown_source(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("text,label\nx,1\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_external(path, "other", "en")

    def test_merge_language_mismatch(self):
        base = [LabeledExample("a", "en", {"1": 0})]
        extra = [LabeledExample("b", "hi", {"1": 1})]
        with pytest.raises(ConfigurationError):
            merge_external(base, extra)
        merged = merge_external(base, [LabeledExample("c", "en", {"1": 1})])
        assert len(merged) == 2


def make_examples(n):
    return [LabeledExample(f"text {i}", "en", {"1": i % 2}) for i in range(n)]


class TestSplitting:
    def test_ten_examples_split_eight_two(self):
        split = split_train_test(make_examples(10), ratio=0.8, seed=0)
        assert (len(split.train), len(split.test)) == (8, 2)

    def test_shared_task_sizes(self):
        split = split_train_test(make_examples(6531), ratio=0.8, seed=0)
        assert (len(split.train), len(split.test)) == (5225, 1306)

    def test_partition_is_exact(self):
        examples = make_examples(37)
        split = split_train_test(examples, ratio=0.8, seed=3)
        seen = {ex.text for ex in split.train} | {ex.text for ex in split.test}
        assert len(split.train) + len(split.test) == 37
        assert seen == {ex.text for ex in examples}

    def test_both_sides_nonempty_at_extremes(self):
        for ratio in (0.05, 0.95):
            split = split_train_test(make_examples(3), ratio=ratio, seed=1)
            assert len(split.train) >= 1 and len(split.test) >= 1

    def test_seed_changes_assignment_not_sizes(self):
        a = split_train_test(make_examples(50), seed=1)
        b = split_train_test(make_examples(50), seed=2)
        assert len(a.train) == len(b.train)
        assert [ex.text for ex in a.train] != [ex.text for ex in b.train]

    def test_stratified_keeps_label_ratio(self):
        examples = [LabeledExample(f"t{i}", "en", {"1": 1 if i < 20 else 0})
                    for i in range(100)]
        split = split_train_test(examples, ratio=0.8, seed=0, stratified=True)
        train_pos = sum(ex.labels["1"] for ex in split.train)
        test_pos = sum(ex.labels["1"] for ex in split.test)
        assert train_pos == 16 and test_pos == 4

    def test_determinism(self):
        a = split_train_test(make_examples(23), seed=9)
        b = split_train_test(make_examples(23), seed=9)
        assert [ex.text for ex in a.train] == [ex.text for ex in b.train]


class TestKFold:
    @given(st.integers(5, 200), st.integers(2, 8))
    def test_balanced_partition(self, n, k):
        if n < k:
            n = k
        folds = kfold_indices(n, k, seed=0)
        sizes = [len(folds.val_indices(f)) for f in range(k)]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        all_idx = np.concatenate([folds.val_indices(f) for f in range(k)])
        assert sorted(all_idx.tolist()) == list(range(n))

    def test_train_val_disjoint(self):
        folds = kfold_indices(23, 5, seed=4)
        for f in range(5):
            val = set(folds.val_indices(f).tolist())
            train = set(folds.train_indices(f).tolist())
            assert not val & train
            assert val | train == set(range(23))

    def test_too_few_examples(self):
        with pytest.raises(ConfigurationError):
            kfold_indices(3, 5)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        examples = [
            LabeledExample("नमस्ते, दुनिया!", "hi", {"1": 1, "3": 0}, source="uli"),
            LabeledExample('quote " and, comma', "en", {"1": 0}, source="macd"),
        ]
        path = tmp_path / "data.jsonl"
        write_dataset(examples, path)
        back = read_dataset(path)
        assert back == examples

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "x", "language": "en", "labels": {"1": 2}}\n',
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r"jsonl:1:"):
            read_dataset(path)

    @pytest.mark.parametrize("value", ["0.9", "true", '"1"', "Infinity"])
    def test_label_is_a_json_integer(self, tmp_path, value):
        # a label is the JSON integer 0 or 1: nothing is rounded or coerced
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "x", "language": "en", "labels": {"1": %s}}\n' % value,
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r"jsonl:1: label values must be 0/1"):
            read_dataset(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "x", "language": "en", "labels": {"1": 1}}\n'
                        "not json\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"jsonl:2:"):
            read_dataset(path)
