import json
import re

import pytest

from centroid_ir import (DuplicateId, ParseError, Question, RankedRun,
                         iter_corpus, load_corpus, load_embeddings, load_idf,
                         load_questions, load_stopwords, read_qrels, read_run,
                         write_run)
from centroid_ir.cli import _read_config


# Ids that would break a run file's `qid Q0 doc_id rank score tag` line:
# empty, holding whitespace (str.split's, which the run reader uses), or
# a lone surrogate that UTF-8 cannot encode.
BAD_RUN_IDS = [
    ("", "'id' must be non-empty and hold no whitespace"),
    ("doc one", "'id' must be non-empty and hold no whitespace"),
    ("d\t1", "'id' must be non-empty and hold no whitespace"),
    (" d1", "'id' must be non-empty and hold no whitespace"),
    ("d1\u00a0", "'id' must be non-empty and hold no whitespace"),
    ("d\u20281", "'id' must be non-empty and hold no whitespace"),
    ("q\ud800", "'id' cannot be encoded as UTF-8"),
]


class TestRunFiles:
    def test_single_line(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 12.5 pm\n")
        run = read_run(path)
        assert run.per_question == {"q1": [("d7", 12.5)]}
        assert run.tag == "pm"

    def test_out_of_order_ranks_sorted(self, tmp_path):
        path = tmp_path / "run"
        path.write_text(
            "q1 Q0 d3 3 0.1 t\n"
            "q1 Q0 d1 1 0.9 t\n"
            "q1 Q0 d2 2 0.5 t\n"
        )
        run = read_run(path)
        assert [doc for doc, _ in run["q1"]] == ["d1", "d2", "d3"]

    def test_duplicate_doc_keeps_first(self, tmp_path):
        path = tmp_path / "run"
        path.write_text(
            "q1 Q0 d1 1 0.9 t\n"
            "q1 Q0 d1 2 0.5 t\n"
            "q1 Q0 d2 3 0.4 t\n"
        )
        run = read_run(path)
        assert run["q1"] == [("d1", 0.9), ("d2", 0.4)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("")
        run = read_run(path)
        assert run.per_question == {}

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 oops 0.5 t\n")
        with pytest.raises(ParseError, match="line 2"):
            read_run(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 d1 1 0.9\n")
        with pytest.raises(ParseError, match="line 1"):
            read_run(path)

    def test_write_read_roundtrip_bit_exact(self, tmp_path):
        run = RankedRun(tag="toy", per_question={
            "q2": [("d9", 0.123456789012345), ("d2", -3.5)],
            "q1": [("d1", float("inf"))],
        })
        path = tmp_path / "run"
        write_run(run, path)
        back = read_run(path)
        assert back.per_question == run.per_question
        assert back.tag == "toy"

    def test_write_ranks_start_at_one(self, tmp_path):
        run = RankedRun(tag="t", per_question={"q1": [("a", 2.0), ("b", 1.0)]})
        path = tmp_path / "run"
        write_run(run, path)
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["q1", "Q0", "a", "1", "2.0", "t"]
        assert lines[1].split() == ["q1", "Q0", "b", "2", "1.0", "t"]

    @pytest.mark.parametrize("bad, message", BAD_RUN_IDS)
    @pytest.mark.parametrize("field", ["qid", "doc id", "tag"])
    def test_write_refuses_unreadable_field(self, tmp_path, field, bad, message):
        # What write_run writes, read_run reads back; a field it could not
        # read is refused before the file is created.
        qid, doc_id, tag = (bad if field == name else ok
                            for name, ok in (("qid", "q1"), ("doc id", "d1"), ("tag", "t")))
        run = RankedRun(tag=tag, per_question={"q0": [("d0", 1.0)], qid: [(doc_id, 0.5)]})
        path = tmp_path / "run"
        if field == "tag" and bad == "":  # an empty tag is written as "run"
            write_run(run, path)
            assert read_run(path).tag == "run"
            return
        problem = message.removeprefix("'id' ")
        with pytest.raises(ValueError, match=re.escape(f"run {field} {bad!r} {problem}")):
            write_run(run, path)
        assert not path.exists()

    def test_import_external_alias(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 12.5 pubmedse\n")
        run = read_run(path)
        assert run.tag == "pubmedse"
        assert run["q1"] == [("d7", 12.5)]


class TestCorpus:
    def write_corpus(self, tmp_path, rows):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_iteration(self, tmp_path):
        path = self.write_corpus(tmp_path, [
            {"id": "d1", "title": "T one", "abstract": "A one"},
            {"id": "d2", "title": "T two", "abstract": "A two"},
        ])
        docs = list(iter_corpus(path))
        assert [d.id for d in docs] == ["d1", "d2"]
        assert docs[0].text == "T one A one"

    def test_numeric_id_coerced(self, tmp_path):
        path = self.write_corpus(tmp_path, [{"id": 12345, "title": "t", "abstract": "a"}])
        assert next(iter_corpus(path)).id == "12345"

    def test_duplicate_id(self, tmp_path):
        path = self.write_corpus(tmp_path, [
            {"id": "d1", "title": "x", "abstract": "y"},
            {"id": "d1", "title": "x", "abstract": "y"},
        ])
        with pytest.raises(DuplicateId):
            load_corpus(path)

    def test_duplicate_id_streamed_names_file_and_line(self, tmp_path):
        path = self.write_corpus(tmp_path, [
            {"id": "d1", "title": "x", "abstract": "y"},
            {"id": "d2", "title": "x", "abstract": "y"},
            {"id": 1, "title": "x", "abstract": "y"},
            {"id": "1", "title": "x", "abstract": "y"},
        ])
        records = iter_corpus(path)
        assert [next(records).id for _ in range(3)] == ["d1", "d2", "1"]
        with pytest.raises(DuplicateId, match=f"^{re.escape(str(path))}: line 4: "
                                              "repeated document id '1'$"):
            next(records)

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "title": "t", "abstract": "a"}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            list(iter_corpus(path))

    def test_missing_id(self, tmp_path):
        path = self.write_corpus(tmp_path, [{"title": "t", "abstract": "a"}])
        with pytest.raises(ParseError):
            list(iter_corpus(path))

    def test_missing_title_tolerated(self, tmp_path):
        path = self.write_corpus(tmp_path, [{"id": "d1", "abstract": "only body"}])
        assert next(iter_corpus(path)).text == "only body"

    def test_null_abstract_reads_empty(self, tmp_path):
        path = self.write_corpus(tmp_path, [{"id": "d1", "title": "t", "abstract": None}])
        record = next(iter_corpus(path))
        assert (record.title, record.abstract) == ("t", "")

    @pytest.mark.parametrize("field", ["title", "abstract"])
    @pytest.mark.parametrize("value", [0, 1.5, False, ["a"], {"a": 1}])
    def test_non_string_text_rejected(self, tmp_path, field, value):
        path = self.write_corpus(tmp_path, [{"id": "d1", "title": "t", "abstract": "a"},
                                            {"id": "d2", field: value}])
        with pytest.raises(ParseError, match="line 2: 'title' and 'abstract'"):
            list(iter_corpus(path))

    @pytest.mark.parametrize("value", [None, 1.0, True, ["d1"]])
    def test_non_string_id_rejected(self, tmp_path, value):
        path = self.write_corpus(tmp_path, [{"id": value, "title": "t"}])
        with pytest.raises(ParseError, match="line 1: 'id' must be"):
            list(iter_corpus(path))

    @pytest.mark.parametrize("value, message", BAD_RUN_IDS)
    def test_id_a_run_file_cannot_hold_rejected(self, tmp_path, value, message):
        path = self.write_corpus(tmp_path, [{"id": "d1", "title": "t"},
                                            {"id": value, "title": "t"}])
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            list(iter_corpus(path))


class TestQuestions:
    def write_questions(self, tmp_path, rows):
        path = tmp_path / "questions.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_string_and_integer_ids(self, tmp_path):
        path = self.write_questions(tmp_path, [{"id": "q1", "text": "a b"},
                                               {"id": 7, "text": ""}])
        assert load_questions(path) == [Question("q1", "a b"), Question("7", "")]

    @pytest.mark.parametrize("value", [None, 3, ["a"], {"a": 1}])
    def test_non_string_text_rejected(self, tmp_path, value):
        path = self.write_questions(tmp_path, [{"id": "q1", "text": "a"},
                                               {"id": "q2", "text": value}])
        with pytest.raises(ParseError, match="line 2: 'text' must be a JSON string"):
            load_questions(path)

    @pytest.mark.parametrize("value", [None, 1.0, False, ["q1"]])
    def test_non_string_id_rejected(self, tmp_path, value):
        path = self.write_questions(tmp_path, [{"id": value, "text": "a"}])
        with pytest.raises(ParseError, match="line 1: 'id' must be"):
            load_questions(path)

    @pytest.mark.parametrize("value, message", BAD_RUN_IDS)
    def test_id_a_run_file_cannot_hold_rejected(self, tmp_path, value, message):
        path = self.write_questions(tmp_path, [{"id": "q1", "text": "a"},
                                               {"id": value, "text": "a"}])
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            load_questions(path)


@pytest.mark.parametrize("reader", [
    lambda path: list(iter_corpus(path)), load_corpus, load_questions, read_run, read_qrels,
    load_idf, load_stopwords, _read_config, load_embeddings,
], ids=["corpus", "corpus-map", "questions", "run", "qrels", "idf", "stopwords", "config",
        "embeddings"])
def test_undecodable_input_names_the_file(tmp_path, reader):
    # Valid lines, then a byte that cannot start a UTF-8 sequence.  The
    # embedding parser decodes a line at a time and names the line; the
    # other readers decode by chunk, whose offset is not the file's, so
    # they give no line.
    path = tmp_path / "input.txt"
    path.write_bytes(b"a 0.5 0.5\n" * 3 + b"\xff\n")
    with pytest.raises(ParseError, match="not UTF-8 text: byte 0xff") as exc:
        reader(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert exc.value.line_no == (4 if reader is load_embeddings else None)
