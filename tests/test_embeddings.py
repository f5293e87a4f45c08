import math

import numpy as np
import pytest

from centroid_ir import (DimensionMismatch, EmbeddingStore, ParseError,
                         StateError, TokenizedText, compute_idf,
                         document_frequencies, load_embeddings, load_idf,
                         save_idf)
from conftest import make_store


def _write(tmp_path, content):
    path = tmp_path / "vectors.txt"
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_with_header(self, tmp_path):
        store = load_embeddings(_write(tmp_path, "2 2\na 1.0 0.0\nb 0.0 1.0\n"))
        assert store.dim == 2
        assert len(store) == 2
        assert np.allclose(store.vector("a"), [1.0, 0.0])

    def test_header_optional(self, tmp_path):
        with_header = load_embeddings(_write(tmp_path, "2 2\na 1.0 0.0\nb 0.0 1.0\n"))
        without = load_embeddings(_write(tmp_path, "a 1.0 0.0\nb 0.0 1.0\n"))
        assert without.dim == with_header.dim == 2
        assert set(without.vocab) == set(with_header.vocab)
        assert np.array_equal(without.vector("b"), with_header.vector("b"))

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(DimensionMismatch, match="line 2"):
            load_embeddings(_write(tmp_path, "a 1.0\nb 0.0 1.0\n"))

    def test_bad_float_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(_write(tmp_path, "a 1.0 2.0\nb 0.0 oops\n"))

    def test_duplicate_word_last_wins(self, tmp_path):
        store = load_embeddings(_write(tmp_path, "a 1.0 0.0\na 0.5 0.5\n"))
        assert len(store) == 1
        assert np.allclose(store.vector("a"), [0.5, 0.5])

    def test_oov_lookup_is_none(self, tmp_path):
        store = load_embeddings(_write(tmp_path, "a 1.0 0.0\n"))
        assert store.vector("zzz") is None
        assert "zzz" not in store

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_embeddings(_write(tmp_path, ""))

    @pytest.mark.parametrize("content", [
        "5 2\na 1.0 0.0\nb 0.0 1.0\n",          # truncated
        "1 2\na 1.0 0.0\nb 0.0 1.0\n",          # more lines than announced
        "2 2\na 1.0 0.0\na 0.0 1.0\nb 1.0 1.0\n",  # header counts lines, not words
    ])
    def test_header_count_must_match_lines(self, tmp_path, content):
        with pytest.raises(ParseError, match="header announces"):
            load_embeddings(_write(tmp_path, content))

    def test_header_counts_repeated_word_lines(self, tmp_path):
        store = load_embeddings(_write(tmp_path, "2 2\na 1.0 0.0\na 0.5 0.5\n"))
        assert len(store) == 1


class TestStoreRows:
    @pytest.mark.parametrize("vocab", [
        {"a": -1, "b": 0},      # a negative row reads another word's vector
        {"a": 0, "b": 0},       # row 1 unreachable
        {"a": 0, "b": 5},       # past the matrix
        {"a": 0.0, "b": 1.0},   # not integers
    ])
    def test_rows_must_cover_each_row_once(self, vocab):
        with pytest.raises(ValueError, match="0..V-1"):
            EmbeddingStore(vocab, np.eye(2, dtype=np.float32))

    def test_permuted_rows_accepted(self):
        store = EmbeddingStore({"b": 1, "a": 0}, np.eye(2, dtype=np.float32))
        assert store.rows(TokenizedText.from_tokens(["a", "b"])).tolist() == [0, 1]


class TestComputeIdf:
    def docs(self, *token_lists):
        return [TokenizedText.from_tokens(list(tokens)) for tokens in token_lists]

    def test_half_the_docs(self):
        idf = compute_idf(self.docs(["w", "x"], ["w"], ["x"], ["y"]))
        assert idf["w"] == pytest.approx(math.log(2), abs=1e-12)

    def test_everywhere_is_zero(self):
        idf = compute_idf(self.docs(["w"], ["w"], ["w", "z"], ["w"]))
        assert idf["w"] == 0.0

    def test_single_doc(self):
        idf = compute_idf(self.docs(["w", "w", "q"]))
        assert idf["w"] == 0.0
        assert idf["q"] == 0.0

    def test_empty_corpus(self):
        assert compute_idf([]) == {}

    def test_multiplicity_counts_once(self):
        df, n = document_frequencies(self.docs(["w", "w", "w"], ["x"]))
        assert df == {"w": 1, "x": 1}
        assert n == 2

    def test_monotone_in_df(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(20)]
        docs = self.docs(*(rng.choice(words, size=rng.integers(1, 10)).tolist()
                           for _ in range(30)))
        df, n = document_frequencies(docs)
        idf = compute_idf(docs)
        for w1 in df:
            for w2 in df:
                if df[w1] < df[w2]:
                    assert idf[w1] > idf[w2]
        assert all(v >= 0.0 for v in idf.values())


class TestIdfLookup:
    def test_known_token(self):
        store = make_store({"a": [1.0, 0.0]}, idf={"a": math.log(2)}, n_docs=4)
        assert store.idf_of("a") == pytest.approx(0.6931, abs=1e-4)

    def test_unseen_token_gets_ceiling(self):
        store = make_store({"a": [1.0, 0.0]}, idf={"a": 0.1}, n_docs=4)
        assert store.idf_of("unseen") == pytest.approx(math.log(4), abs=1e-12)

    def test_everywhere_token_is_zero(self):
        store = make_store({"a": [1.0, 0.0]}, idf={"a": 0.0}, n_docs=4)
        assert store.idf_of("a") == 0.0

    def test_never_computed_raises(self):
        store = make_store({"a": [1.0, 0.0]})
        with pytest.raises(StateError):
            store.idf_of("a")

    def test_store_compute_idf_attaches(self):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        docs = [TokenizedText.from_tokens(t) for t in (["a"], ["a", "b"])]
        store.compute_idf(docs)
        assert store.n_docs == 2
        assert store.idf_of("a") == 0.0
        assert store.idf_of("b") == pytest.approx(math.log(2), abs=1e-12)


class TestIdfFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        idf = {f"tok{i}": float(v) for i, v in enumerate(rng.exponential(size=50))}
        path = tmp_path / "scores.idf"
        save_idf(path, idf, n_docs=123)
        loaded, n_docs = load_idf(path)
        assert n_docs == 123
        assert loaded == idf

    def test_repeated_save_identical(self, tmp_path):
        idf = {"b": 0.5, "a": 1.25}
        p1, p2 = tmp_path / "one", tmp_path / "two"
        save_idf(p1, idf, 9)
        save_idf(p2, dict(reversed(idf.items())), 9)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.idf"
        path.write_text("#ndocs=4\nword\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_idf(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.idf"
        path.write_text("word\t1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_idf(path)

    @pytest.mark.parametrize("content, line", [
        ("#ndocs=-3\na\t1.0\n", 1),
        ("#ndocs=4\na\t1.0\nb\t-2.0\n", 3),
        ("#ndocs=4\nb\tnan\n", 2),
        ("#ndocs=4\nc\tinf\n", 2),
        ("#ndocs=4\nc\t-inf\n", 2),
        ("#ndocs=4\na\t1.0\nb\t0.5\na\t2.0\n", 4),
    ])
    def test_corrupt_table_names_line(self, tmp_path, content, line):
        path = tmp_path / "bad.idf"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError, match=f"line {line}:") as err:
            load_idf(path)
        assert err.value.line_no == line

    def test_zero_values_and_zero_docs_accepted(self, tmp_path):
        path = tmp_path / "zero.idf"
        path.write_text("#ndocs=0\na\t0.0\nb\t-0.0\n", encoding="utf-8")
        assert load_idf(path) == ({"a": 0.0, "b": 0.0}, 0)
