import hashlib
import math
import re
import struct
import weakref
from collections import Counter

import numpy as np
import pytest

from centroid_ir import (DimensionMismatch, DocumentRecord, EmbeddingStore,
                         ParseError, StateError, build_corpus_index,
                         centroid_idf, compute_idf,
                         default_stopwords, load_embeddings, load_idf,
                         save_idf, tokenize)
from centroid_ir.embeddings import _NORM_CHUNK, text_ids
from centroid_ir.text import words
from stores import make_store, stacked_rows
from oracles import brute_compute_idf, brute_load_embeddings, brute_tokenize


def _write(tmp_path, content):
    path = tmp_path / "vectors.txt"
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_with_header(self, tmp_path):
        store = load_embeddings(_write(tmp_path, "2 2\na 1.0 0.0\nb 0.0 1.0\n"))
        assert store.dim == 2
        assert len(store) == 2
        assert np.allclose(store.matrix[store.vocab["a"]], [1.0, 0.0])

    def test_header_optional(self, tmp_path):
        with_header = load_embeddings(_write(tmp_path, "2 2\na 1.0 0.0\nb 0.0 1.0\n"))
        without = load_embeddings(_write(tmp_path, "a 1.0 0.0\nb 0.0 1.0\n"))
        assert without.dim == with_header.dim == 2
        assert set(without.vocab) == set(with_header.vocab)
        assert np.array_equal(without.matrix[without.vocab["b"]],
                              with_header.matrix[with_header.vocab["b"]])

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(DimensionMismatch, match="line 2"):
            load_embeddings(_write(tmp_path, "a 1.0\nb 0.0 1.0\n"))

    def test_bad_float_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(_write(tmp_path, "a 1.0 2.0\nb 0.0 oops\n"))

    def test_duplicate_word_last_wins(self, tmp_path):
        store = load_embeddings(_write(tmp_path, "a 1.0 0.0\na 0.5 0.5\n"))
        assert len(store) == 1
        assert np.allclose(store.matrix[store.vocab["a"]], [0.5, 0.5])

    def test_oov_lookup_is_none(self, tmp_path):
        store = load_embeddings(_write(tmp_path, "a 1.0 0.0\n"))
        assert "zzz" not in store.vocab
        assert store.rows(["zzz"]).size == 0

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


    @pytest.mark.parametrize("number", ["1_0", "\u0661", "\uff11"])
    def test_numbers_are_ascii_decimal(self, tmp_path, number):
        # Underscored and non-ASCII digits, which float() reads, are rejected.
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(_write(tmp_path, f"a 1 2\nb {number} 2\n"))

    def test_header_only_zero_count(self, tmp_path):
        store = load_embeddings(_write(tmp_path, "0 3\n"))
        assert len(store) == 0
        assert store.matrix.shape == (0, 3)

    @pytest.mark.parametrize("content", ["0 -2\n", "-1 3\n", "-1 3\na 1 2 3\n"])
    def test_negative_header_names_line_1(self, tmp_path, content):
        with pytest.raises(ParseError, match="line 1: .*negative") as exc:
            load_embeddings(_write(tmp_path, content))
        assert exc.value.line_no == 1


def _random_lines(rng, n, dim, words):
    """Vector lines whose components span float32's range, with 17 digits."""
    lines = []
    for _ in range(n):
        mags = 10.0 ** rng.uniform(-44, 38, size=dim)
        values = mags * rng.choice([-1.0, 1.0], size=dim)
        lines.append(" ".join([str(rng.choice(words))] + [f"{v:.17g}" for v in values]))
    return lines


def _valid_files():
    rng = np.random.default_rng(29)
    body = _random_lines(rng, 40, 6, ["w0", "w1", "w2"] + [f"x{i}" for i in range(60)])
    return {
        "header": "4 3\na 0.1 0.2 0.3\nb 1 2 3\nc -1e-3 2.5E+7 .5\nd 5. +1 -2\n",
        "no-header": "a 0.1 0.2 0.3\nb 1 2 3\nc -1e-3 2.5E+7 .5\n",
        "zero-header": "0 5\n",
        "blank-lines": "\n\n3 2\n\n   \na 1 2\n\t\nb 3 4\n\n\nc 5 6\n\n",
        "tabs-and-spaces": "a\t1.5\t 2.5   \nb   3\t\t4\n  c 5 6\n",
        "unicode-spaces": "a 1\u00a02\nb\u20003 4\n",
        "crlf": "2 2\r\na 1 2\r\n\r\nb 3 4\r\n",
        "repeated": "a 1 2\nb 3 4\na 5 6\nc 7 8\nb 9 10\na 11 12\n",
        "repeated-header": "3 2\na 1 2\nb 3 4\na 5 6\n",
        "dim-1": "a 1\nb -2.5\nc 3e-2\n",
        "dim-1-header": "3 1\na 1\nb -2.5\nc 3e-2\n",
        "dim-1-int-tokens": "a 1\n5 2\n7 3\n",  # "5 2" is a vector line, not a header
        "dim-1-int-tokens-header": "2 1\n5 2\n7 3\n",
        "special-values": ("a 1e-3 -2.5E+7 -0.0 0.0 1e-40 1.4e-45 3.4028234e38\n"
                           "b -1e-45 7e-46 -3.4028235e38 1e-38 1.17549435e-38 -0.0 0\n"),
        "hash-token": "# 1 2\n#a 3 4\n",
        "random": "\n".join(body) + "\n",
        "random-header": f"{len(body)} 6\n" + "\n".join(body),
    }


def _malformed_files():
    return {
        "bad-number": "a 1 2\nb 3 x\n",
        "bad-number-first": "a x 2\nb 3 4\n",
        "too-few": "a 1 2\nb 3\nc 4 5\n",
        "too-many": "a 1 2\nb 3 4 5\n",
        "too-few-for-header": "2 3\na 1 2\nb 3 4\n",
        "too-many-for-header": "1 1\na 1 2\n",
        "token-only": "a 1 2\nb\nc 3 4\n",
        "token-only-trailing-space": "a 1 2\nb   \n",
        "token-only-first": "a\nb 1 2\n",
        "float32-overflow": "a 1 2\nb 1e39 0\n",
        "negative-overflow": "a 1 2\nb 0 -1e39\n",
        "nan": "a 1 2\nb 3 nan\n",
        "inf": "a -inf 2\n",
        "nan-before-bad-column": "a 1 2\nb 3 nan\nc 4\nd x y\n",
        "header-count-short": "3 2\na 1 2\nb 3 4\n",
        "header-count-long": "1 2\na 1 2\nb 3 4\n",
        "header-count-no-lines": "2 2\n",
        "empty": "",
        "blank-only": "\n  \n\t\n",
    }


def _error_line(exc):
    if isinstance(exc, ParseError):
        return exc.line_no
    found = re.search(r"line (\d+):", str(exc))
    return int(found.group(1)) if found else None


class TestLoaderMatchesBruteParser:
    @pytest.mark.parametrize("name, content", sorted(_valid_files().items()))
    def test_valid_files(self, tmp_path, name, content):
        path = tmp_path / "vectors.txt"
        path.write_bytes(content.encode("utf-8"))
        vocab, matrix = brute_load_embeddings(path)
        store = load_embeddings(path)
        assert list(store.vocab.items()) == list(vocab.items())
        assert store.matrix.dtype == matrix.dtype == np.float32
        assert store.matrix.shape == matrix.shape
        assert store.matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("name, content", sorted(_malformed_files().items()))
    def test_malformed_files(self, tmp_path, name, content):
        path = tmp_path / "vectors.txt"
        path.write_bytes(content.encode("utf-8"))
        with pytest.raises((ParseError, DimensionMismatch)) as want:
            brute_load_embeddings(path)
        with pytest.raises((ParseError, DimensionMismatch)) as got:
            load_embeddings(path)
        assert type(got.value) is type(want.value)
        assert _error_line(got.value) == _error_line(want.value)
        assert str(got.value) == str(want.value)


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
        assert store.rows(["a", "b"]).tolist() == [0, 1]

    def test_rows_are_the_in_vocabulary_tokens(self):
        rng = np.random.default_rng(23)
        words = [f"w{i}" for i in range(12)]
        store = EmbeddingStore({w: int(r) for w, r in zip(words, rng.permutation(12))},
                               rng.normal(size=(12, 3)).astype(np.float32))
        pool = words + ["oov1", "oov2"]
        texts = [rng.choice(pool, size=rng.integers(0, 15)).tolist() for _ in range(60)]
        for text in texts + [[], ["oov1", "oov2"]]:
            want = [store.vocab[t] for t in text if t in store.vocab]
            assert store.rows(text).tolist() == want
            assert store.rows(text).dtype == np.intp


# Vocabulary words that tokenize drops (stop words, single Unicode
# digits), words a split never yields (uppercase, "İ"), multi-digit
# tokens, non-BMP letters, and plain words.
_ADVERSARIAL_VOCAB = [
    "the", "of", "cell", "cells", "7", "\u00b2", "\u0663", "\U0001d7d5", "12", "\u0663\u0663",
    "x\u00b2", "Cell", "CELL", "\u0130", "i", "stanbul", "i\u0307", "gene", "name", "p53",
    "stra\u00dfe", "\u2166", "\u2170", "", "\u0661", "\u2460", "\U0001d400", "\U00010428",
    "\U00010428x",
]
_ADVERSARIAL_TEXTS = [
    "", "   \t\n", "The cell OF cells", "7 \u00b2 \u0663 \U0001d7d5 12 \u0663\u0663 x\u00b2 77",
    "\u0130stanbul \u0130 i I", "gene_name p53-mediated, CELL!", "unknown words only",
    "the of the", "STRASSE Stra\u00dfe \u2166 \u2170", "a\x1cb\x85c\u2028cell\u3000gene\ud800name",
    "\u0661 \u2460 \u00b2\u2460 \U0001d400 \U00010400 \U00010400X \U00010428", "THE Of tHe CELLS",
]


def _adversarial_store(vocab):
    """A store of ``vocab`` on permuted rows."""
    rng = np.random.default_rng(29)
    return EmbeddingStore(dict(zip(vocab, rng.permutation(len(vocab)).tolist())),
                          rng.normal(size=(len(vocab), 3)).astype(np.float32))


class TestTextRows:
    """text_rows against the per-text reference ``store.rows(tokenize(...))``,
    over the adversarial vocabulary and over every word the adversarial
    texts split into, so that only the keep rule drops a word."""

    @pytest.fixture(params=["from-vocab", "from-texts"])
    def store(self, request):
        if request.param == "from-vocab":
            return _adversarial_store(_ADVERSARIAL_VOCAB)
        return _adversarial_store(list(dict.fromkeys(
            word for text in _ADVERSARIAL_TEXTS for word in words(text))))

    @staticmethod
    def check(store, texts, stop):
        want_rows, want_bounds = stacked_rows(store, (tokenize(t, stop) for t in texts))
        rows, bounds = store.text_rows(iter(texts), stop)
        assert rows.dtype == bounds.dtype == np.intp
        assert rows.tolist() == want_rows.tolist()
        assert bounds.tolist() == want_bounds.tolist()

    @pytest.mark.parametrize("stop", [frozenset(), frozenset({"the", "of", "12", "cell"}),
                                      default_stopwords()])
    def test_adversarial_texts(self, store, stop):
        self.check(store, _ADVERSARIAL_TEXTS, stop)

    def test_random_texts(self, store):
        rng = np.random.default_rng(31)
        pieces = _ADVERSARIAL_VOCAB + ["THE", "Of", "oov", "-", " ", ",", "_", "\u0130"]
        texts = ["".join(rng.choice(pieces, size=rng.integers(0, 20))) for _ in range(200)]
        texts += [" ".join(rng.choice(pieces, size=rng.integers(0, 20))) for _ in range(200)]
        self.check(store, texts, {"the", "of", "gene", "\U00010428"})

    def test_no_texts(self, store):
        rows, bounds = store.text_rows([], frozenset())
        assert rows.size == 0
        assert bounds.tolist() == [0]


class TestTextIds:
    """text_ids against tokenize, text by text."""

    @pytest.mark.parametrize("stop", [frozenset(), default_stopwords()])
    def test_ids_spell_the_tokens(self, stop):
        kept_words, ids, bounds = text_ids(_ADVERSARIAL_TEXTS, stop)
        assert ids.dtype == bounds.dtype == np.intp
        assert len(bounds) == len(_ADVERSARIAL_TEXTS) + 1
        for i, text in enumerate(_ADVERSARIAL_TEXTS):
            assert [kept_words[j] for j in ids[bounds[i]:bounds[i + 1]]] == tokenize(text, stop)
        # Distinct words, numbered in first-seen order.
        assert kept_words == list(dict.fromkeys(
            token for text in _ADVERSARIAL_TEXTS for token in tokenize(text, stop)))

    def test_reads_a_one_shot_generator_once(self):
        reads = []

        def texts():
            for text in _ADVERSARIAL_TEXTS:
                reads.append(text)
                yield text

        stream = texts()
        got = text_ids(stream, frozenset())
        assert reads == _ADVERSARIAL_TEXTS
        assert next(stream, None) is None
        want = text_ids(_ADVERSARIAL_TEXTS, frozenset())
        assert got[0] == want[0]
        assert got[1].tolist() == want[1].tolist() and got[2].tolist() == want[2].tolist()


class TestRowSqNorms:
    """row_sq_norms against einsum over gathered float64 rows, bit for bit."""

    def test_dims_1_to_301(self):
        rng = np.random.default_rng(37)
        for dim in range(1, 302):
            n = int(rng.integers(1, 40))
            store = EmbeddingStore({f"w{i}": int(r) for i, r in enumerate(rng.permutation(n))},
                                   (rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4))
                                   .astype(np.float32))
            picked = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            gathered = store.matrix[picked].astype(np.float64)
            want = np.einsum("ij,ij->i", gathered, gathered)
            assert store.row_sq_norms[picked].tobytes() == want.tobytes(), dim

    def test_across_chunks(self):
        rng = np.random.default_rng(41)
        n = _NORM_CHUNK * 2 + 7
        store = EmbeddingStore({f"w{i}": i for i in range(n)},
                               rng.normal(size=(n, 5)).astype(np.float32))
        whole = store.matrix.astype(np.float64)
        assert store.row_sq_norms.shape == (n,)
        assert store.row_sq_norms.tobytes() == np.einsum("ij,ij->i", whole, whole).tobytes()

    def test_empty_store(self):
        store = EmbeddingStore({}, np.zeros((0, 3), dtype=np.float32))
        assert store.row_sq_norms.shape == (0,)


class TestFingerprint:
    def store(self, words=("a", "b", "c"), matrix=None, rows=(0, 1, 2)):
        matrix = np.arange(6, dtype=np.float32).reshape(3, 2) if matrix is None else matrix
        return EmbeddingStore(dict(zip(words, rows)), matrix)

    def test_same_content_same_fingerprint(self):
        a, b = self.store(), self.store()
        assert len(a.fingerprint()) == 32
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint(np.ones(3)) == b.fingerprint(np.ones(3))
        # The dict's order is not the row order.
        c = EmbeddingStore({"c": 2, "a": 0, "b": 1}, a.matrix)
        assert c.fingerprint() == a.fingerprint()

    @pytest.mark.parametrize("other", [
        {"matrix": np.arange(6, dtype=np.float32).reshape(3, 2)[[1, 0, 2]]},
        {"words": ("a", "b", "d")},
        {"rows": (1, 0, 2)},
        {"matrix": np.arange(6, dtype=np.float32).reshape(2, 3), "words": ("a", "b"),
         "rows": (0, 1)},
        {"matrix": np.arange(6, dtype=np.float32).reshape(6, 1),
         "words": ("a", "b", "c", "d", "e", "f"), "rows": range(6)},
        {"words": ("ab", "", "c")},
    ])
    def test_any_difference_changes_it(self, other):
        base, changed = self.store(), self.store(**other)
        assert changed.fingerprint() != base.fingerprint()

    def test_idf_part(self):
        # The weights passed in are hashed, not the store's own IDF.
        store = self.store()
        bare = store.fingerprint()
        weights = np.array([1.0, 0.5, math.log(3)])
        with_idf = store.fingerprint(weights)
        assert with_idf != bare
        store.set_idf({"a": 1.0, "b": 0.5}, 3)
        assert store.fingerprint() == bare
        assert store.fingerprint(weights) == with_idf
        assert store.fingerprint(store.idf_rows) == with_idf
        assert store.fingerprint(np.array([1.0, 0.5, math.log(4)])) != with_idf
        assert store.fingerprint(weights.astype(">f8")) == with_idf

    def test_weights_hashed_on_every_call(self):
        store = self.store()
        weights = np.ones(3)
        first = store.fingerprint(weights)
        weights[1] = 2.0
        assert store.fingerprint(weights) != first

    def test_vocabulary_and_matrix_hashed_once(self, monkeypatch):
        store = self.store()
        first = store.fingerprint()
        monkeypatch.setattr(store, "matrix", np.zeros((3, 2), dtype=np.float32))
        assert store.fingerprint() == first

    @pytest.mark.parametrize("mode", ["cent", "centidf"])
    def test_definition(self, mode):
        # Index format v4 stores this hash; it is spelled out here by hand.
        # The vocab dict's order is not the row order, and a token is not ASCII.
        vocab = {"zeta": 2, "alpha": 0, "büro": 1}
        matrix = np.array([[1.0, -2.0], [0.5, 3.25], [0.0, 1e-3]], dtype=np.float32)
        store = EmbeddingStore(vocab, matrix)
        docs = [DocumentRecord("d1", "alpha zeta", "büro"), DocumentRecord("d2", "", "zeta")]
        index = build_corpus_index(docs, store, mode=mode, stopwords=frozenset(),
                                   compute_idf=mode == "centidf")

        tokens = ["alpha", "büro", "zeta"]
        inner = hashlib.sha256(struct.pack("<QQ", 3, 2))
        inner.update(struct.pack("<3q", *map(len, tokens)))
        inner.update("alphabürozeta".encode("utf-8"))
        inner.update(matrix.astype("<f4").tobytes())
        outer = hashlib.sha256(inner.digest())
        if mode == "centidf":
            weights = struct.pack("<3d", math.log(2), math.log(2), 0.0)
            assert index.idf_rows.astype("<f8").tobytes() == weights
            outer.update(b"\x01" + hashlib.sha256(weights).digest())
        assert index.fingerprint == outer.digest()


class TestComputeIdf:
    def test_half_the_docs(self):
        idf, n = compute_idf([["w", "x"], ["w"], ["x"], ["y"]])
        assert n == 4
        assert idf["w"] == pytest.approx(math.log(2), abs=1e-12)

    def test_everywhere_is_zero(self):
        idf, _ = compute_idf([["w"], ["w"], ["w", "z"], ["w"]])
        assert idf["w"] == 0.0

    def test_single_doc(self):
        idf, _ = compute_idf([["w", "w", "q"]])
        assert idf["w"] == 0.0
        assert idf["q"] == 0.0

    def test_empty_corpus(self):
        assert compute_idf([]) == ({}, 0)

    def test_multiplicity_counts_once(self):
        # "w" is in one document of two, however often it occurs there.
        idf, n = compute_idf([["w", "w", "w"], ["x"]])
        assert idf == {"w": math.log(2), "x": math.log(2)}
        assert n == 2

    def test_monotone_in_df(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(20)]
        docs = [rng.choice(words, size=rng.integers(1, 10)).tolist() for _ in range(30)]
        df = Counter(w for doc in docs for w in set(doc))
        idf, _ = compute_idf(docs)
        assert idf.keys() == df.keys()
        for w1 in df:
            for w2 in df:
                if df[w1] < df[w2]:
                    assert idf[w1] > idf[w2]
        assert all(v >= 0.0 for v in idf.values())


    @pytest.mark.parametrize("n_docs", [0, 1, 7, 80])
    def test_matches_counter_oracle(self, n_docs):
        # Empty documents, repeated tokens, single digits, non-ASCII words.
        rng = np.random.default_rng(n_docs)
        pool = ["w", "x", "7", "\u00b2", "12", "b\u00fcro", "\u0130", "\U0001d400", "", "w w"]
        docs = [rng.choice(pool, size=rng.integers(0, 12)).tolist() for _ in range(n_docs)]
        docs[:2] = [[], ["x", "x", "x"]][:n_docs]
        want = brute_compute_idf(docs)
        assert compute_idf(docs) == want
        assert compute_idf(iter(docs)) == want

    @pytest.mark.parametrize("n_docs", [0, 1, 60])
    def test_build_corpus_index_matches_counter_oracle(self, n_docs):
        rng = np.random.default_rng(n_docs)
        pieces = _ADVERSARIAL_VOCAB + ["THE", "Of", "oov", "-", " ", ",", "_", "\u0130"]
        texts = [" ".join(rng.choice(pieces, size=rng.integers(0, 15))) for _ in range(n_docs)]
        texts[:2] = ["", "the of THE 7"][:n_docs]
        store = _adversarial_store(_ADVERSARIAL_VOCAB)
        stop = default_stopwords()
        records = [DocumentRecord(f"d{i}", "", text) for i, text in enumerate(texts)]
        build_corpus_index(records, store, mode="centidf", stopwords=stop, compute_idf=True)
        want = brute_compute_idf([brute_tokenize(text, stop) for text in texts])
        assert (store.idf, store.n_docs) == want


class TestIdfLookup:
    def test_known_token(self):
        store = make_store({"a": [1.0, 0.0]}, idf={"a": math.log(2)}, n_docs=4)
        assert store.idf["a"] == pytest.approx(0.6931, abs=1e-4)
        assert store.idf_rows[store.vocab["a"]] == store.idf["a"]

    def test_unseen_token_gets_ceiling(self):
        store = make_store({"a": [1.0, 0.0], "unseen": [0.0, 1.0]}, idf={"a": 0.1}, n_docs=4)
        assert "unseen" not in store.idf
        assert store.idf_rows[store.vocab["unseen"]] == pytest.approx(math.log(4), abs=1e-12)

    def test_everywhere_token_is_zero(self):
        store = make_store({"a": [1.0, 0.0]}, idf={"a": 0.0}, n_docs=4)
        assert store.idf["a"] == store.idf_rows[store.vocab["a"]] == 0.0

    def test_never_computed_raises(self):
        store = make_store({"a": [1.0, 0.0]})
        assert store.idf is None and store.idf_rows is None
        with pytest.raises(StateError):
            centroid_idf(["a"], store)

    def test_store_compute_idf_attaches(self):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        store.compute_idf([["a"], ["a", "b"]])
        assert store.n_docs == 2
        assert store.idf["a"] == 0.0
        assert store.idf["b"] == pytest.approx(math.log(2), abs=1e-12)
        assert store.idf_rows.tolist() == [store.idf["a"], store.idf["b"]]

    def test_store_compute_idf_reads_a_generator_once(self):
        token_lists = [["a"], ["a", "b"], ["c"], []]
        from_list = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        from_stream = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        one_shot = (tokens for tokens in token_lists)
        assert from_stream.compute_idf(one_shot) == from_list.compute_idf(token_lists)
        assert from_stream.n_docs == from_list.n_docs == 4
        assert from_stream.idf == from_list.idf
        assert np.array_equal(from_stream.idf_rows, from_list.idf_rows)

    def test_store_compute_idf_holds_one_document_at_a_time(self):
        class Tokens(list):
            """A token list that can be weakly referenced; a plain list cannot."""

        refs = []

        def docs():
            for tokens in (["a"], ["a", "b"], ["c"], ["b"]):
                # Only the document the reader is on may still be alive.
                assert sum(ref() is not None for ref in refs) <= 1
                doc = Tokens(tokens)
                refs.append(weakref.ref(doc))
                yield doc
                del doc

        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        store.compute_idf(docs())
        assert store.n_docs == 4


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
