import math

import numpy as np
import pytest

from centroid_ir import (DimensionMismatch, EmbeddingStore, embed_text, rwmd_d,
                         rwmd_max, rwmd_q)
from centroid_ir.rwmd import SCORERS, EmbeddedText, rwmd_many
from oracles import brute_rwmd_many
from stores import random_store, stacked_rows


def embedded(*pairs, dim=2):
    rows = [row for row, _ in pairs]
    matrix = (np.array([v for _, v in pairs], dtype=np.float64)
              if pairs else np.zeros((0, dim)))
    return EmbeddedText(rows=rows, matrix=matrix)


Q_ORIGIN = embedded((0, [0.0, 0.0]))
D_TWO = embedded((1, [3.0, 4.0]), (2, [0.0, 1.0]))


class TestHandExamples:
    def test_rwmd_q_nearest(self):
        assert rwmd_q(Q_ORIGIN, D_TWO) == 1.0

    def test_rwmd_q_duplicates_add(self):
        q = embedded((0, [0.0, 0.0]), (0, [0.0, 0.0]))
        assert rwmd_q(q, D_TWO) == 2.0

    def test_rwmd_d_sums_doc_side(self):
        assert rwmd_d(Q_ORIGIN, D_TWO) == 6.0

    def test_rwmd_max_is_max(self):
        assert rwmd_max(Q_ORIGIN, D_TWO) == 6.0

    def test_identical_texts_zero(self):
        assert rwmd_q(D_TWO, D_TWO) == 0.0
        assert rwmd_d(D_TWO, D_TWO) == 0.0
        assert rwmd_max(D_TWO, D_TWO) == 0.0

    def test_doc_subset_of_query(self):
        q = embedded((1, [3.0, 4.0]), (2, [0.0, 1.0]), (3, [9.0, 9.0]))
        assert rwmd_d(q, D_TWO) == 0.0


class TestSentinels:
    def test_empty_document(self):
        empty = embedded()
        assert rwmd_q(Q_ORIGIN, empty) == math.inf
        assert rwmd_d(Q_ORIGIN, empty) == 0.0

    def test_empty_query(self):
        empty = embedded()
        assert rwmd_q(empty, D_TWO) == 0.0
        assert rwmd_d(empty, D_TWO) == math.inf

    def test_both_empty(self):
        assert rwmd_q(embedded(), embedded()) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rwmd_q(Q_ORIGIN, embedded((4, [1.0, 2.0, 3.0]), dim=3))


def random_text(rng, dim, min_len=1, max_len=12, offset=0):
    # Word i of a text is one of 6 rows of its own; texts with the same
    # offset share a word when they draw the same row at the same place.
    n = int(rng.integers(min_len, max_len + 1))
    rows = [offset + 6 * i + int(rng.integers(0, 6)) for i in range(n)]
    return EmbeddedText(rows=rows, matrix=rng.normal(size=(n, dim)))


class TestProperties:
    def test_non_negative_and_symmetric_pair(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            q = random_text(rng, dim)
            d = random_text(rng, dim)
            assert rwmd_q(q, d) >= 0.0
            assert rwmd_d(q, d) == rwmd_q(d, q)
            assert rwmd_max(q, d) == max(rwmd_q(q, d), rwmd_d(q, d))

    def test_monotone_in_document_growth(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            q = random_text(rng, dim)
            d = random_text(rng, dim)
            extra = random_text(rng, dim, offset=1000)
            grown = EmbeddedText(rows=np.concatenate([d.rows, extra.rows]),
                                 matrix=np.vstack([d.matrix, extra.matrix]))
            assert rwmd_q(q, grown) <= rwmd_q(q, d) + 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            q = random_text(rng, dim)
            d = random_text(rng, dim)
            shift = rng.normal(size=dim)
            q2 = EmbeddedText(rows=q.rows, matrix=q.matrix + shift)
            d2 = EmbeddedText(rows=d.rows, matrix=d.matrix + shift)
            assert rwmd_q(q2, d2) == pytest.approx(rwmd_q(q, d), abs=1e-9)
            assert rwmd_d(q2, d2) == pytest.approx(rwmd_d(q, d), abs=1e-9)

    def test_asymmetry_is_normal(self):
        rng = np.random.default_rng(24)
        asymmetric = 0
        for _ in range(50):
            q = random_text(rng, 3, min_len=2, max_len=4)
            d = random_text(rng, 3, min_len=8, max_len=12, offset=1000)
            if rwmd_q(q, d) != rwmd_q(d, q):
                asymmetric += 1
        assert asymmetric > 0


class TestEmbedText:
    def test_keeps_order_and_duplicates(self, ab_store):
        text = ["b", "zzz", "a", "b"]
        emb = embed_text(text, ab_store)
        assert emb.rows.tolist() == [1, 0, 1]
        assert emb.matrix.shape == (3, 2)
        assert np.allclose(emb.matrix[0], [0.0, 1.0])

    def test_all_oov_is_empty_with_dim(self, ab_store):
        emb = embed_text(["qq", "ww"], ab_store)
        assert len(emb) == 0
        assert emb.dim == 2

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(25)
        store = random_store(rng, 30, 4)
        words = list(store.vocab)
        for _ in range(100):
            q_tokens = rng.choice(words, size=rng.integers(1, 5)).tolist()
            d_tokens = rng.choice(words, size=rng.integers(1, 9)).tolist()
            q = embed_text(q_tokens, store)
            d = embed_text(d_tokens, store)
            expected_q = 0.0
            for qv in q.matrix:
                expected_q += min(float(np.linalg.norm(qv - dv)) for dv in d.matrix)
            expected_d = 0.0
            for dv in d.matrix:
                expected_d += min(float(np.linalg.norm(qv - dv)) for qv in q.matrix)
            assert rwmd_q(q, d) == pytest.approx(expected_q, abs=1e-9)
            assert rwmd_d(q, d) == pytest.approx(expected_d, abs=1e-9)
            assert rwmd_max(q, d) == pytest.approx(max(expected_q, expected_d), abs=1e-9)


class TestEmbeddedTextShape:
    def test_rows_become_intp(self):
        text = EmbeddedText(rows=[3, 1], matrix=np.zeros((2, 2)))
        assert text.rows.dtype == np.intp
        assert text.rows.tolist() == [3, 1]

    def test_row_count_must_match_matrix(self):
        with pytest.raises(ValueError, match="one vector per row"):
            EmbeddedText(rows=[0], matrix=np.array([[3.0, 4.0], [0.0, 1.0]]))

    def test_matrix_must_be_2d(self):
        with pytest.raises(ValueError, match="one vector per row"):
            EmbeddedText(rows=[0, 1], matrix=np.zeros(2))

    def test_rows_must_be_1d(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            EmbeddedText(rows=[[0, 1]], matrix=np.zeros((2, 2)))


class TestRwmdManyMatchesBrute:
    """rwmd_many against the np.unique kernel it replaced, bit for bit."""

    @staticmethod
    def permuted_store(rng, n_words, dim):
        words = [f"w{i}" for i in range(n_words)]
        return EmbeddingStore({w: int(r) for w, r in zip(words, rng.permutation(n_words))},
                              rng.normal(size=(n_words, dim)).astype(np.float32))

    @staticmethod
    def random_docs(rng, store, n_docs):
        words = list(store.vocab)
        docs = []
        for _ in range(n_docs):
            kind = rng.integers(6)
            if kind == 0:
                tokens = []                                   # an empty document
            elif kind == 1:
                tokens = ["oov"] * int(rng.integers(1, 4))    # all out of vocabulary
            else:                                             # repeats likely
                tokens = rng.choice(words[:int(rng.integers(2, len(words) + 1))],
                                    size=int(rng.integers(1, 30))).tolist() + ["oov"]
            docs.append(store.rows(tokens))
        return docs

    @pytest.mark.parametrize("method", sorted(SCORERS))
    @pytest.mark.parametrize("depth", [None, 3, 9])
    def test_random_stores(self, method, depth):
        rng = np.random.default_rng(43)
        for _ in range(60):
            store = self.permuted_store(rng, int(rng.integers(3, 80)), int(rng.integers(1, 40)))
            words = list(store.vocab)
            # The questions' vectors come from one gather, sliced per question.
            questions = [rng.choice(words, size=int(rng.integers(0, 8))).tolist()
                         for _ in range(4)]
            q_rows, q_bounds = stacked_rows(store, questions)
            q_matrix = store.matrix[q_rows].astype(np.float64)
            docs = self.random_docs(rng, store, int(rng.integers(0, 15)))[:depth]
            for lo, hi in zip(q_bounds[:-1], q_bounds[1:]):
                q = EmbeddedText(rows=q_rows[lo:hi], matrix=q_matrix[lo:hi])
                got = rwmd_many(q, docs, store, method)
                want = brute_rwmd_many(q, docs, store, method)
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes()

    def test_question_of_repeated_shared_words(self):
        rng = np.random.default_rng(47)
        store = self.permuted_store(rng, 10, 4)
        q = embed_text(["w1", "w1", "w2", "oov"], store)
        docs = [store.rows(["w1"]), store.rows(["w2", "w2", "w3"]), store.rows([]),
                store.rows(["w1", "w2"])]
        for method in SCORERS:
            got = rwmd_many(q, docs, store, method)
            assert got.tobytes() == brute_rwmd_many(q, docs, store, method).tobytes()
        assert rwmd_many(q, docs, store, "rwmd_d")[[0, 3]].tolist() == [0.0, 0.0]
