import math

import numpy as np
import pytest

from centroid_ir import (DimensionMismatch, DocumentRecord, EmbeddingStore,
                         build_corpus_index, embed_text, rwmd_d, rwmd_max, rwmd_q,
                         tokenize)
from centroid_ir.rwmd import SCORERS, EmbeddedText, rwmd_batch
from oracles import brute_rwmd_many
from stores import random_store


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


STOP = frozenset({"the", "of"})


def permuted_store(rng, n_words, dim):
    """A random store whose rows are a permutation of its vocab's order."""
    words = [f"w{i}" for i in range(n_words)]
    return EmbeddingStore({w: int(r) for w, r in zip(words, rng.permutation(n_words))},
                          rng.normal(size=(n_words, dim)).astype(np.float32))


def batch_rwmd(source, store, docs, questions, heads, method):
    """``rwmd_batch`` over per-question heads of doc ids, with the documents'
    rows read as ``rerank`` reads them from ``source``: from "index", the
    rows a corpus index keeps; from "records", the distinct head
    documents' texts mapped in one call (in id order, not head order).
    Returns the flat distances and the questions' slot bounds."""
    if source == "index":
        index = build_corpus_index(docs.values(), store, mode="cent", stopwords=STOP)
        place = {doc_id: i for i, doc_id in enumerate(index.doc_ids.tolist())}
        rows, bounds = index.rows, index.bounds
    else:
        ids = sorted({doc_id for head in heads for doc_id in head})
        place = {doc_id: i for i, doc_id in enumerate(ids)}
        rows, bounds = store.text_rows((docs[doc_id].text for doc_id in ids), STOP)
    slots = np.array([place[doc_id] for head in heads for doc_id in head], dtype=np.intp)
    slot_bounds = np.cumsum([0, *map(len, heads)])
    q_rows, q_bounds = store.text_rows(questions, STOP)
    got = rwmd_batch(q_rows, q_bounds, rows, bounds[slots], bounds[slots + 1], slot_bounds,
                     store, method)
    return got, slot_bounds


def assert_matches_brute(source, store, docs, questions, heads, method):
    """The batch kernel's distances equal ``brute_rwmd_many``'s, question by
    question, bit for bit; returns them per question."""
    got, slot_bounds = batch_rwmd(source, store, docs, questions, heads, method)
    assert got.dtype == np.float64 and got.shape == (slot_bounds[-1],)
    per_question = []
    for text, head, a, b in zip(questions, heads, slot_bounds[:-1], slot_bounds[1:]):
        q = embed_text(tokenize(text, STOP), store)
        want = brute_rwmd_many(q, [store.rows(tokenize(docs[doc_id].text, STOP))
                                   for doc_id in head], store, method)
        assert got[a:b].tobytes() == want.tobytes(), (text, head)
        per_question.append(dict(zip(head, got[a:b].tolist())))
    return per_question


SOURCES = ["records", "index"]


class TestRwmdManyMatchesBrute:
    """rwmd_batch, each question against many documents, bit for bit
    against the per-question np.unique kernel it replaced, from records and
    from an index."""

    @pytest.mark.parametrize("method", sorted(SCORERS))
    @pytest.mark.parametrize("depth", [None, 3, 9])
    def test_random_stores(self, method, depth):
        rng = np.random.default_rng(43)
        for _ in range(30):
            store = permuted_store(rng, int(rng.integers(3, 80)), int(rng.integers(1, 40)))
            words = list(store.vocab)
            docs = {}
            for i in range(int(rng.integers(1, 15))):
                kind = rng.integers(6)
                if kind == 0:
                    tokens = []                                   # an empty document
                elif kind == 1:
                    tokens = ["oov"] * int(rng.integers(1, 4))    # all out of vocabulary
                else:                                             # repeats likely
                    tokens = rng.choice(words[:int(rng.integers(2, len(words) + 1))],
                                        size=int(rng.integers(1, 30))).tolist() + ["oov"]
                docs[f"d{i:02d}"] = DocumentRecord(f"d{i:02d}", "", " ".join(tokens))
            questions = [" ".join(rng.choice(words, size=int(rng.integers(0, 20))))
                         for _ in range(4)]
            # Each head is drawn from one pool, so documents recur across heads.
            heads = [rng.permutation(sorted(docs))[:int(rng.integers(0, len(docs) + 1))]
                     .tolist()[:depth] for _ in questions]
            for source in SOURCES:
                assert_matches_brute(source, store, docs, questions, heads, method)

    def test_question_of_repeated_shared_words(self):
        store = permuted_store(np.random.default_rng(47), 10, 4)
        docs = {doc_id: DocumentRecord(doc_id, "", text) for doc_id, text in
                [("one", "w1"), ("two", "w2 w2 w3"), ("empty", ""), ("both", "w1 w2")]}
        for source in SOURCES:
            for method in SCORERS:
                got, = assert_matches_brute(source, store, docs, ["w1 w1 w2 oov"],
                                            [list(docs)], method)
                if method == "rwmd_d":
                    assert [got["one"], got["both"]] == [0.0, 0.0]

    def test_no_questions(self):
        store = permuted_store(np.random.default_rng(48), 5, 3)
        got, _ = batch_rwmd("records", store, {}, [], [], "rwmd_max")
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_unknown_method(self):
        store = permuted_store(np.random.default_rng(49), 5, 3)
        with pytest.raises(ValueError, match="unknown rwmd method"):
            batch_rwmd("records", store, {}, [], [], "rwmd")


class TestRwmdBatchEdgeCases:
    """rwmd_batch on the awkward questions and heads, bit for bit against
    the per-question kernel, from records and from an index."""

    @pytest.fixture
    def corpus(self):
        rng = np.random.default_rng(47)
        store = permuted_store(rng, 30, 6)
        by_row = {row: word for word, row in store.vocab.items()}
        first, last = by_row[0], by_row[len(store) - 1]
        docs = {f"d{i:02d}": " ".join(rng.choice(list(store.vocab), size=rng.integers(1, 9)))
                for i in range(12)}
        docs.update({"empty": "", "oov": "zzz qqq", "stop": "the of",
                     "edge": f"{first} {last} {first}", "share": "w3 w7 w7"})
        docs = {doc_id: DocumentRecord(doc_id, "", text) for doc_id, text in docs.items()}
        questions = {"none": "qqq zzz", "blank": "", "one": "w3", "repeat": "w7 w7 w3 w7",
                     "shared": "w7 w3", "edges": f"{last} {first}", "r1": "w1 w5 w9 w12",
                     "r2": "w2 w4 w4 w20 w29",
                     # Past 8 terms numpy sums a contiguous run pairwise, so
                     # a sum along another layout would round differently.
                     "long": " ".join(rng.choice(list(store.vocab), size=20))}
        heads = {}
        for qid in questions:
            # Empty documents at the start, in the middle and at the end;
            # "edge" and "share" are in every head.
            middle = ["edge", "share", *rng.permutation([f"d{i:02d}" for i in range(12)])]
            middle.insert(5, "oov")
            heads[qid] = ["empty", *middle, "stop"]
        return store, docs, questions, heads

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("depth", [None, 1, 4, 9])
    @pytest.mark.parametrize("method", sorted(SCORERS))
    def test_edge_cases(self, corpus, source, method, depth):
        store, docs, questions, heads = corpus
        cut = [heads[qid][:depth] for qid in questions]
        got = dict(zip(questions, assert_matches_brute(source, store, docs,
                                                       list(questions.values()), cut, method)))
        # A question with no in-vocabulary word: it sums to 0 towards any
        # document, and a filled document sums to +inf towards it.
        for qid in ("none", "blank"):
            for doc_id, dist in got[qid].items():
                empty = doc_id in ("empty", "oov", "stop")
                want_d = 0.0 if empty else float("inf")
                assert dist == {"rwmd_q": 0.0, "rwmd_d": want_d, "rwmd_max": want_d}[method]
        if depth is None or depth > 2:
            # Shared words are pinned to exactly 0, rows 0 and V-1 included.
            zeros = [("shared", "share"), ("edges", "edge"), ("repeat", "share")]
            if method == "rwmd_q":  # every question word is in the document
                zeros.append(("one", "share"))
            assert [got[qid][doc_id] for qid, doc_id in zeros] == [0.0] * len(zeros)
        assert got["one"]["empty"] == {"rwmd_q": float("inf"), "rwmd_d": 0.0,
                                       "rwmd_max": float("inf")}[method]
