import math

import numpy as np
import pytest

from centroid_ir import (CentroidIndex, DocumentRecord, EmbeddingStore, StateError,
                         build_corpus_index, centroid_idf, centroid_simple, tokenize)
from centroid_ir.centroids import centroid_matrix
from stores import make_store, random_store, stacked_rows
from oracles import brute_centroid


class TestSimpleCentroid:
    def test_single_token(self, ab_store):
        cent = centroid_simple(["a"], ab_store)
        assert np.allclose(cent.vec, [1.0, 0.0])
        assert cent.n_known_tokens == 1

    def test_two_tokens_average(self, ab_store):
        cent = centroid_simple(["a", "b"], ab_store)
        assert np.allclose(cent.vec, [0.5, 0.5], atol=1e-12)

    def test_all_oov_is_zero(self, ab_store):
        cent = centroid_simple(["zzz", "zzz", "zzz"], ab_store)
        assert cent.is_zero
        assert cent.n_known_tokens == 0
        assert np.all(cent.vec == 0.0)

    def test_oov_tokens_skipped(self, ab_store):
        with_oov = centroid_simple(["a", "qqq", "b"], ab_store)
        without = centroid_simple(["a", "b"], ab_store)
        assert np.array_equal(with_oov.vec, without.vec)

    def test_norm_matches_vector(self, ab_store):
        cent = centroid_simple(["a", "a", "b"], ab_store)
        assert cent.norm == pytest.approx(float(np.linalg.norm(cent.vec)), rel=1e-9)


class TestIdfCentroid:
    def test_hand_example(self):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]},
                           idf={"a": 1.0, "b": 2.0})
        cent = centroid_idf(["a", "a", "b"], store)
        assert np.allclose(cent.vec, [0.5, 0.5], atol=1e-12)

    def test_single_token_weights_cancel(self):
        store = make_store({"a": [0.25, -2.0]}, idf={"a": 3.7})
        cent = centroid_idf(["a"], store)
        assert np.allclose(cent.vec, [0.25, -2.0], atol=1e-12)

    def test_all_idf_zero_gives_zero_vector(self):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]},
                           idf={"a": 0.0, "b": 0.0})
        cent = centroid_idf(["a", "b"], store)
        assert cent.is_zero
        assert cent.n_known_tokens == 0

    def test_requires_idf(self, ab_store):
        with pytest.raises(StateError):
            centroid_idf(["a"], ab_store)

    def test_unit_idf_equals_simple_bitwise(self):
        rng = np.random.default_rng(5)
        store = random_store(rng, 40, 8)
        store.set_idf({w: 1.0 for w in store.vocab}, n_docs=1)
        words = list(store.vocab)
        for _ in range(100):
            tokens = rng.choice(words, size=rng.integers(1, 25)).tolist()
            simple = centroid_simple(tokens, store)
            weighted = centroid_idf(tokens, store)
            assert np.array_equal(simple.vec, weighted.vec)
            assert simple.n_known_tokens == weighted.n_known_tokens

    def test_idf_scale_invariance(self):
        rng = np.random.default_rng(6)
        store = random_store(rng, 30, 6)
        base_idf = {w: float(v) for w, v in zip(store.vocab, rng.uniform(0.1, 3.0, 30))}
        words = list(store.vocab)
        for scale in (0.5, 2.0, 117.0):
            store.set_idf(base_idf, n_docs=10)
            texts = [rng.choice(words, size=12).tolist() for _ in range(20)]
            reference = [centroid_idf(t, store) for t in texts]
            store.set_idf({w: v * scale for w, v in base_idf.items()}, n_docs=10)
            for t, ref in zip(texts, reference):
                scaled = centroid_idf(t, store)
                assert np.allclose(scaled.vec, ref.vec, rtol=1e-12, atol=1e-12)

    def test_in_convex_hull(self):
        # Weights are non-negative and sum to one, so every coordinate of
        # the centroid sits inside the contributing coordinates' range.
        rng = np.random.default_rng(8)
        store = random_store(rng, 20, 4)
        store.set_idf({w: float(v) for w, v in zip(store.vocab, rng.uniform(0.0, 2.0, 20))},
                      n_docs=10)
        words = list(store.vocab)
        for _ in range(50):
            tokens = rng.choice(words, size=rng.integers(1, 10)).tolist()
            cent = centroid_idf(tokens, store)
            if cent.is_zero:
                continue
            vecs = np.array([store.matrix[store.vocab[t]] for t in tokens], dtype=np.float64)
            assert np.all(cent.vec >= vecs.min(axis=0) - 1e-9)
            assert np.all(cent.vec <= vecs.max(axis=0) + 1e-9)


def test_centroid_pipeline_with_tokenizer(ab_store):
    # Stop-word questions produce the zero centroid that retrieval maps
    # to an empty result.
    text = tokenize("of the and", {"of", "the", "and"})
    assert centroid_simple(text, ab_store).is_zero


class TestBruteCentroidOracle:
    """Both centroid modes and the rows of build_corpus_index against the
    formula of the centroids module docstring, evaluated in Python floats."""

    def case(self, seed):
        # Row order is a permutation of the vocab dict's order, a third of
        # the vocabulary is missing from the IDF table, some IDFs are 0,
        # and the table also scores out-of-vocabulary tokens.
        rng = np.random.default_rng(seed)
        n_words, dim, n_docs = 30, 5, int(rng.integers(0, 9))
        words = [f"w{i}" for i in range(n_words)]
        rows = rng.permutation(n_words)
        matrix = rng.normal(size=(n_words, dim)).astype(np.float32)
        vocab = {w: int(r) for w, r in zip(words, rows)}
        idf = {w: float(v) for w, v in zip(words, rng.uniform(0.0, 3.0, n_words))
               if rng.random() > 0.33}
        zeros = [str(w) for w in rng.choice(words, size=4, replace=False)]
        idf.update(dict.fromkeys(zeros, 0.0))
        idf.update({"oov1": 2.5, "oov2": 0.5})
        store = EmbeddingStore(vocab, matrix)
        store.set_idf(idf, n_docs)
        vectors = {w: matrix[vocab[w]].tolist() for w in words}
        pool = words + ["oov1", "oov2", "oov3"]
        texts = [rng.choice(pool, size=rng.integers(1, 30)).tolist() for _ in range(40)]
        texts += [["oov1", "oov3", "oov3"], ["oov2"], zeros + ["oov1"]]
        return store, vectors, idf, n_docs, texts

    @pytest.mark.parametrize("seed", range(5))
    def test_modes_match_oracle(self, seed):
        store, vectors, idf, n_docs, texts = self.case(seed)
        for tokens in texts:
            for fn, table in ((centroid_simple, None), (centroid_idf, idf)):
                cent = fn(tokens, store)
                want, known = brute_centroid(tokens, vectors, table, n_docs)
                np.testing.assert_allclose(cent.vec, want, rtol=0, atol=1e-12)
                assert cent.n_known_tokens == known
                assert cent.norm == pytest.approx(math.hypot(*want), rel=1e-12, abs=1e-300)
                assert cent.is_zero == (known == 0)

    def test_all_oov_is_zero_centroid(self):
        store, vectors, idf, n_docs, _ = self.case(0)
        for fn in (centroid_simple, centroid_idf):
            cent = fn(["oov1", "oov3"], store)
            assert cent.is_zero and cent.n_known_tokens == 0
            assert np.array_equal(cent.vec, np.zeros(store.dim))

    def test_unseen_vocab_token_gets_log_n_docs(self):
        store = EmbeddingStore({"b": 1, "a": 0}, np.eye(2, dtype=np.float32))
        store.set_idf({"a": 0.5}, 7)
        assert store.idf_rows.tolist() == [0.5, math.log(7)]
        cent = centroid_idf(["a", "b"], store)
        np.testing.assert_allclose(cent.vec, [0.5 / (0.5 + math.log(7)),
                                              math.log(7) / (0.5 + math.log(7))],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["cent", "centidf"])
    def test_corpus_index_rows_match_oracle(self, seed, mode):
        store, vectors, idf, n_docs, texts = self.case(seed)
        records = [DocumentRecord(f"d{i}", "", " ".join(tokens))
                   for i, tokens in enumerate(texts)]
        index = build_corpus_index(records, store, mode=mode, stopwords=frozenset())
        table = idf if mode == "centidf" else None
        want = [brute_centroid(tokens, vectors, table, n_docs)[0] for tokens in texts]
        expected = CentroidIndex.from_matrix([r.id for r in records], np.array(want), mode=mode)
        assert index.mode == mode
        assert index.doc_ids.tolist() == expected.doc_ids.tolist()
        np.testing.assert_allclose(index.unit_matrix, expected.unit_matrix, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["cent", "centidf"])
    def test_corpus_rows_equal_per_text_centroids(self, seed, mode):
        # The corpus adds an empty text and an all-stop-word text to the
        # all-out-of-vocabulary and zero-IDF texts of the case.
        store, vectors, idf, n_docs, texts = self.case(seed)
        stop = frozenset({"w0", "w1"})
        texts = texts + [[], ["w0", "w1", "w0"]]
        kept = [[t for t in tokens if t not in stop] for tokens in texts]
        fn, table = (centroid_idf, idf) if mode == "centidf" else (centroid_simple, None)
        per_text = np.array([fn(tokens, store).vec for tokens in kept])
        want = [brute_centroid(tokens, vectors, table, n_docs)[0] for tokens in kept]

        idf_rows = store.idf_rows if mode == "centidf" else None
        matrix = centroid_matrix(*stacked_rows(store, kept), store, idf_rows)
        assert matrix.tobytes() == per_text.astype(np.float32).tobytes()
        exact = centroid_matrix(*stacked_rows(store, kept), store, idf_rows, dtype=np.float64)
        assert exact.tobytes() == per_text.tobytes()
        np.testing.assert_allclose(per_text, want, rtol=0, atol=1e-12)

        records = [DocumentRecord(f"d{i}", "", " ".join(tokens))
                   for i, tokens in enumerate(texts)]
        index = build_corpus_index(records, store, mode=mode, stopwords=stop)
        rows, bounds = stacked_rows(store, kept)
        assert index.rows.tolist() == rows.tolist() and index.bounds.tolist() == bounds.tolist()
        assert (index.vocab_size, index.fingerprint) == (
            len(store), store.fingerprint(idf_rows))
        ids = [r.id for r in records]
        expected = CentroidIndex.from_matrix(ids, per_text, mode=mode)
        assert index.unit_matrix.tobytes() == expected.unit_matrix.tobytes()
        np.testing.assert_allclose(
            index.unit_matrix, CentroidIndex.from_matrix(ids, np.array(want)).unit_matrix,
            rtol=0, atol=1e-12)
