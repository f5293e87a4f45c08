import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from centroid_ir import (CentroidIndex, ConfigMismatch, DocumentRecord,
                         DuplicateId, EmbeddingStore, Question, RankedRun,
                         StateError, UnknownIds, build_corpus_index,
                         centroid_idf, centroid_simple, embed_text, hybrid,
                         rerank, retrieve, tokenize)
from centroid_ir.index import _SCAN_RATIO
from centroid_ir.rwmd import SCORERS
from centroid_ir.text import words
from oracles import brute_rwmd_many
from stores import make_store, random_store

STOP = frozenset({"the", "of", "and"})


@pytest.fixture
def toy():
    store = make_store({
        "alpha": [1.0, 0.0],
        "beta": [0.0, 1.0],
        "gamma": [0.7, 0.7],
    })
    store.set_idf({"alpha": 1.0, "beta": 1.0, "gamma": 0.5}, n_docs=2)
    docs = {
        "da": DocumentRecord(id="da", title="alpha notes", abstract="alpha alpha"),
        "db": DocumentRecord(id="db", title="beta overview", abstract="beta beta"),
    }
    index = build_corpus_index(docs.values(), store, mode="cent", stopwords=STOP)
    return store, docs, index


class TestRetrieve:
    def test_shared_token_ranks_first(self, toy):
        store, docs, index = toy
        run = retrieve([Question("q1", "alpha research")], index, store,
                       mode="cent", engine="exact", k=10, stopwords=STOP)
        hits = run["q1"]
        assert [doc for doc, _ in hits] == ["da", "db"]
        assert hits[0][1] > hits[1][1]

    def test_stopword_question_empty(self, toy):
        store, docs, index = toy
        run = retrieve([Question("q1", "the of and")], index, store,
                       mode="cent", engine="exact", stopwords=STOP)
        assert run["q1"] == []

    def test_ann_with_full_budget_matches_exact(self, toy):
        store, docs, index = toy
        index.build_forest(n_trees=3, leaf_cap=4, seed=1)
        questions = [Question("q1", "alpha beta"), Question("q2", "gamma")]
        exact = retrieve(questions, index, store, mode="cent", engine="exact",
                         stopwords=STOP)
        approx = retrieve(questions, index, store, mode="cent", engine="ann",
                          search_k=10, stopwords=STOP)
        assert approx.per_question == exact.per_question

    def test_mode_mismatch_rejected(self, toy):
        store, docs, index = toy
        with pytest.raises(ConfigMismatch):
            retrieve([Question("q1", "alpha")], index, store, mode="centidf",
                     stopwords=STOP)

    def test_centidf_needs_idf(self, toy):
        store, docs, _ = toy
        bare = make_store({"alpha": [1.0, 0.0]})
        index = build_corpus_index(
            docs.values(), store, mode="centidf", stopwords=STOP)
        with pytest.raises(StateError):
            retrieve([Question("q1", "alpha")], index, bare, mode="centidf",
                     stopwords=STOP)
        assert "_digest" not in vars(bare)  # raised before hashing the store

    def test_duplicate_qids_rejected(self, toy):
        store, docs, index = toy
        with pytest.raises(DuplicateId):
            retrieve([Question("q1", "alpha"), Question("q1", "beta")],
                     index, store, mode="cent", stopwords=STOP)

    def test_tag_encodes_mode_engine(self, toy):
        store, docs, index = toy
        run = retrieve([Question("q1", "alpha")], index, store, mode="cent",
                       engine="exact", stopwords=STOP)
        assert run.tag == "cent-exact"

    def test_k_limits_results(self, toy):
        store, docs, index = toy
        run = retrieve([Question("q1", "alpha beta")], index, store,
                       mode="cent", engine="exact", k=1, stopwords=STOP)
        assert len(run["q1"]) == 1

    def test_threads_match_serial(self, toy):
        store, docs, index = toy
        questions = [Question(f"q{i}", text) for i, text in
                     enumerate(["alpha", "beta", "gamma", "alpha beta"])]
        serial = retrieve(questions, index, store, mode="cent", stopwords=STOP)
        threaded = retrieve(questions, index, store, mode="cent",
                            stopwords=STOP, threads=4)
        assert serial.per_question == threaded.per_question

    def test_ann_threads_match_serial(self):
        # Each calling thread dedups the walk's candidates in its own mask;
        # the trees' list views are built on first use, and a fresh index
        # makes the threads race for them.  A budget of 30 takes the walk
        # (6 trees x 400 rows > 64 x 30); 200 falls under the scan rule.
        rng = np.random.default_rng(81)
        store = random_store(rng, 60, 6)
        words = list(store.vocab)
        docs = [DocumentRecord(id=f"d{i:03d}", title="",
                               abstract=" ".join(rng.choice(words, size=8)))
                for i in range(400)]
        questions = [Question(f"q{i:02d}", " ".join(rng.choice(words, size=4)))
                     for i in range(160)]

        def fresh_index():
            index = build_corpus_index(docs, store, mode="cent", stopwords=STOP)
            return index.build_forest(n_trees=6, leaf_cap=8, seed=3)

        centroids = [centroid_simple(tokenize(q.text, STOP), store) for q in questions]
        index = fresh_index()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(
                    lambda c: [index.ann_topk(c, 10, search_k=b) for b in (200, 30)],
                    centroids))
        finally:
            sys.setswitchinterval(interval)
        assert index.n_trees * index.n_docs > _SCAN_RATIO * 30
        assert index.n_trees * index.n_docs <= _SCAN_RATIO * 200
        serial_index = fresh_index()
        assert threaded == [[serial_index.ann_topk(c, 10, search_k=b) for b in (200, 30)]
                            for c in centroids]
        assert all(len(hits) == 10 for both in threaded for hits in both)

    @pytest.mark.parametrize("k, search_k", [(0, None), (-1, None), (5, 0), (5, -3)])
    def test_budgets_below_one_rejected(self, toy, k, search_k):
        store, docs, index = toy
        with pytest.raises(ValueError, match="k must be at least 1"):
            retrieve([Question("q1", "alpha")], index, store, mode="cent",
                     engine="ann", k=k, search_k=search_k, stopwords=STOP)


    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected_before_work(self, toy, threads):
        store, docs, index = toy

        def questions():
            raise AssertionError("questions were read")
            yield

        with pytest.raises(ValueError, match="threads must be at least 1"):
            retrieve(questions(), index, store, mode="cent", stopwords=STOP,
                     threads=threads)


class TestRerank:
    def test_moves_matching_doc_first(self, toy):
        store, docs, _ = toy
        run = RankedRun(tag="x", per_question={"q1": [("db", 0.9), ("da", 0.8)]})
        out = rerank(run, {"q1": "alpha"}, docs, store, method="rwmd_q",
                     stopwords=STOP)
        assert [doc for doc, _ in out["q1"]] == ["da", "db"]
        assert out["q1"][0][1] == 0.0  # rwmd_q distance, not similarity

    def test_single_doc_unchanged(self, toy):
        store, docs, _ = toy
        run = RankedRun(tag="x", per_question={"q1": [("db", 0.9)]})
        out = rerank(run, {"q1": "alpha"}, docs, store, stopwords=STOP)
        assert [doc for doc, _ in out["q1"]] == ["db"]

    def test_empty_list_passes_through(self, toy):
        store, docs, _ = toy
        run = RankedRun(tag="x", per_question={"q1": []})
        out = rerank(run, {}, docs, store, stopwords=STOP)
        assert out["q1"] == []

    def test_multiset_preserved(self, toy):
        store, docs, _ = toy
        rng = np.random.default_rng(61)
        rstore = random_store(rng, 50, 6)
        rdocs = {}
        words = list(rstore.vocab)
        for i in range(30):
            body = " ".join(rng.choice(words, size=rng.integers(1, 12)))
            rdocs[f"d{i:02d}"] = DocumentRecord(id=f"d{i:02d}", title="", abstract=body)
        questions = {}
        per_question = {}
        for qi in range(10):
            qid = f"q{qi}"
            questions[qid] = " ".join(rng.choice(words, size=3))
            picks = rng.choice(30, size=rng.integers(1, 10), replace=False)
            per_question[qid] = [(f"d{p:02d}", float(rng.normal())) for p in picks]
        run = RankedRun(tag="rand", per_question=per_question)
        for method in ("rwmd_q", "rwmd_d", "rwmd_max"):
            out = rerank(run, questions, rdocs, rstore, method=method, stopwords=STOP)
            for qid in per_question:
                assert sorted(d for d, _ in out[qid]) == sorted(d for d, _ in per_question[qid])

    def test_duplicate_qids_rejected(self, toy):
        store, docs, _ = toy
        run = RankedRun(tag="x", per_question={"q1": [("db", 0.9), ("da", 0.8)]})
        with pytest.raises(DuplicateId, match="q1"):
            rerank(run, [Question("q1", "alpha"), Question("q1", "beta")], docs, store,
                   stopwords=STOP)

    def test_oov_document_sinks_to_bottom(self, toy):
        store, docs, _ = toy
        all_docs = dict(docs)
        all_docs["dx"] = DocumentRecord(id="dx", title="zzz", abstract="qqq www")
        run = RankedRun(tag="x", per_question={"q1": [("dx", 0.99), ("da", 0.1)]})
        out = rerank(run, {"q1": "alpha"}, all_docs, store, stopwords=STOP)
        assert [doc for doc, _ in out["q1"]] == ["da", "dx"]
        assert out["q1"][1][1] == float("inf")

    def test_unresolvable_doc_listed(self, toy):
        store, docs, _ = toy
        run = RankedRun(tag="x", per_question={"q1": [("ghost", 1.0), ("da", 0.5)]})
        with pytest.raises(UnknownIds) as info:
            rerank(run, {"q1": "alpha"}, docs, store, stopwords=STOP)
        assert "ghost" in str(info.value)

    def test_missing_question_listed(self, toy):
        store, docs, _ = toy
        run = RankedRun(tag="x", per_question={"q9": [("da", 0.5)]})
        with pytest.raises(UnknownIds):
            rerank(run, {"q1": "alpha"}, docs, store, stopwords=STOP)

    def test_depth_limits_reranking(self, toy):
        store, docs, _ = toy
        all_docs = dict(docs)
        all_docs["dc"] = DocumentRecord(id="dc", title="alpha", abstract="alpha")
        run = RankedRun(tag="x", per_question={
            "q1": [("db", 0.9), ("da", 0.8), ("dc", 0.7)]})
        out = rerank(run, {"q1": "alpha"}, all_docs, store, method="rwmd_q",
                     stopwords=STOP, depth=2)
        # Only the top-2 get reordered; dc stays last despite matching.
        assert [doc for doc, _ in out["q1"]] == ["da", "db", "dc"]

    def test_tag_suffix(self, toy):
        store, docs, _ = toy
        run = RankedRun(tag="centidf-ann", per_question={"q1": [("da", 1.0)]})
        out = rerank(run, {"q1": "alpha"}, docs, store, method="rwmd_q",
                     stopwords=STOP)
        assert out.tag == "centidf-ann-rwmdq"

    def test_question_objects_accepted(self, toy):
        store, docs, _ = toy
        run = RankedRun(tag="x", per_question={"q1": [("da", 1.0)]})
        out = rerank(run, [Question("q1", "alpha")], docs, store, stopwords=STOP)
        assert out["q1"] == [("da", 0.0)]

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, toy, depth):
        store, docs, _ = toy
        run = RankedRun(tag="x", per_question={"q1": [("db", 0.9), ("da", 0.8)]})
        with pytest.raises(ValueError, match="depth"):
            rerank(run, {"q1": "alpha"}, docs, store, stopwords=STOP, depth=depth)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected_before_work(self, toy, threads):
        store, docs, index = toy
        # The run names a document the corpus lacks: any work would raise UnknownIds.
        run = RankedRun(tag="x", per_question={"q1": [("missing", 1.0)]})
        with pytest.raises(ValueError, match="threads must be at least 1"):
            rerank(run, {"q1": "alpha"}, docs, store, stopwords=STOP, threads=threads)


class TestRerankMatchesPairwise:
    """Every rerank distance against the per-pair scorer on the same texts."""

    permuted_rows = False

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(73)
        store = random_store(rng, 40, 5)
        if self.permuted_rows:
            perm = np.random.default_rng(74).permutation(len(store))
            store = EmbeddingStore({w: int(r) for w, r in zip(store.vocab, perm)},
                                   store.matrix)
        words = list(store.vocab)
        docs = {}
        for i in range(24):
            body = " ".join(rng.choice(words, size=rng.integers(1, 9)))
            docs[f"d{i:02d}"] = DocumentRecord(id=f"d{i:02d}", title="", abstract=body)
        docs["d05"] = DocumentRecord(id="d05", title="", abstract="w5 w9 w9")
        docs["d12"] = DocumentRecord(id="d12", title="zzz", abstract="the qqq")  # all OOV
        questions = {f"r{i}": " ".join(rng.choice(words, size=rng.integers(1, 6)))
                     for i in range(6)}
        questions.update({"stop": "the of and", "dup": "w1 w1 w2 w1", "shared": "w9 w5 w9"})
        per_question = {}
        for qid in questions:
            order = [d for d in rng.permutation(sorted(docs)) if d != "d12"]
            order.insert(11, "d12")  # an empty segment in the middle of the batch
            per_question[qid] = [(d, float(rng.normal())) for d in order]
        return store, docs, questions, RankedRun(tag="r", per_question=per_question)

    @pytest.mark.parametrize("depth", [None, 7, 12])
    @pytest.mark.parametrize("method", sorted(SCORERS))
    def test_distances_and_order(self, case, method, depth):
        store, docs, questions, run = case
        out = rerank(run, questions, docs, store, method=method, stopwords=STOP, depth=depth)
        for qid, entries in run.per_question.items():
            cut = len(entries) if depth is None else depth
            head, got = entries[:cut], out[qid][:cut]
            assert out[qid][cut:] == entries[cut:]
            assert sorted(d for d, _ in got) == sorted(d for d, _ in head)
            assert got == sorted(got, key=lambda e: (e[1], e[0]))
            q = embed_text(tokenize(questions[qid], STOP), store)
            for doc_id, dist in got:
                want = SCORERS[method](q, embed_text(tokenize(docs[doc_id].text, STOP), store))
                assert dist == pytest.approx(want, rel=1e-12, abs=0.0), (qid, doc_id)

    def test_edge_cases(self, case):
        store, docs, questions, run = case
        out = rerank(run, questions, docs, store, method="rwmd_q", stopwords=STOP)
        # All stop words: every distance is 0 and the order is by id.
        assert out["stop"] == [(d, 0.0) for d in sorted(docs)]
        # The all-OOV document is at +inf behind everything else.
        assert out["dup"][-1] == ("d12", float("inf"))
        # Every question token is in d05: exactly 0, not rounding noise.
        assert out["shared"][0] == ("d05", 0.0)

    def test_equal_token_sets_tie_by_id(self):
        rng = np.random.default_rng(79)
        store = random_store(rng, 30, 6)
        docs = {
            "d3": DocumentRecord(id="d3", title="", abstract="w4 w8 w8 w15 zzz"),
            "d1": DocumentRecord(id="d1", title="", abstract="w15 w4 w8"),
            "d2": DocumentRecord(id="d2", title="", abstract="qqq w8 w4 w15 w4"),
        }
        run = RankedRun(tag="t", per_question={"q": [("d3", 3.0), ("d2", 2.0), ("d1", 1.0)]})
        out = rerank(run, {"q": "w0 w1 w2 w3 w5 w6 w7 w9 w10 w11"}, docs, store,
                     stopwords=STOP)
        assert [d for d, _ in out["q"]] == ["d1", "d2", "d3"]
        assert out["q"][0][1] == out["q"][1][1] == out["q"][2][1]

    def test_threads_match_serial(self, case):
        store, docs, questions, run = case
        for method in sorted(SCORERS):
            serial = rerank(run, questions, docs, store, method=method, stopwords=STOP)
            threaded = rerank(run, questions, docs, store, method=method,
                              stopwords=STOP, threads=4)
            assert threaded.per_question == serial.per_question


class TestRerankMatchesPairwisePermutedRows(TestRerankMatchesPairwise):
    """The same checks on a store whose row order is a permutation of its
    vocab dict's order."""

    permuted_rows = True


def corpus_case(seed: int):
    """A random store and corpus with the awkward documents and questions.

    The corpus holds an empty document, an all-OOV one, an all-stop-word
    one and one of repeated tokens; the questions hold an empty text, an
    all-stop-word one, an all-OOV one and repeated tokens.
    """
    rng = np.random.default_rng(seed)
    store = random_store(rng, 40, 7)
    idf = {w: float(v) for w, v in zip(store.vocab, rng.uniform(0, 3, 40))}
    store.set_idf({**idf, "w3": 0.0}, 50)
    words = list(store.vocab) + ["oov1", "oov2"]
    docs = {f"d{i:03d}": DocumentRecord(f"d{i:03d}", "", " ".join(
        rng.choice(words, size=rng.integers(1, 12)))) for i in range(120)}
    docs["d005"] = DocumentRecord("d005", "", "")
    docs["d006"] = DocumentRecord("d006", "oov1", "oov2 oov1")
    docs["d007"] = DocumentRecord("d007", "the", "of and")
    docs["d008"] = DocumentRecord("d008", "w4 w4", "w9 w4 w9")
    questions = [Question(f"q{i:02d}", " ".join(rng.choice(words, size=rng.integers(1, 6))))
                 for i in range(30)]
    questions += [Question("empty", ""), Question("stop", "the of and"),
                  Question("oov", "oov1 oov2"), Question("repeat", "w4 w9 w4 w4"),
                  Question("zero-idf", "w3 w3")]
    return store, docs, questions


class TestRerankFromIndex:
    """Reranking from index rows returns what reranking from records does."""

    @pytest.fixture(params=["cent", "centidf"])
    def case(self, request):
        store, docs, questions = corpus_case(91)
        index = build_corpus_index(docs.values(), store, mode=request.param, stopwords=STOP)
        rng = np.random.default_rng(92)
        ids = sorted(docs)
        per_question = {}
        for q in questions:
            picks = list(rng.choice(ids, size=12, replace=False))
            picks[3:3] = ["d005", "d006", "d007", "d008"]
            per_question[q.qid] = [(d, float(rng.normal())) for d in picks]
        per_question["q00"] = []  # a question with an empty list
        per_question["lonely"] = []  # ... not even among the questions
        return store, docs, questions, index, RankedRun(tag="r", per_question=per_question)

    @pytest.mark.parametrize("depth", [None, 3, 9, 100])
    @pytest.mark.parametrize("method", sorted(SCORERS))
    def test_equals_records_path(self, case, method, depth, monkeypatch):
        store, docs, questions, index, run = case
        from_index = rerank(run, questions, index, store, method=method, stopwords=STOP,
                            depth=depth)
        from_records = rerank(run, questions, docs, store, method=method, stopwords=STOP,
                              depth=depth)
        assert from_index.tag == from_records.tag
        assert from_index.per_question == from_records.per_question
        assert from_index["q00"] == from_index["lonely"] == []
        # ... and both equal the kernel the mask-based rwmd_many replaced.
        monkeypatch.setattr("centroid_ir.retrieval.rwmd_many", brute_rwmd_many)
        slow = rerank(run, questions, docs, store, method=method, stopwords=STOP, depth=depth)
        assert slow.per_question == from_records.per_question

    def test_reads_no_text(self, case, monkeypatch):
        store, docs, questions, index, run = case
        want = rerank(run, questions, docs, store, stopwords=STOP)
        texts = []
        monkeypatch.setattr("centroid_ir.embeddings.words",
                            lambda text: texts.append(text) or words(text))
        assert rerank(run, questions, index, store, stopwords=STOP).per_question == \
            want.per_question
        assert sorted(texts) == sorted(q.text for q in questions if run[q.qid])

    def test_unknown_doc_names_the_index(self, case):
        store, docs, questions, index, _ = case
        run = RankedRun(tag="x", per_question={"q01": [("ghost", 1.0), ("d001", 0.5)]})
        with pytest.raises(UnknownIds, match="index: ghost"):
            rerank(run, questions, index, store, stopwords=STOP)
        with pytest.raises(UnknownIds, match="corpus: ghost"):
            rerank(run, questions, docs, store, stopwords=STOP)

    def test_index_without_rows(self, case):
        store, docs, questions, index, run = case
        bare = CentroidIndex.from_matrix(index.doc_ids, index.unit_matrix, mode=index.mode)
        with pytest.raises(StateError, match="no document rows"):
            rerank(run, questions, bare, store, stopwords=STOP)

    def test_other_store_rejected(self, case):
        store, docs, questions, index, run = case
        other = EmbeddingStore(dict(store.vocab), store.matrix[::-1])
        other.set_idf(store.idf, store.n_docs)
        with pytest.raises(ConfigMismatch, match="differ"):
            rerank(run, questions, index, other, stopwords=STOP)


def per_question_loop(questions, index, store, mode, engine, k, search_k=None):
    """The one-question-at-a-time retrieval that batched ``retrieve`` replaced."""
    make = centroid_idf if mode == "centidf" else centroid_simple
    out = {}
    for q in questions:
        cent = make(tokenize(q.text, STOP), store)
        if cent.is_zero:
            out[q.qid] = []
        elif engine == "ann":
            out[q.qid] = index.ann_topk(cent, k, search_k=search_k)
        else:
            out[q.qid] = index.exact_topk(cent, k)
    return out


class TestBatchedRetrieve:
    @pytest.mark.parametrize("seed", [93, 94])
    @pytest.mark.parametrize("mode", ["cent", "centidf"])
    @pytest.mark.parametrize("engine, search_k", [("exact", None), ("ann", None),
                                                  ("ann", 40), ("ann", 7)])
    def test_equals_per_question_loop(self, seed, mode, engine, search_k):
        store, docs, questions = corpus_case(seed)
        index = build_corpus_index(docs.values(), store, mode=mode, stopwords=STOP)
        index.build_forest(n_trees=5, leaf_cap=6, seed=seed)
        run = retrieve(questions, index, store, mode=mode, engine=engine, k=10,
                       search_k=search_k, stopwords=STOP)
        want = per_question_loop(questions, index, store, mode, engine, 10, search_k)
        assert run.per_question == want
        assert list(run.per_question) == [q.qid for q in questions]
        for qid in ("empty", "stop", "oov"):
            assert run[qid] == []
        assert (run["zero-idf"] == []) == (mode == "centidf")

    def test_repeated_qid_anywhere(self):
        store, docs, questions = corpus_case(95)
        index = build_corpus_index(docs.values(), store, mode="cent", stopwords=STOP)
        with pytest.raises(DuplicateId, match="q03"):
            retrieve(questions + [Question("q03", "w1")], index, store, mode="cent",
                     stopwords=STOP)

    def test_no_questions(self):
        store, docs, _ = corpus_case(96)
        index = build_corpus_index(docs.values(), store, mode="centidf", stopwords=STOP)
        assert retrieve([], index, store, mode="centidf").per_question == {}

    @pytest.mark.parametrize("mode", ["cent", "centidf"])
    def test_other_store_rejected(self, mode):
        store, docs, questions = corpus_case(97)
        index = build_corpus_index(docs.values(), store, mode=mode, stopwords=STOP)
        swapped = store.matrix.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        other = EmbeddingStore(dict(store.vocab), swapped)
        other.set_idf(store.idf, store.n_docs)
        with pytest.raises(ConfigMismatch, match="differ"):
            retrieve(questions, index, other, mode=mode, stopwords=STOP)

    def test_other_idf_rejected_only_for_centidf(self):
        store, docs, questions = corpus_case(98)
        indexes = {mode: build_corpus_index(docs.values(), store, mode=mode, stopwords=STOP)
                   for mode in ("cent", "centidf")}
        store.set_idf({**store.idf, "w1": 9.0}, store.n_docs)
        retrieve(questions, indexes["cent"], store, mode="cent", stopwords=STOP)
        with pytest.raises(ConfigMismatch, match="differ"):
            retrieve(questions, indexes["centidf"], store, mode="centidf", stopwords=STOP)


class TestHybrid:
    def test_fallback_on_empty_primary(self):
        primary = RankedRun(tag="p", per_question={"q1": []})
        fallback = RankedRun(tag="f", per_question={"q1": [("d5", 1.0), ("d2", 0.5)]})
        out = hybrid(primary, fallback)
        assert out["q1"] == [("d5", 1.0), ("d2", 0.5)]
        assert out.tag == "hybrid"

    def test_primary_wins_when_non_empty(self):
        primary = RankedRun(tag="p", per_question={"q2": [("d1", 1.0)]})
        fallback = RankedRun(tag="f", per_question={"q2": [("d9", 9.0)]})
        assert hybrid(primary, fallback)["q2"] == [("d1", 1.0)]

    def test_both_empty(self):
        out = hybrid(RankedRun(per_question={"q1": []}),
                     RankedRun(per_question={"q1": []}))
        assert out["q1"] == []

    def test_idempotent_and_identity(self):
        x = RankedRun(tag="x", per_question={"q1": [("d1", 1.0)], "q2": []})
        y = RankedRun(tag="y", per_question={"q1": [("d2", 2.0)], "q2": [("d3", 1.0)]})
        assert hybrid(x, x).per_question == x.per_question
        empty = RankedRun(per_question={qid: [] for qid in y.per_question})
        assert hybrid(empty, y).per_question == y.per_question

    def test_union_of_qids(self):
        primary = RankedRun(tag="p", per_question={"q1": [("d1", 1.0)]})
        fallback = RankedRun(tag="f", per_question={"q2": [("d2", 1.0)]})
        out = hybrid(primary, fallback)
        assert set(out.per_question) == {"q1", "q2"}

    def test_never_mixes_within_question(self):
        rng = np.random.default_rng(62)
        docs = [f"d{i}" for i in range(20)]
        for _ in range(30):
            def random_run():
                per_question = {}
                for qid in ("q1", "q2", "q3"):
                    n = int(rng.integers(0, 6))
                    picks = rng.choice(docs, size=n, replace=False)
                    per_question[qid] = [(d, float(rng.normal())) for d in picks]
                return RankedRun(tag="r", per_question=per_question)
            a, b = random_run(), random_run()
            out = hybrid(a, b)
            for qid, entries in out.per_question.items():
                assert entries == a.per_question.get(qid) or \
                       entries == b.per_question.get(qid, [])


class TestBuildCorpusIndex:
    def test_mode_recorded(self, toy):
        store, docs, index = toy
        assert index.mode == "cent"

    def test_compute_idf_attaches_scores(self):
        store = make_store({"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
        docs = [
            DocumentRecord(id="d1", title="alpha", abstract="alpha beta"),
            DocumentRecord(id="d2", title="beta", abstract="beta"),
        ]
        index = build_corpus_index(docs, store, mode="centidf", stopwords=STOP,
                                   compute_idf=True)
        assert store.n_docs == 2
        assert store.idf["alpha"] > store.idf["beta"]
        assert index.mode == "centidf"

    def test_all_stopword_doc_gets_zero_row(self):
        store = make_store({"alpha": [1.0, 0.0]})
        docs = [
            DocumentRecord(id="d1", title="the of", abstract="and the"),
            DocumentRecord(id="d2", title="alpha", abstract=""),
        ]
        index = build_corpus_index(docs, store, mode="cent", stopwords=STOP)
        assert np.all(index.unit_matrix[0] == 0.0)
        assert np.allclose(index.unit_matrix[1], [1.0, 0.0])

    @pytest.mark.parametrize("abstract", ["alpha", ""])
    def test_centidf_without_idf(self, abstract):
        # A non-empty corpus needs IDF scores, even when its text is empty;
        # an empty corpus gives an empty index.
        store = make_store({"alpha": [1.0, 0.0]})
        docs = [DocumentRecord(id="d1", title="", abstract=abstract)]
        with pytest.raises(StateError):
            build_corpus_index(docs, store, mode="centidf", stopwords=STOP)
        index = build_corpus_index([], store, mode="centidf", stopwords=STOP)
        assert index.n_docs == 0
        assert index.unit_matrix.shape == (0, 2)
        # With no IDF weights to keep, it keeps no document rows either.
        assert index.rows is None and index.idf_rows is None

    def test_empty_corpus_keeps_store_dim(self):
        store = make_store({"alpha": [1.0, 0.0, 0.0]})
        index = build_corpus_index([], store, mode="cent", stopwords=STOP)
        assert index.n_docs == 0
        assert index.unit_matrix.shape == (0, 3)
