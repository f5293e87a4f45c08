"""Acceptance suite: one test per release criterion, each printed as a
pass/fail line with its elapsed time and checked against its runtime
budget.  Expected values are frozen from the independent brute-force
oracles in ``oracles.py`` or derived by hand; the two heavyweight ANN
checks are marked ``slow``.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from centroid_ir import (CentroidIndex, DocumentRecord, RankedRun,
                         TokenizedText, centroid_idf, centroid_simple,
                         evaluate, hybrid, load_index, rerank, save_index)
from centroid_ir.cli import main
from centroid_ir.rwmd import EmbeddedText, rwmd_d, rwmd_max, rwmd_q
from stores import make_store, random_store
from oracles import brute_average_precision, brute_ip_curve, brute_ndcg


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f} s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name} took {elapsed:.1f} s, budget {budget_s} s"
    print(f"[acceptance] {name}: PASS ({elapsed:.1f} s)")


# -- 1. metric oracle ---------------------------------------------------------

def test_metric_oracle():
    with criterion("metric oracle", budget_s=1.0):
        ranking, rel = ["d1", "d2", "d3"], {"d1", "d3"}
        run = RankedRun(tag="hand", per_question={
            "q1": [(d, 1.0 / (i + 1)) for i, d in enumerate(ranking)]})
        report = evaluate(run, {"q1": rel}, k_list=(3,))

        ap_oracle = brute_average_precision(ranking, rel)          # 0.83333...
        aip_oracle = float(np.mean(brute_ip_curve(ranking, rel)))  # 0.84848...
        ndcg_oracle = brute_ndcg(ranking, rel, 3)                  # 0.91972...
        assert ap_oracle == pytest.approx(0.83333, abs=1e-5)
        assert aip_oracle == pytest.approx(0.84848, abs=1e-5)
        assert ndcg_oracle == pytest.approx(0.9197207891, abs=1e-9)
        assert report.map == pytest.approx(ap_oracle, abs=1e-5)
        assert report.maip == pytest.approx(aip_oracle, abs=1e-5)
        assert report.mean_ndcg[3] == pytest.approx(ndcg_oracle, abs=1e-5)

        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            docs = [f"d{i}" for i in range(n)]
            ranking = list(rng.permutation(docs)[: rng.integers(0, n + 1)])
            rel = set(rng.choice(docs, size=rng.integers(1, n + 1), replace=False))
            run = RankedRun(tag="r", per_question={
                "q": [(d, float(n - i)) for i, d in enumerate(ranking)]})
            report = evaluate(run, {"q": rel}, k_list=(1, 5, 10))
            scores = report.per_question["q"]
            assert scores.ap == pytest.approx(
                brute_average_precision(ranking, rel), abs=1e-9)
            assert np.allclose(scores.ip_curve, brute_ip_curve(ranking, rel),
                               atol=1e-9)
            for k in (1, 5, 10):
                assert scores.ndcg[k] == pytest.approx(
                    brute_ndcg(ranking, rel, k), abs=1e-9)


# -- 2. IDF-weighted centroid formula ----------------------------------------

def test_weighted_centroid_formula():
    with criterion("IDF-weighted centroid", budget_s=1.0):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]},
                           idf={"a": 1.0, "b": 2.0})
        cent = centroid_idf(TokenizedText.from_tokens(["a", "a", "b"]), store)
        assert np.all(np.abs(cent.vec - np.array([0.5, 0.5])) < 1e-12)

        rng = np.random.default_rng(102)
        store = random_store(rng, 60, 12)
        words = list(store.vocab)
        texts = [TokenizedText.from_tokens(
            rng.choice(words, size=rng.integers(1, 30)).tolist())
            for _ in range(100)]
        for constant in (1.0, 0.37, 2.5):
            store.set_idf({w: constant for w in words}, n_docs=5)
            for text in texts:
                simple = centroid_simple(text, store)
                weighted = centroid_idf(text, store)
                if constant == 1.0:
                    assert np.array_equal(weighted.vec, simple.vec)
                else:
                    assert np.allclose(weighted.vec, simple.vec,
                                       rtol=1e-12, atol=1e-12)


# -- 3. ANN fidelity ----------------------------------------------------------

@pytest.mark.slow
def test_ann_fidelity():
    with criterion("ANN fidelity (50k docs, 100 trees)", budget_s=300.0):
        rng = np.random.default_rng(103)
        n, dim, k, n_trees = 50_000, 50, 100, 100
        vectors = rng.standard_normal((n, dim), dtype=np.float32)
        ids = np.char.add("d", np.arange(n).astype("U6"))
        index = CentroidIndex.from_matrix(ids, vectors)
        index.build_forest(n_trees=n_trees, leaf_cap=32, seed=211)
        search_k = 10 * n_trees * k

        recalls = []
        for _ in range(200):
            q = rng.standard_normal(dim, dtype=np.float32)
            exact = {doc for doc, _ in index.exact_topk(q, k)}
            approx = {doc for doc, _ in index.ann_topk(q, k, search_k=search_k)}
            recalls.append(len(exact & approx) / k)
        mean_recall = float(np.mean(recalls))
        print(f"[acceptance]   mean recall@{k} at search_k={search_k}: {mean_recall:.4f}")
        assert mean_recall >= 0.95


# -- 4. ANN speedup -----------------------------------------------------------

@pytest.mark.slow
def test_ann_speedup():
    with criterion("ANN speedup (6M docs, k=1000)", budget_s=900.0):
        rng = np.random.default_rng(104)
        n, dim, k = 6_000_000, 64, 1000
        vectors = rng.standard_normal((n, dim), dtype=np.float32)
        ids = np.char.add("d", np.arange(n).astype("U8"))
        index = CentroidIndex.from_matrix(ids, vectors)
        del vectors
        index.build_forest(n_trees=8, leaf_cap=1024, seed=212)
        search_k = 8000

        queries = rng.standard_normal((24, dim), dtype=np.float32)
        for q in queries[:4]:  # warm caches and lazy buffers
            index.exact_topk(q, k)
            index.ann_topk(q, k, search_k=search_k)

        # Interleave the two paths so machine noise lands on both alike.
        t_exact = t_ann = 0.0
        overlaps = []
        for q in queries:
            start = time.perf_counter()
            exact_hits = index.exact_topk(q, k)
            t_exact += time.perf_counter() - start
            start = time.perf_counter()
            ann_hits = index.ann_topk(q, k, search_k=search_k)
            t_ann += time.perf_counter() - start
            overlaps.append(
                len({d for d, _ in exact_hits} & {d for d, _ in ann_hits}) / k)
        t_exact /= len(queries)
        t_ann /= len(queries)

        print(f"[acceptance]   exact {t_exact * 1000:.1f} ms/q, "
              f"ann {t_ann * 1000:.2f} ms/q, "
              f"ratio {t_exact / t_ann:.1f}x "
              f"(candidate recall {np.mean(overlaps):.2f})")
        assert t_ann <= t_exact / 20.0


# -- 5. relaxed WMD invariants -------------------------------------------------

def test_rwmd_invariants():
    with criterion("relaxed WMD invariants", budget_s=60.0):
        rng = np.random.default_rng(105)

        def sample(dim, lo=1, hi=10, offset=0):
            size = int(rng.integers(lo, hi))
            rows = [offset + 5 * i + int(rng.integers(0, 5)) for i in range(size)]
            return EmbeddedText(rows=rows, matrix=rng.normal(size=(size, dim)))

        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            q, d = sample(dim), sample(dim)
            assert rwmd_q(q, q) == 0.0
            assert rwmd_d(d, d) == 0.0
            extra = sample(dim, offset=1000)
            grown = EmbeddedText(rows=np.concatenate([d.rows, extra.rows]),
                                 matrix=np.vstack([d.matrix, extra.matrix]))
            assert rwmd_q(q, grown) <= rwmd_q(q, d) + 1e-9
            shift = rng.normal(size=dim)
            q_shift = EmbeddedText(q.rows, q.matrix + shift)
            d_shift = EmbeddedText(d.rows, d.matrix + shift)
            assert abs(rwmd_q(q_shift, d_shift) - rwmd_q(q, d)) < 1e-9
            assert abs(rwmd_d(q_shift, d_shift) - rwmd_d(q, d)) < 1e-9
            assert rwmd_max(q, d) == max(rwmd_q(q, d), rwmd_d(q, d))


# -- 6. rerank permutation and hybrid algebra ---------------------------------

def test_rerank_permutation_and_hybrid_algebra():
    with criterion("rerank permutation + hybrid algebra", budget_s=60.0):
        rng = np.random.default_rng(106)
        store = random_store(rng, 80, 8)
        words = list(store.vocab)
        documents = {}
        for i in range(60):
            body = " ".join(rng.choice(words, size=rng.integers(1, 15)))
            documents[f"d{i:02d}"] = DocumentRecord(id=f"d{i:02d}", title="", abstract=body)

        for trial in range(20):
            questions = {}
            per_question = {}
            for qi in range(8):
                qid = f"q{qi}"
                questions[qid] = " ".join(rng.choice(words, size=4))
                picks = rng.choice(60, size=rng.integers(0, 15), replace=False)
                per_question[qid] = [(f"d{p:02d}", float(rng.normal())) for p in picks]
            run = RankedRun(tag="base", per_question=per_question)
            for method in ("rwmd_q", "rwmd_d", "rwmd_max"):
                out = rerank(run, questions, documents, store, method=method)
                for qid, entries in per_question.items():
                    assert sorted(d for d, _ in out[qid]) == sorted(d for d, _ in entries)

        def random_run():
            per_question = {}
            for qi in range(10):
                n_docs = int(rng.integers(0, 8))
                picks = rng.choice(60, size=n_docs, replace=False)
                per_question[f"q{qi}"] = [(f"d{p:02d}", float(rng.normal()))
                                          for p in picks]
            return RankedRun(tag="r", per_question=per_question)

        for trial in range(50):
            x, y = random_run(), random_run()
            assert hybrid(x, x).per_question == x.per_question
            empty = RankedRun(per_question={qid: [] for qid in y.per_question})
            assert hybrid(empty, y).per_question == y.per_question
            combined = hybrid(x, y)
            for qid, entries in combined.per_question.items():
                from_x = entries == x.per_question.get(qid)
                from_y = entries == y.per_question.get(qid, [])
                assert from_x or from_y


# -- 7. end-to-end determinism -------------------------------------------------

def _synthetic_workspace(root, rng):
    words = [f"term{i}" for i in range(400)]
    dim = 16
    emb_lines = [f"{len(words)} {dim}"]
    for word in words:
        comps = " ".join(f"{v:.6f}" for v in rng.normal(size=dim))
        emb_lines.append(f"{word} {comps}")
    (root / "vectors.txt").write_text("\n".join(emb_lines) + "\n")

    with open(root / "corpus.jsonl", "w") as fh:
        for i in range(1000):
            body = " ".join(rng.choice(words, size=rng.integers(5, 40)))
            fh.write(json.dumps({"id": f"d{i:04d}", "title": f"title {i}",
                                 "abstract": body}) + "\n")
    with open(root / "questions.jsonl", "w") as fh:
        for i in range(20):
            text = " ".join(rng.choice(words, size=rng.integers(2, 6)))
            fh.write(json.dumps({"id": f"q{i:02d}", "text": text}) + "\n")
    with open(root / "qrels.txt", "w") as fh:
        for i in range(20):
            for doc in rng.choice(1000, size=5, replace=False):
                fh.write(f"q{i:02d} 0 d{doc:04d} 1\n")


def _pipeline(root):
    index = root / "index.crvi"
    run = root / "run.txt"
    reranked = root / "reranked.txt"
    report = root / "report.json"
    for argv in (
        ["build-index", "--embeddings", str(root / "vectors.txt"),
         "--corpus", str(root / "corpus.jsonl"), "--out", str(index),
         "--mode", "centidf", "--engine", "ann", "--trees", "8",
         "--leaf-cap", "16", "--seed", "424242", "--compute-idf"],
        ["search", "--index", str(index),
         "--embeddings", str(root / "vectors.txt"),
         "--questions", str(root / "questions.jsonl"),
         "--out", str(run), "--k", "100"],
        ["rerank", "--run", str(run),
         "--questions", str(root / "questions.jsonl"),
         "--corpus", str(root / "corpus.jsonl"),
         "--embeddings", str(root / "vectors.txt"),
         "--out", str(reranked), "--method", "rwmd_q"],
        ["evaluate", "--run", str(reranked), "--qrels", str(root / "qrels.txt"),
         "--ndcg-k", "20,100", "--json", str(report)],
    ):
        assert main(argv) == 0
    return [(index).read_bytes(), run.read_bytes(), reranked.read_bytes(),
            report.read_bytes()]


def test_end_to_end_determinism(tmp_path):
    with criterion("end-to-end determinism (1k docs)", budget_s=120.0):
        for side in ("one", "two"):
            root = tmp_path / side
            root.mkdir()
            _synthetic_workspace(root, np.random.default_rng(107))
        first = _pipeline(tmp_path / "one")
        second = _pipeline(tmp_path / "two")
        names = ["index", "run", "reranked run", "report"]
        for name, a, b in zip(names, first, second):
            assert a == b, f"{name} differs between identical invocations"


# -- 8. index persistence -------------------------------------------------------

def test_index_persistence(tmp_path):
    with criterion("index persistence (10k docs, 10 trees)", budget_s=60.0):
        rng = np.random.default_rng(108)
        n, dim = 10_000, 20
        vectors = rng.standard_normal((n, dim), dtype=np.float32)
        ids = np.char.add("d", np.arange(n).astype("U6"))
        index = CentroidIndex.from_matrix(ids, vectors)
        index.build_forest(n_trees=10, leaf_cap=32, seed=213)
        path = tmp_path / "big.crvi"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.structural_eq(index)
        for tree_a, tree_b in zip(loaded.forest, index.forest):
            assert tree_a.equals(tree_b)
        q = rng.standard_normal(dim)
        assert loaded.ann_topk(q, 10) == index.ann_topk(q, 10)
