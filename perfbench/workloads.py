"""The two benchmark workloads.

Each workload generates its inputs from the seed once, then runs whole
passes: set-up, the query phase and scoring, exactly as a user would.
Every pass repeats the same work, so per-pass times can be compared and
their median reported; outputs must be identical across passes.

Only the public API is called: ``centroid_ir.*`` exports and
``centroid_ir.cli.main``.  Batch calls run at the CLI's default thread
count.  The BLAS thread variables are left as found: pinning them would
hide the slowdown OpenBLAS threads cause inside the question pool, which
is one of the things ``batch_qps`` is there to show.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import centroid_ir as cir
from centroid_ir import cli

from . import gen, oracle

THREADS = os.cpu_count() or 1  # the CLI's default --threads


@dataclass
class Pass:
    """What one pass measured and returned."""

    setup_s: float = float("nan")
    pipeline_s: float = float("nan")
    batch_s: float = float("nan")  # a failed batch counts as infinitely slow
    batch_questions: int = 0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)


@dataclass
class Outcome:
    metrics: dict[str, float]
    problems: list[str]
    notes: dict[str, float]


def _attempt(fn, *args, **kwargs):
    """Run one operation; a raised exception is a failed operation, not a crash."""
    try:
        return fn(*args, **kwargs), True
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, False


def _median(values) -> float:
    return float(np.median(values))


def _common_metrics(passes: list[Pass]) -> dict[str, float]:
    """Medians over the timed passes of one run."""
    return {
        "setup_s": _median([p.setup_s for p in passes]),
        "batch_qps": passes[0].batch_questions / _median([p.batch_s for p in passes]),
        "pipeline_s": _median([p.pipeline_s for p in passes]),
    }


def _question_rows(vocab: gen.Vocab, ids: np.ndarray, weights=None) -> np.ndarray:
    n, q_len = ids.shape
    docs = gen.Docs(indptr=np.arange(n + 1, dtype=np.int64) * q_len, ids=ids.ravel())
    return gen.weighted_rows(vocab, docs, weights)


def _store(vocab: gen.Vocab) -> cir.EmbeddingStore:
    return cir.EmbeddingStore({w: i for i, w in enumerate(vocab.words)}, vocab.matrix)


def _questions(vocab: gen.Vocab, qs: gen.Questions) -> list[cir.Question]:
    return [cir.Question(gen.question_id(i), gen.text_of(vocab, row))
            for i, row in enumerate(qs.ids)]


def _qrels(qs: gen.Questions) -> dict[str, set[str]]:
    return {gen.question_id(i): {gen.doc_id(int(s))} for i, s in enumerate(qs.source)}


class RerankBatch:
    """centidf + rwmd_q over a topic-Zipf text corpus: the paper's main system.

    The corpus side of ``text``/``centroids``/IDF is all of set-up; the
    query batch is exact retrieval then rwmd_q reranking, where questions
    on one topic share candidate documents.
    """

    N_WORDS, DIM, N_TOPICS = 20_000, 200, 50
    N_DOCS, DOC_LEN, Q_LEN = 8_000, 100, 10
    N_Q, K = 64, 100

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.vocab = gen.make_vocab(rng, self.N_WORDS, self.DIM, self.N_TOPICS)
        self.docs = gen.make_docs(rng, self.N_WORDS, self.N_TOPICS, self.N_DOCS, self.DOC_LEN)
        self.qs = gen.make_questions(rng, self.docs, self.N_Q, self.Q_LEN)
        self.records = [
            cir.DocumentRecord(gen.doc_id(i), "", gen.text_of(self.vocab, self._doc_tokens(i)))
            for i in range(self.N_DOCS)]
        self.documents = {r.id: r for r in self.records}
        self.store = _store(self.vocab)
        self.questions = _questions(self.vocab, self.qs)
        self.qrels = _qrels(self.qs)

    def _doc_tokens(self, i: int) -> np.ndarray:
        return self.docs.ids[self.docs.indptr[i]:self.docs.indptr[i + 1]]

    def one_pass(self, tracer) -> Pass:
        p = Pass(attempted=self.N_Q, batch_questions=self.N_Q)
        t0 = perf_counter()
        index, ok = _attempt(cir.build_corpus_index, self.records, self.store,
                             mode="centidf", compute_idf=True)
        p.setup_s = perf_counter() - t0
        start = perf_counter()
        run, ok = _attempt(cir.retrieve, self.questions, index, self.store, mode="centidf",
                           engine="exact", k=self.K, threads=THREADS) if ok else (None, False)
        reranked, ok = _attempt(cir.rerank, run, self.questions, self.documents, self.store,
                                method="rwmd_q", threads=THREADS) if ok else (None, False)
        p.batch_s = perf_counter() - start if ok else float("inf")
        p.failed = 0 if ok else self.N_Q
        report, _ = _attempt(cir.evaluate, reranked, self.qrels) if ok else (None, False)
        p.pipeline_s = perf_counter() - t0
        p.outputs = {"run": run.per_question if run else None,
                     "reranked": reranked.per_question if ok else None,
                     "map": report.map if report else None}
        return p

    def summarize(self, passes: list[Pass]) -> Outcome:
        out = passes[0].outputs
        problems = []
        run, reranked = out["run"] or {}, out["reranked"] or {}
        idf = gen.idf_of(self.docs, self.N_WORDS)
        units = oracle.unit(gen.weighted_rows(self.vocab, self.docs, idf))
        q_units = oracle.unit(_question_rows(self.vocab, self.qs.ids, idf))
        recalls = []
        for i, q in enumerate(self.questions):
            if q.qid not in reranked:
                continue
            ref = units @ q_units[i]
            problems += oracle.check_exact_topk(f"exact {q.qid}", run[q.qid], ref, self.K)
            recalls.append(oracle.overlap(run[q.qid], oracle.topk_rows(ref, self.K)))
            problems += self._check_rerank(i, q.qid, run[q.qid], reranked[q.qid])
        slots = [doc for hits in run.values() for doc, _ in hits]
        return Outcome(
            metrics={**_common_metrics(passes),
                     "recall_at_k": float(np.mean(recalls)) if recalls else float("nan"),
                     "map": out["map"] if out["map"] is not None else float("nan")},
            problems=problems,
            notes={"rerank_doc_slots": len(slots),
                   "rerank_distinct_doc_frac": len(set(slots)) / max(len(slots), 1)},
        )

    def _check_rerank(self, i: int, qid: str, retrieved, reranked) -> list[str]:
        label = f"rerank {qid}"
        if sorted(doc for doc, _ in retrieved) != sorted(doc for doc, _ in reranked):
            return [f"{label}: not a permutation of the retrieved list"]
        problems = oracle.check_order(label, reranked, descending=False)
        if i < 4:  # float64 distances on a sample
            q_vecs = self.vocab.matrix[self.qs.ids[i]]
            for doc, dist in reranked[:5]:
                want = oracle.rwmd_q(q_vecs, self.vocab.matrix[self._doc_tokens(oracle.row_of(doc))])
                if abs(dist - want) > 1e-6 * max(1.0, want):
                    problems.append(f"{label}: distance to {doc} is {dist}, expected {want}")
        return problems


class CliPipeline:
    """The user's path through files: build-index, search --rerank, evaluate.

    Parsing the text embeddings, JSONL and run files, writing and reading
    the index, and each command's start-up dominate; the forest and the
    rerank are small.  ``search`` pays its own loading on every call.
    """

    N_WORDS, DIM, N_TOPICS = 10_000, 100, 50
    N_DOCS, DOC_LEN, Q_LEN = 4_000, 100, 10
    N_Q, K = 200, 20
    TREES, LEAF_CAP = 8, 32

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.vocab = gen.make_vocab(rng, self.N_WORDS, self.DIM, self.N_TOPICS)
        self.docs = gen.make_docs(rng, self.N_WORDS, self.N_TOPICS, self.N_DOCS, self.DOC_LEN)
        self.qs = gen.make_questions(rng, self.docs, self.N_Q, self.Q_LEN)
        self.files = {k: str(v) for k, v in
                      gen.write_files(workdir, self.vocab, self.docs, self.qs).items()}
        self.index_path = str(workdir / "index.bin")
        self.run_path = str(workdir / "run.txt")
        self.seed = seed

    def _commands(self) -> list[tuple[str, list[str]]]:
        f = self.files
        return [
            ("build_index", ["build-index", "--embeddings", f["embeddings.txt"],
                             "--corpus", f["corpus.jsonl"], "--out", self.index_path,
                             "--mode", "centidf", "--compute-idf", "--engine", "ann",
                             "--trees", str(self.TREES), "--leaf-cap", str(self.LEAF_CAP),
                             "--seed", str(self.seed)]),
            ("search", ["search", "--index", self.index_path,
                        "--embeddings", f["embeddings.txt"], "--questions", f["questions.jsonl"],
                        "--out", self.run_path, "--k", str(self.K), "--rerank", "rwmd_q",
                        "--corpus", f["corpus.jsonl"]]),
            ("evaluate", ["evaluate", "--run", self.run_path, "--qrels", f["qrels.txt"],
                          "--json", "-"]),
        ]

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, str]:
        """Run one command in-process; returns its exit code and stdout."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=err)
            code = 1
        if code != 0:
            sys.stderr.write(err.getvalue())
        return code, out.getvalue()

    def one_pass(self, tracer) -> Pass:
        p = Pass(batch_questions=self.N_Q)
        times: dict[str, float] = {}
        stdout = ""
        ok = True
        for name, argv in self._commands():
            p.attempted += 1
            if not ok:  # a command whose input is missing fails too
                p.failed += 1
                continue
            start = perf_counter()
            with tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext():
                code, stdout = self._main(argv)
            ok = code == 0
            times[name] = perf_counter() - start if ok else float("inf")
            p.failed += not ok
        p.setup_s = times["build_index"]
        p.batch_s = times.get("search", float("inf"))
        p.pipeline_s = sum(times.values())
        run_text = ""
        if ok:
            with open(self.run_path, encoding="utf-8") as fh:
                run_text = fh.read()
        p.outputs = {"run": run_text, "report": stdout if ok else ""}
        return p

    def summarize(self, passes: list[Pass]) -> Outcome:
        out = passes[0].outputs
        problems = []
        run, problems_run = _parse_run(out["run"])
        problems += problems_run
        qrels = _qrels(self.qs)
        try:
            report = json.loads(out["report"])
        except json.JSONDecodeError:
            report = {}
            problems.append("evaluate --json printed no JSON report")
        if set(report.get("per_question", {})) != set(qrels):
            problems.append("evaluate report does not cover every judged question")
        own_map = float(np.mean([oracle.average_precision([d for d, _ in run.get(q, [])], rel)
                                 for q, rel in qrels.items()]))
        if abs(own_map - report.get("map", -1.0)) > 1e-9:
            problems.append(f"evaluate MAP {report.get('map')} != {own_map} from the run file")
        idf = gen.idf_of(self.docs, self.N_WORDS)
        units = oracle.unit(gen.weighted_rows(self.vocab, self.docs, idf))
        q_units = oracle.unit(_question_rows(self.vocab, self.qs.ids, idf))
        recalls = []
        for i in range(self.N_Q):
            qid = gen.question_id(i)
            hits = run.get(qid, [])
            problems += oracle.check_order(f"search {qid}", hits, descending=False)
            recalls.append(oracle.overlap(hits, oracle.topk_rows(units @ q_units[i], self.K)))
        return Outcome(
            metrics={**_common_metrics(passes), "recall_at_k": float(np.mean(recalls)),
                     "map": report.get("map", float("nan"))},
            problems=problems,
            notes={},
        )


def _parse_run(text: str) -> tuple[dict[str, list[tuple[str, float]]], list[str]]:
    """The benchmark's own reader for TREC run lines, ranks checked."""
    run: dict[str, list[tuple[str, float]]] = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) != 6:
            return run, [f"run line does not have 6 fields: {line!r}"]
        qid, _, doc, rank, score, _ = fields
        hits = run.setdefault(qid, [])
        if int(rank) != len(hits) + 1:
            return run, [f"run ranks of {qid} are not 1, 2, ..."]
        hits.append((doc, float(score)))
    if not run:
        return run, ["run file is empty"]
    return run, []


WORKLOADS = {"rerank-batch": RerankBatch, "cli-pipeline": CliPipeline}
