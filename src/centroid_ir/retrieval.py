"""End-to-end retrieval pipelines over questions and a centroid index.

The building blocks compose into the named systems:

* ``retrieve`` with mode "cent" or "centidf" and engine "exact" or "ann"
  covers plain centroid retrieval and its forest-approximated variant.
* ``rerank`` reorders any run by a relaxed word-mover distance
  (rwmd_q / rwmd_d / rwmd_max), e.g. centidf + rwmd_q reranking, or an
  imported external baseline run + rwmd_q.
* ``hybrid`` combines two runs: a question falls back to the second
  run's list exactly when the first run returned nothing for it.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .centroids import centroid_idf, centroid_simple
from .corpus import DocumentRecord
from .embeddings import EmbeddingStore
from .errors import ConfigMismatch, DuplicateId, ParseError, UnknownIds
from .index import MODES, CentroidIndex
from .runs import RankedRun
from .rwmd import SCORERS, embed_text, rwmd_many
from .text import default_stopwords, tokenize

DEFAULT_K = 1000

ENGINES = ("exact", "ann")


@dataclass(frozen=True)
class Question:
    qid: str
    text: str


def load_questions(path) -> list[Question]:
    """Read questions from a JSON-lines file with fields ``id`` and ``text``."""
    questions: list[Question] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line_no=line_no, path=path) from None
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise ParseError("question object needs 'id' and 'text' fields",
                                 line_no=line_no, path=path)
            qid = str(obj["id"])
            if qid in seen:
                raise DuplicateId(f"duplicate question id {qid!r} in {path}")
            seen.add(qid)
            questions.append(Question(qid=qid, text=str(obj["text"])))
    return questions


def _map_questions(fn: Callable, items: Sequence, threads: int) -> list:
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _centroid_fn(mode: str):
    if mode == "cent":
        return centroid_simple
    if mode == "centidf":
        return centroid_idf
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def retrieve(
    questions: Iterable[Question],
    index: CentroidIndex,
    store: EmbeddingStore,
    mode: str = "centidf",
    engine: str = "exact",
    k: int = DEFAULT_K,
    search_k: int | None = None,
    stopwords: frozenset[str] | None = None,
    threads: int = 1,
) -> RankedRun:
    """Tokenize each question, take its centroid, and fetch the top k.

    A question whose centroid is zero (all tokens out of vocabulary or
    stop words) gets an empty list rather than an arbitrary ranking.
    ``k``, ``search_k`` and ``threads`` must be at least 1.  Raises
    :class:`ConfigMismatch` when the index records a centroid mode other
    than the one requested.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if search_k is not None and search_k < 1:
        raise ValueError(f"search_k must be at least 1, got {search_k}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    make_centroid = _centroid_fn(mode)
    if index.mode is not None and index.mode != mode:
        raise ConfigMismatch(
            f"index was built with {index.mode!r} centroids, queried with {mode!r}")
    if stopwords is None:
        stopwords = default_stopwords()
    questions = list(questions)
    _check_unique_qids(questions)

    def one(question: Question) -> list[tuple[str, float]]:
        cent = make_centroid(tokenize(question.text, stopwords), store)
        if cent.is_zero:
            return []
        if engine == "ann":
            return index.ann_topk(cent, k, search_k=search_k)
        return index.exact_topk(cent, k)

    results = _map_questions(one, questions, threads)
    per_question = {q.qid: hits for q, hits in zip(questions, results)}
    return RankedRun(tag=f"{mode}-{engine}", per_question=per_question)


def _check_unique_qids(questions: Sequence[Question]) -> None:
    seen: set[str] = set()
    for q in questions:
        if q.qid in seen:
            raise DuplicateId(f"duplicate question id {q.qid!r} in batch")
        seen.add(q.qid)


def rerank(
    run: RankedRun,
    questions,
    documents: Mapping[str, DocumentRecord],
    store: EmbeddingStore,
    method: str = "rwmd_q",
    stopwords: frozenset[str] | None = None,
    depth: int | None = None,
    threads: int = 1,
) -> RankedRun:
    """Reorder each question's documents by ascending relaxed WMD.

    The document set per question is preserved exactly; only the order
    and the scores change (scores become distances).  ``depth`` limits
    reranking to the top so-many documents, leaving the tail in its
    original order behind them; it and ``threads`` must be at least 1.
    Ties break by ascending doc_id;
    texts with no in-vocabulary tokens score +inf and sink to the bottom.

    Each distinct reranked document is tokenized once, up front, into
    vocabulary-row ids; each question then takes one matrix product
    against its documents' vocabulary (:func:`rwmd_many`).
    """
    if method not in SCORERS:
        raise ValueError(f"unknown rerank method {method!r}; expected one of {sorted(SCORERS)}")
    if depth is not None and depth < 1:
        raise ValueError(f"rerank depth must be at least 1, got {depth}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if stopwords is None:
        stopwords = default_stopwords()
    question_texts = _as_question_map(questions)

    active_qids = [qid for qid, entries in run.per_question.items() if entries]
    missing_q = [qid for qid in active_qids if qid not in question_texts]
    if missing_q:
        raise UnknownIds("run references questions not provided to rerank", missing_q)
    missing_d = {
        doc_id
        for qid in active_qids
        for doc_id, _ in run.per_question[qid]
        if doc_id not in documents
    }
    if missing_d:
        raise UnknownIds("run references documents missing from the corpus", missing_d)

    doc_rows: dict[str, np.ndarray] = {}
    for qid in active_qids:
        for doc_id, _ in run.per_question[qid][:depth]:
            if doc_id not in doc_rows:
                doc_rows[doc_id] = store.rows(tokenize(documents[doc_id].text, stopwords))

    def one(qid: str) -> tuple[str, list[tuple[str, float]]]:
        entries = run.per_question[qid]
        if not entries:
            return qid, []
        q_emb = embed_text(tokenize(question_texts[qid], stopwords), store)
        head = [doc_id for doc_id, _ in entries[:depth]]
        dists = rwmd_many(q_emb, [doc_rows[doc_id] for doc_id in head], store, method)
        reranked = [(doc_id, dist) for dist, doc_id in sorted(zip(dists.tolist(), head))]
        return qid, reranked + list(entries[len(head):])

    qids = list(run.per_question)
    results = _map_questions(one, qids, threads)
    per_question = dict(results)
    suffix = method.replace("_", "")
    tag = f"{run.tag}-{suffix}" if run.tag else suffix
    return RankedRun(tag=tag, per_question=per_question)


def _as_question_map(questions) -> dict[str, str]:
    if isinstance(questions, Mapping):
        return {str(qid): getattr(q, "text", q) for qid, q in questions.items()}
    return {q.qid: q.text for q in questions}


def hybrid(primary_run: RankedRun, fallback_run: RankedRun) -> RankedRun:
    """Primary's list per question, falling back when primary is empty.

    The qid set is the union of both runs; a question never mixes
    documents from the two inputs.
    """
    per_question: dict[str, list[tuple[str, float]]] = {}
    for qid, entries in primary_run.per_question.items():
        per_question[qid] = list(entries) if entries else list(
            fallback_run.per_question.get(qid, []))
    for qid, entries in fallback_run.per_question.items():
        if qid not in per_question:
            per_question[qid] = list(entries)
    return RankedRun(tag="hybrid", per_question=per_question)


def build_corpus_index(
    documents: Iterable[DocumentRecord],
    store: EmbeddingStore,
    mode: str = "centidf",
    stopwords: frozenset[str] | None = None,
    compute_idf: bool = False,
) -> CentroidIndex:
    """Tokenize a corpus, centroid every document, and index the result.

    With ``compute_idf`` the store's IDF table is (re)computed from this
    corpus before the centroids are taken; otherwise the store must
    already carry IDF scores when mode is "centidf".
    """
    make_centroid = _centroid_fn(mode)
    if stopwords is None:
        stopwords = default_stopwords()
    records = list(documents)
    tokenized = [tokenize(record.text, stopwords) for record in records]
    if compute_idf:
        store.compute_idf(tokenized)
    matrix = np.array([make_centroid(text, store).vec for text in tokenized])
    # The reshape keeps an empty corpus a (0, dim) matrix.
    return CentroidIndex.from_matrix([record.id for record in records],
                                     matrix.reshape(len(records), store.dim), mode=mode)
