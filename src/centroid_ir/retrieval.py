"""End-to-end retrieval pipelines over questions and a centroid index.

The building blocks compose into the named systems:

* ``retrieve`` with mode "cent" or "centidf" and engine "exact" or "ann"
  covers plain centroid retrieval and its forest-approximated variant.
* ``rerank`` reorders any run by a relaxed word-mover distance
  (rwmd_q / rwmd_d / rwmd_max), e.g. centidf + rwmd_q reranking, or an
  imported external baseline run + rwmd_q.
* ``hybrid`` combines two runs: a question falls back to the second
  run's list exactly when the first run returned nothing for it.

Questions are answered one after another on the calling thread; exact
scoring's parallelism is the BLAS library's own.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .centroids import centroid_idf, centroid_matrix, centroid_simple
from .corpus import DocumentRecord, record_id
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
    """Read JSON-lines questions: a string or integer ``id``, a string ``text``."""
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
            qid = record_id(obj, line_no, path)
            if not isinstance(obj["text"], str):
                raise ParseError("'text' must be a JSON string", line_no=line_no, path=path)
            if qid in seen:
                raise DuplicateId(f"duplicate question id {qid!r} in {path}")
            seen.add(qid)
            questions.append(Question(qid=qid, text=obj["text"]))
    return questions


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
    ``k`` and ``search_k`` must be at least 1.  Raises
    :class:`ConfigMismatch` when the index records a centroid mode other
    than the one requested.  ``threads`` is accepted for callers that
    still pass it and must be at least 1; it has no effect.
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

    per_question: dict[str, list[tuple[str, float]]] = {}
    for question in questions:
        if question.qid in per_question:
            raise DuplicateId(f"duplicate question id {question.qid!r} in batch")
        cent = make_centroid(tokenize(question.text, stopwords), store)
        if cent.is_zero:
            per_question[question.qid] = []
        elif engine == "ann":
            per_question[question.qid] = index.ann_topk(cent, k, search_k=search_k)
        else:
            per_question[question.qid] = index.exact_topk(cent, k)
    return RankedRun(tag=f"{mode}-{engine}", per_question=per_question)


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
    original order behind them; it must be at least 1.
    Ties break by ascending doc_id;
    texts with no in-vocabulary tokens score +inf and sink to the bottom.
    ``threads`` is accepted for callers that still pass it and must be at
    least 1; it has no effect.

    Each distinct reranked document is tokenized once, up front, and all
    of them are mapped to vocabulary rows in one call; each question then
    takes one matrix product against its documents' vocabulary
    (:func:`rwmd_many`).
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

    head_ids = list(dict.fromkeys(
        doc_id for qid in active_qids for doc_id, _ in run.per_question[qid][:depth]))
    rows, bounds = store.rows_many(tokenize(documents[doc_id].text, stopwords)
                                   for doc_id in head_ids)
    doc_rows = {doc_id: rows[lo:hi]
                for doc_id, (lo, hi) in zip(head_ids, itertools.pairwise(bounds.tolist()))}

    per_question: dict[str, list[tuple[str, float]]] = {qid: [] for qid in run.per_question}
    for qid in active_qids:
        entries = run.per_question[qid]
        q_emb = embed_text(tokenize(question_texts[qid], stopwords), store)
        head = [doc_id for doc_id, _ in entries[:depth]]
        dists = rwmd_many(q_emb, [doc_rows[doc_id] for doc_id in head], store, method)
        reranked = [(doc_id, dist) for dist, doc_id in sorted(zip(dists.tolist(), head))]
        per_question[qid] = reranked + list(entries[len(head):])
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
    _centroid_fn(mode)  # rejects an unknown mode before any work
    if stopwords is None:
        stopwords = default_stopwords()
    records = list(documents)
    tokenized = [tokenize(record.text, stopwords) for record in records]
    if compute_idf:
        store.compute_idf(tokenized)
    rows, bounds = store.rows_many(tokenized)
    del tokenized  # the token lists are not needed for the centroids
    matrix = centroid_matrix(rows, bounds, store, idf=(mode == "centidf"))
    return CentroidIndex.from_matrix([record.id for record in records], matrix, mode=mode)
