"""End-to-end retrieval pipelines over questions and a centroid index.

The building blocks compose into the named systems:

* ``retrieve`` with mode "cent" or "centidf" and engine "exact" or "ann"
  covers plain centroid retrieval and its forest-approximated variant.
* ``rerank`` reorders any run by a relaxed word-mover distance
  (rwmd_q / rwmd_d / rwmd_max), e.g. centidf + rwmd_q reranking, or an
  imported external baseline run + rwmd_q.  Document words come from an
  index built from the corpus, which keeps its documents' vocabulary
  rows, or from the corpus records, mapped to rows again.
* ``hybrid`` combines two runs: a question falls back to the second
  run's list exactly when the first run returned nothing for it.

Text reaches vocabulary rows by one route, :func:`text_ids`: each of
``retrieve`` and ``rerank`` maps all its question texts in one
:meth:`EmbeddingStore.text_rows` call, and :func:`build_corpus_index`
takes the corpus IDF and the documents' rows from one pass over their
texts.  The questions are then answered one after another on the
calling thread; exact scoring's parallelism is the BLAS library's own.
Both raise :class:`ConfigMismatch` when the embeddings differ from those
an index was built with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

# centroid_idf, centroid_simple, embed_text and tokenize are not called here,
# but perfbench's tracer wraps them under these names, so they stay imported.
from .centroids import _idf_rows, centroid_idf, centroid_matrix, centroid_simple  # noqa: F401
from .corpus import DocumentRecord, _json_lines, record_id
from .embeddings import EmbeddingStore, idf_of, text_ids
from .errors import ConfigMismatch, DuplicateId, ParseError, StateError, UnknownIds
from .index import MODES, CentroidIndex
from .runs import RankedRun
from .rwmd import SCORERS, EmbeddedText, embed_text, rwmd_many  # noqa: F401
from .text import default_stopwords, tokenize  # noqa: F401

DEFAULT_K = 1000

ENGINES = ("exact", "ann")


@dataclass(frozen=True)
class Question:
    qid: str
    text: str


def load_questions(path) -> list[Question]:
    """Read JSON-lines questions: a string or integer ``id``, a string ``text``."""
    questions: dict[str, Question] = {}
    for line_no, obj in _json_lines(path):
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise ParseError("question object needs 'id' and 'text' fields",
                             line_no=line_no, path=path)
        qid = record_id(obj, line_no, path)
        if not isinstance(obj["text"], str):
            raise ParseError("'text' must be a JSON string", line_no=line_no, path=path)
        if qid in questions:
            raise DuplicateId(f"duplicate question id {qid!r} in {path}")
        questions[qid] = Question(qid=qid, text=obj["text"])
    return list(questions.values())


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def _check_store(index: CentroidIndex, store: EmbeddingStore) -> None:
    """Raise :class:`ConfigMismatch` unless ``store`` gives the index's fingerprint."""
    if (index.fingerprint is not None
            and store.fingerprint(index.idf_rows) != index.fingerprint):
        raise ConfigMismatch("the embeddings or IDF weights differ from those "
                             "the index was built with")


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
    """Map the questions to vocabulary rows, take their centroids, and
    fetch each one's top k.

    All questions are mapped to the rows of their tokens in one call
    (:meth:`EmbeddingStore.text_rows`), and each centroid is taken from
    its slice as :func:`centroid_idf` or :func:`centroid_simple` takes
    it, bit for bit.  A question whose centroid is zero (all tokens out
    of vocabulary or stop words) gets an empty list rather than an
    arbitrary ranking.  ``k`` and ``search_k`` must be at least 1.  Mode
    "centidf" weights questions by ``index.idf_rows``, as the documents
    were weighted; an index without them takes the store's, raising
    :class:`StateError` if there are none.  Raises :class:`DuplicateId`
    for a repeated question id, and :class:`ConfigMismatch` when the
    index records a centroid mode other than the one requested or a store
    fingerprint that ``store`` does not match.  ``threads`` is accepted for
    callers that still pass it and must be at least 1; it has no effect.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if search_k is not None and search_k < 1:
        raise ValueError(f"search_k must be at least 1, got {search_k}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_mode(mode)
    if index.mode is not None and index.mode != mode:
        raise ConfigMismatch(
            f"index was built with {index.mode!r} centroids, queried with {mode!r}")
    if stopwords is None:
        stopwords = default_stopwords()
    texts = _question_texts(questions)
    _check_store(index, store)
    idf_rows = None
    if mode == "centidf" and texts:
        idf_rows = _idf_rows(store) if index.idf_rows is None else index.idf_rows

    rows, bounds = store.text_rows(texts.values(), stopwords)
    centroids = centroid_matrix(rows, bounds, store, idf_rows, dtype=np.float64)
    per_question: dict[str, list[tuple[str, float]]] = {}
    for qid, vec in zip(texts, centroids):
        if np.linalg.norm(vec) == 0.0:
            per_question[qid] = []
        elif engine == "ann":
            per_question[qid] = index.ann_topk(vec, k, search_k=search_k)
        else:
            per_question[qid] = index.exact_topk(vec, k)
    return RankedRun(tag=f"{mode}-{engine}", per_question=per_question)


def rerank(
    run: RankedRun,
    questions,
    documents: Mapping[str, DocumentRecord] | CentroidIndex,
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
    original order behind them; it must be at least 1.  A question list
    that repeats an id raises :class:`DuplicateId`.
    Ties break by ascending doc_id;
    texts with no in-vocabulary tokens score +inf and sink to the bottom.
    ``threads`` is accepted for callers that still pass it and must be at
    least 1; it has no effect.

    ``documents`` is either an index that carries its documents'
    vocabulary rows, as :func:`build_corpus_index` makes it, or a mapping
    from document id to record.  An index's rows are read as stored, with
    no text; it raises :class:`StateError` when it has no rows and
    :class:`ConfigMismatch` when ``store`` does not match its
    fingerprint; the store's IDF is not read.  From records, the distinct
    reranked documents' texts are mapped to vocabulary rows once, up
    front, in one :meth:`EmbeddingStore.text_rows` call.  Either way the
    same scoring follows: the questions are mapped in one call and their
    float64 vectors gathered once, and each question takes one matrix
    product against its documents' vocabulary (:func:`rwmd_many`).
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
    from_index = isinstance(documents, CentroidIndex)
    if from_index:
        if documents.rows is None:
            raise StateError("index carries no document rows to rerank by")
        _check_store(documents, store)
        known = {doc_id: i for i, doc_id in enumerate(documents.doc_ids.tolist())}
    else:
        known = documents
    missing_d = {
        doc_id
        for qid in active_qids
        for doc_id, _ in run.per_question[qid]
        if doc_id not in known
    }
    if missing_d:
        source = "index" if from_index else "corpus"
        raise UnknownIds(f"run references documents missing from the {source}", missing_d)

    head_ids = list(dict.fromkeys(
        doc_id for qid in active_qids for doc_id, _ in run.per_question[qid][:depth]))
    if from_index:
        at = np.array([known[doc_id] for doc_id in head_ids], dtype=np.intp)
        rows = documents.rows
        spans = zip(documents.bounds[at].tolist(), documents.bounds[at + 1].tolist())
    else:
        rows, bounds = store.text_rows((documents[doc_id].text for doc_id in head_ids),
                                       stopwords)
        spans = itertools.pairwise(bounds.tolist())
    doc_rows = {doc_id: rows[lo:hi] for doc_id, (lo, hi) in zip(head_ids, spans)}

    q_rows, q_bounds = store.text_rows((question_texts[qid] for qid in active_qids), stopwords)
    q_matrix = store.matrix[q_rows].astype(np.float64)
    per_question: dict[str, list[tuple[str, float]]] = {qid: [] for qid in run.per_question}
    for qid, (lo, hi) in zip(active_qids, itertools.pairwise(q_bounds.tolist())):
        entries = run.per_question[qid]
        head = [doc_id for doc_id, _ in entries[:depth]]
        q = EmbeddedText(rows=q_rows[lo:hi], matrix=q_matrix[lo:hi])
        dists = rwmd_many(q, [doc_rows[doc_id] for doc_id in head], store, method)
        reranked = [(doc_id, dist) for dist, doc_id in sorted(zip(dists.tolist(), head))]
        per_question[qid] = reranked + list(entries[len(head):])
    suffix = method.replace("_", "")
    tag = f"{run.tag}-{suffix}" if run.tag else suffix
    return RankedRun(tag=tag, per_question=per_question)


def _question_texts(questions: Iterable[Question]) -> dict[str, str]:
    """qid -> text in question order; :class:`DuplicateId` for a repeated qid."""
    texts: dict[str, str] = {}
    for q in questions:
        if q.qid in texts:
            raise DuplicateId(f"duplicate question id {q.qid!r} in batch")
        texts[q.qid] = q.text
    return texts


def _as_question_map(questions) -> dict[str, str]:
    if isinstance(questions, Mapping):
        return {str(qid): getattr(q, "text", q) for qid, q in questions.items()}
    return _question_texts(questions)


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
    """Map a corpus to word ids in one pass, centroid every document, and
    index the result.

    With ``compute_idf`` the store's IDF table is (re)computed from this
    corpus before the centroids are taken; otherwise the store must
    already carry IDF scores when mode is "centidf".  The index keeps the
    documents' vocabulary rows, the store's fingerprint and, in mode
    "centidf", its ``idf_rows``, so that :func:`rerank` needs no text,
    :func:`retrieve` no store IDF, and a different store is caught.
    """
    _check_mode(mode)  # before any work
    if stopwords is None:
        stopwords = default_stopwords()
    centidf = mode == "centidf"
    doc_ids: list[str] = []

    def texts():
        for record in documents:
            doc_ids.append(record.id)
            yield record.text

    words, ids, bounds = text_ids(texts(), stopwords)
    if compute_idf:
        store.set_idf(*idf_of(words, ids, bounds))
    if centidf and store.idf_rows is None and not doc_ids:  # read without IDF
        return CentroidIndex.from_matrix([], np.zeros((0, store.dim)), mode=mode)
    idf_rows = _idf_rows(store) if centidf else None
    rows, bounds = store.id_rows(words, ids, bounds)
    matrix = centroid_matrix(rows, bounds, store, idf_rows)
    return CentroidIndex.from_matrix(
        doc_ids, matrix, mode=mode, rows=rows, bounds=bounds,
        vocab_size=len(store), fingerprint=store.fingerprint(idf_rows), idf_rows=idf_rows)
