"""Spans around the benchmark's calls into the program's public functions.

The program is not changed.  :func:`installed` replaces public functions
under the names their calling modules imported them by (for example
``retrieval.tokenize`` or ``cli.load_index``) with wrappers that record a
:class:`Span` each, and puts the originals back on exit.

Spans stay in memory.  A span opened on a thread with no open span of its
own (a worker of the question pool) takes the innermost open span of the
main thread as its parent, so a pool thread's work counts as a child of
the ``retrieve`` or ``rerank`` call that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None  # index into Tracer.spans
    qid: str | None = None
    thread: int = 0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.qid: str | None = None  # set by the client around one question's call
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        now = time.perf_counter()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if tid != self._main and main else None
            qid = self.spans[parent].qid if parent is not None else self.qid
            sid = len(self.spans)
            self.spans.append(Span(name, now, parent=parent, qid=qid, thread=tid))
            stack.append(sid)
        return sid

    def close(self, sid: int, counts: dict[str, float] | None = None) -> None:
        now = time.perf_counter()
        with self._lock:
            span = self.spans[sid]
            span.end = now
            if counts:
                span.counts.update(counts)
            self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield self.spans[sid]
        finally:
            self.close(sid)


def write_spans(path, spans: list[Span]) -> None:
    """One JSON line per span, in the order they were opened."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.qid,
                                 span.thread, span.counts]) + "\n")


def self_times(spans: list[Span]) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children on pool threads may overlap one another; the covered part is
    the length of the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = np.empty(len(spans))
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[i] = (span.end - span.start) - covered
    return out


def layer_stats(spans: list[Span], n_passes: int) -> dict[str, dict]:
    """Per span name: calls, s, self_s and counts per pass, plus latency quantiles."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
    stats = {}
    for name, idx in by_name.items():
        durations = np.array([spans[i].end - spans[i].start for i in idx])
        counts: dict[str, float] = {}
        for i in idx:
            for key, value in spans[i].counts.items():
                counts[key] = counts.get(key, 0.0) + float(value)
        stats[name] = {
            "calls": len(idx) / n_passes,
            "s": float(durations.sum()) / n_passes,
            "self_s": float(own[idx].sum()) / n_passes,
            "p50_ms": float(np.quantile(durations, 0.5)) * 1e3,
            "p99_ms": float(np.quantile(durations, 0.99)) * 1e3,
            "counts": {key: value / n_passes for key, value in counts.items()},
        }
    return stats


def _wrap(tracer: Tracer, name: str, fn, measure=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid)
            raise
        tracer.close(sid, measure(result, *args, **kwargs) if measure else None)
        return result
    return traced


def _centroid_counts(cent, text, store):
    return {"zero": cent.is_zero, "known": cent.n_known_tokens, "tokens": len(text)}


def _retrieve_counts(run, questions, *args, **kwargs):
    return {"questions": len(run.per_question),
            "empty": sum(1 for hits in run.per_question.values() if not hits)}


def _rerank_counts(out, run, *args, **kwargs):
    slots = [doc for hits in run.per_question.values() for doc, _ in hits]
    return {"doc_slots": len(slots), "distinct_docs": len(set(slots))}


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced entry point."""
    import centroid_ir as cir
    from centroid_ir import cli, embeddings, evaluation, retrieval, rwmd
    from centroid_ir.embeddings import EmbeddingStore
    from centroid_ir.index import CentroidIndex

    def w(name, measure=None):
        return lambda fn: _wrap(tracer, name, fn, measure)

    def eager_iter(fn):
        # cli consumes the corpus stream with list(); draining it inside the
        # span times the parse instead of the generator's creation.
        timed = _wrap(tracer, "corpus.iter_corpus", lambda *a, **k: list(fn(*a, **k)))
        return functools.wraps(fn)(lambda *a, **k: iter(timed(*a, **k)))

    def classmethod_of(wrapper):
        return lambda method: classmethod(wrapper(method.__func__))

    retrieve = w("retrieval.retrieve", _retrieve_counts)
    rerank = w("retrieval.rerank", _rerank_counts)
    build = w("retrieval.build_corpus_index")
    evaluate = w("evaluation.evaluate")
    return [
        (retrieval, "tokenize", w("text.tokenize", lambda r, *a, **k: {"tokens": len(r)})),
        (retrieval, "centroid_simple", w("centroids.centroid", _centroid_counts)),
        (retrieval, "centroid_idf", w("centroids.centroid", _centroid_counts)),
        (retrieval, "embed_text", w("rwmd.embed_text", lambda r, *a, **k: {"rows": len(r)})),
        (rwmd.SCORERS, "rwmd_q", w("rwmd.rwmd_q")),
        (CentroidIndex, "from_matrix", classmethod_of(w("index.from_matrix"))),
        (CentroidIndex, "build_forest",
         w("index.build_forest", lambda r, *a, **k: {"trees": r.n_trees})),
        (CentroidIndex, "exact_topk", w("index.exact_topk")),
        (CentroidIndex, "ann_topk", w("index.ann_topk")),
        (cli, "save_index",
         w("index.save_index", lambda r, index, path: {"bytes": os.path.getsize(path)})),
        (cli, "load_index", w("index.load_index")),
        (cir, "retrieve", retrieve), (cli, "retrieve", retrieve),
        (cir, "rerank", rerank), (cli, "rerank", rerank),
        (cir, "build_corpus_index", build), (cli, "build_corpus_index", build),
        (EmbeddingStore, "compute_idf", w("embeddings.compute_idf")),
        (embeddings, "load_embeddings", w("embeddings.load_embeddings")),
        (embeddings, "load_idf", w("embeddings.load_idf")),
        (embeddings, "save_idf", w("embeddings.save_idf")),
        (cli, "iter_corpus", eager_iter),
        (cli, "load_corpus", w("corpus.load_corpus")),
        (cli, "write_run", w("runs.write_run")),
        (cli, "read_run", w("runs.read_run")),
        (evaluation, "read_qrels", w("evaluation.read_qrels")),
        (evaluation, "evaluate", evaluate), (cir, "evaluate", evaluate),
    ]


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the traced entry points through ``tracer`` until exit."""
    saved = []
    try:
        for owner, attr, wrapper in _targets(tracer):
            original = _get(owner, attr)
            saved.append((owner, attr, original))
            _set(owner, attr, wrapper(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)
