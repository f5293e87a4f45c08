"""Relaxed Word Mover's Distance between two embedded texts.

The exact Word Mover's Distance solves a transport problem; dropping one
side's constraints yields a relaxation that sends every word of one text
to its single nearest word in the other:

    rwmd_q(q, d) = sum over w in q of  min over w' in d of  ||w - w'||
    rwmd_d(q, d) = sum over w' in d of min over w in q of   ||w - w'||
    rwmd_max     = max(rwmd_q, rwmd_d)

Distances are Euclidean over the word embedding vectors.  A word is its
vocabulary row: a row present on both sides is at distance exactly 0.
Duplicated rows contribute once per occurrence.  An empty side is pushed
to the bottom of any reranking: the directed sum over an empty source is
0, and against an empty target it is +inf.

The per-pair functions ``rwmd_q``/``rwmd_d``/``rwmd_max`` are the
reference definitions.  :func:`rwmd_many` computes the same values for
one question against many documents given as vocabulary rows, with one
matrix product against the union of those rows (the linear-complexity
RWMD of Atasu et al., 2017); reranking uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingStore
from .errors import DimensionMismatch


@dataclass(frozen=True)
class EmbeddedText:
    """Vocabulary rows of a text's in-vocabulary tokens, in order, with
    their vectors.

    ``rows`` is a 1-D integer array and ``matrix`` has shape (len(rows),
    dim), one vector per row; duplicates are preserved and equal rows
    are the same word.  Out-of-vocabulary tokens are absent entirely.
    """

    rows: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.intp)
        if rows.ndim != 1:
            raise ValueError("rows must be 1-dimensional")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(rows):
            raise ValueError(f"matrix of shape {self.matrix.shape} does not hold "
                             f"one vector per row for {len(rows)} rows")
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def embed_text(tokens: list[str], store: EmbeddingStore) -> EmbeddedText:
    """The vocabulary rows of ``tokens`` and their float64 vectors."""
    return embed_rows(store.rows(tokens), store)


def embed_rows(rows: np.ndarray, store: EmbeddingStore) -> EmbeddedText:
    """Vocabulary rows of ``store`` with their float64 vectors."""
    return EmbeddedText(rows=rows, matrix=store.matrix[rows].astype(np.float64))


def _check_dims(a: EmbeddedText, b: EmbeddedText) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"embedded texts of dimension {a.dim} and {b.dim}")


def _directed_sum(src: EmbeddedText, dst: EmbeddedText) -> float:
    """Sum over src words of the Euclidean distance to the nearest dst word."""
    if len(src) == 0:
        return 0.0
    if len(dst) == 0:
        return float("inf")
    # Squared distances via the Gram expansion; one sqrt per row minimum.
    s2 = np.einsum("ij,ij->i", src.matrix, src.matrix)
    d2 = np.einsum("ij,ij->i", dst.matrix, dst.matrix)
    sq = s2[:, None] + d2[None, :] - 2.0 * (src.matrix @ dst.matrix.T)
    # A word present on both sides has true distance exactly 0; pin it
    # so cancellation noise from the expansion cannot leak in.
    sq[src.rows[:, None] == dst.rows[None, :]] = 0.0
    mins = np.maximum(sq.min(axis=1), 0.0)
    return float(np.sqrt(mins).sum())


def rwmd_q(q: EmbeddedText, d: EmbeddedText) -> float:
    """Query-relaxed WMD: each query word travels to its nearest document word."""
    _check_dims(q, d)
    return _directed_sum(q, d)


def rwmd_d(q: EmbeddedText, d: EmbeddedText) -> float:
    """Document-relaxed WMD: each document word travels to its nearest query word."""
    _check_dims(q, d)
    return _directed_sum(d, q)


def rwmd_max(q: EmbeddedText, d: EmbeddedText) -> float:
    """The tighter of the two relaxations."""
    return max(rwmd_q(q, d), rwmd_d(q, d))


SCORERS = {"rwmd_q": rwmd_q, "rwmd_d": rwmd_d, "rwmd_max": rwmd_max}


def rwmd_many(q: EmbeddedText, docs: Sequence[np.ndarray], store: EmbeddingStore,
              method: str = "rwmd_q") -> np.ndarray:
    """``SCORERS[method](q, d)`` for every document ``d``, as a float64 array.

    ``q`` is a question as :func:`embed_text` gives it for ``store``; each
    document is given by its vocabulary rows (:meth:`EmbeddingStore.rows`).
    One Gram expansion against the union U of those rows gives the
    squared distance from every question word to every word in play,
    with a question word's own row pinned to 0.  rwmd_q is then a
    per-document segment minimum over U's columns, and rwmd_d the column
    minimum over question words, summed per document word with
    multiplicity.
    """
    if method not in SCORERS:
        raise ValueError(f"unknown rwmd method {method!r}; expected one of {sorted(SCORERS)}")
    lengths = np.array([len(rows) for rows in docs], dtype=np.intp)
    filled = np.flatnonzero(lengths)
    # The empty-side values: an empty source sums to 0, and an empty
    # target gives +inf.  Pairs with both sides filled are overwritten
    # below; empty documents stay out, as reduceat cannot take an empty
    # segment.
    to_q = np.full(len(docs), np.inf if len(q) else 0.0)
    to_d = np.where(lengths > 0, np.inf, 0.0)
    if len(q) and filled.size:
        union, cols = np.unique(np.concatenate([docs[i] for i in filled]), return_inverse=True)
        starts = np.concatenate(([0], np.cumsum(lengths[filled])[:-1]))
        # Squared distances via the Gram expansion, as in _directed_sum.
        u = store.matrix[union].astype(np.float64)
        q2 = np.einsum("ij,ij->i", q.matrix, q.matrix)
        u2 = np.einsum("ij,ij->i", u, u)
        sq = q2[:, None] + u2[None, :] - 2.0 * (q.matrix @ u.T)
        sq[q.rows[:, None] == union[None, :]] = 0.0
        seg_min = np.minimum.reduceat(sq[:, cols], starts, axis=1)
        to_q[filled] = np.sqrt(np.maximum(seg_min, 0.0)).sum(axis=0)
        col_min = np.sqrt(np.maximum(sq.min(axis=0), 0.0))
        to_d[filled] = np.add.reduceat(col_min[cols], starts)
    if method == "rwmd_q":
        return to_q
    if method == "rwmd_d":
        return to_d
    return np.maximum(to_q, to_d)
