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
reference definitions.  :func:`rwmd_batch`, which reranking uses,
computes the same values for a batch of questions, each against its own
documents, all given as vocabulary rows: one matrix product per question
against the sorted union of its documents' rows (the linear-complexity
RWMD of Atasu et al., 2017).  The union is found in time proportional to
the rows in play, whatever the vocabulary's size, and the squared norms
are read from the store's ``row_sq_norms``, which hold the bits the Gram
expansion would compute.  The product stays per question: a product's
bits depend on its operands' shapes, so one over a wider union or over
more question rows would change the distances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    rows = store.rows(tokens)
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


def rwmd_batch(q_rows: np.ndarray, q_bounds: np.ndarray, doc_rows: np.ndarray,
               slot_lo: np.ndarray, slot_hi: np.ndarray, slot_bounds: np.ndarray,
               store: EmbeddingStore, method: str = "rwmd_q") -> np.ndarray:
    """``SCORERS[method](q, d)`` for every (question, document) slot of a
    batch, as one flat float64 array in slot order.

    Question i is the vocabulary rows ``q_rows[q_bounds[i]:q_bounds[i +
    1]]`` of ``store``, and its slots are ``slot_bounds[i]:slot_bounds[i +
    1]``; slot s holds the document ``doc_rows[slot_lo[s]:slot_hi[s]]``.
    The questions' float64 vectors are gathered once.  Each question then
    takes one Gram expansion against the sorted union U of its documents'
    rows, which gives the squared distance from every question word to
    every word in play, with a question word's own row pinned to 0.
    rwmd_q is a per-document segment minimum over U's columns, and rwmd_d
    the column minimum over question words, summed per document word with
    multiplicity; rwmd_max takes both, and each is computed only when
    ``method`` reads it.
    """
    if method not in SCORERS:
        raise ValueError(f"unknown rwmd method {method!r}; expected one of {sorted(SCORERS)}")
    lengths = slot_hi - slot_lo
    # Slot s's rows start at offsets[s] in the concatenation of all slots'.
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    at = np.arange(np.diff(offsets[slot_bounds]).max(initial=0))
    # The pairs with an empty side keep these values: an empty source sums
    # to 0, and an empty target gives +inf.
    to_q = np.full(lengths.size, np.inf) if method != "rwmd_d" else None
    to_d = np.where(lengths > 0, np.inf, 0.0) if method != "rwmd_q" else None
    q_matrix = store.matrix[q_rows].astype(np.float64)
    q_norms = store.row_sq_norms[q_rows]
    col_of = np.empty(len(store), dtype=np.intp)
    for (lo, hi), (a, b) in zip(itertools.pairwise(q_bounds.tolist()),
                                itertools.pairwise(slot_bounds.tolist())):
        if lo == hi:
            if to_q is not None:
                to_q[a:b] = 0.0
            continue
        # Empty documents stay out, as reduceat cannot take an empty segment.
        filled = a + np.flatnonzero(lengths[a:b])
        if not filled.size:
            continue
        starts = offsets[filled] - offsets[a]
        pos = at[:offsets[b] - offsets[a]]
        # As intp, so the indexing below does not convert them each time.
        rows = doc_rows[np.repeat(slot_lo[filled] - starts, lengths[filled]) + pos].astype(
            np.intp, copy=False)
        # U and each row's column in it, as np.unique(rows,
        # return_inverse=True) gives them, sorting only the distinct rows
        # and in time that does not grow with the vocabulary: each row
        # writes its position into the uninitialized col_of; of a repeated
        # row, just the one position the writes leave there (whichever it
        # is) reads back as its own.  Only the rows in play are written or
        # read.
        col_of[rows] = pos
        union = np.sort(rows[col_of[rows] == pos])
        col_of[union] = at[:union.size]
        cols = col_of[rows]
        # Squared distances by the Gram expansion (q2 + u2) - 2G, with the
        # squared norms read from the store.
        gram = q_matrix[lo:hi] @ store.matrix[union].astype(np.float64).T
        gram *= 2.0
        sq = np.add.outer(q_norms[lo:hi], store.row_sq_norms[union])
        sq -= gram
        # A word present on both sides has true distance exactly 0; pin it
        # so cancellation noise from the expansion cannot leak in.
        q_slice = q_rows[lo:hi]
        shared = np.minimum(np.searchsorted(union, q_slice), union.size - 1)
        hit = np.flatnonzero(union[shared] == q_slice)
        sq[hit, shared[hit]] = 0.0
        if to_q is not None:
            # Minima along the rows of U's columns taken in slot order; the
            # (question word x document) result is summed down its columns.
            seg_min = np.minimum.reduceat(sq.take(cols, axis=1), starts, axis=1)
            to_q[filled] = np.sqrt(np.maximum(seg_min, 0.0)).sum(axis=0)
        if to_d is not None:
            col_min = np.sqrt(np.maximum(sq.min(axis=0), 0.0))
            to_d[filled] = np.add.reduceat(col_min[cols], starts)
    if method == "rwmd_q":
        return to_q
    if method == "rwmd_d":
        return to_d
    return np.maximum(to_q, to_d)
