"""Centroid vectors of tokenized texts, simple and IDF-weighted.

A text t with tokens w_1..w_n is represented by the weighted average

    c(t) = sum_j vec(w_j) * weight(w_j) / sum_j weight(w_j)

over its in-vocabulary token occurrences, where weight(w) = 1 for the
simple centroid and weight(w) = IDF(w) for the IDF-weighted one, so a
word occurring TF times carries TF times its weight.  A text whose
weights sum to zero (all tokens out of vocabulary, or all IDF scores
zero) maps to the zero vector.  Because both variants run through the
same accumulation, the IDF-weighted centroid degenerates to the simple
one bit-for-bit when every IDF equals 1.

Accumulation happens in float64 even though stored vectors are float32;
abstracts run to hundreds of tokens and single precision drifts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore
from .errors import DimensionMismatch, StateError


@dataclass(frozen=True)
class Centroid:
    """A text's dense representation: vector, its length, and support.

    ``n_known_tokens`` counts token occurrences that contributed positive
    weight, so it is zero exactly when ``vec`` is the zero vector.
    """

    vec: np.ndarray
    norm: float
    n_known_tokens: int

    @property
    def is_zero(self) -> bool:
        return self.norm == 0.0


def _weighted_mean(rows: np.ndarray, store: EmbeddingStore,
                   idf_rows: np.ndarray | None) -> tuple[np.ndarray | None, np.ndarray]:
    """The shared accumulation over one text's vocabulary rows.

    The weights are ``idf_rows`` at the rows, or ones.  Returns the
    centroid, None when the weights sum to zero, and the weights.
    """
    w = np.ones(rows.size) if idf_rows is None else idf_rows[rows]
    denom = float(w.sum())
    if denom <= 0.0:
        return None, w
    return (w @ store.matrix[rows].astype(np.float64)) / denom, w


def _weighted_centroid(tokens: list[str], store: EmbeddingStore,
                       idf_rows: np.ndarray | None) -> Centroid:
    vec, w = _weighted_mean(store.rows(tokens), store, idf_rows)
    if vec is None:
        return Centroid(vec=np.zeros(store.dim), norm=0.0, n_known_tokens=0)
    return Centroid(vec=vec, norm=float(np.linalg.norm(vec)),
                    n_known_tokens=int(np.count_nonzero(w > 0.0)))


def _idf_rows(store: EmbeddingStore) -> np.ndarray:
    if store.idf_rows is None:
        raise StateError("IDF scores have not been computed or loaded")
    return store.idf_rows


def centroid_simple(tokens: list[str], store: EmbeddingStore) -> Centroid:
    """Average of the in-vocabulary token embeddings, with multiplicity."""
    return _weighted_centroid(tokens, store, None)


def centroid_idf(tokens: list[str], store: EmbeddingStore) -> Centroid:
    """TF*IDF-weighted average of the in-vocabulary token embeddings.

    Requires IDF scores on the store.  Tokens whose weight is zero do not
    count towards ``n_known_tokens``; if every weight is zero the result
    is the zero centroid.
    """
    return _weighted_centroid(tokens, store, _idf_rows(store))


def centroid_matrix(rows: np.ndarray, bounds: np.ndarray, store: EmbeddingStore,
                    idf_rows: np.ndarray | None, dtype=np.float32) -> np.ndarray:
    """Centroid vectors of many texts, one row per text.

    Text i's vocabulary rows are ``rows[bounds[i]:bounds[i + 1]]``, as
    :meth:`EmbeddingStore.text_rows` gives them.  Row i is the float64
    ``vec`` of :func:`centroid_simple` for text i or, with IDF weights
    ``idf_rows`` (one per vocabulary row), of :func:`centroid_idf`; zero
    for a zero centroid, stored as ``dtype``: float32 rounds it as an
    index stores it, float64 keeps its bits.
    """
    out = np.zeros((len(bounds) - 1, store.dim), dtype=dtype)
    for i, (lo, hi) in enumerate(itertools.pairwise(bounds.tolist())):
        vec, _ = _weighted_mean(rows[lo:hi], store, idf_rows)
        if vec is not None:
            out[i] = vec
    return out


def cosine(a, b) -> float:
    """Cosine similarity of two equal-length vectors, in [-1, 1].

    Returns 0.0 when either vector has zero length.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"cosine of shapes {va.shape} and {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = float(va @ vb) / (na * nb)
    return max(-1.0, min(1.0, value))
