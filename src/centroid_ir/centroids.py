"""Centroid vectors of tokenized texts, simple and IDF-weighted.

A text t with tokens w_1..w_n is represented by the weighted average

    c(t) = sum_j vec(w_j) * weight(w_j) / sum_j weight(w_j)

where weight(w) = TF(w, t) for the simple centroid and
weight(w) = TF(w, t) * IDF(w) for the IDF-weighted one.  Only in-vocabulary
tokens participate; a text whose weights sum to zero (all tokens out of
vocabulary, or all IDF scores zero) maps to the zero vector.  Because both
variants run through the same accumulation, the IDF-weighted centroid
degenerates to the simple one bit-for-bit when every IDF equals 1.

Accumulation happens in float64 even though stored vectors are float32;
abstracts run to hundreds of tokens and single precision drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embeddings import EmbeddingStore
from .errors import DimensionMismatch
from .text import TokenizedText


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
    def dim(self) -> int:
        return self.vec.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.norm == 0.0


def _weighted_centroid(text: TokenizedText, store: EmbeddingStore,
                       idf_of: Callable[[str], float] | None) -> Centroid:
    """The shared accumulation; weight(w) = TF(w) * idf_of(w), or TF(w)."""
    rows: list[int] = []
    weights: list[float] = []
    occurrences = 0
    for token, tf in text.tf.items():
        row = store.vocab.get(token)
        if row is None:
            continue
        weight = float(tf) if idf_of is None else float(tf) * idf_of(token)
        rows.append(row)
        weights.append(weight)
        if weight > 0.0:
            occurrences += tf
    denom = float(sum(weights))
    if denom <= 0.0:
        return Centroid(vec=np.zeros(store.dim), norm=0.0, n_known_tokens=0)
    w = np.asarray(weights, dtype=np.float64)
    vecs = store.matrix[rows].astype(np.float64)
    vec = (w @ vecs) / denom
    return Centroid(vec=vec, norm=float(np.linalg.norm(vec)), n_known_tokens=occurrences)


def centroid_simple(text: TokenizedText, store: EmbeddingStore) -> Centroid:
    """Average of the in-vocabulary token embeddings, with multiplicity."""
    return _weighted_centroid(text, store, None)


def centroid_idf(text: TokenizedText, store: EmbeddingStore) -> Centroid:
    """TF*IDF-weighted average of the in-vocabulary token embeddings.

    Requires IDF scores on the store.  Tokens whose weight is zero do not
    count towards ``n_known_tokens``; if every weight is zero the result
    is the zero centroid.
    """
    return _weighted_centroid(text, store, store.idf_of)


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
