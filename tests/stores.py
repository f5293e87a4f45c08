"""Embedding stores built in memory for the tests, skipping file IO."""

import numpy as np

from centroid_ir import EmbeddingStore


def make_store(vectors: dict[str, list[float]], idf: dict[str, float] | None = None,
               n_docs: int | None = None) -> EmbeddingStore:
    """Build a store straight from token -> vector, skipping file IO."""
    vocab = {token: i for i, token in enumerate(vectors)}
    matrix = np.array(list(vectors.values()), dtype=np.float32)
    store = EmbeddingStore(vocab, matrix)
    if idf is not None:
        store.set_idf(idf, n_docs if n_docs is not None else 4)
    return store


def random_store(rng: np.random.Generator, n_words: int, dim: int) -> EmbeddingStore:
    words = [f"w{i}" for i in range(n_words)]
    matrix = rng.normal(size=(n_words, dim)).astype(np.float32)
    vocab = {w: i for i, w in enumerate(words)}
    return EmbeddingStore(vocab, matrix)


def stacked_rows(store: EmbeddingStore, token_lists) -> tuple[np.ndarray, np.ndarray]:
    """Each token list's ``store.rows``, concatenated, and their bounds: the
    per-text reference for the package's one-pass mapping."""
    per_text = [store.rows(tokens) for tokens in token_lists]
    bounds = np.cumsum([0] + [len(rows) for rows in per_text], dtype=np.intp)
    return np.concatenate([np.zeros(0, np.intp), *per_text]), bounds
