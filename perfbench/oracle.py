"""Float64 references the benchmark checks the program's outputs against.

Each check returns a list of human-readable problems; an empty list means
the output is correct.  Tolerances cover float32 storage in the program
and nothing more.
"""

from __future__ import annotations

import math

import numpy as np

# Cosines are computed in float32 by the program; 1e-5 is a few ulps of
# accumulated error at these dimensions, far below any real score gap.
SCORE_TOL = 1e-5


def unit(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)


def row_of(doc_id: str) -> int:
    return int(doc_id[1:])


def check_order(label: str, hits, descending: bool) -> list[str]:
    """Scores sorted (descending or ascending), ties by ascending doc id."""
    sign = -1.0 if descending else 1.0
    keys = [(sign * score, doc) for doc, score in hits]
    if keys != sorted(keys):
        return [f"{label}: list is not ordered by score with ascending-id ties"]
    return []


def check_scores(label: str, hits, want: np.ndarray) -> list[str]:
    """Every returned score equals the reference cosine ``want`` of its hit."""
    if not hits:
        return []
    got = np.array([score for _, score in hits])
    worst = float(np.abs(got - want).max())
    if worst > SCORE_TOL:
        return [f"{label}: score differs from exact cosine by {worst:.3g}"]
    return []


def check_exact_topk(label: str, hits, ref_scores: np.ndarray, k: int) -> list[str]:
    """``hits`` is the exact top k of ``ref_scores``, up to float32 near-ties."""
    want = ref_scores[[row_of(doc) for doc, _ in hits]]
    problems = check_scores(label, hits, want) + check_order(label, hits, True)
    kk = min(k, ref_scores.size)
    if len(hits) != kk:
        return problems + [f"{label}: {len(hits)} hits, expected {kk}"]
    kth = np.partition(ref_scores, ref_scores.size - kk)[ref_scores.size - kk]
    rows = {row_of(doc) for doc, _ in hits}
    if any(ref_scores[r] < kth - SCORE_TOL for r in rows):
        problems.append(f"{label}: a returned document is below the exact k-th score")
    if any(r not in rows for r in np.flatnonzero(ref_scores > kth + SCORE_TOL)):
        problems.append(f"{label}: a document above the exact k-th score is missing")
    return problems


def topk_rows(ref_scores: np.ndarray, k: int) -> set[int]:
    kk = min(k, ref_scores.size)
    return set(np.argpartition(-ref_scores, kk - 1)[:kk].tolist())


def overlap(hits, rows: set[int]) -> float:
    return len({row_of(doc) for doc, _ in hits} & rows) / max(len(rows), 1)


def rwmd_q(q_vecs: np.ndarray, d_vecs: np.ndarray) -> float:
    """Sum over question words of the distance to the nearest document word."""
    if len(q_vecs) == 0:
        return 0.0
    if len(d_vecs) == 0:
        return math.inf
    diff = q_vecs[:, None, :].astype(np.float64) - d_vecs[None, :, :].astype(np.float64)
    return float(np.sqrt((diff ** 2).sum(axis=-1)).min(axis=1).sum())


def average_precision(ranking: list[str], relevant: set[str]) -> float:
    hits = 0
    total = 0.0
    for rank, doc in enumerate(ranking, start=1):
        if doc in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)
