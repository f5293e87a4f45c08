"""Ranked-run evaluation against binary relevance judgments.

Per question, over a ranking d_1, d_2, ... and a non-empty set of
relevant ids R:

* average precision      AP  = (1/|R|) * sum over ranks i with d_i in R
                          of precision@i; relevant documents never
                          retrieved contribute zero.
* interpolated precision IP(r) = max precision at any achieved recall
                          >= r, evaluated at the 11 recall levels
                          0.0, 0.1, ..., 1.0; zero where no such point
                          exists.  AIP is the mean of the 11 values.
* nDCG@k                  DCG@k = sum_{i<=k} rel_i / log2(i + 1) with
                          rel_i in {0, 1}, normalized by the DCG of an
                          ideal ranking (min(k, |R|) leading ones).

Aggregates (MAP, MAIP, the 11-point MIP curve, mean nDCG@k) are
arithmetic means over the questions that have judgments.  Questions
judged but absent from a run score zero everywhere; questions whose
gold set is empty are excluded and counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ParseError, open_text
from .runs import RankedRun

RECALL_LEVELS = tuple(i / 10.0 for i in range(11))

# Slack when matching achieved recall against the grid: recall values are
# multiples of 1/|rel|, far coarser than 1e-9.
_GRID_EPS = 1e-9

DEFAULT_NDCG_K = (20, 100)


def read_qrels(path) -> dict[str, set[str]]:
    """Parse TREC qrels: ``qid 0 doc_id rel`` with binary rel; rel=0 ignored."""
    qrels: dict[str, set[str]] = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 4:
                raise ParseError(f"expected 4 fields, got {len(fields)}",
                                 line_no=line_no, path=path)
            qid, _, doc_id, rel_s = fields
            if rel_s not in ("0", "1"):
                raise ParseError(f"relevance must be 0 or 1, got {rel_s!r}",
                                 line_no=line_no, path=path)
            qrels.setdefault(qid, set())
            if rel_s == "1":
                qrels[qid].add(doc_id)
    return qrels


def average_precision(ranking, rel: set[str]) -> float:
    """AP of one ranking against a non-empty relevant set."""
    if not rel:
        raise ValueError("relevant set must be non-empty")
    _, precisions = _precision_recall_points(ranking, rel)
    # A sequential Python sum: np.sum's pairwise order can change the last bits.
    return float(sum(precisions.tolist())) / len(rel)


def _precision_recall_points(ranking, rel: set[str]) -> tuple[np.ndarray, np.ndarray]:
    """(recall, precision) at every rank where a relevant document appears."""
    recalls = []
    precisions = []
    hits = 0
    for i, doc_id in enumerate(ranking, start=1):
        if doc_id in rel:
            hits += 1
            recalls.append(hits / len(rel))
            precisions.append(hits / i)
    return np.asarray(recalls), np.asarray(precisions)


def interpolated_precision_curve(ranking, rel: set[str]) -> np.ndarray:
    """Interpolated precision at the 11 standard recall levels."""
    if not rel:
        raise ValueError("relevant set must be non-empty")
    recalls, precisions = _precision_recall_points(ranking, rel)
    curve = np.zeros(len(RECALL_LEVELS))
    for i, level in enumerate(RECALL_LEVELS):
        reachable = precisions[recalls >= level - _GRID_EPS]
        if reachable.size:
            curve[i] = reachable.max()
    return curve


def ndcg_at_k(ranking, rel: set[str], k: int) -> float:
    """Binary-relevance nDCG at depth k."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not rel:
        raise ValueError("relevant set must be non-empty")
    dcg = 0.0
    for i, doc_id in enumerate(ranking[:k], start=1):
        if doc_id in rel:
            dcg += 1.0 / math.log2(i + 1)
    ideal = sum(1.0 / math.log2(i + 1) for i in range(1, min(k, len(rel)) + 1))
    return dcg / ideal


@dataclass(frozen=True)
class QuestionScores:
    ap: float
    aip: float
    ip_curve: tuple[float, ...]
    ndcg: dict[int, float]


@dataclass
class EvalReport:
    per_question: dict[str, QuestionScores]
    map: float
    maip: float
    mip_curve: tuple[float, ...]
    mean_ndcg: dict[int, float]
    n_questions: int
    n_excluded: int
    excluded: list[str] = field(default_factory=list)


def evaluate(run, qrels: dict[str, set[str]], k_list=DEFAULT_NDCG_K,
             map_depth: int | None = None) -> EvalReport:
    """Score a run against qrels and aggregate over judged questions.

    Questions with an empty gold set are excluded (and counted);
    questions judged but missing from the run are scored against an
    empty ranking.  Raises :class:`EvaluationError` when the run and
    the judged questions share no qid at all.  ``map_depth`` truncates
    the ranking for AP only, mirroring platforms that cut off at a
    fixed depth; it must be at least 1.
    """
    if map_depth is not None and map_depth < 1:
        raise ValueError(f"map_depth must be at least 1, got {map_depth}")
    per_run = run.per_question if isinstance(run, RankedRun) else dict(run)
    k_list = tuple(int(k) for k in k_list)
    eligible = {qid: rel for qid, rel in qrels.items() if rel}
    excluded = sorted(qid for qid in qrels if not qrels[qid])
    if not eligible or not set(eligible) & set(per_run):
        raise EvaluationError("run and qrels share no judged question ids")

    per_question: dict[str, QuestionScores] = {}
    for qid in sorted(eligible):
        rel = eligible[qid]
        ranking = [doc_id for doc_id, _ in per_run.get(qid, [])]
        curve = interpolated_precision_curve(ranking, rel)
        per_question[qid] = QuestionScores(
            ap=average_precision(ranking if map_depth is None else ranking[:map_depth], rel),
            aip=float(curve.mean()),
            ip_curve=tuple(float(v) for v in curve),
            ndcg={k: ndcg_at_k(ranking, rel, k) for k in k_list},
        )

    n = len(per_question)
    scores = list(per_question.values())
    mip = np.mean([s.ip_curve for s in scores], axis=0)
    return EvalReport(
        per_question=per_question,
        map=float(np.mean([s.ap for s in scores])),
        maip=float(np.mean([s.aip for s in scores])),
        mip_curve=tuple(float(v) for v in mip),
        mean_ndcg={k: float(np.mean([s.ndcg[k] for s in scores])) for k in k_list},
        n_questions=n,
        n_excluded=len(excluded),
        excluded=excluded,
    )


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view of a report; the MIP curve as (recall, precision) pairs."""
    return {
        "n_questions": report.n_questions,
        "n_excluded": report.n_excluded,
        "excluded": report.excluded,
        "map": report.map,
        "maip": report.maip,
        "mip_curve": [[level, value] for level, value in zip(RECALL_LEVELS, report.mip_curve)],
        "mean_ndcg": {str(k): v for k, v in sorted(report.mean_ndcg.items())},
        "per_question": {
            qid: {
                "ap": s.ap,
                "aip": s.aip,
                "ip_curve": [[level, value] for level, value in zip(RECALL_LEVELS, s.ip_curve)],
                "ndcg": {str(k): v for k, v in sorted(s.ndcg.items())},
            }
            for qid, s in report.per_question.items()
        },
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def report_table(report: EvalReport) -> str:
    """Plain-text summary table of the aggregate metrics."""
    lines = [
        f"questions evaluated : {report.n_questions}",
        f"questions excluded  : {report.n_excluded}",
        f"MAP                 : {report.map:.5f}",
        f"MAIP                : {report.maip:.5f}",
    ]
    for k in sorted(report.mean_ndcg):
        lines.append(f"nDCG@{k:<4d}           : {report.mean_ndcg[k]:.5f}")
    lines.append("interpolated precision at 11 recall levels:")
    lines.append("  recall  " + "  ".join(f"{level:4.1f}" for level in RECALL_LEVELS))
    lines.append("  prec    " + "  ".join(f"{v:4.2f}" for v in report.mip_curve))
    return "\n".join(lines) + "\n"
