"""Ranked runs and their TREC-format file representation.

A run maps each question id to an ordered list of (doc_id, score); the
order is authoritative, scores are advisory and may be similarities
(retrieval, higher is better) or distances (reranking, lower is better).
The file format is one line per entry:

    qid Q0 doc_id rank score tag

with rank starting at 1, best first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, open_text


@dataclass
class RankedRun:
    """Per-question ranked document lists under one run tag."""

    tag: str = ""
    per_question: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def __getitem__(self, qid: str) -> list[tuple[str, float]]:
        return self.per_question[qid]

    def __len__(self) -> int:
        return len(self.per_question)


def field_problem(text: str) -> str | None:
    """Why ``text`` cannot be a run-file field (empty, with whitespace, not UTF-8), or None."""
    if text.split() != [text]:
        return "must be non-empty and hold no whitespace"
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return "cannot be encoded as UTF-8"
    return None


def write_run(run: RankedRun, path) -> None:
    """Write a run file; scores use repr so reloading is bit-exact.  A qid,
    doc id or tag that :func:`read_run` could not read raises ``ValueError`` first."""
    tag = run.tag or "run"
    doc_ids = dict.fromkeys(d for entries in run.per_question.values() for d, _ in entries)
    for kind, values in (("tag", [tag]), ("qid", run.per_question), ("doc id", doc_ids)):
        for value in values:
            if problem := field_problem(value):
                raise ValueError(f"run {kind} {value!r} {problem}")
    with open(path, "w", encoding="utf-8") as fh:
        for qid, entries in run.per_question.items():
            for rank, (doc_id, score) in enumerate(entries, start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank} {float(score)!r} {tag}\n")


def read_run(path) -> RankedRun:
    """Parse a TREC run file.

    Entries are reordered by their rank field (ascending, stable); a
    duplicate (qid, doc_id) pair keeps its first occurrence.  The run's
    tag is the first entry's.
    """
    ranked: dict[str, list[tuple[int, int, str, float]]] = {}
    seen: set[tuple[str, str]] = set()
    file_tag = None
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 6:
                raise ParseError(f"expected 6 fields, got {len(fields)}",
                                 line_no=line_no, path=path)
            qid, _, doc_id, rank_s, score_s, line_tag = fields
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise ParseError("rank or score is not a number",
                                 line_no=line_no, path=path) from None
            if file_tag is None:
                file_tag = line_tag
            key = (qid, doc_id)
            if key in seen:
                continue
            seen.add(key)
            ranked.setdefault(qid, []).append((rank, line_no, doc_id, score))
    per_question = {
        qid: [(doc_id, score) for _, _, doc_id, score in sorted(entries)]
        for qid, entries in ranked.items()
    }
    return RankedRun(tag=file_tag or "", per_question=per_question)
