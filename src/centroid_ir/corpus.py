"""Corpus ingestion: JSON-lines documents with id, title, and abstract."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .errors import DuplicateId, ParseError, open_text
from .runs import field_problem


@dataclass(frozen=True)
class DocumentRecord:
    """One corpus item; retrieval treats it as title + abstract."""

    id: str
    title: str
    abstract: str

    @property
    def text(self) -> str:
        return f"{self.title} {self.abstract}".strip()


def record_id(obj: dict, line_no: int, path) -> str:
    """A JSON-lines record's ``id`` as text: a JSON string or integer that
    can be one field of a run file (:func:`~centroid_ir.runs.field_problem`)."""
    value = obj["id"]
    if not (isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool))):
        raise ParseError("'id' must be a JSON string or integer", line_no=line_no, path=path)
    text = str(value)
    if problem := field_problem(text):
        raise ParseError(f"'id' {problem}", line_no=line_no, path=path)
    return text


def _json_lines(path) -> Iterator[tuple[int, object]]:
    """``(line_no, value)`` for each non-blank line of a JSON-lines file."""
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line_no=line_no, path=path) from None
            yield line_no, obj


def iter_corpus(path) -> Iterator[DocumentRecord]:
    """Stream documents from a JSON-lines corpus file.

    Each line is an object with fields ``id``, ``title``, ``abstract``;
    other fields are ignored.  A missing or null title or abstract reads
    as ``""``; any other non-string one raises :class:`ParseError`, and a
    repeated id :class:`DuplicateId`.
    """
    seen: set[str] = set()
    for line_no, obj in _json_lines(path):
        if not isinstance(obj, dict) or "id" not in obj:
            raise ParseError("document object lacks an 'id' field", line_no=line_no, path=path)
        doc_id = record_id(obj, line_no, path)
        if doc_id in seen:
            raise DuplicateId(f"{path}: line {line_no}: repeated document id {doc_id!r}")
        seen.add(doc_id)
        title, abstract = ("" if obj.get(key) is None else obj[key]
                           for key in ("title", "abstract"))
        if not (isinstance(title, str) and isinstance(abstract, str)):
            raise ParseError("'title' and 'abstract' must be JSON strings or null",
                             line_no=line_no, path=path)
        yield DocumentRecord(id=doc_id, title=title, abstract=abstract)


def load_corpus(path) -> dict[str, DocumentRecord]:
    """Read a whole corpus into an id-keyed map."""
    return {record.id: record for record in iter_corpus(path)}
