"""Text normalization: lowercasing, splitting, stop-word removal.

Every document and question is read through the rules here before any
vector arithmetic, so they pin down the vocabulary seen by the rest of
the pipeline.  The rules are deliberately simple and reproducible:
lowercase, split on anything that is not a letter or digit (:func:`words`),
drop stop words, by default the bundled :func:`default_stopwords`, and
single-digit tokens (:func:`kept`).  No stemming, no lemmatization.
:func:`tokenize` applies both to one text, the per-text reference, with no
stop words by default; :func:`~centroid_ir.embeddings.text_ids`, which maps
every text of the pipeline, applies :func:`kept` once per distinct word.

A separator is any character for which ``str.isalnum()`` is false (the
regular expression ``[^\\W_]+`` picks out the same tokens).  The split is
one ``str.translate`` that turns every separator into a space, then
``str.split()``; the translation table is filled one code point at a
time, the first time each code point is seen, and holds only code points
below U+10000; one above is classified again each time it is seen.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import Iterable

from .errors import open_text


class _SeparatorTable(dict):
    """Code point -> itself for letters and digits, -> a space otherwise.

    Entries are added on first lookup, so importing the package builds
    nothing and a text pays only for code points never seen before.
    """

    def __missing__(self, cp: int) -> int | str:
        value = cp if chr(cp).isalnum() else " "
        if cp < 0x10000:
            self[cp] = value
        return value


_SEPARATORS = _SeparatorTable()


def words(text: str) -> list[str]:
    """``text`` lowercased and split on non-alphanumerics, before filtering."""
    return text.lower().translate(_SEPARATORS).split()


def kept(tokens: Iterable[str], stopwords: frozenset[str] | set[str] | None = None) -> list[str]:
    """The ``tokens`` that :func:`tokenize` keeps, in order: all but stop
    words (None: :func:`default_stopwords`) and pure-digit tokens of length 1."""
    if stopwords is None:
        stopwords = default_stopwords()
    return [t for t in tokens if t not in stopwords and not (len(t) == 1 and t.isdigit())]


def tokenize(text: str, stopwords: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Lowercase ``text``, split on non-alphanumerics, and filter.

    Filtering drops stop-word tokens and pure-digit tokens of length 1.
    Token order follows the input, duplicates kept; empty input yields an
    empty list.  Stop-word entries are expected lowercase.
    """
    return kept(words(text), stopwords)


def _parse_stopwords(lines: Iterable[str]) -> frozenset[str]:
    """One token per line, lowercased; blank lines and ``#`` comments skipped."""
    words = (line.strip() for line in lines)
    return frozenset(word.lower() for word in words if word and not word.startswith("#"))


def load_stopwords(path) -> frozenset[str]:
    """Read a stop-word file: UTF-8, one token per line, ``#`` comments."""
    with open_text(path) as fh:
        return _parse_stopwords(fh)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled English stop-word list."""
    text = resources.files("centroid_ir.data").joinpath("stopwords.txt").read_text("utf-8")
    return _parse_stopwords(text.splitlines())
