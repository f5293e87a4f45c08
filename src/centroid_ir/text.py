"""Text normalization: lowercasing, splitting, stop-word removal.

Every document and question passes through :func:`tokenize` before any
vector arithmetic, so the rules here pin down the vocabulary seen by the
rest of the pipeline.  The rules are deliberately simple and reproducible:
lowercase, split on anything that is not a letter or digit, drop stop
words and single-digit tokens.  No stemming, no lemmatization.

A separator is any character for which ``str.isalnum()`` is false (the
regular expression ``[^\\W_]+`` picks out the same tokens).  The split is
one ``str.translate`` that turns every separator into a space, then
``str.split()``; the translation table is filled one code point at a
time, the first time each code point is seen, and holds only code points
below U+10000; one above is classified again each time it is seen.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import Iterable


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


@dataclass(frozen=True)
class TokenizedText:
    """Tokens of one text in original order, duplicates preserved.

    ``tf`` is derived on first use: ``sum(tf.values()) == len(tokens)``
    always holds, since it counts every occurrence.
    """

    tokens: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def tf(self) -> dict[str, int]:
        return dict(Counter(self.tokens))

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "TokenizedText":
        return cls(tokens=tokens)


def tokenize(text: str, stopwords: frozenset[str] | set[str] = frozenset()) -> TokenizedText:
    """Lowercase ``text``, split on non-alphanumerics, and filter.

    Filtering drops stop-word tokens and pure-digit tokens of length 1.
    Token order follows the input; empty input yields an empty result.
    Stop-word entries are expected lowercase.
    """
    tokens = [
        t
        for t in text.lower().translate(_SEPARATORS).split()
        if t not in stopwords and not (len(t) == 1 and t.isdigit())
    ]
    return TokenizedText.from_tokens(tokens)


def _parse_stopwords(lines: Iterable[str]) -> frozenset[str]:
    """One token per line, lowercased; blank lines and ``#`` comments skipped."""
    words = (line.strip() for line in lines)
    return frozenset(word.lower() for word in words if word and not word.startswith("#"))


def load_stopwords(path) -> frozenset[str]:
    """Read a stop-word file: UTF-8, one token per line, ``#`` comments."""
    with open(path, encoding="utf-8") as fh:
        return _parse_stopwords(fh)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled English stop-word list."""
    text = resources.files("centroid_ir.data").joinpath("stopwords.txt").read_text("utf-8")
    return _parse_stopwords(text.splitlines())
