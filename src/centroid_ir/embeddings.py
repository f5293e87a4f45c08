"""Word-embedding storage, the mapping of texts to word ids, and corpus IDF.

The store maps tokens to rows of a dense float32 matrix, loaded from a
plain-text embedding file, and optionally carries per-token inverse
document frequencies computed over a corpus:

    idf(w) = ln(n_docs / df(w))

with df(w) the number of documents containing w at least once.  Since
df >= 1 for every token that was observed, idf is always finite and
non-negative; tokens never observed in the corpus default to
ln(n_docs), the value a df = 1 token would get.

:func:`text_ids` is the one route from text to words: it splits each
text, numbers the distinct words, and applies the keep rule once per
distinct word.  Its ids feed :func:`idf_of` and, through
:meth:`EmbeddingStore.id_rows`, the vocabulary rows that centroids and
RWMD read.  ``idf`` is keyed by token and covers out-of-vocabulary
tokens too; ``idf_rows`` is the float64 vector over vocabulary rows,
which a ``centidf`` index built from the store takes over.
``row_sq_norms`` holds every row's squared norm in float64 for the RWMD
kernel, and :meth:`EmbeddingStore.fingerprint` identifies the vectors
an index was built from.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from collections import defaultdict
from functools import cached_property
from typing import Collection, Iterable, NoReturn

import numpy as np

from .errors import DimensionMismatch, ParseError, open_text
from .text import kept, words

# Rows per float64 copy in ``row_sq_norms``.  Kept small: the norms are
# computed inside the first rerank, beside its other buffers, and a larger
# copy raised the benchmark's peak memory.
_NORM_CHUNK = 256


class EmbeddingStore:
    """Vocabulary -> dense vector lookups, with optional IDF scores.

    ``vocab`` maps each word to its matrix row, and the rows are
    0..V-1, each once, so a row identifies its word.  The vocabulary and
    the matrix must not change once :meth:`fingerprint` or
    :attr:`row_sq_norms` has been read.
    """

    def __init__(self, vocab: dict[str, int], matrix: np.ndarray):
        if matrix.ndim != 2:
            raise ValueError("embedding matrix must be 2-dimensional")
        if len(vocab) != matrix.shape[0]:
            raise ValueError("vocab size does not match matrix rows")
        if (not all(isinstance(row, (int, np.integer)) for row in vocab.values())
                or sorted(vocab.values()) != list(range(len(vocab)))):
            raise ValueError("vocab rows must be the integers 0..V-1, each once")
        self.vocab = vocab
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        self.idf: dict[str, float] | None = None
        self.idf_rows: np.ndarray | None = None
        self.n_docs: int | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.vocab)

    def rows(self, tokens: list[str]) -> np.ndarray:
        """Vocabulary rows of the in-vocabulary ``tokens``, in order."""
        return np.array([self.vocab[t] for t in tokens if t in self.vocab], dtype=np.intp)

    def id_rows(self, distinct: list[str], ids: np.ndarray,
                bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vocabulary rows of word ids as :func:`text_ids` gives them,
        out-of-vocabulary words dropped, and the texts' bounds in them."""
        lut = np.fromiter(map(self.vocab.get, distinct, itertools.repeat(-1)), np.intp,
                          count=len(distinct))
        return _gather(lut, ids, bounds)

    def text_rows(self, texts: Iterable[str],
                  stopwords: frozenset[str] | set[str]) -> tuple[np.ndarray, np.ndarray]:
        """Each text's ``rows(tokenize(text, stopwords))``, concatenated, and
        the texts' bounds in them; the texts are read once."""
        return self.id_rows(*text_ids(texts, stopwords))

    @cached_property
    def row_sq_norms(self) -> np.ndarray:
        """Every row's squared Euclidean norm in float64, bit for bit as
        ``np.einsum("ij,ij->i", m, m)`` gives it for float64 rows ``m``.

        Computed on first use, a chunk of rows at a time.
        """
        out = np.empty(len(self))
        for lo in range(0, len(self), _NORM_CHUNK):
            chunk = self.matrix[lo:lo + _NORM_CHUNK].astype(np.float64)
            out[lo:lo + _NORM_CHUNK] = np.einsum("ij,ij->i", chunk, chunk)
        return out

    def set_idf(self, idf: dict[str, float], n_docs: int) -> None:
        """Attach an IDF table over ``n_docs`` documents and its row vector."""
        idf, n_docs = dict(idf), int(n_docs)
        default = math.log(n_docs) if n_docs else 0.0
        n = len(self.vocab)
        idf_rows = np.empty(n)
        idf_rows[np.fromiter(self.vocab.values(), np.intp, count=n)] = np.fromiter(
            map(idf.get, self.vocab, itertools.repeat(default)), np.float64, count=n)
        self.idf_rows, self.idf, self.n_docs = idf_rows, idf, n_docs

    @cached_property
    def _digest(self) -> bytes:
        """SHA-256 of V, dim, the tokens in row order (their lengths, then
        their text) and the float32 matrix."""
        tokens = [""] * len(self.vocab)
        for token, row in self.vocab.items():
            tokens[row] = token
        digest = hashlib.sha256(struct.pack("<QQ", len(tokens), self.dim))
        digest.update(np.fromiter(map(len, tokens), "<i8", count=len(tokens)))
        digest.update("".join(tokens).encode("utf-8", "surrogatepass"))
        digest.update(np.ascontiguousarray(self.matrix, "<f4"))
        return digest.digest()

    def fingerprint(self, idf_rows: np.ndarray | None = None) -> bytes:
        """32 bytes that identify the vocabulary and matrix and, when given,
        a centidf index's IDF weights ``idf_rows``.

        The vocabulary-and-matrix part is hashed on first use and kept;
        the weights are hashed on every call.
        """
        digest = hashlib.sha256(self._digest)
        if idf_rows is not None:
            weights = np.ascontiguousarray(idf_rows, "<f8")
            digest.update(b"\x01" + hashlib.sha256(weights).digest())
        return digest.digest()

    def compute_idf(self, docs: Iterable[list[str]]) -> dict[str, float]:
        """Compute IDF scores over ``docs``, read once, and attach them."""
        idf, n_docs = compute_idf(docs)
        self.set_idf(idf, n_docs)
        return idf


def _numbered(token_lists: Iterable[list[str]]) -> tuple[dict, np.ndarray, np.ndarray]:
    """Number the distinct tokens from 0 in first-seen order, in C; return
    the numbering, every token's number, and each list's bounds in those.
    The lists are read once, one at a time."""
    numbers = defaultdict(itertools.count().__next__)
    lengths = [0]

    def counted():
        for tokens in token_lists:
            lengths.append(len(tokens))
            yield tokens

    ids = np.fromiter(map(numbers.__getitem__, itertools.chain.from_iterable(counted())),
                      np.intp)
    return numbers, ids, np.cumsum(lengths, dtype=np.intp)


def _gather(lut: np.ndarray, ids: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """``lut[ids]`` without its negative entries, and ``bounds`` shifted to match."""
    found = lut[ids]
    missing = np.flatnonzero(found < 0)
    return np.delete(found, missing), bounds - np.searchsorted(missing, bounds)


def text_ids(texts: Iterable[str],
             stopwords: frozenset[str] | set[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct words of ``texts`` that :func:`~centroid_ir.text.tokenize`
    keeps, in first-seen order; their ids (indices into that list) in text
    order; and each text's bounds in the ids.  The texts are read once."""
    numbers, ids, bounds = _numbered(map(words, texts))
    kept_words = kept(numbers, stopwords)
    lut = np.full(len(numbers), -1, np.intp)
    lut[[numbers[word] for word in kept_words]] = np.arange(len(kept_words))
    return kept_words, *_gather(lut, ids, bounds)


def idf_of(distinct: Collection[str], ids: np.ndarray,
           bounds: np.ndarray) -> tuple[dict[str, float], int]:
    """The IDF of each of the ``distinct`` words over the documents whose
    word ids ``ids[bounds[i]:bounds[i + 1]]`` are, and the number of documents."""
    n_docs, n_words = len(bounds) - 1, len(distinct)
    # One key per (document, word), distinct while n_docs * n_words < 2**63.
    keys = np.repeat(np.arange(n_docs, dtype=np.int64) * n_words, np.diff(bounds)) + ids
    keys.sort()  # np.unique would hash, which is slower
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    df = np.bincount(keys[first] % n_words, minlength=n_words)
    return {word: math.log(n_docs / n) for word, n in zip(distinct, df.tolist())}, n_docs


def compute_idf(docs: Iterable[list[str]]) -> tuple[dict[str, float], int]:
    """IDF over a stream of token lists, read once, and the number of
    documents, as :func:`load_idf` returns them; ``({}, 0)`` for none."""
    return idf_of(*_numbered(docs))


def load_embeddings(path) -> EmbeddingStore:
    """Parse a text embedding file into an :class:`EmbeddingStore`.

    Format: optional first header line ``V D`` (two integers), then one
    line per word: the token followed by D decimal floats, whitespace
    separated.  The dimension is taken from the header or inferred from
    the first vector line; later occurrences of a word win, at the row of
    its first occurrence.  A header's V must equal the number of vector
    lines.  Numbers are read by numpy's text parser in one streaming
    pass; a file it rejects is scanned again line by line, only to name
    the first bad line in the error.
    """
    tokens: list[str] = []
    n_header: int | None = None
    dim: int | None = None

    def remainders(fh):
        nonlocal n_header, dim
        for line_no, line in enumerate(fh, start=1):
            parts = line.split(None, 1)
            if not parts:
                continue
            if not tokens and dim is None:
                fields = line.split()
                if len(fields) == 2 and _both_ints(fields):
                    n_header, dim = int(fields[0]), int(fields[1])
                    if n_header < 0 or dim < 0:
                        raise ParseError("header count and dimension must not be negative",
                                         line_no=line_no, path=path)
                    continue
            if len(parts) < 2:
                raise ValueError("token without vector components")
            tokens.append(parts[0])
            yield parts[1]

    matrix = None
    with open_text(path) as fh:
        rows = remainders(fh)
        try:
            first = next(rows, None)
            if first is not None:
                matrix = np.loadtxt(itertools.chain([first], rows), dtype=np.float32,
                                    comments=None, ndmin=2)
        except ValueError:
            _raise_first_bad_line(path)
    if matrix is None:
        if dim is None:
            raise ParseError("embedding file contains no header and no vectors", path=path)
        matrix = np.zeros((0, dim), dtype=np.float32)
    elif (dim is not None and matrix.shape[1] != dim) or not np.isfinite(matrix).all():
        _raise_first_bad_line(path)
    if n_header is not None and n_header != len(tokens):
        raise ParseError(f"header announces {n_header} vectors, file has {len(tokens)}",
                         path=path)
    last_line = {token: line for line, token in enumerate(tokens)}
    if len(last_line) < len(tokens):
        matrix = matrix[list(last_line.values())]
    return EmbeddingStore({token: row for row, token in enumerate(last_line)}, matrix)


def _raise_first_bad_line(path) -> NoReturn:
    """Scan an embedding file numpy rejected and raise for its first bad line."""
    dim: int | None = None
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if dim is None and len(fields) == 2 and _both_ints(fields):
                dim = int(fields[1])
                continue
            if len(fields) < 2:
                raise ParseError("expected a token followed by vector components",
                                 line_no=line_no, path=path)
            if dim is None:
                dim = len(fields) - 1
            elif len(fields) - 1 != dim:
                raise DimensionMismatch(
                    f"{path}: line {line_no}: expected {dim} components, got {len(fields) - 1}"
                )
            try:
                vec = np.loadtxt([line.split(None, 1)[1]], dtype=np.float32,
                                 comments=None, ndmin=2)
            except ValueError:
                raise ParseError("vector component is not a number",
                                 line_no=line_no, path=path) from None
            if not np.isfinite(vec).all():
                raise ParseError("vector component is not finite",
                                 line_no=line_no, path=path)
    raise ParseError("embedding file could not be parsed", path=path)


def _both_ints(fields: list[str]) -> bool:
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def save_idf(path, idf: dict[str, float], n_docs: int) -> None:
    """Write an IDF file: ``#ndocs=N`` header, then ``token<TAB>idf`` lines.

    Values are written with repr so a reload is bit-exact; tokens are
    sorted so repeated saves are byte-identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#ndocs={int(n_docs)}\n")
        for token in sorted(idf):
            fh.write(f"{token}\t{idf[token]!r}\n")


def load_idf(path) -> tuple[dict[str, float], int]:
    """Read an IDF file written by :func:`save_idf`.

    Raises :class:`ParseError` for a negative ``#ndocs``, a negative or
    non-finite value, and a token listed twice.
    """
    idf: dict[str, float] = {}
    n_docs: int | None = None
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("#ndocs="):
                    try:
                        n_docs = int(line[len("#ndocs="):])
                    except ValueError:
                        raise ParseError("bad #ndocs header", line_no=line_no, path=path) from None
                    if n_docs < 0:
                        raise ParseError("negative #ndocs", line_no=line_no, path=path)
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError("expected token<TAB>idf", line_no=line_no, path=path)
            token, text = parts
            try:
                value = float(text)
            except ValueError:
                raise ParseError("idf value is not a number", line_no=line_no, path=path) from None
            if not (math.isfinite(value) and value >= 0.0):
                raise ParseError("idf value is negative or not finite",
                                 line_no=line_no, path=path)
            if token in idf:
                raise ParseError(f"repeated token {token!r}", line_no=line_no, path=path)
            idf[token] = value
    if n_docs is None:
        raise ParseError("missing #ndocs header", path=path)
    return idf, n_docs
