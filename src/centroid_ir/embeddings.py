"""Word-embedding storage plus corpus IDF statistics.

The store maps tokens to rows of a dense float32 matrix, loaded from a
plain-text embedding file, and optionally carries per-token inverse
document frequencies computed over a tokenized corpus:

    idf(w) = ln(n_docs / df(w))

with df(w) the number of documents containing w at least once.  Since
df >= 1 for every token that was observed, idf is always finite and
non-negative; tokens never observed in the corpus default to
ln(n_docs), the value a df = 1 token would get.

The table ``idf`` is keyed by token and covers out-of-vocabulary tokens
too; ``idf_rows`` is the float64 vector over vocabulary rows that the
centroid arithmetic reads and a ``centidf`` index keeps (``set_idf_rows``
attaches it alone).  :meth:`EmbeddingStore.rows_many` maps token lists to
rows, for one text (:meth:`EmbeddingStore.rows`) or a whole corpus, and
:meth:`EmbeddingStore.text_rows` maps raw texts the same way, as
:func:`~centroid_ir.text.tokenize` would filter them, with one dictionary
lookup per word.  ``row_sq_norms`` holds every row's squared norm in
float64 for the RWMD kernel.  :meth:`EmbeddingStore.fingerprint`
identifies the vectors, and optionally the IDF scores, that an index was
built from.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, NoReturn

import numpy as np

from .errors import DimensionMismatch, ParseError, open_text
from .text import kept, words

# EmbeddingStore.text_rows builds its lookup from the whole vocabulary
# once the texts hold this many characters per vocabulary word.  On the
# 4 113 rerank-batch documents (2.4M characters), collecting their
# distinct words and filtering the vocabulary cost the same at about
# V = 120 000, 20 characters per word; the lower value leans towards the
# vocabulary, which lets the texts stream instead of holding their words.
_CHARS_PER_VOCAB_WORD = 16

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

    def __init__(
        self,
        vocab: dict[str, int],
        matrix: np.ndarray,
        idf: dict[str, float] | None = None,
        n_docs: int | None = None,
    ):
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
        self._idf_digest: bytes | None = None
        self.n_docs = n_docs
        if idf is not None:
            self.set_idf(idf, n_docs or 0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.vocab)

    def rows(self, tokens: list[str]) -> np.ndarray:
        """Vocabulary rows of the in-vocabulary ``tokens``, in order."""
        return self.rows_many([tokens])[0]

    def rows_many(self, texts: Iterable[list[str]]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`rows` of every token list, concatenated, and their bounds.

        Text i's rows are ``rows[bounds[i]:bounds[i + 1]]``; ``bounds``
        has one entry more than there are texts and starts at 0.  The
        texts are read once, so a generator need not hold them all.
        """
        return _map_rows(self.vocab, texts)

    def text_rows(self, texts: Iterable[str],
                  stopwords: frozenset[str] | set[str]) -> tuple[np.ndarray, np.ndarray]:
        """``rows_many(tokenize(text, stopwords) for text in texts)``, with
        one dictionary lookup per word.

        The lookup holds the in-vocabulary words that
        :func:`~centroid_ir.text.kept` keeps, so a dropped word maps like
        an out-of-vocabulary one.  It is built from the texts' distinct
        words or, once the texts hold ``_CHARS_PER_VOCAB_WORD`` characters
        per vocabulary word, from the whole vocabulary, which then costs
        less; either way a call costs O(characters), whatever the size of
        the vocabulary.  Only the first way holds all the texts' words at
        once.
        """
        texts = list(texts)
        vocab = self.vocab
        if sum(map(len, texts)) < _CHARS_PER_VOCAB_WORD * len(vocab):
            word_lists = [words(text) for text in texts]
            candidates = vocab.keys() & set(itertools.chain.from_iterable(word_lists))
        else:
            word_lists, candidates = map(words, texts), vocab
        lookup = {word: vocab[word] for word in kept(candidates, stopwords)}
        return _map_rows(lookup, word_lists)

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
        self.set_idf_rows(idf_rows)
        self.idf, self.n_docs = idf, n_docs

    def set_idf_rows(self, idf_rows) -> None:
        """Attach IDF weights, one float64 per vocabulary row, without a token
        table: ``idf`` and ``n_docs`` become None."""
        idf_rows = np.ascontiguousarray(idf_rows, dtype=np.float64)
        if idf_rows.shape != (len(self.vocab),):
            raise ValueError(f"IDF weights of shape {idf_rows.shape} for {len(self)} rows")
        self.idf_rows, self.idf, self.n_docs = idf_rows, None, None
        self._idf_digest = hashlib.sha256(np.ascontiguousarray(idf_rows, "<f8")).digest()

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

    def fingerprint(self, idf: bool) -> bytes:
        """32 bytes that identify the vocabulary and matrix, and with ``idf``
        also ``idf_rows``, or their absence.

        The vocabulary-and-matrix part is hashed on first use and kept;
        the IDF part is hashed when the scores are attached.
        """
        digest = hashlib.sha256(self._digest)
        if idf:
            digest.update(b"\x00" if self._idf_digest is None else b"\x01" + self._idf_digest)
        return digest.digest()

    def compute_idf(self, docs: Iterable[list[str]]) -> dict[str, float]:
        """Compute IDF scores over ``docs``, read once, and attach them."""
        idf, n_docs = compute_idf(docs)
        self.set_idf(idf, n_docs)
        return idf


def _map_rows(lookup: Mapping[str, int],
              texts: Iterable[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``lookup`` gives every token of every text, concatenated,
    with tokens it lacks dropped, and the texts' bounds in that array."""
    lengths = [0]

    def token_lists():
        for tokens in texts:
            lengths.append(len(tokens))
            yield tokens

    tokens = itertools.chain.from_iterable(token_lists())
    found = np.fromiter(map(lookup.get, tokens, itertools.repeat(-1)), np.intp)
    missing = np.flatnonzero(found < 0)
    bounds = np.cumsum(lengths, dtype=np.intp)
    return np.delete(found, missing), bounds - np.searchsorted(missing, bounds)


def compute_idf(docs: Iterable[list[str]]) -> tuple[dict[str, float], int]:
    """idf(w) = ln(n_docs / df(w)) over a stream of token lists.

    Each document counts its distinct tokens once towards df.  Returns
    the IDF map and the number of documents read, the pair that
    :func:`load_idf` returns.  An empty stream yields ``({}, 0)``.
    """
    n_docs = 0

    def token_sets():
        nonlocal n_docs
        for n_docs, tokens in enumerate(docs, start=1):
            yield set(tokens)

    df = Counter(itertools.chain.from_iterable(token_sets()))
    return {token: math.log(n_docs / n) for token, n in df.items()}, n_docs


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
