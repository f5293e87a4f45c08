"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
byte-identical arrays and files, so every run of a workload at one seed
asks the program the same questions.

The data follow a topic mixture.  Each of ``n_topics`` topics has a
centre in embedding space and owns a contiguous block of the vocabulary;
a word's vector is its topic centre plus noise.  Topic popularity and
word popularity within a topic are Zipf-distributed, and a share of each
document's tokens comes from a global Zipf background instead, so
popular words cross topics.  A question is a handful of tokens drawn
from one source document, which is the one document judged relevant to
it (planted qrels).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Vocab:
    words: list[str]
    matrix: np.ndarray  # (V, dim) float32


@dataclass(frozen=True)
class Docs:
    """Documents as token-id CSR: doc i owns ``ids[indptr[i]:indptr[i + 1]]``."""

    indptr: np.ndarray  # (n_docs + 1,) int64
    ids: np.ndarray     # (n_tokens,) int32, rows of the vocab


@dataclass(frozen=True)
class Questions:
    """Question token-id rows (equal length) and each one's source document."""

    ids: np.ndarray     # (n_questions, q_len) int32
    source: np.ndarray  # (n_questions,) int64


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), cdf.size - 1)


def make_vocab(rng: np.random.Generator, n_words: int, dim: int, n_topics: int,
               word_noise: float = 1.0) -> Vocab:
    """Topic-clustered word vectors; topic t owns words ``t * n_words // n_topics`` on."""
    centres = rng.standard_normal((n_topics, dim))
    topic_of = np.arange(n_words) * n_topics // n_words
    matrix = centres[topic_of] + word_noise * rng.standard_normal((n_words, dim))
    # Six decimals survive a round trip through the text embedding format.
    matrix = np.round(matrix, 6).astype(np.float32)
    return Vocab(words=[f"w{i}" for i in range(n_words)], matrix=matrix)


def make_docs(rng: np.random.Generator, n_words: int, n_topics: int, n_docs: int,
              mean_len: int, topic_share: float = 0.75, chunk: int = 8192) -> Docs:
    """Topic-Zipf documents of ``mean_len // 2 .. 3 * mean_len // 2`` tokens.

    Tokens are drawn ``chunk`` documents at a time to bound the memory the
    generator itself takes.
    """
    lengths = rng.integers(mean_len // 2, 3 * mean_len // 2 + 1, size=n_docs)
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    doc_topic = _draw(rng, _zipf_cdf(n_topics, 1.0), n_docs)
    topic_cdf = _zipf_cdf(n_words // n_topics, 1.0)
    background_cdf = _zipf_cdf(n_words, 1.0)
    background_word = rng.permutation(n_words)
    ids = np.empty(int(indptr[-1]), dtype=np.int32)
    for lo in range(0, n_docs, chunk):
        hi = min(lo + chunk, n_docs)
        size = int(indptr[hi] - indptr[lo])
        token_topic = np.repeat(doc_topic[lo:hi], lengths[lo:hi])
        topical = token_topic * n_words // n_topics + _draw(rng, topic_cdf, size)
        background = background_word[_draw(rng, background_cdf, size)]
        ids[indptr[lo]:indptr[hi]] = np.where(rng.random(size) < topic_share, topical, background)
    return Docs(indptr=indptr, ids=ids)


def make_questions(rng: np.random.Generator, docs: Docs, n_questions: int,
                   q_len: int) -> Questions:
    """Each question samples ``q_len`` token positions of one random document."""
    n_docs = docs.indptr.size - 1
    source = rng.choice(n_docs, size=n_questions, replace=False).astype(np.int64)
    start = docs.indptr[source]
    length = docs.indptr[source + 1] - start
    pos = start[:, None] + (rng.random((n_questions, q_len)) * length[:, None]).astype(np.int64)
    return Questions(ids=docs.ids[pos], source=source)


def doc_id(i: int) -> str:
    return f"d{i}"


def question_id(i: int) -> str:
    return f"q{i}"


def text_of(vocab: Vocab, ids) -> str:
    words = vocab.words
    return " ".join(words[i] for i in ids)


def weighted_rows(vocab: Vocab, docs: Docs, weights: np.ndarray | None = None,
                  chunk: int = 256) -> np.ndarray:
    """Per-document weighted mean of word vectors in float64, zero when weightless.

    With ``weights`` None every token weighs 1 (the simple centroid);
    with per-word weights (e.g. IDF) it is the IDF-weighted centroid.
    """
    n_docs = docs.indptr.size - 1
    out = np.zeros((n_docs, vocab.matrix.shape[1]), dtype=np.float64)
    for lo in range(0, n_docs, chunk):
        hi = min(lo + chunk, n_docs)
        a, b = docs.indptr[lo], docs.indptr[hi]
        ids = docs.ids[a:b]
        w = np.ones(ids.size) if weights is None else weights[ids]
        # Segment sums as differences of running sums, reset every chunk.
        ends = docs.indptr[lo + 1:hi + 1] - a
        starts = docs.indptr[lo:hi] - a
        cum = np.zeros((ids.size + 1, vocab.matrix.shape[1]))
        np.cumsum(vocab.matrix[ids] * w[:, None], axis=0, out=cum[1:])
        sums = cum[ends] - cum[starts]
        wcum = np.concatenate(([0.0], np.cumsum(w)))
        denom = wcum[ends] - wcum[starts]
        ok = denom > 0
        out[lo:hi][ok] = sums[ok] / denom[ok, None]
    return out


def idf_of(docs: Docs, n_words: int) -> np.ndarray:
    """ln(n_docs / df) per word, ln(n_docs) for words no document holds."""
    n_docs = docs.indptr.size - 1
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(docs.indptr))
    pairs = np.unique(doc_of * n_words + docs.ids)
    df = np.bincount(pairs % n_words, minlength=n_words)
    return np.log(n_docs / np.maximum(df, 1))


def write_files(out_dir: Path, vocab: Vocab, docs: Docs, questions: Questions) -> dict[str, Path]:
    """The CLI's inputs: text embeddings, JSONL corpus and questions, qrels."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / name for name in
             ("embeddings.txt", "corpus.jsonl", "questions.jsonl", "qrels.txt")}
    dim = vocab.matrix.shape[1]
    with open(paths["embeddings.txt"], "w", encoding="utf-8") as fh:
        fh.write(f"{len(vocab.words)} {dim}\n")
        for word, row in zip(vocab.words, vocab.matrix.tolist()):
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in row) + "\n")
    with open(paths["corpus.jsonl"], "w", encoding="utf-8") as fh:
        for i in range(docs.indptr.size - 1):
            tokens = docs.ids[docs.indptr[i]:docs.indptr[i + 1]]
            record = {"id": doc_id(i), "title": text_of(vocab, tokens[:8]),
                      "abstract": text_of(vocab, tokens[8:])}
            fh.write(json.dumps(record) + "\n")
    with open(paths["questions.jsonl"], "w", encoding="utf-8") as fh:
        for i, ids in enumerate(questions.ids):
            fh.write(json.dumps({"id": question_id(i), "text": text_of(vocab, ids)}) + "\n")
    with open(paths["qrels.txt"], "w", encoding="utf-8") as fh:
        for i, src in enumerate(questions.source):
            fh.write(f"{question_id(i)} 0 {doc_id(int(src))} 1\n")
    return paths
