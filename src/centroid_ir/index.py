"""Exact and forest-approximated top-k cosine retrieval over document centroids.

Documents live in an N x D matrix of L2-normalized centroids, so cosine
similarity is a plain dot product.  Exact retrieval scans the matrix; the
approximate path searches a forest of random-hyperplane partition trees:

* Each tree splits its points recursively.  A split picks two distinct
  points uniformly at random and cuts along their perpendicular bisector
  (normal = normalized difference, offset = normal . midpoint); points with
  ``normal . x - offset >= 0`` go right.  Recursion stops at ``leaf_cap``
  points, or when random picks keep landing on duplicate points.
* A query collects distinct candidate rows from the trees' leaves in order
  of priority, the smallest hyperplane margin crossed on the way down,
  until the ``search_k`` budget is met, then scores the candidates by
  exact cosine.  Approximation therefore affects which documents are
  considered, never the score a returned document gets.
* Leaves of equal priority are taken by depth, then tree, then leaf id.
  One best-first queue walks all trees, reading plain Python lists
  (:attr:`Tree.lists`) per pop and removing repeated rows once per
  budget step.
* When ``search_k`` is at least N, or ``n_trees * n_docs`` is at most
  :data:`_SCAN_RATIO` times it, the query scores every row instead and
  returns the exact result: there one matrix-vector product costs less
  than the walk.

Everything is deterministic: the split sampler is seeded per
(seed, tree, node path), and ties in the final ranking break by ascending
document id.
"""

from __future__ import annotations

import heapq
import struct
import threading
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DuplicateId, IndexFormatError, StateError

MAGIC = b"CRVI"
VERSION = 4
_FINGERPRINT_BYTES = 32

MODES = ("cent", "centidf")
_MODE_CODES = (None, *MODES)

DEFAULT_TREES = 100
DEFAULT_LEAF_CAP = 32
DEFAULT_SEED = 42

# One initial pick plus three retries before a duplicate-point node
# becomes a forced (possibly oversized) leaf.
_PICK_ATTEMPTS = 4

# The scan rule: ann_topk scores every row when n_trees * n_docs is at
# most this many times its budget.  The walk's cost grows with the
# budget and the scan's with n_docs; in that range one BLAS
# matrix-vector product over all rows beat the walk in every cell timed
# (see CHANGES.md).
_SCAN_RATIO = 64


@dataclass
class Tree:
    """One partition tree, flattened into arrays.

    ``children[i]`` holds encoded refs: ``ref >= 0`` is an internal node
    id, ``ref < 0`` is leaf ``-ref - 1``.  Leaf ``j`` owns
    ``leaf_items[leaf_bounds[j]:leaf_bounds[j + 1]]``.  The leaves of a
    tree partition the row indices 0..N-1 exactly.
    """

    normals: np.ndarray      # (n_internal, dim) float32, unit length
    offsets: np.ndarray      # (n_internal,) float32
    children: np.ndarray     # (n_internal, 2) int32: [left, right]
    leaf_bounds: np.ndarray  # (n_leaves + 1,) int64
    leaf_items: np.ndarray   # (N,) int32
    root: int

    @property
    def n_internal(self) -> int:
        return self.normals.shape[0]

    @property
    def n_leaves(self) -> int:
        return self.leaf_bounds.shape[0] - 1

    @cached_property
    def lists(self) -> tuple[list[float], list[list[int]], list[int]]:
        """``offsets``, ``children`` and ``leaf_bounds`` as Python lists.

        Built on first use and kept: the query traversal reads one entry
        of each per queue pop, and a list entry is a plain Python object
        where an array entry is a numpy scalar.  The arrays must not
        change once a query has run.
        """
        return self.offsets.tolist(), self.children.tolist(), self.leaf_bounds.tolist()


class CentroidIndex:
    """Normalized document-centroid matrix plus an optional tree forest.

    ``mode`` records which centroid variant ("cent" or "centidf") the
    rows were built from, or None when unknown; the index file keeps it.

    An index built from a corpus also carries its documents' vocabulary
    rows: document i's are ``rows[bounds[i]:bounds[i + 1]]``, rows of a
    vocabulary of ``vocab_size`` words, and ``fingerprint``, the
    :meth:`EmbeddingStore.fingerprint` of the store they index given
    ``idf_rows``.  The four come together or not at all.  In mode
    "centidf" they come with ``idf_rows``: one float64 IDF weight per
    vocabulary row, taken from that store and owned by the index.

    The constructor checks every invariant of an index, raising
    :class:`DuplicateId` for a repeated id and ``ValueError`` otherwise.
    """

    def __init__(self, doc_ids, unit_matrix: np.ndarray, forest: list[Tree] | None = None,
                 leaf_cap: int = DEFAULT_LEAF_CAP, seed: int = DEFAULT_SEED,
                 mode: str | None = None, rows=None, bounds=None,
                 vocab_size: int | None = None, fingerprint: bytes | None = None,
                 idf_rows=None):
        self.doc_ids = np.asarray(doc_ids, dtype=np.str_)
        self.unit_matrix = np.ascontiguousarray(unit_matrix, dtype=np.float32)
        if (self.doc_ids.ndim != 1 or self.unit_matrix.ndim != 2
                or self.unit_matrix.shape[0] != self.doc_ids.shape[0]):
            raise ValueError("unit_matrix rows must match doc_ids")
        n_docs = self.doc_ids.shape[0]
        if n_docs >= 2**31:
            raise ValueError("index larger than supported (2^31 documents)")
        if len(set(self.doc_ids.tolist())) != n_docs:
            raise DuplicateId("repeated document id")
        if not np.isfinite(self.unit_matrix).all():
            raise ValueError("non-finite value in the centroid matrix")
        if mode not in _MODE_CODES:
            raise ValueError(f"unknown centroid mode {mode!r}")
        self.forest: list[Tree] = list(forest) if forest else []
        for t, tree in enumerate(self.forest):
            if problem := _tree_problem(tree, n_docs, self.unit_matrix.shape[1]):
                raise ValueError(f"tree {t}: {problem}")
        _check_leaf_cap_and_seed(leaf_cap, seed)
        self.leaf_cap = int(leaf_cap)
        self.seed = int(seed)
        self.mode = mode
        self.rows: np.ndarray | None = None
        self.bounds: np.ndarray | None = None
        self.vocab_size: int | None = None
        self.fingerprint: bytes | None = None
        self.idf_rows: np.ndarray | None = None
        parts = (rows, bounds, vocab_size, fingerprint)
        if any(part is not None for part in parts):
            if any(part is None for part in parts):
                raise ValueError("document rows need their bounds, vocabulary size "
                                 "and store fingerprint")
            self.rows, self.bounds = _checked_rows(rows, bounds, n_docs, vocab_size)
            self.vocab_size = int(vocab_size)
            self.fingerprint = bytes(fingerprint)
            if len(self.fingerprint) != _FINGERPRINT_BYTES:
                raise ValueError(f"store fingerprint must be {_FINGERPRINT_BYTES} bytes")
        if (idf_rows is not None) != (self.rows is not None and mode == "centidf"):
            raise ValueError("IDF weights come with document rows in mode centidf, and only then")
        if idf_rows is not None:
            self.idf_rows = np.ascontiguousarray(idf_rows, dtype=np.float64)
            if self.idf_rows.shape != (self.vocab_size,):
                raise ValueError(f"IDF weights must be {self.vocab_size} values, one per row")
            if not (np.isfinite(self.idf_rows).all() and (self.idf_rows >= 0.0).all()):
                raise ValueError("IDF weight negative or not finite")
        self._scratch = threading.local()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_matrix(cls, doc_ids, matrix: np.ndarray, mode: str | None = None,
                    **doc_rows) -> "CentroidIndex":
        """Normalize centroid rows to unit length and index them.

        Zero centroids are kept as zero rows; they score 0 against every
        query.  Each row is divided in float32 by its float64 norm cast to
        float32; a row whose norm exceeds float32's range (one holding
        ``inf``, say) raises ``ValueError``.  The constructor rejects
        everything else that is invalid, such as a NaN.  ``doc_rows``
        passes ``rows``, ``bounds``, ``vocab_size``, ``fingerprint`` and
        ``idf_rows`` on to the constructor.
        """
        with np.errstate(over="ignore"):
            matrix = np.ascontiguousarray(matrix, dtype=np.float32)
            norms = np.sqrt(np.einsum("...j,...j->...", matrix, matrix, dtype=np.float64))
            safe = np.where(norms == 0.0, 1.0, norms).astype(np.float32)
        too_long = np.isinf(safe)
        if too_long.any():
            row = int(np.argmax(too_long))
            raise ValueError(f"centroid row {row} has a norm beyond float32's range")
        unit = matrix / safe[..., None]
        return cls(doc_ids, unit, mode=mode, **doc_rows)

    def build_forest(self, n_trees: int = DEFAULT_TREES, leaf_cap: int = DEFAULT_LEAF_CAP,
                     seed: int = DEFAULT_SEED) -> "CentroidIndex":
        """Grow ``n_trees`` partition trees over the indexed rows."""
        if self.n_docs == 0:
            raise StateError("cannot build a forest over an empty index")
        if n_trees < 1:
            raise ValueError("n_trees must be positive")
        _check_leaf_cap_and_seed(leaf_cap, seed)
        self.forest = [_build_tree(self.unit_matrix, t, seed, leaf_cap)
                       for t in range(n_trees)]
        self.leaf_cap = int(leaf_cap)
        self.seed = int(seed)
        return self

    # -- queries ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.unit_matrix.shape[1]

    @property
    def n_docs(self) -> int:
        return self.doc_ids.shape[0]

    @property
    def n_trees(self) -> int:
        return len(self.forest)

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Document id -> its row, built on first use and kept."""
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids.tolist())}

    def _unit_query(self, q) -> np.ndarray | None:
        """Normalize a query (Centroid or vector); None for a zero query.

        A vector whose norm overflows or underflows float64 is first
        divided by its largest magnitude.
        """
        vec = np.asarray(getattr(q, "vec", q), dtype=np.float64)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(f"query of shape {vec.shape} against dim {self.dim}")
        if not np.isfinite(vec).all():
            raise ValueError("query vector has non-finite components")
        with np.errstate(over="ignore", under="ignore"):
            norm = float(np.linalg.norm(vec))
            if norm == 0.0 or norm == np.inf:
                scale = np.abs(vec).max()
                if scale == 0.0:
                    return None
                vec = vec / scale
                norm = float(np.linalg.norm(vec))
        return (vec / norm).astype(np.float32)

    def exact_topk(self, q, k: int) -> list[tuple[str, float]]:
        """The k documents with the highest cosine against ``q``.

        Ties break by ascending document id; a zero query or k <= 0
        yields an empty list; fewer than k documents yields all of them.
        """
        return self._topk(q, k, None)

    def ann_topk(self, q, k: int, search_k: int | None = None) -> list[tuple[str, float]]:
        """Approximate top-k: forest-selected candidates, exact cosine scores.

        ``search_k`` is the candidate budget, at least 1, and defaults
        to 10 * n_trees * k.  When the budget is at least N, or
        ``n_trees * n_docs`` is at most :data:`_SCAN_RATIO` times it, every
        document is scored and the result is :meth:`exact_topk`'s.
        Otherwise :meth:`_walk_candidates` picks the candidates.
        """
        if not self.forest:
            raise StateError("index has no forest; call build_forest or use exact_topk")
        if search_k is not None and search_k < 1:
            raise ValueError(f"search_k must be at least 1, got {search_k}")
        return self._topk(q, k, 10 * self.n_trees * k if search_k is None else search_k)

    def _topk(self, q, k: int, search_k: int | None) -> list[tuple[str, float]]:
        """The top k of ``q`` over every row when ``search_k`` is None or the
        scan rule holds, else over the walk's ``search_k`` candidates."""
        if k <= 0 or self.n_docs == 0:
            return []
        qv = self._unit_query(q)
        if qv is None:
            return []
        if (search_k is None or search_k >= self.n_docs
                or self.n_trees * self.n_docs <= _SCAN_RATIO * search_k):
            return self._rank(self.unit_matrix @ qv, None, k)
        cands = self._walk_candidates(qv, search_k)
        return self._rank(self.unit_matrix[cands] @ qv, cands, k)

    def _seen_buffer(self) -> np.ndarray:
        """Per-thread candidate-dedup mask, reset by the caller after use."""
        buf = getattr(self._scratch, "seen", None)
        if buf is None or buf.shape[0] != self.n_docs:
            buf = np.zeros(self.n_docs, dtype=bool)
            self._scratch.seen = buf
        return buf

    def _walk_candidates(self, qv: np.ndarray, search_k: int) -> np.ndarray:
        """Best-first traversal of all trees through one shared queue.

        Queue priority is the smallest hyperplane margin crossed on the
        way down (roots start at +inf); leaves pop in order of how close
        the query sits to their region.  Collects distinct row indices
        until the budget is met or the queue empties.

        Equal priorities pop by depth, then tree, then ``-ref``, which
        rises with leaf id.  A child's entry is always larger than its
        parent's (priority no higher, depth one more), so nodes pop in
        ascending entry order, whatever was pushed when.

        Leaves are deduplicated per budget step, not one by one: popped
        leaves' item slices wait until their raw size covers what is left
        of the budget (or the queue empties), then one :func:`_mark_fresh`
        step keeps the rows not seen yet.  A leaf adds at most its raw
        size, so a step never reaches past the leaf where leaf-by-leaf
        dedup would stop, and the candidate set is the same.  The rows
        come back in ascending order, which gathers much faster from a
        large matrix.
        """
        forest = self.forest
        normals = [tree.normals for tree in forest]
        items_of = [tree.leaf_items for tree in forest]
        offsets, children, bounds = zip(*(tree.lists for tree in forest))
        heap: list[tuple[float, int, int, int]] = [
            (-np.inf, 0, ti, -tree.root) for ti, tree in enumerate(forest)
        ]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        seen = self._seen_buffer()
        chunks: list[np.ndarray] = []
        pending: list[np.ndarray] = []
        pending_size = 0
        needed = search_k
        try:
            while heap and needed > 0:
                neg_pri, depth, ti, key = pop(heap)
                if key > 0:
                    leaf = key - 1
                    lo, hi = bounds[ti][leaf], bounds[ti][leaf + 1]
                    pending.append(items_of[ti][lo:hi])
                    pending_size += hi - lo
                    if pending_size >= needed or not heap:
                        fresh = _mark_fresh(pending, seen)
                        chunks.append(fresh)
                        needed -= fresh.size
                        pending.clear()
                        pending_size = 0
                else:
                    ref, pri = -key, -neg_pri
                    # ndarray.dot runs the same float32 dot kernel as ``@``
                    # at about half the call overhead.
                    margin = float(normals[ti][ref].dot(qv)) - offsets[ti][ref]
                    left, right = children[ti][ref]
                    depth += 1
                    push(heap, (-min(pri, -margin), depth, ti, -left))
                    push(heap, (-min(pri, margin), depth, ti, -right))
        finally:
            for chunk in chunks:
                seen[chunk] = False
        if not chunks:
            return np.empty(0, dtype=np.int32)
        rows = np.concatenate(chunks)
        rows.sort()
        return rows

    def _rank(self, scores: np.ndarray, cand_rows: np.ndarray | None, k: int) -> list[tuple[str, float]]:
        """Top-k of ``scores`` as (doc_id, score), ties by ascending id."""
        m = scores.shape[0]
        kk = min(k, m)
        if kk < m:
            kth = np.partition(scores, m - kk)[m - kk]
            sel = np.flatnonzero(scores >= kth)
        else:
            sel = np.arange(m)
        sel_scores = scores[sel]
        rows = sel if cand_rows is None else cand_rows[sel]
        ids = self.doc_ids[rows]
        order = np.lexsort((ids, -sel_scores))[:kk]
        return list(zip(ids[order].tolist(), sel_scores[order].tolist()))


def _check_leaf_cap_and_seed(leaf_cap: int, seed: int) -> None:
    """``ValueError`` unless both fit their fields in the index file."""
    if not 1 <= leaf_cap < 2**32:
        raise ValueError("leaf_cap must be in [1, 2^32)")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be in [0, 2^64)")


def _checked_rows(rows, bounds, n_docs: int, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` as int32 and ``bounds`` as int64, or ``ValueError``.

    Every row must lie in ``[0, vocab_size)``, and ``bounds`` must hold
    ``n_docs + 1`` entries rising from 0 to the number of rows.
    """
    rows, bounds = np.asarray(rows), np.asarray(bounds)
    if not 0 <= vocab_size < 2**31:
        raise ValueError("vocabulary size must be in [0, 2^31)")
    if rows.ndim != 1 or not (rows.size == 0 or np.issubdtype(rows.dtype, np.integer)):
        raise ValueError("document rows must be a 1-D integer array")
    if rows.size and (rows.min() < 0 or rows.max() >= vocab_size):
        raise ValueError("document row out of the vocabulary's range")
    if bounds.shape != (n_docs + 1,) or not np.issubdtype(bounds.dtype, np.integer):
        raise ValueError(f"document-row bounds must be {n_docs + 1} integers")
    if bounds[0] != 0 or bounds[-1] != rows.size or np.any(np.diff(bounds) < 0):
        raise ValueError("document-row bounds do not rise from 0 to the row count")
    return (np.ascontiguousarray(rows, dtype=np.int32),
            np.ascontiguousarray(bounds, dtype=np.int64))


def _mark_fresh(slices: list[np.ndarray], seen: np.ndarray) -> np.ndarray:
    """Sorted distinct rows of ``slices`` not set in ``seen``; sets them.

    Sorting and comparing neighbours is ``np.unique`` by hand: numpy 2's
    ``np.unique`` hashes, and costs about ten times as much on the few
    thousand int32 rows of one budget step.
    """
    rows = np.concatenate(slices)
    rows = np.sort(rows[~seen[rows]])
    first = np.ones(rows.size, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    fresh = rows[first]
    seen[fresh] = True
    return fresh


def _pick_pair(rng: np.random.Generator, X: np.ndarray, idx: np.ndarray):
    """Two distinct positions with non-identical vectors, or None."""
    n = idx.size
    for _ in range(_PICK_ATTEMPTS):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        a = X[idx[i]]
        b = X[idx[j]]
        if not np.array_equal(a, b):
            return a, b
    return None


def _build_tree(X: np.ndarray, tree_id: int, seed: int, leaf_cap: int) -> Tree:
    """Grow one partition tree over all rows of ``X``.

    The sampler at each node is seeded from (seed, tree_id, node path),
    so the tree is a pure function of its inputs regardless of build
    order.  Node paths are encoded as ints with a marker bit: root 1,
    left child 2k, right child 2k + 1.
    """
    n_rows = X.shape[0]
    dim = X.shape[1]
    normals: list[np.ndarray] = []
    offsets: list[float] = []
    children: list[list[int]] = []
    leaf_chunks: list[np.ndarray] = []
    root_ref = 0
    stack: list[tuple[np.ndarray, int, int, int]] = [
        (np.arange(n_rows, dtype=np.int32), 1, -1, 0)
    ]
    while stack:
        idx, key, parent, side = stack.pop()
        ref = None
        if idx.size > leaf_cap:
            rng = np.random.default_rng(np.random.SeedSequence([seed, tree_id, key]))
            pair = _pick_pair(rng, X, idx)
            if pair is not None:
                a, b = pair
                diff = b.astype(np.float64) - a.astype(np.float64)
                normal = (diff / np.linalg.norm(diff)).astype(np.float32)
                mid = ((a.astype(np.float64) + b.astype(np.float64)) / 2.0).astype(np.float32)
                offset = np.float32(normal @ mid)
                sub = X if idx.size == n_rows else X[idx]
                go_right = (sub @ normal) >= offset
                right_idx = idx[go_right]
                left_idx = idx[~go_right]
                # Both picks land on opposite sides by construction, but
                # guard against a degenerate split all the same.
                if left_idx.size and right_idx.size:
                    nid = len(normals)
                    normals.append(normal)
                    offsets.append(float(offset))
                    children.append([0, 0])
                    stack.append((right_idx, key * 2 + 1, nid, 1))
                    stack.append((left_idx, key * 2, nid, 0))
                    ref = nid
        if ref is None:
            lid = len(leaf_chunks)
            leaf_chunks.append(np.ascontiguousarray(idx, dtype=np.int32))
            ref = -lid - 1
        if parent < 0:
            root_ref = ref
        else:
            children[parent][side] = ref
    sizes = np.array([c.size for c in leaf_chunks], dtype=np.int64)
    leaf_bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=leaf_bounds[1:])
    return Tree(
        normals=np.vstack(normals) if normals else np.zeros((0, dim), dtype=np.float32),
        offsets=np.asarray(offsets, dtype=np.float32),
        children=np.asarray(children, dtype=np.int32).reshape(-1, 2),
        leaf_bounds=leaf_bounds,
        leaf_items=np.concatenate(leaf_chunks) if leaf_chunks else np.empty(0, np.int32),
        root=root_ref,
    )


# -- persistence -----------------------------------------------------------
#
# Little-endian throughout.  _HEADER: magic, version (4), dim, n_trees,
# n_docs, leaf_cap, mode code, seed, CRC32 of the body, then a flag that
# is 1 when the index carries document rows, the vocabulary size and the
# number of document rows (both 0 without rows).  The body is a run of
# arrays, each zero-padded to a multiple of 8 bytes: int64 doc-id offsets
# (n_docs + 1), the UTF-8 id bytes, the float32 unit matrix, then per tree
# int64 [root, n_internal, n_leaves] followed by normals, offsets,
# children, leaf_bounds and leaf_items exactly as :class:`Tree` holds them;
# with the flag set, it ends with the int32 document rows, their int64
# bounds (n_docs + 1) and the 32-byte store fingerprint, followed in
# mode centidf by the float64 IDF weights (one per vocabulary row).

_HEADER = struct.Struct("<4sIIIQIIQIIQQ")


def save_index(index: CentroidIndex, path) -> None:
    """Write the index in its binary file format (layout above)."""
    raw_ids = [str(doc_id).encode("utf-8") for doc_id in index.doc_ids]
    sections = [
        (np.cumsum([0, *map(len, raw_ids)]), "<i8"),
        (np.frombuffer(b"".join(raw_ids), dtype=np.uint8), "u1"),
        (index.unit_matrix, "<f4"),
    ]
    for tree in index.forest:
        sections += [
            ((tree.root, tree.n_internal, tree.n_leaves), "<i8"),
            (tree.normals, "<f4"), (tree.offsets, "<f4"), (tree.children, "<i4"),
            (tree.leaf_bounds, "<i8"), (tree.leaf_items, "<i4"),
        ]
    has_rows = index.rows is not None
    if has_rows:
        sections += [(index.rows, "<i4"), (index.bounds, "<i8"),
                     (np.frombuffer(index.fingerprint, dtype=np.uint8), "u1")]
    if index.idf_rows is not None:
        sections.append((index.idf_rows, "<f8"))
    chunks = []
    for values, dtype in sections:
        raw = np.ascontiguousarray(values, dtype=dtype).reshape(-1).view(np.uint8)
        chunks += [raw, bytes(-raw.size % 8)]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, index.dim, index.n_trees, index.n_docs,
                              index.leaf_cap, _MODE_CODES.index(index.mode), index.seed, crc,
                              has_rows, index.vocab_size or 0,
                              index.rows.size if has_rows else 0))
        for chunk in chunks:
            fh.write(chunk)


def load_index(path) -> CentroidIndex:
    """Read and validate an index file written by :func:`save_index`.

    The file is read once; the matrix, tree, row and IDF arrays are read-only
    views of that buffer.  Any inconsistency raises :class:`IndexFormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    def bad(problem: str) -> IndexFormatError:
        return IndexFormatError(f"{path}: {problem}")

    if len(data) < 8:
        raise bad("truncated index file")
    magic, version = struct.unpack_from("<4sI", data)
    if magic != MAGIC:
        raise bad(f"bad magic {magic!r}")
    if version != VERSION:
        raise bad(f"unsupported version {version}")
    if len(data) < _HEADER.size:
        raise bad("truncated index file")
    (_, _, dim, n_trees, n_docs, leaf_cap, mode_code, seed, crc,
     has_rows, vocab_size, n_rows) = _HEADER.unpack_from(data)
    if mode_code >= len(_MODE_CODES):
        raise bad(f"unknown centroid mode code {mode_code}")
    if has_rows not in (0, 1) or (not has_rows and (vocab_size or n_rows)):
        raise bad("inconsistent document-row fields in the header")
    pos = _HEADER.size

    def take(dtype, count: int) -> np.ndarray:
        nonlocal pos
        dtype = np.dtype(dtype)
        end = pos + dtype.itemsize * count
        if count < 0 or end + (-end % 8) > len(data):
            raise bad("truncated index file")
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        pos = end + (-end % 8)
        return arr

    id_offsets = take("<i8", n_docs + 1)
    if id_offsets[0] != 0 or np.any(np.diff(id_offsets) < 0):
        raise bad("document-id offsets do not rise from 0")
    id_bytes = take("u1", int(id_offsets[-1])).tobytes()
    matrix = take("<f4", n_docs * dim).reshape(n_docs, dim)
    forest = []
    for _ in range(n_trees):
        root, n_internal, n_leaves = (int(v) for v in take("<i8", 3))
        if n_internal < 0 or n_leaves < 0:
            raise bad("negative node count")
        forest.append(Tree(
            normals=take("<f4", n_internal * dim).reshape(n_internal, dim),
            offsets=take("<f4", n_internal),
            children=take("<i4", 2 * n_internal).reshape(n_internal, 2),
            leaf_bounds=take("<i8", n_leaves + 1),
            leaf_items=take("<i4", n_docs),
            root=root,
        ))
    doc_rows = {}
    if has_rows:
        doc_rows = {"rows": take("<i4", n_rows), "bounds": take("<i8", n_docs + 1),
                    "fingerprint": take("u1", _FINGERPRINT_BYTES).tobytes(),
                    "vocab_size": vocab_size}
        if _MODE_CODES[mode_code] == "centidf":
            doc_rows["idf_rows"] = take("<f8", vocab_size)
    if pos < len(data):
        raise bad(f"{len(data) - pos} trailing bytes after the last section")
    if zlib.crc32(memoryview(data)[_HEADER.size:]) != crc:
        raise bad("checksum mismatch")
    offsets = id_offsets.tolist()
    try:
        doc_ids = [id_bytes[a:b].decode("utf-8") for a, b in zip(offsets, offsets[1:])]
    except UnicodeDecodeError:
        raise bad("document id is not valid UTF-8") from None
    try:
        return CentroidIndex(doc_ids, matrix, forest=forest, leaf_cap=leaf_cap, seed=seed,
                             mode=_MODE_CODES[mode_code], **doc_rows)
    except (ValueError, DuplicateId) as exc:
        raise bad(str(exc)) from None


def _tree_problem(tree: Tree, n_docs: int, dim: int) -> str | None:
    """Why ``tree`` is not a partition tree over ``n_docs`` rows of ``dim``, or None.

    The arrays must have the shapes :class:`Tree` documents.  Each node
    must be referenced exactly once, and an internal child must have a
    larger id than its parent, as :func:`_build_tree`'s preorder
    numbering gives; together these rule out cycles.
    """
    n_internal, n_leaves = tree.n_internal, tree.n_leaves
    shapes = {"normals": (n_internal, dim), "offsets": (n_internal,),
              "children": (n_internal, 2), "leaf_items": (n_docs,)}
    for name, want in shapes.items():
        if (got := getattr(tree, name).shape) != want:
            return f"{name} has shape {got}, expected {want}"
    refs = np.concatenate(([tree.root], tree.children.ravel()))
    if np.any((refs < -n_leaves) | (refs >= n_internal)):
        return "node reference out of range"
    nodes = np.where(refs >= 0, refs, n_internal - 1 - refs)
    if not np.all(np.bincount(nodes, minlength=n_internal + n_leaves) == 1):
        return "a node is not referenced exactly once"
    parents = np.arange(n_internal)[:, None]
    if np.any((tree.children >= 0) & (tree.children <= parents)):
        return "an internal child does not follow its parent"
    bounds, items = tree.leaf_bounds, tree.leaf_items
    if bounds[0] != 0 or bounds[-1] != n_docs or np.any(np.diff(bounds) < 0):
        return "leaf bounds do not run from 0 to the document count"
    if np.any((items < 0) | (items >= n_docs)):
        return "leaf item out of range"
    covered = np.zeros(n_docs, dtype=bool)
    covered[items] = True
    if not covered.all():
        return "leaf items are not a permutation of the rows"
    if not (np.isfinite(tree.normals).all() and np.isfinite(tree.offsets).all()):
        return "non-finite hyperplane"
    return None
