"""Independent brute-force reference implementations used by the tests.

Everything here is written with plain loops, deliberately sharing no code
or vectorization strategy with the package, so agreement is meaningful.
The one exception is :func:`brute_rwmd_many`, the package's earlier
vectorized RWMD kernel, kept as the slow path its faster successor must
match bit for bit.
"""

import heapq
import math
import re
from collections import Counter

import numpy as np

from centroid_ir import DimensionMismatch, ParseError

# Letters and digits only: \w minus the underscore, Unicode-aware.
_TOKEN_RE = re.compile(r"[^\W_]+")


def brute_average_precision(ranking, rel):
    """AP by rescanning the prefix at every relevant hit."""
    total = 0.0
    for i in range(len(ranking)):
        if ranking[i] in rel:
            hits = 0
            for j in range(i + 1):
                if ranking[j] in rel:
                    hits += 1
            total += hits / (i + 1)
    return total / len(rel)


def brute_ip_curve(ranking, rel):
    """Interpolated precision from (recall, precision) at every prefix."""
    points = []
    for i in range(1, len(ranking) + 1):
        hits = sum(1 for d in ranking[:i] if d in rel)
        points.append((hits / len(rel), hits / i))
    curve = []
    for tenth in range(11):
        level = tenth / 10
        best = 0.0
        for recall, precision in points:
            if recall >= level - 1e-12 and precision > best:
                best = precision
        curve.append(best)
    return curve


def brute_ndcg(ranking, rel, k):
    """Binary nDCG@k with literal sums."""
    dcg = 0.0
    for i, doc in enumerate(ranking[:k], start=1):
        if doc in rel:
            dcg += 1.0 / math.log2(i + 1)
    ideal = 0.0
    for i in range(1, min(k, len(rel)) + 1):
        ideal += 1.0 / math.log2(i + 1)
    return dcg / ideal


def brute_topk_cosine(doc_ids, vectors, query, k):
    """Rank all documents by cosine in float64; ties by ascending id.

    ``vectors`` is a list of per-document vectors (not necessarily
    normalized), ``query`` a vector.  Returns the top-k doc ids.
    """
    qnorm = math.sqrt(sum(x * x for x in query))
    if qnorm == 0.0:
        return []
    scored = []
    for doc_id, vec in zip(doc_ids, vectors):
        vnorm = math.sqrt(sum(x * x for x in vec))
        if vnorm == 0.0:
            score = 0.0
        else:
            score = sum(a * b for a, b in zip(vec, query)) / (vnorm * qnorm)
        scored.append((-score, doc_id))
    scored.sort()
    return [doc_id for _, doc_id in scored[:k]]


def route_point(tree, x):
    """Follow a tree's hyperplanes down to the leaf id owning point ``x``."""
    ref = tree.root
    while ref >= 0:
        proj = float(tree.normals[ref] @ x)
        side = 1 if proj >= float(tree.offsets[ref]) else 0
        ref = int(tree.children[ref][side])
    return -ref - 1


def brute_candidates(forest, qv, search_k):
    """The forest's best-first traversal, deduplicating leaf by leaf.

    One heap over all trees holds (-priority, depth, tree, -ref); a
    node's priority is the smallest hyperplane margin crossed to reach
    it, +inf at the roots, and ``-ref`` rises with leaf id, so equal
    priorities pop by depth, then tree, then leaf id.  Each popped leaf
    adds the rows no earlier leaf added, and the walk stops once
    ``search_k`` distinct rows are in or the heap is empty.  Returns one
    list per popped leaf: the rows it added, in pop order.
    """
    heap = [(-math.inf, 0, ti, -tree.root) for ti, tree in enumerate(forest)]
    heapq.heapify(heap)
    seen = set()
    added = []
    while heap and len(seen) < search_k:
        neg_pri, depth, ti, key = heapq.heappop(heap)
        tree, ref = forest[ti], -key
        if ref < 0:
            leaf = -ref - 1
            lo, hi = int(tree.leaf_bounds[leaf]), int(tree.leaf_bounds[leaf + 1])
            fresh = []
            for row in tree.leaf_items[lo:hi].tolist():
                if row not in seen:
                    seen.add(row)
                    fresh.append(row)
            added.append(fresh)
        else:
            pri = -neg_pri
            margin = float(tree.normals[ref] @ qv) - float(tree.offsets[ref])
            left, right = (int(c) for c in tree.children[ref])
            heapq.heappush(heap, (-min(pri, -margin), depth + 1, ti, -left))
            heapq.heappush(heap, (-min(pri, margin), depth + 1, ti, -right))
    return added


def brute_centroid(tokens, vectors, idf, n_docs):
    """c(t) = sum_j vec(w_j) weight(w_j) / sum_j weight(w_j), in Python floats.

    The sum runs over the occurrences of tokens found in ``vectors`` (a
    token -> list of floats map).  With ``idf`` None every weight is 1;
    otherwise weight(w) is ``idf[w]``, or ln(n_docs) (0 for no documents)
    when w is missing from the table.  Returns the centroid as a list
    and the number of occurrences of positive weight; weights summing to
    zero give the zero vector and 0.
    """
    dim = len(next(iter(vectors.values())))
    total = [0.0] * dim
    denom = 0.0
    known = 0
    for token in tokens:
        if token not in vectors:
            continue
        if idf is None:
            weight = 1.0
        elif token in idf:
            weight = idf[token]
        else:
            weight = math.log(n_docs) if n_docs else 0.0
        for i, x in enumerate(vectors[token]):
            total[i] += x * weight
        denom += weight
        if weight > 0.0:
            known += 1
    if denom <= 0.0:
        return [0.0] * dim, 0
    return [x / denom for x in total], known


def brute_load_embeddings(path):
    """Parse a text embedding file one line and one ``float()`` at a time.

    Returns the ``token -> row`` map and the float32 matrix, or raises
    the :class:`ParseError` / :class:`DimensionMismatch` of the first bad
    line.  A header ``V D`` is the first non-blank line if it holds
    exactly two integers; later occurrences of a word win, at the row of
    its first occurrence.
    """
    vectors = {}
    dim = None
    n_header = None
    n_lines = 0
    first_data_line = True
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if first_data_line and len(fields) == 2:
                try:
                    n_header, dim = int(fields[0]), int(fields[1])
                except ValueError:
                    pass
                else:
                    first_data_line = False
                    continue
            first_data_line = False
            if len(fields) < 2:
                raise ParseError("expected a token followed by vector components",
                                 line_no=line_no, path=path)
            token, components = fields[0], fields[1:]
            if dim is None:
                dim = len(components)
            elif len(components) != dim:
                raise DimensionMismatch(
                    f"{path}: line {line_no}: expected {dim} components, got {len(components)}"
                )
            try:
                values = [float(c) for c in components]
            except ValueError:
                raise ParseError("vector component is not a number",
                                 line_no=line_no, path=path) from None
            with np.errstate(over="ignore"):  # 1e39 overflows float32 to inf
                vec = [np.float32(v) for v in values]
            if not all(math.isfinite(v) for v in vec):
                raise ParseError("vector component is not finite",
                                 line_no=line_no, path=path)
            vectors[token] = vec
            n_lines += 1
    if dim is None:
        raise ParseError("embedding file contains no header and no vectors", path=path)
    if n_header is not None and n_header != n_lines:
        raise ParseError(f"header announces {n_header} vectors, file has {n_lines}", path=path)
    vocab = {token: row for row, token in enumerate(vectors)}
    matrix = np.array(list(vectors.values()), dtype=np.float32).reshape(len(vectors), dim)
    return vocab, matrix


def brute_tokenize(text, stopwords=frozenset()):
    """The token list of ``text`` by regular expression: lowercase, take
    the runs of letters and digits, drop stop words and pure-digit tokens
    of length 1."""
    tokens = []
    for token in _TOKEN_RE.findall(text.lower()):
        if token in stopwords:
            continue
        if len(token) == 1 and token.isdigit():
            continue
        tokens.append(token)
    return tokens


def brute_compute_idf(token_lists):
    """``(idf, n_docs)`` with idf(w) = ln(n_docs / df(w)), df counted by a
    Counter over each document's set of tokens."""
    df = Counter()
    n_docs = 0
    for tokens in token_lists:
        n_docs += 1
        df.update(set(tokens))
    return {token: math.log(n_docs / n) for token, n in df.items()}, n_docs


def brute_rwmd_many(q, docs, store, method="rwmd_q"):
    """``rwmd_many`` as it was before the vocabulary mask and cached norms.

    The union of the documents' rows and each row's column in it come
    from ``np.unique(..., return_inverse=True)``, both sides' squared
    norms from ``einsum`` over the gathered float64 rows, and shared
    words are found by comparing every question row with every union
    row.
    """
    lengths = np.array([len(rows) for rows in docs], dtype=np.intp)
    filled = np.flatnonzero(lengths)
    to_q = np.full(len(docs), np.inf if len(q) else 0.0)
    to_d = np.where(lengths > 0, np.inf, 0.0)
    if len(q) and filled.size:
        union, cols = np.unique(np.concatenate([docs[i] for i in filled]), return_inverse=True)
        starts = np.concatenate(([0], np.cumsum(lengths[filled])[:-1]))
        u = store.matrix[union].astype(np.float64)
        q2 = np.einsum("ij,ij->i", q.matrix, q.matrix)
        u2 = np.einsum("ij,ij->i", u, u)
        sq = q2[:, None] + u2[None, :] - 2.0 * (q.matrix @ u.T)
        sq[q.rows[:, None] == union[None, :]] = 0.0
        seg_min = np.minimum.reduceat(sq[:, cols], starts, axis=1)
        to_q[filled] = np.sqrt(np.maximum(seg_min, 0.0)).sum(axis=0)
        col_min = np.sqrt(np.maximum(sq.min(axis=0), 0.0))
        to_d[filled] = np.add.reduceat(col_min[cols], starts)
    if method == "rwmd_q":
        return to_q
    if method == "rwmd_d":
        return to_d
    return np.maximum(to_q, to_d)
