"""Approximate top-k with a forest of random-hyperplane trees.

Exact retrieval scans every document centroid per query; fine for
thousands of documents, painful for millions.  The index here grows a
forest of partition trees (each node splits on the perpendicular bisector
of two randomly picked points) and answers queries by taking leaves in
order of their smallest hyperplane margin until a candidate budget
``search_k`` is met, walking all trees through one shared best-first
queue.  Candidates are then scored by exact cosine, so approximation only
affects which documents get considered, never their scores.  Where
``trees * N`` is at most 64 times the budget, scoring every document
costs less than the walk, and ``ann_topk`` does that instead; every
budget this script tries stays on the walk (12 trees x 600,000
documents > 64 x 30,000).

This script measures recall against the exact scan and the latency gap as
the budget varies, a desk-size rendition of the big-corpus tradeoff.
"""

import time

import numpy as np

from centroid_ir import CentroidIndex

rng = np.random.default_rng(7)
n_docs, dim, k = 600_000, 48, 100
n_topics = 2000

# Topical corpora are clustered: documents about one subject sit close
# together.  Draw the corpus from a mixture of tight clusters (uniform
# Gaussian noise, the worst case for any partition tree, would need far
# larger budgets for the same recall).
print(f"indexing {n_docs:,} centroids drawn from {n_topics:,} topic clusters ...")
centers = rng.standard_normal((n_topics, dim), dtype=np.float32)
assignment = rng.integers(0, n_topics, size=n_docs)
vectors = centers[assignment] + rng.normal(scale=0.12, size=(n_docs, dim)).astype(np.float32)
index = CentroidIndex.from_matrix(
    np.char.add("d", np.arange(n_docs).astype("U7")), vectors)
del vectors

start = time.perf_counter()
index.build_forest(n_trees=12, leaf_cap=256, seed=1)
print(f"built {index.n_trees} trees (leaf_cap={index.leaf_cap}) "
      f"in {time.perf_counter() - start:.1f} s\n")

# Questions land near some topic, like documents do.
queries = (centers[rng.integers(0, n_topics, size=20)]
           + rng.normal(scale=0.12, size=(20, dim)).astype(np.float32))
index.exact_topk(queries[0], k)  # warm the matrix

start = time.perf_counter()
exact_sets = [{d for d, _ in index.exact_topk(q, k)} for q in queries]
t_exact = (time.perf_counter() - start) / len(queries)
print(f"exact scan: {t_exact * 1000:6.2f} ms/query (the baseline)\n")

print(f"{'search_k':>9s} {'% corpus':>9s} {'recall@100':>11s} {'ms/query':>9s} {'speedup':>8s}")
for search_k in (1000, 3000, 9000, 30000):
    start = time.perf_counter()
    approx_sets = [{d for d, _ in index.ann_topk(q, k, search_k=search_k)}
                   for q in queries]
    t_ann = (time.perf_counter() - start) / len(queries)
    recall = np.mean([len(e & a) / k for e, a in zip(exact_sets, approx_sets)])
    print(f"{search_k:>9,d} {100 * search_k / n_docs:>8.1f}% "
          f"{recall:>11.3f} {t_ann * 1000:>9.2f} {t_exact / t_ann:>7.1f}x")

print("""
A fraction of a percent of the corpus as candidate budget already finds
nearly all true neighbors, in a fraction of the scan time: the trees
isolate the query's topic cluster within a few hyperplane tests.  The
gap widens with corpus size -- exact cost grows linearly while the tree
descent grows roughly logarithmically; the acceptance suite measures a
20x+ gap on a 6M-document index at k=1000.  For a fixed index and seed
the whole table is deterministic, recall never decreases as search_k
grows, and a budget >= corpus size short-circuits into the exact scan
(recall 1.0 by construction).
""")
