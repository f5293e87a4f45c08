import dataclasses
import itertools
import struct
import zlib

import numpy as np
import pytest

from centroid_ir import (CentroidIndex, DimensionMismatch, DuplicateId,
                         IndexFormatError, StateError, load_index, save_index)
from centroid_ir.index import _SCAN_RATIO
from oracles import brute_candidates, brute_cosine, brute_topk_cosine, route_point


def gaussian_index(rng, n, dim, prefix="d", **doc_rows) -> tuple[CentroidIndex, np.ndarray]:
    vectors = rng.normal(size=(n, dim)).astype(np.float32)
    ids = np.array([f"{prefix}{i:06d}" for i in range(n)])
    return CentroidIndex.from_matrix(ids, vectors, **doc_rows), vectors


def saved_bytes(index: CentroidIndex, path) -> bytes:
    """The bytes ``save_index`` writes for ``index``; they hold every field."""
    save_index(index, path)
    return path.read_bytes()


def doc_rows(rng, n_docs, vocab_size=40) -> dict:
    """Keyword arguments giving ``n_docs`` documents of 0-7 vocabulary rows."""
    bounds = np.concatenate(([0], np.cumsum(rng.integers(0, 8, size=n_docs))))
    return {"rows": rng.integers(0, vocab_size, size=bounds[-1]), "bounds": bounds,
            "vocab_size": vocab_size, "fingerprint": rng.bytes(32)}


class TestBuildExact:
    """Building an index from centroid rows with ``from_matrix``."""

    def test_hand_normalization(self):
        index = CentroidIndex.from_matrix(["doc1"], np.array([[3.0, 4.0]]))
        assert np.allclose(index.unit_matrix[0], [0.6, 0.8], atol=1e-6)
        assert index.doc_ids[0] == "doc1"

    def test_empty_corpus(self):
        index = CentroidIndex.from_matrix([], np.zeros((0, 2)))
        assert index.n_docs == 0
        assert index.exact_topk(np.array([]), 5) == []

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateId):
            CentroidIndex.from_matrix(["x", "x"], [[1.0, 0.0], [0.0, 1.0]])

    def test_zero_centroid_kept_as_zero_row(self):
        index = CentroidIndex.from_matrix(["x", "y"], [[0.0, 0.0], [1.0, 0.0]])
        assert np.all(index.unit_matrix[0] == 0.0)

    def test_nonfinite_row_rejected(self):
        with pytest.raises(ValueError):
            CentroidIndex.from_matrix(["a", "b"], np.array([[1.0, 0.0], [np.inf, 0.0]]))

    def test_norm_beyond_float32_rejected(self):
        with pytest.raises(ValueError, match="row 0 has a norm beyond float32"):
            CentroidIndex.from_matrix(["a", "b"], [[3e38, 3e38], [1.0, 0.0]])

    @pytest.mark.parametrize("scale", [1e-30, 1e-3, 1.0, 1e3, 1e30, 1e37])
    def test_rows_divide_by_float32_norm(self, scale):
        # Float32 rows divided by their float64 norm cast to float32: the
        # bits the index file and every score depend on.
        rng = np.random.default_rng(41)
        matrix = (rng.normal(size=(50, 7)) * scale).astype(np.float32)
        matrix[3] = 0.0
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
        want = matrix / np.where(norms == 0.0, 1.0, norms).astype(np.float32)[:, None]
        index = CentroidIndex.from_matrix([f"d{i}" for i in range(50)], matrix)
        assert index.unit_matrix.tobytes() == want.tobytes()

    def test_not_a_matrix_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            CentroidIndex.from_matrix(["a", "b"], [3.0, 4.0])

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(31)
        index, _ = gaussian_index(rng, 500, 13)
        norms = np.linalg.norm(index.unit_matrix, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)


class TestConstructor:
    """The constructor rejects every invalid index, whoever builds it."""

    def test_repeated_id(self):
        with pytest.raises(DuplicateId):
            CentroidIndex(["a", "a"], np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_row(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            CentroidIndex(["a", "b"], np.array([[1.0, 0.0], [bad, 0.0]]))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CentroidIndex(["a", "b"], np.eye(2), mode="bogus")

    @pytest.mark.parametrize("field, value", [
        ("leaf_cap", 0), ("leaf_cap", 2**32), ("seed", -1), ("seed", 2**64)])
    def test_leaf_cap_and_seed_fit_the_file(self, field, value):
        with pytest.raises(ValueError, match=field):
            CentroidIndex(["a", "b"], np.eye(2), **{field: value})

    def test_rows_must_match_ids(self):
        with pytest.raises(ValueError, match="rows"):
            CentroidIndex(["a", "b", "c"], np.eye(2))
        with pytest.raises(ValueError, match="rows"):
            CentroidIndex(["a", "b"], np.ones(2))
        with pytest.raises(ValueError, match="rows"):
            CentroidIndex([["a"], ["b"]], np.eye(2))

    def test_forest_of_other_index(self):
        rng = np.random.default_rng(39)
        small, _ = gaussian_index(rng, 100, 4)
        large, _ = gaussian_index(rng, 200, 4)
        large.build_forest(n_trees=2, leaf_cap=8, seed=1)
        with pytest.raises(ValueError, match="tree 0"):
            CentroidIndex(small.doc_ids, small.unit_matrix, forest=large.forest)

    @pytest.mark.parametrize("field, change", [
        ("normals", lambda a: a[:, :3]),
        ("offsets", lambda a: np.append(a, 0.0)),
        ("children", lambda a: np.hstack([a, a[:, :1]])),
    ])
    def test_tree_array_shapes(self, field, change):
        rng = np.random.default_rng(42)
        index, _ = gaussian_index(rng, 100, 4)
        index.build_forest(n_trees=1, leaf_cap=8, seed=1)
        tree = dataclasses.replace(index.forest[0],
                                   **{field: change(getattr(index.forest[0], field))})
        with pytest.raises(ValueError, match=f"tree 0: {field} has shape"):
            CentroidIndex(index.doc_ids, index.unit_matrix, forest=[tree])

    def test_forest_of_other_dimension(self):
        rng = np.random.default_rng(43)
        narrow, _ = gaussian_index(rng, 100, 4)
        wide, _ = gaussian_index(rng, 100, 6)
        wide.build_forest(n_trees=2, leaf_cap=8, seed=1)
        with pytest.raises(ValueError, match=r"tree 0: normals has shape \(\d+, 6\)"):
            CentroidIndex(narrow.doc_ids, narrow.unit_matrix, forest=wide.forest)

    def test_long_leaf_items_cannot_hide_a_repeat(self):
        rng = np.random.default_rng(44)
        index, _ = gaussian_index(rng, 100, 4)
        index.build_forest(n_trees=1, leaf_cap=8, seed=1)
        tree = index.forest[0]
        items = tree.leaf_items.copy()
        dropped = items[4]
        items[4] = items[3]
        tree = dataclasses.replace(tree, leaf_items=np.append(items, dropped))
        with pytest.raises(ValueError, match=r"tree 0: leaf_items has shape \(101,\)"):
            CentroidIndex(index.doc_ids, index.unit_matrix, forest=[tree])

    def test_forest_missing_a_row(self):
        rng = np.random.default_rng(40)
        index, _ = gaussian_index(rng, 100, 4)
        index.build_forest(n_trees=2, leaf_cap=8, seed=1)
        tree = index.forest[1]
        tree.leaf_items[3] = tree.leaf_items[4]
        with pytest.raises(ValueError, match="tree 1: .*permutation"):
            CentroidIndex(index.doc_ids, index.unit_matrix, forest=index.forest)


class TestDocumentRows:
    def test_kept_as_given(self):
        rng = np.random.default_rng(56)
        parts = doc_rows(rng, 30)
        index, _ = gaussian_index(rng, 30, 4, **parts)
        assert index.rows.dtype == np.int32 and index.bounds.dtype == np.int64
        assert np.array_equal(index.rows, parts["rows"])
        assert np.array_equal(index.bounds, parts["bounds"])
        assert (index.vocab_size, index.fingerprint) == (40, parts["fingerprint"])

    def test_absent_by_default(self):
        index = CentroidIndex.from_matrix(["a"], [[1.0, 0.0]])
        assert index.rows is index.bounds is index.vocab_size is index.fingerprint is None

    @pytest.mark.parametrize("missing", ["rows", "bounds", "vocab_size", "fingerprint"])
    def test_all_or_nothing(self, missing):
        parts = doc_rows(np.random.default_rng(57), 3)
        del parts[missing]
        with pytest.raises(ValueError, match="come together|need"):
            CentroidIndex.from_matrix(["a", "b", "c"], np.eye(3), **parts)

    @pytest.mark.parametrize("damage, message", [
        (lambda p: p["rows"].__setitem__(0, p["vocab_size"]), "out of the vocabulary"),
        (lambda p: p["rows"].__setitem__(0, -1), "out of the vocabulary"),
        (lambda p: p.update(rows=p["rows"].astype(float)), "integer"),
        (lambda p: p.update(bounds=p["bounds"][[0, 2, 1, 3]]), "rise from 0"),
        (lambda p: p.update(bounds=p["bounds"] - np.array([0, 0, 0, 1])), "row count"),
        (lambda p: p.update(bounds=p["bounds"][:-1]), "4 integers"),
        (lambda p: p.update(fingerprint=p["fingerprint"][:31]), "32 bytes"),
        (lambda p: p.update(vocab_size=2**31), "vocabulary size"),
    ])
    def test_constructor_rejects(self, damage, message):
        parts = {"rows": np.array([3, 0, 9, 9, 1]), "bounds": np.array([0, 2, 4, 5]),
                 "vocab_size": 10, "fingerprint": bytes(32)}
        CentroidIndex.from_matrix(["a", "b", "c"], np.eye(3), **parts)
        damage(parts)
        with pytest.raises(ValueError, match=message):
            CentroidIndex.from_matrix(["a", "b", "c"], np.eye(3), **parts)

    def test_empty_documents(self):
        index = CentroidIndex.from_matrix(["a", "b"], np.eye(2), rows=[], bounds=[0, 0, 0],
                                          vocab_size=0, fingerprint=bytes(32))
        assert index.rows.size == 0 and index.bounds.tolist() == [0, 0, 0]

    def test_idf_weights_kept(self):
        parts = doc_rows(np.random.default_rng(60), 3, vocab_size=5)
        weights = [0.0, 0.5, 1.0, 2.0, 0.25]
        index = CentroidIndex.from_matrix(["a", "b", "c"], np.eye(3), mode="centidf",
                                          idf_rows=weights, **parts)
        assert index.idf_rows.dtype == np.float64 and index.idf_rows.tolist() == weights
        cent = CentroidIndex.from_matrix(["a", "b", "c"], np.eye(3), mode="cent", **parts)
        assert cent.idf_rows is None

    @pytest.mark.parametrize("mode, rows, weights, message", [
        ("centidf", True, None, "come with document rows in mode centidf"),
        ("centidf", True, [1.0] * 4, "must be 5 values"),
        ("centidf", True, [[1.0] * 5], "must be 5 values"),
        ("centidf", True, [1.0, np.nan, 1.0, 1.0, 1.0], "not finite"),
        ("centidf", True, [1.0, np.inf, 1.0, 1.0, 1.0], "not finite"),
        ("centidf", True, [1.0, -0.5, 1.0, 1.0, 1.0], "negative"),
        ("cent", True, [1.0] * 5, "and only then"),
        (None, True, [1.0] * 5, "and only then"),
        ("centidf", False, [1.0] * 5, "and only then"),
    ])
    def test_idf_weights_rejected(self, mode, rows, weights, message):
        parts = doc_rows(np.random.default_rng(61), 3, vocab_size=5) if rows else {}
        with pytest.raises(ValueError, match=message):
            CentroidIndex.from_matrix(["a", "b", "c"], np.eye(3), mode=mode,
                                      idf_rows=weights, **parts)


class TestExactTopk:
    def test_hand_example(self):
        index = CentroidIndex.from_matrix(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        hits = index.exact_topk(np.array([1.0, 0.1]), 1)
        assert [doc for doc, _ in hits] == ["a"]

    def test_zero_query_empty(self):
        index = CentroidIndex.from_matrix(["a"], [[1.0, 0.0]])
        assert index.exact_topk(np.zeros(2), 5) == []

    def test_k_larger_than_corpus(self):
        index = CentroidIndex.from_matrix(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        hits = index.exact_topk(np.array([2.0, 1.0]), 10)
        assert [doc for doc, _ in hits] == ["a", "b"]
        assert hits[0][1] > hits[1][1]

    def test_k_zero(self):
        index = CentroidIndex.from_matrix(["a"], [[1.0, 0.0]])
        assert index.exact_topk(np.array([1.0, 0.0]), 0) == []

    def test_ties_break_by_ascending_id(self):
        index = CentroidIndex.from_matrix(["z", "a", "m"], [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        hits = index.exact_topk(np.array([1.0, 0.0]), 2)
        assert [doc for doc, _ in hits] == ["a", "m"]

    def test_dimension_mismatch(self):
        index = CentroidIndex.from_matrix(["a"], [[1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            index.exact_topk(np.array([1.0, 0.0, 0.0]), 1)

    def test_nonfinite_query_rejected(self):
        rng = np.random.default_rng(37)
        index, _ = gaussian_index(rng, 50, 3)
        index.build_forest(n_trees=2, leaf_cap=8, seed=1)
        with pytest.raises(ValueError):
            index.exact_topk(np.array([np.nan, 1.0, 0.0]), 5)
        with pytest.raises(ValueError):
            index.ann_topk(np.array([np.inf, 1.0, 0.0]), 5)

    @pytest.mark.parametrize("engine", ["exact", "ann"])
    @pytest.mark.parametrize("q, scaled", [
        ([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([1e-200, 1e-200, 0.0], [1.0, 1.0, 0.0]),
        ([1e-320, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([-1e308, 1e308, 1e308], [-1.0, 1.0, 1.0]),
    ], ids=["overflow", "underflow", "subnormal", "largest"])
    def test_query_norm_beyond_float64(self, engine, q, scaled):
        # A finite query ranks as its direction does, whatever its norm.
        rng = np.random.default_rng(38)
        index, _ = gaussian_index(rng, 60, 3)
        index.build_forest(n_trees=3, leaf_cap=4, seed=1)
        if engine == "exact":
            topk = index.exact_topk
        else:
            def topk(query, k):
                return index.ann_topk(query, k, search_k=20)
        hits = topk(q, 5)
        assert hits == topk(scaled, 5)
        assert len(hits) == 5 and hits[0][1] > 0.5

    def test_scores_are_cosines(self):
        rng = np.random.default_rng(32)
        index, vectors = gaussian_index(rng, 200, 10)
        q = rng.normal(size=10)
        for doc, score in index.exact_topk(q, 20):
            row = int(np.flatnonzero(index.doc_ids == doc)[0])
            assert score == pytest.approx(brute_cosine(q.tolist(), vectors[row].tolist()),
                                          abs=1e-6)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n, dim, k = 60, 6, 10
            vectors = rng.normal(size=(n, dim))
            ids = [f"d{i:03d}" for i in range(n)]
            index = CentroidIndex.from_matrix(ids, vectors)
            q = rng.normal(size=dim)
            mine = [doc for doc, _ in index.exact_topk(q, k)]
            assert mine == brute_topk_cosine(ids, vectors.tolist(), q.tolist(), k)


class TestBuildForest:
    @pytest.mark.parametrize("field, value", [
        ("leaf_cap", 0), ("leaf_cap", 2**32), ("seed", -1), ("seed", 2**64)])
    def test_leaf_cap_and_seed_checked_before_building(self, field, value):
        index = CentroidIndex.from_matrix(["a", "b"], np.eye(2))
        with pytest.raises(ValueError, match=field):
            index.build_forest(n_trees=2, **{field: value})
        assert index.n_trees == 0

    def test_single_point_single_leaf(self):
        index = CentroidIndex.from_matrix(["only"], [[1.0, 0.0]])
        index.build_forest(n_trees=3, leaf_cap=4, seed=1)
        for tree in index.forest:
            assert tree.n_internal == 0
            assert tree.n_leaves == 1
            assert tree.leaf_items.tolist() == [0]

    def test_deterministic_under_seed(self, tmp_path):
        rng = np.random.default_rng(34)
        index, _ = gaussian_index(rng, 800, 9)

        def forest_bytes(seed):
            forest = CentroidIndex(index.doc_ids, index.unit_matrix).build_forest(5, 16, seed=seed)
            return saved_bytes(forest, tmp_path / f"{seed}.crvi")

        assert forest_bytes(77) == forest_bytes(77)
        assert forest_bytes(78) != forest_bytes(77)

    def test_partition_property_large(self):
        # 10k Gaussian points, 100 trees: every row index appears exactly
        # once per tree.
        rng = np.random.default_rng(35)
        index, _ = gaussian_index(rng, 10_000, 16)
        index.build_forest(n_trees=100, leaf_cap=32, seed=3)
        expected = np.arange(10_000)
        for tree in index.forest:
            assert np.array_equal(np.sort(tree.leaf_items), expected)

    def test_leaf_sizes_respect_cap(self):
        rng = np.random.default_rng(36)
        index, _ = gaussian_index(rng, 3000, 8)
        index.build_forest(n_trees=4, leaf_cap=25, seed=9)
        for tree in index.forest:
            sizes = np.diff(tree.leaf_bounds)
            assert np.all(sizes <= 25)
            assert np.all(sizes >= 1)

    def test_routing_consistency(self):
        # Following the stored hyperplanes from the root lands every
        # sampled point in the leaf that owns it.
        rng = np.random.default_rng(37)
        index, _ = gaussian_index(rng, 2000, 12)
        index.build_forest(n_trees=3, leaf_cap=20, seed=5)
        for tree in index.forest:
            for row in rng.choice(2000, size=100, replace=False):
                leaf_id = route_point(tree, index.unit_matrix[row])
                lo, hi = tree.leaf_bounds[leaf_id:leaf_id + 2]
                assert row in tree.leaf_items[lo:hi]

    def test_duplicate_points_force_oversized_leaf(self):
        vectors = np.tile(np.array([[0.6, 0.8]], dtype=np.float32), (50, 1))
        ids = [f"d{i:02d}" for i in range(50)]
        index = CentroidIndex.from_matrix(ids, vectors)
        index.build_forest(n_trees=2, leaf_cap=8, seed=13)
        for tree in index.forest:
            assert tree.n_leaves == 1
            assert tree.leaf_items.size == 50

    def test_split_normals_unit_length(self):
        rng = np.random.default_rng(38)
        index, _ = gaussian_index(rng, 1000, 7)
        index.build_forest(n_trees=2, leaf_cap=10, seed=21)
        for tree in index.forest:
            if tree.n_internal:
                norms = np.linalg.norm(tree.normals, axis=1)
                assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_empty_index_rejected(self):
        index = CentroidIndex.from_matrix([], np.zeros((0, 2)))
        with pytest.raises(StateError):
            index.build_forest(n_trees=2, leaf_cap=4, seed=1)


class TestAnnTopk:
    def test_without_forest_raises(self):
        index = CentroidIndex.from_matrix(["a"], [[1.0, 0.0]])
        with pytest.raises(StateError, match="exact_topk"):
            index.ann_topk(np.array([1.0, 0.0]), 1)

    def test_exhaustive_budget_equals_exact(self):
        rng = np.random.default_rng(41)
        index, _ = gaussian_index(rng, 1500, 10)
        index.build_forest(n_trees=6, leaf_cap=16, seed=2)
        for _ in range(20):
            q = rng.normal(size=10)
            assert index.ann_topk(q, 12, search_k=1500) == index.exact_topk(q, 12)

    def test_zero_query_empty(self):
        rng = np.random.default_rng(42)
        index, _ = gaussian_index(rng, 100, 5)
        index.build_forest(n_trees=2, leaf_cap=8, seed=2)
        assert index.ann_topk(np.zeros(5), 3) == []

    def test_self_probe_hit_rate(self):
        # Querying with a stored centroid must rank that document first
        # nearly always, at the default candidate budget.
        rng = np.random.default_rng(43)
        index, vectors = gaussian_index(rng, 2000, 16)
        index.build_forest(n_trees=10, leaf_cap=32, seed=6)
        probes = rng.choice(2000, size=1000, replace=False)
        hits = 0
        for row in probes:
            result = index.ann_topk(vectors[row], 1)
            hits += bool(result) and result[0][0] == str(index.doc_ids[row])
        assert hits / len(probes) >= 0.99

    def test_scores_are_exact_cosines(self):
        rng = np.random.default_rng(44)
        index, vectors = gaussian_index(rng, 3000, 24)
        index.build_forest(n_trees=5, leaf_cap=32, seed=8)
        by_id = {str(doc): i for i, doc in enumerate(index.doc_ids)}
        for _ in range(10):
            q = rng.normal(size=24)
            for doc, score in index.ann_topk(q, 25, search_k=500):
                want = brute_cosine(q.tolist(), vectors[by_id[doc]].tolist())
                assert score == pytest.approx(want, abs=1e-6)

    def test_result_sorted_with_exact_tie_rule(self):
        rng = np.random.default_rng(45)
        index, _ = gaussian_index(rng, 1000, 8)
        index.build_forest(n_trees=4, leaf_cap=16, seed=4)
        q = rng.normal(size=8)
        hits = index.ann_topk(q, 50, search_k=300)
        keys = [(-score, doc) for doc, score in hits]
        assert keys == sorted(keys)

    def test_recall_monotone_in_search_k(self):
        rng = np.random.default_rng(46)
        index, _ = gaussian_index(rng, 3000, 12)
        index.build_forest(n_trees=8, leaf_cap=24, seed=10)
        k = 30
        grid = [60, 200, 600, 1500, 3000]
        for _ in range(10):
            q = rng.normal(size=12)
            exact = {doc for doc, _ in index.exact_topk(q, k)}
            last = -1.0
            for search_k in grid:
                approx = {doc for doc, _ in index.ann_topk(q, k, search_k=search_k)}
                recall = len(exact & approx) / k
                assert recall >= last
                last = recall
            assert last == 1.0  # budget >= N examines everything

    def test_good_recall_below_exhaustion(self):
        # Genuinely approximate regime: half the corpus as budget.
        rng = np.random.default_rng(47)
        index, _ = gaussian_index(rng, 8000, 25)
        index.build_forest(n_trees=20, leaf_cap=32, seed=12)
        recalls = []
        for _ in range(30):
            q = rng.normal(size=25)
            exact = {doc for doc, _ in index.exact_topk(q, 50)}
            approx = {doc for doc, _ in index.ann_topk(q, 50, search_k=4000)}
            recalls.append(len(exact & approx) / 50)
        assert float(np.mean(recalls)) >= 0.9

    def test_k_zero(self):
        rng = np.random.default_rng(48)
        index, _ = gaussian_index(rng, 100, 5)
        index.build_forest(n_trees=2, leaf_cap=8, seed=1)
        assert index.ann_topk(rng.normal(size=5), 0) == []

    def test_scan_rule_picks_the_route(self):
        # From the smallest budget the scan rule admits up to N - 1, every
        # row is scored; one below it, only the walk's candidates are.
        # 8 trees x 896 rows is a multiple of the ratio, so the smallest
        # such budget meets the rule with equality.
        rng = np.random.default_rng(70)
        index, _ = gaussian_index(rng, 896, 12)
        index.build_forest(n_trees=8, leaf_cap=16, seed=0)
        scan_k = -(-index.n_trees * index.n_docs // _SCAN_RATIO)
        assert 1 < scan_k < index.n_docs - 1
        walk_differs = False
        for _ in range(10):
            q = rng.normal(size=12)
            exact = index.exact_topk(q, 10)
            for search_k in (scan_k, index.n_docs - 1):
                assert index.ann_topk(q, 10, search_k=search_k) == exact, search_k
            walked = index.ann_topk(q, 10, search_k=scan_k - 1)
            rows = [r for leaf in brute_candidates(index.forest, index._unit_query(q), scan_k - 1)
                    for r in leaf]
            assert walked == ranked_from(index, q, rows, 10)
            walk_differs |= walked != exact
        assert walk_differs

    @pytest.mark.parametrize("search_k", [0, -5])
    def test_search_k_below_one_rejected(self, search_k):
        rng = np.random.default_rng(49)
        index, _ = gaussian_index(rng, 100, 5)
        index.build_forest(n_trees=2, leaf_cap=8, seed=1)
        with pytest.raises(ValueError, match="search_k"):
            index.ann_topk(rng.normal(size=5), 3, search_k=search_k)


def scanned(index, search_k):
    """Whether ``ann_topk`` scores every row at this budget: the scan rule."""
    return (search_k >= index.n_docs
            or index.n_trees * index.n_docs <= _SCAN_RATIO * search_k)


def ranked_from(index, q, rows, k):
    """What ann_topk returns for candidate ``rows``: exact cosines of the
    sorted rows, best k by (-score, id)."""
    rows = np.sort(np.asarray(rows, dtype=np.int32))
    scores = (index.unit_matrix[rows] @ index._unit_query(q)).tolist()
    ranked = sorted(zip(scores, index.doc_ids[rows].tolist()), key=lambda e: (-e[0], e[1]))
    return [(doc, score) for score, doc in ranked[:k]]


def overlap_forest():
    rng = np.random.default_rng(61)
    index, vectors = gaussian_index(rng, 200, 6)
    return index.build_forest(n_trees=24, leaf_cap=8, seed=5), vectors


def single_row_leaves():
    rng = np.random.default_rng(62)
    index, vectors = gaussian_index(rng, 80, 4)
    return index.build_forest(n_trees=5, leaf_cap=1, seed=6), vectors


def duplicate_rows():
    rng = np.random.default_rng(63)
    distinct = rng.normal(size=(30, 5)).astype(np.float32)
    vectors = distinct[rng.integers(0, 30, size=240)]
    index = CentroidIndex.from_matrix([f"d{i:03d}" for i in range(240)], vectors)
    index.build_forest(n_trees=5, leaf_cap=4, seed=7)
    assert any(np.diff(tree.leaf_bounds).max() > 4 for tree in index.forest)
    return index, vectors


def single_leaf_trees():
    # n_docs <= leaf_cap: every tree is its root leaf, and the leaves tie
    # at +inf, one origin per tree, so tree order alone ranks them.
    rng = np.random.default_rng(66)
    index, vectors = gaussian_index(rng, 20, 4)
    index.build_forest(n_trees=3, leaf_cap=32, seed=8)
    assert all(tree.n_leaves == 1 for tree in index.forest)
    return index, vectors


def identical_rows():
    # Every split pick lands on a duplicate, so every root is a forced leaf.
    vectors = np.tile(np.array([[0.3, -1.2, 0.5]], dtype=np.float32), (50, 1))
    index = CentroidIndex.from_matrix([f"d{i:02d}" for i in range(50)], vectors)
    index.build_forest(n_trees=3, leaf_cap=4, seed=9)
    assert all(tree.n_leaves == 1 for tree in index.forest)
    return index, vectors


def mixed_depths():
    # One tree is a single leaf at depth 0, beside trees of deeper leaves:
    # its leaf alone has priority +inf, and every other path is padded.
    rng = np.random.default_rng(67)
    index, vectors = gaussian_index(rng, 60, 5)
    whole = index.build_forest(n_trees=1, leaf_cap=60, seed=10).forest
    split = index.build_forest(n_trees=3, leaf_cap=3, seed=10).forest
    return CentroidIndex(index.doc_ids, index.unit_matrix, forest=whole + split), vectors


def integer_grids():
    """Few distinct integer points in dims 1-6: different nodes, often in
    different trees, split on the same pair, so margins tie exactly."""
    cases = []
    for dim in range(1, 7):
        rng = np.random.default_rng(65 + dim)
        grid = np.array([p for p in itertools.product((-1, 0, 1, 2), repeat=dim) if any(p)],
                        dtype=np.float32)
        distinct = grid[rng.choice(len(grid), size=min(len(grid), 6), replace=False)]
        vectors = distinct[rng.integers(0, len(distinct), size=90)]
        index = CentroidIndex.from_matrix([f"d{i:03d}" for i in range(90)], vectors)
        index.build_forest(n_trees=6, leaf_cap=4, seed=dim)
        cases.append((index, [rng.integers(-1, 3, size=dim).astype(float) for _ in range(6)]))
    return cases


def twin_trees():
    # The forest holds one tree twice, so every hyperplane ties exactly
    # with its twin's, at another origin.
    rng = np.random.default_rng(68)
    index, vectors = gaussian_index(rng, 120, 5)
    first, second = index.build_forest(n_trees=2, leaf_cap=6, seed=11).forest
    forest = [first, second, first]
    return CentroidIndex(index.doc_ids, index.unit_matrix, forest=forest), vectors


def with_queries(build):
    def cases():
        index, vectors = build()
        rng = np.random.default_rng(64)
        return [(index, [rng.normal(size=index.dim) for _ in range(3)] + [vectors[17]])]
    return cases


class TestCandidatesMatchOracle:
    """The heap walk against the leaf-by-leaf reference in ``oracles``.

    Several fixtures tie leaves exactly, within a tree and across trees:
    both must take equal priorities by depth, then tree, then leaf id.
    """

    @pytest.fixture(params=[
        with_queries(overlap_forest),
        with_queries(single_row_leaves),
        with_queries(duplicate_rows),
        with_queries(single_leaf_trees),
        with_queries(identical_rows),
        with_queries(mixed_depths),
        with_queries(twin_trees),
        integer_grids,
    ], ids=["many-trees", "leaf-cap-1", "duplicate-rows", "single-leaf-trees",
            "identical-rows", "mixed-depths", "twin-trees", "integer-grids"])
    def case(self, request):
        return request.param()

    def budgets(self, index, qv):
        """1..24, every total at which the reference stops on a leaf
        boundary, N - 1, N and 2N."""
        n = index.n_docs
        totals = np.cumsum([len(rows) for rows in brute_candidates(index.forest, qv, n)])
        return sorted(set(range(1, 25)) | set(totals.tolist()) | {n - 1, n, 2 * n})

    def each_budget(self, cases):
        """(index, query, unit query, budget, reference rows ascending)."""
        for index, queries in cases:
            for q in queries:
                qv = index._unit_query(q)
                if qv is None:
                    continue
                for search_k in self.budgets(index, qv):
                    want = sorted(r for rows in brute_candidates(index.forest, qv, search_k)
                                  for r in rows)
                    yield index, q, qv, search_k, want

    def test_walk(self, case):
        for index, _, qv, search_k, want in self.each_budget(case):
            assert index._walk_candidates(qv, search_k).tolist() == want, search_k
            assert not index._seen_buffer().any()

    def test_same_rows_and_ranking(self, case):
        for index, q, _, search_k, want in self.each_budget(case):
            if not scanned(index, search_k):
                for k in (1, 10):
                    assert index.ann_topk(q, k, search_k=search_k) == ranked_from(
                        index, q, want, k), (search_k, k)

    def test_scanned_budgets_equal_exact(self, case):
        # ``==`` on the scores too: a gathered subset's float32 dot can
        # differ from the whole matrix's by one ulp.
        for index, q, _, search_k, _ in self.each_budget(case):
            if scanned(index, search_k):
                for k in (1, 10):
                    assert index.ann_topk(q, k, search_k=search_k) == index.exact_topk(
                        q, k), (search_k, k)


class TestPersistence:
    def test_roundtrip_single_doc(self, tmp_path):
        index = CentroidIndex.from_matrix(["only"], [[3.0, 4.0]])
        index.build_forest(n_trees=2, leaf_cap=4, seed=9)
        path = tmp_path / "tiny.crvi"
        save_index(index, path)
        assert saved_bytes(load_index(path), tmp_path / "again.crvi") == path.read_bytes()

    def test_roundtrip_forest(self, tmp_path):
        rng = np.random.default_rng(51)
        index, _ = gaussian_index(rng, 2500, 14)
        index.build_forest(n_trees=10, leaf_cap=32, seed=123)
        path = tmp_path / "forest.crvi"
        save_index(index, path)
        loaded = load_index(path)
        assert saved_bytes(loaded, tmp_path / "again.crvi") == path.read_bytes()
        q = rng.normal(size=14)
        assert loaded.ann_topk(q, 10) == index.ann_topk(q, 10)
        assert loaded.exact_topk(q, 10) == index.exact_topk(q, 10)

    def test_loaded_views_give_same_ann(self, tmp_path):
        rng = np.random.default_rng(55)
        index, _ = gaussian_index(rng, 1200, 8)
        index.build_forest(n_trees=12, leaf_cap=16, seed=21)
        save_index(index, tmp_path / "f.crvi")
        loaded = load_index(tmp_path / "f.crvi")
        assert not loaded.forest[0].leaf_items.flags.writeable
        for _ in range(10):
            q = rng.normal(size=8)
            for search_k in (1, 37, 300, 1199):
                assert loaded.ann_topk(q, 15, search_k=search_k) == index.ann_topk(
                    q, 15, search_k=search_k)

    def test_exact_only_roundtrip(self, tmp_path):
        index = CentroidIndex.from_matrix(["a", "b"], [[1.0, 0.0], [0.5, 0.5]])
        path = tmp_path / "flat.crvi"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.n_trees == 0
        assert saved_bytes(loaded, tmp_path / "again.crvi") == path.read_bytes()

    def test_magic_bytes(self, tmp_path):
        index = CentroidIndex.from_matrix(["a"], [[1.0, 0.0]])
        path = tmp_path / "x.crvi"
        save_index(index, path)
        assert path.read_bytes()[:4] == b"CRVI"

    def test_corrupt_magic(self, tmp_path):
        index = CentroidIndex.from_matrix(["a"], [[1.0, 0.0]])
        path = tmp_path / "x.crvi"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_unsupported_version(self, tmp_path):
        index = CentroidIndex.from_matrix(["a"], [[1.0, 0.0]])
        path = tmp_path / "x.crvi"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(52)
        index, _ = gaussian_index(rng, 100, 6)
        index.build_forest(n_trees=2, leaf_cap=8, seed=3)
        path = tmp_path / "x.crvi"
        save_index(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_mode_roundtrip(self, tmp_path):
        index = CentroidIndex.from_matrix(["a", "b"], np.eye(2), mode="cent")
        path = tmp_path / "x.crvi"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.mode == "cent"
        assert saved_bytes(loaded, tmp_path / "again.crvi") == path.read_bytes()
        loaded.mode = "centidf"
        assert saved_bytes(loaded, tmp_path / "again.crvi") != path.read_bytes()

    def test_saves_byte_identical(self, tmp_path):
        rng = np.random.default_rng(53)
        index, _ = gaussian_index(rng, 300, 5)
        index.build_forest(n_trees=3, leaf_cap=8, seed=4)
        save_index(index, tmp_path / "a.crvi")
        save_index(index, tmp_path / "b.crvi")
        assert (tmp_path / "a.crvi").read_bytes() == (tmp_path / "b.crvi").read_bytes()

    def test_unknown_mode_code(self, tmp_path):
        path = tmp_path / "x.crvi"
        save_index(CentroidIndex.from_matrix(["a"], [[1.0, 0.0]]), path)
        blob = bytearray(path.read_bytes())
        blob[28:32] = (9).to_bytes(4, "little")  # the header's mode field
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="mode"):
            load_index(path)

    @pytest.mark.parametrize("with_forest", [False, True])
    def test_rows_roundtrip(self, tmp_path, with_forest):
        rng = np.random.default_rng(58)
        index, _ = gaussian_index(rng, 200, 5, **doc_rows(rng, 200))
        if with_forest:
            index.build_forest(n_trees=3, leaf_cap=8, seed=5)
        saved = saved_bytes(index, tmp_path / "x.crvi")
        loaded = load_index(tmp_path / "x.crvi")
        assert saved_bytes(loaded, tmp_path / "again.crvi") == saved
        assert np.array_equal(loaded.rows, index.rows)
        assert np.array_equal(loaded.bounds, index.bounds)
        assert loaded.fingerprint == index.fingerprint
        assert loaded.vocab_size == index.vocab_size
        assert not loaded.rows.flags.writeable

    @pytest.mark.parametrize("with_forest", [False, True])
    def test_idf_rows_roundtrip(self, tmp_path, with_forest):
        rng = np.random.default_rng(62)
        weights = rng.uniform(0.0, 5.0, 40)
        index, _ = gaussian_index(rng, 200, 5, mode="centidf", idf_rows=weights,
                                  **doc_rows(rng, 200))
        if with_forest:
            index.build_forest(n_trees=3, leaf_cap=8, seed=5)
        saved = saved_bytes(index, tmp_path / "x.crvi")
        loaded = load_index(tmp_path / "x.crvi")
        assert saved_bytes(loaded, tmp_path / "again.crvi") == saved
        assert loaded.idf_rows.tobytes() == weights.tobytes()
        assert not loaded.idf_rows.flags.writeable
        # The weights are the last section, 8 bytes each.
        assert saved.endswith(weights.astype("<f8").tobytes())

    def test_v3_file_rejected(self, tmp_path):
        # A v3 centidf index is the v4 one without its IDF section.
        rng = np.random.default_rng(63)
        index, _ = gaussian_index(rng, 10, 3, mode="centidf", idf_rows=np.ones(40),
                                  **doc_rows(rng, 10))
        blob = saved_bytes(index, tmp_path / "x.crvi")
        body = blob[64:-8 * 40]
        header = bytearray(blob[:64])
        header[4:8] = (3).to_bytes(4, "little")  # the header's version
        header[40:44] = zlib.crc32(body).to_bytes(4, "little")  # and its CRC32
        (tmp_path / "x.crvi").write_bytes(bytes(header) + body)
        with pytest.raises(IndexFormatError, match="unsupported version 3"):
            load_index(tmp_path / "x.crvi")

    def test_v2_file_rejected(self, tmp_path):
        # The v4 body of an index without document rows is the v2 body;
        # only the header differs.
        index = CentroidIndex.from_matrix(["a", "b"], np.eye(2), mode="cent")
        path = tmp_path / "x.crvi"
        save_index(index, path)
        body = path.read_bytes()[64:]
        v2 = struct.pack("<4sIIIQIIQI4x", b"CRVI", 2, 2, 0, 2, 32, 1, 42, zlib.crc32(body))
        path.write_bytes(v2 + body)
        with pytest.raises(IndexFormatError, match="unsupported version 2"):
            load_index(path)

    def test_v1_file_rejected(self, tmp_path):
        # One document "a" of dim 2 and no trees in the retired v1 layout:
        # header, length-prefixed id, float32 row.
        v1 = (struct.pack("<4sIIQIIQ", b"CRVI", 1, 2, 1, 0, 32, 42)
              + struct.pack("<I", 1) + b"a" + np.array([1.0, 0.0], "<f4").tobytes())
        path = tmp_path / "v1.crvi"
        path.write_bytes(v1)
        with pytest.raises(IndexFormatError, match="unsupported version"):
            load_index(path)


class TestCorruptIndex:
    """Damage that must fail to load rather than yield a wrong ranking.

    Array damage is made in memory and then saved, so the file carries a
    valid checksum and only the structural checks stand in the way.
    """

    def saved(self, tmp_path, damage=None):
        rng = np.random.default_rng(54)
        index, _ = gaussian_index(rng, 100, 6, **doc_rows(rng, 100))
        index.build_forest(n_trees=2, leaf_cap=8, seed=3)
        if damage is not None:
            damage(index)
        path = tmp_path / "x.crvi"
        save_index(index, path)
        return path

    def test_intact_file_loads(self, tmp_path):
        loaded = load_index(self.saved(tmp_path))
        assert loaded.n_trees == 2 and loaded.rows is not None

    def test_leaf_item_all_ones(self, tmp_path):
        def damage(index):
            index.forest[1].leaf_items[5] = -1  # stored as 0xFFFFFFFF
        with pytest.raises(IndexFormatError, match="leaf item out of range"):
            load_index(self.saved(tmp_path, damage))

    def test_duplicated_leaf_item(self, tmp_path):
        def damage(index):
            items = index.forest[0].leaf_items
            items[1] = items[0]
        with pytest.raises(IndexFormatError, match="permutation"):
            load_index(self.saved(tmp_path, damage))

    def test_child_ref_out_of_range(self, tmp_path):
        def damage(index):
            tree = index.forest[0]
            tree.children[0, 1] = tree.n_internal + 3
        with pytest.raises(IndexFormatError, match="out of range"):
            load_index(self.saved(tmp_path, damage))

    def test_child_cycle(self, tmp_path):
        # Node 1 points back at node 0 and the root slot takes over the
        # leaf it displaced: every node is still referenced once, but
        # traversal would loop.
        def damage(index):
            tree = index.forest[0]
            assert tree.children[0, 0] == 1
            tree.root = int(tree.children[1, 0])
            tree.children[1, 0] = 0
        with pytest.raises(IndexFormatError, match="follow its parent"):
            load_index(self.saved(tmp_path, damage))

    def test_leaf_bounds_not_rising(self, tmp_path):
        def damage(index):
            bounds = index.forest[0].leaf_bounds
            bounds[1], bounds[2] = bounds[2], bounds[1]
        with pytest.raises(IndexFormatError, match="leaf bounds"):
            load_index(self.saved(tmp_path, damage))

    def test_nan_in_matrix(self, tmp_path):
        def damage(index):
            index.unit_matrix[0, 0] = np.nan
        with pytest.raises(IndexFormatError, match="non-finite"):
            load_index(self.saved(tmp_path, damage))

    def test_nan_in_normal(self, tmp_path):
        def damage(index):
            index.forest[0].normals[0, 0] = np.nan
        with pytest.raises(IndexFormatError, match="non-finite"):
            load_index(self.saved(tmp_path, damage))

    def test_flipped_body_byte(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="checksum"):
            load_index(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(IndexFormatError, match="trailing"):
            load_index(path)

    def test_truncated_in_header(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(path)

    def test_missing_final_padding(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(path)

    def test_repeated_doc_id(self, tmp_path):
        def damage(index):
            index.doc_ids[1] = index.doc_ids[0]
        with pytest.raises(IndexFormatError, match="repeated document id"):
            load_index(self.saved(tmp_path, damage))

    def test_row_at_vocabulary_size(self, tmp_path):
        def damage(index):
            index.rows[3] = index.vocab_size
        with pytest.raises(IndexFormatError, match="out of the vocabulary"):
            load_index(self.saved(tmp_path, damage))

    def test_negative_row(self, tmp_path):
        def damage(index):
            index.rows[3] = -1
        with pytest.raises(IndexFormatError, match="out of the vocabulary"):
            load_index(self.saved(tmp_path, damage))

    def test_row_bounds_not_rising(self, tmp_path):
        def damage(index):
            bounds = index.bounds
            i = int(np.flatnonzero(np.diff(bounds) > 0)[0])
            bounds[i + 1] = bounds[i] - 1
        with pytest.raises(IndexFormatError, match="rise from 0"):
            load_index(self.saved(tmp_path, damage))

    def test_last_row_bound_not_row_count(self, tmp_path):
        def damage(index):
            index.bounds[-1] -= 1
        with pytest.raises(IndexFormatError, match="row count"):
            load_index(self.saved(tmp_path, damage))

    def test_row_bounds_of_wrong_length(self, tmp_path):
        def damage(index):
            index.bounds = index.bounds[:-1]
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(self.saved(tmp_path, damage))

    @pytest.mark.parametrize("damage, message", [
        (lambda w: np.where(np.arange(w.size) == 3, np.nan, w), "negative or not finite"),
        (lambda w: np.where(np.arange(w.size) == 3, -0.5, w), "negative or not finite"),
        (lambda w: w[:-1], "truncated"),
        (lambda w: np.append(w, 1.0), "trailing"),
    ])
    def test_damaged_idf_weights(self, tmp_path, damage, message):
        rng = np.random.default_rng(64)
        index, _ = gaussian_index(rng, 100, 6, mode="centidf", idf_rows=np.ones(40),
                                  **doc_rows(rng, 100))
        index.idf_rows = damage(index.idf_rows)
        path = tmp_path / "x.crvi"
        save_index(index, path)
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)

    def test_row_fields_without_rows(self, tmp_path):
        path = tmp_path / "x.crvi"
        save_index(CentroidIndex.from_matrix(["a"], [[1.0, 0.0]]), path)
        blob = bytearray(path.read_bytes())
        blob[48:56] = (5).to_bytes(8, "little")  # the header's vocabulary size
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFormatError, match="document-row fields"):
            load_index(path)
