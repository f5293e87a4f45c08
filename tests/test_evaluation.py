import json
import math

import numpy as np
import pytest

from centroid_ir import (EvaluationError, ParseError, RankedRun,
                         average_precision, evaluate,
                         interpolated_precision_curve, ndcg_at_k, read_qrels,
                         report_table, report_to_json)
from oracles import brute_average_precision, brute_ip_curve, brute_ndcg

HAND_RANKING = ["d1", "d2", "d3"]
HAND_REL = {"d1", "d3"}


class TestAveragePrecision:
    def test_hand_example(self):
        # hits at ranks 1 and 3: (1/2) * (1/1 + 2/3)
        assert average_precision(HAND_RANKING, HAND_REL) == pytest.approx(
            brute_average_precision(HAND_RANKING, HAND_REL), abs=1e-12)
        assert average_precision(HAND_RANKING, HAND_REL) == pytest.approx(0.83333, abs=1e-5)

    def test_perfect_ranking(self):
        assert average_precision(["a", "b", "c"], {"a", "b", "c"}) == 1.0

    def test_nothing_relevant_retrieved(self):
        assert average_precision(["a", "b"], {"x"}) == 0.0

    def test_unretrieved_relevant_counts_against(self):
        assert average_precision(["a"], {"a", "x"}) == 0.5

    def test_empty_rel_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["a"], set())


class TestInterpolatedPrecision:
    def test_hand_example(self):
        curve = interpolated_precision_curve(HAND_RANKING, HAND_REL)
        assert np.allclose(curve[:6], 1.0, atol=1e-12)
        assert np.allclose(curve[6:], 2 / 3, atol=1e-12)
        assert curve.mean() == pytest.approx(0.84848, abs=1e-5)

    def test_perfect(self):
        curve = interpolated_precision_curve(["a", "b"], {"a", "b"})
        assert np.all(curve == 1.0)

    def test_all_misses(self):
        curve = interpolated_precision_curve(["a", "b"], {"x"})
        assert np.all(curve == 0.0)

    def test_empty_ranking(self):
        curve = interpolated_precision_curve([], {"x"})
        assert np.all(curve == 0.0)

    def test_non_increasing(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            ranking, rel = random_instance(rng)
            curve = interpolated_precision_curve(ranking, rel)
            assert np.all(np.diff(curve) <= 1e-12)

    def test_grid_alignment_exact_tenths(self):
        # 10 relevant docs at the top: every grid point is achieved exactly.
        ranking = [f"d{i}" for i in range(10)]
        curve = interpolated_precision_curve(ranking, set(ranking))
        assert np.all(curve == 1.0)


class TestNdcg:
    def test_hand_example(self):
        value = ndcg_at_k(HAND_RANKING, HAND_REL, 3)
        # DCG = 1 + 0 + 1/log2(4) = 1.5; IDCG = 1 + 1/log2(3)
        expected = 1.5 / (1.0 + 1.0 / math.log2(3))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.9197207891, abs=1e-9)

    def test_ideal_is_one(self):
        assert ndcg_at_k(["a", "b", "c"], {"a", "b"}, 3) == 1.0

    def test_empty_ranking_zero(self):
        assert ndcg_at_k([], {"a"}, 5) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a"}, 0)

    def test_invariant_to_irrelevant_reordering_below_k(self):
        rel = {"a"}
        base = ["x", "a", "y", "z", "w"]
        swapped = ["x", "a", "y", "w", "z"]
        for k in (2, 3):
            assert ndcg_at_k(base, rel, k) == ndcg_at_k(swapped, rel, k)


def random_instance(rng, max_docs=10):
    n = int(rng.integers(1, max_docs + 1))
    docs = [f"d{i}" for i in range(n)]
    ranking = list(rng.permutation(docs)[: rng.integers(0, n + 1)])
    n_rel = int(rng.integers(1, n + 1))
    rel = set(rng.choice(docs, size=n_rel, replace=False))
    return ranking, rel


class TestOracleAgreement:
    def test_exact_match_on_random_instances(self):
        rng = np.random.default_rng(72)
        for _ in range(200):
            ranking, rel = random_instance(rng)
            assert average_precision(ranking, rel) == pytest.approx(
                brute_average_precision(ranking, rel), abs=1e-9)
            mine = interpolated_precision_curve(ranking, rel)
            assert np.allclose(mine, brute_ip_curve(ranking, rel), atol=1e-9)
            for k in (1, 3, 10):
                assert ndcg_at_k(ranking, rel, k) == pytest.approx(
                    brute_ndcg(ranking, rel, k), abs=1e-9)

    def test_interpolation_never_lowers_the_curve(self):
        # At every grid level, the interpolated value dominates the raw
        # precision of every achieved recall point at or above it.  (The
        # scalar comparison AIP >= AP does NOT hold in general: the two
        # average over different grids.  3 of 4 relevant at ranks 1-3
        # gives AP = 3/4 but AIP = 8/11.)
        rng = np.random.default_rng(73)
        for _ in range(300):
            ranking, rel = random_instance(rng, max_docs=12)
            curve = interpolated_precision_curve(ranking, rel)
            hits = 0
            for i, doc in enumerate(ranking, start=1):
                if doc in rel:
                    hits += 1
                    recall, precision = hits / len(rel), hits / i
                    for tenth in range(11):
                        if tenth / 10 <= recall + 1e-12:
                            assert curve[tenth] >= precision - 1e-12


class TestEvaluate:
    def run_of(self, mapping):
        return RankedRun(tag="t", per_question={
            qid: [(doc, 1.0 / (i + 1)) for i, doc in enumerate(docs)]
            for qid, docs in mapping.items()
        })

    def test_hand_composition(self):
        report = evaluate(self.run_of({"q1": HAND_RANKING}), {"q1": HAND_REL},
                          k_list=(3,))
        assert report.map == pytest.approx(0.83333, abs=1e-5)
        assert report.maip == pytest.approx(0.84848, abs=1e-5)
        assert report.mean_ndcg[3] == pytest.approx(0.9197207891, abs=1e-9)
        assert report.n_questions == 1
        assert report.n_excluded == 0

    def test_perfect_run(self):
        report = evaluate(self.run_of({"q1": ["a", "b"]}), {"q1": {"a", "b"}},
                          k_list=(2,))
        assert report.map == report.maip == report.mean_ndcg[2] == 1.0

    def test_missing_question_scores_zero(self):
        report = evaluate(self.run_of({"q1": ["a"]}),
                          {"q1": {"a"}, "q2": {"b"}}, k_list=(1,))
        assert report.n_questions == 2
        assert report.map == pytest.approx(0.5)
        assert report.per_question["q2"].ap == 0.0

    def test_empty_gold_sets_excluded(self):
        report = evaluate(self.run_of({"q1": ["a"]}),
                          {"q1": {"a"}, "q3": set()}, k_list=(1,))
        assert report.n_questions == 1
        assert report.n_excluded == 1
        assert report.excluded == ["q3"]

    def test_disjoint_qids_error(self):
        with pytest.raises(EvaluationError):
            evaluate(self.run_of({"q9": ["a"]}), {"q1": {"a"}})

    def test_run_questions_without_judgments_ignored(self):
        report = evaluate(self.run_of({"q1": ["a"], "qx": ["b"]}),
                          {"q1": {"a"}}, k_list=(1,))
        assert set(report.per_question) == {"q1"}

    def test_mip_is_mean_of_curves(self):
        run = self.run_of({"q1": ["a", "b"], "q2": ["x"]})
        qrels = {"q1": {"b"}, "q2": {"x"}}
        report = evaluate(run, qrels, k_list=(1,))
        c1 = interpolated_precision_curve(["a", "b"], {"b"})
        c2 = interpolated_precision_curve(["x"], {"x"})
        assert np.allclose(report.mip_curve, (c1 + c2) / 2, atol=1e-12)

    def test_map_depth_truncates_ap_only(self):
        run = self.run_of({"q1": ["x", "a"]})
        qrels = {"q1": {"a"}}
        full = evaluate(run, qrels, k_list=(2,))
        cut = evaluate(run, qrels, k_list=(2,), map_depth=1)
        assert full.map == pytest.approx(0.5)
        assert cut.map == 0.0
        assert cut.mean_ndcg[2] == full.mean_ndcg[2]

    def test_map_depth_below_one_rejected(self):
        with pytest.raises(ValueError):
            evaluate(self.run_of({"q1": ["a"]}), {"q1": {"a"}}, map_depth=0)


class TestQrelsAndReports:
    def test_read_qrels(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\nq2 0 d9 1\n")
        qrels = read_qrels(path)
        assert qrels == {"q1": {"d1"}, "q2": {"d9"}}

    def test_rel_zero_only_question_kept_empty(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("q1 0 d1 0\n")
        assert read_qrels(path) == {"q1": set()}

    def test_bad_rel_value(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("q1 0 d1 2\n")
        with pytest.raises(ParseError, match="line 1"):
            read_qrels(path)

    def test_json_report_structure(self):
        report = evaluate(RankedRun(tag="t", per_question={"q1": [("d1", 1.0)]}),
                          {"q1": {"d1"}}, k_list=(1,))
        payload = json.loads(report_to_json(report))
        assert payload["map"] == 1.0
        assert len(payload["mip_curve"]) == 11
        assert payload["mip_curve"][0] == [0.0, 1.0]
        assert payload["per_question"]["q1"]["ndcg"]["1"] == 1.0

    def test_table_mentions_metrics(self):
        report = evaluate(RankedRun(tag="t", per_question={"q1": [("d1", 1.0)]}),
                          {"q1": {"d1"}}, k_list=(20,))
        table = report_table(report)
        assert "MAP" in table and "MAIP" in table and "nDCG@20" in table
