import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import run, trace, workloads
from perfbench.trace import Span


def test_self_time_subtracts_children():
    spans = [Span("root", 0.0, 10.0), Span("child", 2.0, 5.0, parent=0),
             Span("grandchild", 3.0, 4.0, parent=1)]
    assert list(trace.self_times(spans)) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_pool_children_once():
    # Two pool threads overlap on [5, 6]; a third child sticks out past the parent.
    spans = [Span("retrieve", 0.0, 10.0, thread=1),
             Span("tokenize", 1.0, 3.0, parent=0, thread=1),
             Span("exact_topk", 2.0, 6.0, parent=0, thread=2),
             Span("exact_topk", 5.0, 8.0, parent=0, thread=3),
             Span("late", 9.0, 12.0, parent=0, thread=2)]
    own = trace.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert list(own[1:]) == pytest.approx([2.0, 4.0, 3.0, 3.0])


def test_pool_thread_spans_take_the_main_threads_open_span_as_parent():
    tracer = trace.Tracer()
    tracer.qid = "q1"

    def work(_):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                return threading.get_ident()

    with tracer.span("outer"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    outer = tracer.spans[0]
    assert outer.name == "outer" and outer.parent is None
    inner = [i for i, s in enumerate(tracer.spans) if s.name == "inner"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(inner) == 4 and all(tracer.spans[i].parent == 0 for i in inner)
    assert all(s.parent in inner and s.thread == tracer.spans[s.parent].thread for s in leaves)
    assert all(s.qid == "q1" for s in tracer.spans)
    stats = trace.layer_stats(tracer.spans, n_passes=2)
    assert stats["inner"]["calls"] == 2


def test_installed_wraps_and_restores_entry_points():
    from centroid_ir import retrieval

    original = retrieval.tokenize
    tracer = trace.Tracer()
    with trace.installed(tracer):
        assert retrieval.tokenize is not original
        tokens = retrieval.tokenize("alpha beta")
    assert retrieval.tokenize is original
    assert [s.name for s in tracer.spans] == ["text.tokenize"]
    assert tracer.spans[0].counts == {"tokens": len(tokens)}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)
