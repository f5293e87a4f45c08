"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rerank-batch --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Lines before it give the same numbers for
reading, plus notes and the environment.  The exit code is 0 only when
every output check passed.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
WORKLOADS = ("rerank-batch", "cli-pipeline")

# (name, unit) in the order BENCHMARK.json lists them.
END_TO_END = [
    ("setup_s", "s"), ("batch_qps", "1/s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
    ("recall_at_k", "ratio"), ("map", "ratio"),
]

PER_LAYER = [
    ("index.from_matrix.s", "s"), ("index.build_forest.s", "s"),
    ("index.build_forest.s_per_tree", "s"),
    ("index.ann_topk.calls", "count"), ("index.ann_topk.self_s", "s"),
    ("index.ann_topk.p50_ms", "ms"), ("index.ann_topk.p99_ms", "ms"),
    ("index.exact_topk.calls", "count"), ("index.exact_topk.self_s", "s"),
    ("index.exact_topk.p50_ms", "ms"),
    ("text.tokenize.calls", "count"), ("text.tokenize.self_s", "s"),
    ("text.tokenize.tokens", "count"),
    ("centroids.centroid.calls", "count"), ("centroids.centroid.self_s", "s"),
    ("centroids.centroid.zero_frac", "ratio"), ("centroids.centroid.known_token_frac", "ratio"),
    ("embeddings.compute_idf.s", "s"),
    ("rwmd.embed_text.calls", "count"), ("rwmd.embed_text.self_s", "s"),
    ("rwmd.embed_text.rows", "count"),
    ("rwmd.rwmd_q.calls", "count"), ("rwmd.rwmd_q.self_s", "s"),
    ("retrieval.rerank.s", "s"), ("retrieval.rerank.self_s", "s"),
    ("retrieval.rerank.doc_slots", "count"), ("retrieval.rerank.distinct_doc_frac", "ratio"),
    ("retrieval.retrieve.s", "s"), ("retrieval.retrieve.self_s", "s"),
    ("retrieval.retrieve.empty_frac", "ratio"),
    ("retrieval.build_corpus_index.s", "s"), ("retrieval.build_corpus_index.self_s", "s"),
    ("embeddings.load_embeddings.s", "s"), ("embeddings.load_idf.s", "s"),
    ("embeddings.save_idf.s", "s"),
    ("corpus.iter_corpus.s", "s"), ("corpus.load_corpus.s", "s"),
    ("index.save_index.s", "s"), ("index.load_index.s", "s"), ("index.file_bytes", "bytes"),
    ("runs.write_run.s", "s"), ("runs.read_run.s", "s"),
    ("evaluation.read_qrels.s", "s"), ("evaluation.evaluate.s", "s"),
    ("cli.build_index.s", "s"), ("cli.build_index.self_s", "s"),
    ("cli.search.s", "s"), ("cli.search.self_s", "s"),
    ("cli.evaluate.s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Stats derived from the counts a span recorded: (numerator, denominator).
_RATIOS = {
    "s_per_tree": ("s", "trees"), "zero_frac": ("zero", "calls"),
    "known_token_frac": ("known", "tokens"), "empty_frac": ("empty", "questions"),
    "distinct_doc_frac": ("distinct_docs", "doc_slots"),
}


def environment() -> dict:
    """What the numbers depend on, recorded with every result.

    The BLAS thread variables are reported as found and never set: pinning
    them to 1 would hide the slowdown OpenBLAS's own threads cause inside
    the ``threads=2`` question pool, which ``batch_qps`` measures.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _import_program():
    """Import centroid_ir from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import centroid_ir
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(centroid_ir.__file__).resolve().parents:
        print(f"perfbench: centroid_ir was found outside {src}", file=sys.stderr)
        sys.exit(2)


def layer_metric(stats: dict, name: str) -> float:
    """Look up ``<module>.<function>.<stat>`` in the traced span statistics."""
    if name == "index.file_bytes":
        save = stats.get("index.save_index")
        return save["counts"]["bytes"] / save["calls"] if save else 0.0
    span, stat = name.rsplit(".", 1)
    entry = stats.get(span)
    if entry is None:
        return 0.0
    values = {**entry, **entry["counts"]}
    if stat in _RATIOS:
        num, den = (values.get(key, 0.0) for key in _RATIOS[stat])
        return num / den if den else 0.0
    return float(values.get(stat, 0.0))


def _timed_pass(workload, tracer):
    t0 = perf_counter()
    result = workload.one_pass(tracer)
    return result, perf_counter() - t0


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> int:
    from perfbench import trace, workloads

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=work_root))
    try:
        workload = workloads.WORKLOADS[workload_name](seed, workdir)
        tracer = trace.Tracer()
        start = perf_counter()
        # The first pass is a warm-up: checked, but its times are not used.
        warmup = workload.one_pass(None)
        # Generation plus one pass; later passes only add allocator growth
        # that depends on how many passes fit in the run.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        plain, with_trace = [], []
        while len(plain) < (2 if traced else MIN_PASSES) or perf_counter() - start < seconds:
            plain.append(_timed_pass(workload, None))
            if traced:
                with trace.installed(tracer):
                    with_trace.append(_timed_pass(workload, tracer))
        passes = [warmup] + [p for p, _ in plain + with_trace]
        outcome = workload.summarize([p for p, _ in plain])
        if any(p.outputs != passes[0].outputs for p in passes[1:]):
            outcome.problems.append("outputs differ between passes over the same inputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb
    if traced:
        span_dir = ROOT / ".perfbench-spans"
        span_dir.mkdir(exist_ok=True)
        trace.write_spans(span_dir / f"{workload_name}-seed{seed}.jsonl", tracer.spans)
        stats = trace.layer_stats(tracer.spans, len(with_trace))
        overhead = (float(np.median([s for _, s in with_trace]))
                    / float(np.median([s for _, s in plain])) - 1.0)
        values = {name: layer_metric(stats, name) for name, _ in PER_LAYER}
        values["trace.overhead_frac"] = overhead
        units = PER_LAYER
    else:
        values = outcome.metrics
        units = END_TO_END

    print(f"workload {workload_name} seed {seed} passes 1 warm-up + {len(plain)} plain"
          f" + {len(with_trace)} traced, {attempted} operations, {failed} failed")
    for name, unit in units:
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    if traced:
        print("  end-to-end, untraced: " + ", ".join(
            f"{k} {v:.6g}" for k, v in outcome.metrics.items()))
    print(f"  fail_frac {failed / max(attempted, 1):.6g}")
    for key in ("setup_s", "batch_s", "pipeline_s"):
        samples = [getattr(p, key) for p, _ in plain]
        print(f"  per pass {key}: " + " ".join(f"{v:.4g}" for v in samples))
    for key, value in outcome.notes.items():
        print(f"  {key} {value:.6g}")
    for problem in outcome.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print("env " + json.dumps(environment(), sort_keys=True))
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _import_program()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
