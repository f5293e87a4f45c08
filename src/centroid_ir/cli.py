"""Command-line entry point for batch retrieval experiments.

Subcommands: build-index, search, rerank, hybrid, evaluate, idf.
``build-index`` writes the index and, when it computes IDF, an IDF file;
``search`` reads no IDF file, as a centidf index carries its weights.
Options may also come from a ``key = value`` config file (``--config``),
with command-line flags taking precedence.  Logs go to stderr, data to
files or stdout.  Exit codes: 0 ok, 2 missing input, 3 data error,
4 run/qrels mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import embeddings as emb
from . import evaluation as ev
from .corpus import iter_corpus, load_corpus
from .errors import ConfigMismatch, EngineError, EvaluationError, ParseError, open_text
from .index import (DEFAULT_LEAF_CAP, DEFAULT_SEED, DEFAULT_TREES,
                    load_index, save_index)
from .retrieval import (DEFAULT_K, build_corpus_index, hybrid, load_questions,
                        rerank, retrieve)
from .runs import read_run, write_run
from .rwmd import SCORERS
from .text import default_stopwords, load_stopwords


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _read_config(path) -> dict[str, str]:
    """Parse a minimal key = value config file; '#' starts a comment."""
    values: dict[str, str] = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError("expected key = value", line_no=line_no, path=path)
            values[key.strip().replace("-", "_")] = value.strip().strip("\"'")
    return values


def _positive_ints(text: str) -> list[int]:
    """A comma-separated list of positive integers; blank items are skipped."""
    values = [int(item) for item in text.split(",") if item.strip()]
    if any(value < 1 for value in values):
        raise ValueError(f"not a list of positive integers: {text!r}")
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class _Command:
    """Argparse wrapper that layers defaults < config file < flags."""

    def __init__(self, subparsers, name: str, help_text: str):
        self.parser = subparsers.add_parser(name, help=help_text)
        self.defaults: dict[str, object] = {}
        self.types: dict[str, object] = {}
        self.choices: dict[str, list[str] | None] = {}
        self.parser.add_argument("--config", default=argparse.SUPPRESS,
                                 help="key = value config file; flags win")

    def opt(self, flag: str, *, type=str, default=None, required=False,
            choices=None, help=None, is_flag=False):
        dest = flag.lstrip("-").replace("-", "_")
        if is_flag:
            self.parser.add_argument(flag, action="store_true",
                                     default=argparse.SUPPRESS, help=help)
            self.types[dest] = _parse_bool
            self.defaults[dest] = bool(default)
        else:
            self.parser.add_argument(flag, type=type, default=argparse.SUPPRESS,
                                     choices=choices, help=help)
            self.types[dest] = type
            self.defaults[dest] = default
        self.choices[dest] = choices
        if required:
            self.defaults[dest] = _REQUIRED
        return self

    def resolve(self, args: argparse.Namespace) -> argparse.Namespace:
        given = vars(args)
        path = given.get("config")
        config = _read_config(path) if path is not None else {}
        merged = dict(self.defaults)
        for key, raw in config.items():
            if key not in self.defaults:
                raise ParseError(f"unknown config key {key!r}", path=path)
            try:
                merged[key] = self.types[key](raw)
            except ValueError as exc:
                raise ParseError(f"invalid {key} {raw!r}: {exc}", path=path) from None
            if self.choices[key] and merged[key] not in self.choices[key]:
                raise ParseError(f"invalid {key} {raw!r} (choose from "
                                 f"{', '.join(self.choices[key])})", path=path)
        for key, value in given.items():
            merged[key] = value
        missing = [k for k, v in merged.items() if v is _REQUIRED]
        if missing:
            flags = ", ".join("--" + k.replace("_", "-") for k in sorted(missing))
            self.parser.error(f"missing required options: {flags}")
        return argparse.Namespace(**merged)


_REQUIRED = object()


def _load_stopword_set(ns):
    if getattr(ns, "stopwords", None):
        return load_stopwords(ns.stopwords)
    return default_stopwords()


# -- subcommand handlers -----------------------------------------------------


def cmd_build_index(ns) -> int:
    idf_flags = [flag for flag in ("--compute-idf", "--idf-file", "--idf-out")
                 if getattr(ns, flag[2:].replace("-", "_"))]
    if ns.mode == "cent" and idf_flags:
        raise ConfigMismatch(f"mode cent weights no word by IDF; drop {idf_flags[0]}")
    t0 = time.perf_counter()
    store = emb.load_embeddings(ns.embeddings)
    _log(f"load embeddings: {time.perf_counter() - t0:.3f} s")
    stopwords = _load_stopword_set(ns)
    compute_idf = ns.mode == "centidf" and not ns.idf_file
    if ns.mode == "centidf" and ns.idf_file:
        store.set_idf(*emb.load_idf(ns.idf_file))
    elif compute_idf and not ns.compute_idf:
        raise ConfigMismatch("mode centidf needs --compute-idf or --idf-file")
    index = build_corpus_index(iter_corpus(ns.corpus), store, mode=ns.mode,
                               stopwords=stopwords, compute_idf=compute_idf)
    if ns.engine == "ann":
        index.build_forest(n_trees=ns.trees, leaf_cap=ns.leaf_cap, seed=ns.seed)
    if compute_idf:
        emb.save_idf(ns.idf_out or f"{ns.out}.idf", store.idf, store.n_docs)
    save_index(index, ns.out)
    elapsed = time.perf_counter() - t0
    _log(f"indexed {index.n_docs} documents (dim={index.dim}, trees={index.n_trees}) "
         f"in {elapsed:.2f} s")
    return 0


def cmd_search(ns) -> int:
    if ns.corpus:
        _log(f"ignoring --corpus {ns.corpus}: reranking reads document rows from the index")
    t0 = time.perf_counter()
    index = load_index(ns.index)
    if ns.rerank != "none" and index.rows is None:
        raise ConfigMismatch(f"{ns.index} carries no document rows to rerank by; rebuild it "
                             "with build-index, or rerank the run with the rerank command")
    mode = ns.mode or index.mode
    if mode is None:
        raise ConfigMismatch("index records no centroid mode; pass --mode")
    if mode == "centidf" and index.idf_rows is None:
        raise ConfigMismatch(f"{ns.index} carries no IDF weights to search by centidf; "
                             "rebuild it with build-index")
    engine = ns.engine or ("ann" if index.n_trees else "exact")
    store = emb.load_embeddings(ns.embeddings)
    stopwords = _load_stopword_set(ns)
    questions = load_questions(ns.questions)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    run = retrieve(questions, index, store, mode=mode, engine=engine, k=ns.k,
                   search_k=ns.search_k, stopwords=stopwords)
    t_search = time.perf_counter() - t0

    t_rerank = 0.0
    if ns.rerank != "none":
        t0 = time.perf_counter()
        run = rerank(run, questions, index, store, method=ns.rerank,
                     stopwords=stopwords, depth=ns.rerank_depth)
        t_rerank = time.perf_counter() - t0

    write_run(run, ns.out)
    _log(f"load: {t_load:.3f} s")
    _log(f"search: {t_search:.3f} s")
    _log(f"rerank: {t_rerank:.3f} s")
    _log(f"wrote {sum(len(v) for v in run.per_question.values())} entries "
         f"({len(run.per_question)} questions) to {ns.out} [tag {run.tag}]")
    return 0


def cmd_rerank(ns) -> int:
    store = emb.load_embeddings(ns.embeddings)
    stopwords = _load_stopword_set(ns)
    run = read_run(ns.run)
    questions = load_questions(ns.questions)
    documents = load_corpus(ns.corpus)
    t0 = time.perf_counter()
    out = rerank(run, questions, documents, store, method=ns.method,
                 stopwords=stopwords, depth=ns.rerank_depth)
    _log(f"rerank: {time.perf_counter() - t0:.3f} s")
    write_run(out, ns.out)
    return 0


def cmd_hybrid(ns) -> int:
    combined = hybrid(read_run(ns.primary), read_run(ns.fallback))
    write_run(combined, ns.out)
    return 0


def cmd_evaluate(ns) -> int:
    run = read_run(ns.run)
    qrels = ev.read_qrels(ns.qrels)
    report = ev.evaluate(run, qrels, k_list=ns.ndcg_k, map_depth=ns.map_depth)
    if ns.json == "-":
        sys.stdout.write(ev.report_to_json(report))
    else:
        if ns.json:
            with open(ns.json, "w", encoding="utf-8") as fh:
                fh.write(ev.report_to_json(report))
        sys.stdout.write(ev.report_table(report))
    return 0


def cmd_idf(ns) -> int:
    stopwords = _load_stopword_set(ns)
    texts = (record.text for record in iter_corpus(ns.corpus))
    idf, n_docs = emb.idf_of(*emb.text_ids(texts, stopwords))
    emb.save_idf(ns.out, idf, n_docs)
    _log(f"idf over {n_docs} documents, {len(idf)} tokens -> {ns.out}")
    return 0


# -- parser wiring ------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="centroid-ir",
        description="Centroid-based document retrieval, reranking, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, tuple[_Command, object]] = {}

    c = _Command(sub, "build-index", "tokenize a corpus, centroid it, build the index")
    c.opt("--embeddings", required=True, help="text embedding file")
    c.opt("--corpus", required=True, help="JSON-lines corpus (id/title/abstract)")
    c.opt("--out", required=True, help="output index file")
    c.opt("--mode", default="centidf", choices=["cent", "centidf"])
    c.opt("--engine", default="ann", choices=["exact", "ann"])
    c.opt("--trees", type=int, default=DEFAULT_TREES)
    c.opt("--leaf-cap", type=int, default=DEFAULT_LEAF_CAP)
    c.opt("--seed", type=int, default=DEFAULT_SEED)
    c.opt("--compute-idf", is_flag=True, help="compute IDF from this corpus")
    c.opt("--idf-file", help="reuse IDF scores from this file")
    c.opt("--idf-out", help="where to write computed IDF (default: OUT.idf)")
    c.opt("--stopwords", help="stop-word file (default: bundled list)")
    commands["build-index"] = (c, cmd_build_index)

    c = _Command(sub, "search", "retrieve top-k per question, optionally rerank")
    c.opt("--index", required=True)
    c.opt("--embeddings", required=True)
    c.opt("--questions", required=True, help="JSON-lines questions (id/text)")
    c.opt("--out", required=True, help="output TREC run file")
    c.opt("--mode", choices=["cent", "centidf"], help="default: recorded with index")
    c.opt("--engine", choices=["exact", "ann"], help="default: ann when a forest exists")
    c.opt("--k", type=int, default=DEFAULT_K)
    c.opt("--search-k", type=int, help="candidate budget (default 10*trees*k)")
    c.opt("--rerank", default="none", choices=["none", *sorted(SCORERS)])
    c.opt("--rerank-depth", type=int, help="rerank only the top so-many documents")
    c.opt("--corpus", help="ignored: reranking reads document rows from the index")
    c.opt("--stopwords")
    commands["search"] = (c, cmd_search)

    c = _Command(sub, "rerank", "rerank an existing run file by relaxed WMD")
    c.opt("--run", required=True)
    c.opt("--questions", required=True)
    c.opt("--corpus", required=True)
    c.opt("--embeddings", required=True)
    c.opt("--out", required=True)
    c.opt("--method", default="rwmd_q", choices=sorted(SCORERS))
    c.opt("--rerank-depth", type=int)
    c.opt("--stopwords")
    commands["rerank"] = (c, cmd_rerank)

    c = _Command(sub, "hybrid", "fall back to a second run where the first is empty")
    c.opt("--primary", required=True)
    c.opt("--fallback", required=True)
    c.opt("--out", required=True)
    commands["hybrid"] = (c, cmd_hybrid)

    c = _Command(sub, "evaluate", "score a run against qrels")
    c.opt("--run", required=True)
    c.opt("--qrels", required=True)
    c.opt("--ndcg-k", type=_positive_ints, default=ev.DEFAULT_NDCG_K,
          help="comma-separated nDCG depths")
    c.opt("--map-depth", type=int, help="truncate rankings for AP only")
    c.opt("--json", help="write the JSON report here ('-' for stdout)")
    commands["evaluate"] = (c, cmd_evaluate)

    c = _Command(sub, "idf", "compute corpus IDF scores into a file")
    c.opt("--corpus", required=True)
    c.opt("--out", required=True)
    c.opt("--stopwords")
    commands["idf"] = (c, cmd_idf)

    return parser, commands


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    command, handler = commands[args.command]
    try:
        ns = command.resolve(args)
        return handler(ns)
    except FileNotFoundError as exc:
        _log(f"error: missing input file: {exc.filename or exc}")
        return 2
    except EvaluationError as exc:
        _log(f"error: {exc}")
        return 4
    except (EngineError, ValueError) as exc:
        _log(f"error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
