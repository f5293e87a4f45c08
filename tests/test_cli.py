import json
import re

import numpy as np
import pytest

from centroid_ir import embeddings as emb
from centroid_ir.cli import _build_parser, main
from centroid_ir.embeddings import load_embeddings, load_idf
from centroid_ir.index import CentroidIndex, load_index, save_index


@pytest.fixture
def workspace(tmp_path):
    """Embeddings, corpus, questions, and qrels for a tiny three-doc setup."""
    emb = tmp_path / "vectors.txt"
    emb.write_text(
        "4 2\n"
        "apoptosis 1.0 0.0\n"
        "kinase 0.0 1.0\n"
        "p53 0.9 0.1\n"
        "pathway 0.5 0.5\n"
    )
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([
        json.dumps({"id": "d1", "title": "p53 apoptosis", "abstract": "apoptosis pathway"}),
        json.dumps({"id": "d2", "title": "kinase pathway", "abstract": "kinase kinase"}),
        json.dumps({"id": "d3", "title": "pathway notes", "abstract": "pathway pathway"}),
    ]) + "\n")
    questions = tmp_path / "questions.jsonl"
    questions.write_text("\n".join([
        json.dumps({"id": "q1", "text": "What is the role of apoptosis?"}),
        json.dumps({"id": "q2", "text": "the of and"}),
    ]) + "\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 d1 1\nq2 0 d2 1\n")
    return tmp_path


def build(ws, out="index.crvi", *extra):
    idf = [] if "cent" in extra else ["--compute-idf"]  # mode cent refuses IDF options
    return main(["build-index",
                 "--embeddings", str(ws / "vectors.txt"),
                 "--corpus", str(ws / "corpus.jsonl"),
                 "--out", str(ws / out),
                 "--trees", "4", "--leaf-cap", "2", "--seed", "7",
                 *idf, *extra])


class TestBuildIndex:
    def test_builds_and_reports(self, workspace, capsys):
        assert build(workspace) == 0
        err = capsys.readouterr().err
        assert "3 documents" in err and "dim=2" in err
        index = load_index(workspace / "index.crvi")
        assert index.n_docs == 3
        assert index.n_trees == 4
        assert index.mode == "centidf"
        written = sorted(p.name for p in workspace.iterdir() if p.name.startswith("index"))
        assert written == ["index.crvi", "index.crvi.idf"]

    def test_index_carries_idf_weights(self, workspace, tmp_path):
        # Bit for bit the weights of the IDF file written beside the
        # index, and again after another save and load.
        assert build(workspace) == 0
        index = load_index(workspace / "index.crvi")
        store = load_embeddings(workspace / "vectors.txt")
        store.set_idf(*load_idf(workspace / "index.crvi.idf"))
        assert index.idf_rows.dtype == np.float64
        assert index.idf_rows.tobytes() == store.idf_rows.tobytes()
        save_index(index, tmp_path / "again.crvi")
        assert load_index(tmp_path / "again.crvi").idf_rows.tobytes() == store.idf_rows.tobytes()

    def test_cent_index_has_no_idf(self, workspace):
        assert build(workspace, "cent.crvi", "--mode", "cent") == 0
        assert load_index(workspace / "cent.crvi").idf_rows is None
        assert not (workspace / "cent.crvi.idf").exists()

    def test_logs_embedding_load_time(self, workspace, capsys):
        assert build(workspace) == 0
        assert re.search(r"^load embeddings: \d+\.\d{3} s$", capsys.readouterr().err, re.M)

    def test_exact_engine_has_no_trees(self, workspace):
        assert build(workspace, "flat.crvi", "--engine", "exact") == 0
        assert load_index(workspace / "flat.crvi").n_trees == 0

    def test_missing_embeddings_exit_2(self, workspace):
        code = main(["build-index",
                     "--embeddings", str(workspace / "nope.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "x.crvi"), "--compute-idf"])
        assert code == 2

    def test_duplicate_doc_exit_3(self, workspace):
        corpus = workspace / "corpus.jsonl"
        corpus.write_text(corpus.read_text() +
                          json.dumps({"id": "d1", "title": "x", "abstract": "y"}) + "\n")
        assert build(workspace) == 3

    @pytest.mark.parametrize("command", ["build-index", "idf"])
    def test_duplicate_doc_names_file_and_line(self, workspace, capsys, command):
        corpus = workspace / "corpus.jsonl"
        corpus.write_text(corpus.read_text() +
                          json.dumps({"id": "d1", "title": "x", "abstract": "y"}) + "\n")
        argv = {"build-index": ["--embeddings", str(workspace / "vectors.txt"),
                                "--compute-idf"],
                "idf": []}[command]
        code = main([command, "--corpus", str(corpus), "--out", str(workspace / "out"), *argv])
        assert code == 3
        assert f"error: {corpus}: line 4: repeated document id 'd1'" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("option", [["--compute-idf"], ["--idf-file", "nonexistent.idf"],
                                        ["--idf-out", "x.idf"]])
    def test_cent_mode_refuses_idf_options(self, workspace, capsys, option):
        code = build(workspace, "cent.crvi", "--mode", "cent", *option)
        assert code == 3
        assert f"mode cent weights no word by IDF; drop {option[0]}" in capsys.readouterr().err
        assert not (workspace / "cent.crvi").exists()

    @pytest.mark.parametrize("option", [["--compute-idf"], ["--idf-out", "x.idf"]])
    def test_idf_file_refuses_the_options_it_drops(self, workspace, capsys, option):
        code = main(["build-index", "--embeddings", str(workspace / "vectors.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "x.crvi"),
                     "--idf-file", "nonexistent.idf", *option])
        assert code == 3
        assert f"--idf-file gives the IDF weights; drop {option[0]}" in capsys.readouterr().err
        assert not (workspace / "x.crvi").exists()
        # Refused before the embeddings are read, so no cache was written.
        assert not (workspace / "vectors.txt.crvs").exists()

    @pytest.mark.parametrize("option", [[], ["--idf-out", "x.idf"]])
    def test_centidf_without_idf_source_is_refused_before_loading(self, workspace, capsys,
                                                                   option):
        code = main(["build-index", "--embeddings", str(workspace / "vectors.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "x.crvi"), *option])
        assert code == 3
        err = capsys.readouterr().err
        assert "mode centidf needs --compute-idf or --idf-file" in err
        assert "load embeddings:" not in err
        assert not (workspace / "x.crvi").exists()
        assert not (workspace / "vectors.txt.crvs").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--leaf-cap", str(2**32)), ("--seed", str(2**64))])
    def test_out_of_range_leaf_cap_or_seed_exit_3(self, workspace, flag, value):
        code = main(["build-index",
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "x.crvi"), "--compute-idf", flag, value])
        assert code == 3
        assert not (workspace / "x.crvi").exists()

    def test_centidf_without_idf_source_exit_3(self, workspace):
        code = main(["build-index",
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "x.crvi")])
        assert code == 3


class TestSearch:
    def search(self, ws, out="run.txt", *extra):
        return main(["search",
                     "--index", str(ws / "index.crvi"),
                     "--embeddings", str(ws / "vectors.txt"),
                     "--questions", str(ws / "questions.jsonl"),
                     "--out", str(ws / out), "--k", "10", *extra])

    def test_ranks_matching_doc_first(self, workspace, capsys):
        build(workspace)
        assert self.search(workspace) == 0
        lines = (workspace / "run.txt").read_text().splitlines()
        first = lines[0].split()
        assert first[0] == "q1" and first[2] == "d1" and first[3] == "1"
        err = capsys.readouterr().err
        assert "search:" in err and "rerank:" in err

    def test_logs_stage_times(self, workspace, capsys):
        build(workspace)
        capsys.readouterr()
        assert self.search(workspace, "run.txt", "--rerank", "rwmd_q",
                           "--corpus", str(workspace / "corpus.jsonl")) == 0
        err = capsys.readouterr().err
        for stage in ("load", "search", "rerank"):
            assert re.search(rf"^{stage}: \d+\.\d{{3}} s$", err, re.M), stage

    @pytest.mark.parametrize("command", ["search", "rerank"])
    def test_no_threads_option(self, command, tmp_path, capsys):
        _, commands = _build_parser()
        assert "--threads" not in commands[command][0].parser.format_help()
        config = tmp_path / "run.conf"
        config.write_text("threads = 2\n")
        assert main([command, "--config", str(config)]) == 3
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_no_idf_file_option(self, tmp_path, capsys):
        _, commands = _build_parser()
        assert "--idf-file" not in commands["search"][0].parser.format_help()
        with pytest.raises(SystemExit) as exc:
            main(["search", "--idf-file", "x.idf"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --idf-file" in capsys.readouterr().err
        config = tmp_path / "run.conf"
        config.write_text("idf_file = x.idf\n")
        assert main(["search", "--config", str(config)]) == 3
        assert "unknown config key 'idf_file'" in capsys.readouterr().err

    def test_searches_without_idf_file(self, workspace):
        build(workspace)
        assert self.search(workspace, "before.txt") == 0
        (workspace / "index.crvi.idf").unlink()
        assert self.search(workspace, "after.txt") == 0
        assert (workspace / "after.txt").read_bytes() == (workspace / "before.txt").read_bytes()

    def test_centidf_needs_index_idf(self, workspace, capsys):
        ids = ["d1", "d2", "d3"]
        save_index(CentroidIndex.from_matrix(ids, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                                             mode="centidf"), workspace / "index.crvi")
        assert self.search(workspace) == 3
        assert "no IDF weights" in capsys.readouterr().err
        assert not (workspace / "run.txt").exists()

    def test_stopword_question_absent_from_body(self, workspace):
        build(workspace)
        self.search(workspace)
        body = (workspace / "run.txt").read_text()
        assert "q2" not in body

    def test_rerank_stage(self, workspace):
        build(workspace)
        code = self.search(workspace, "run-rr.txt",
                           "--rerank", "rwmd_q",
                           "--corpus", str(workspace / "corpus.jsonl"))
        assert code == 0
        lines = (workspace / "run-rr.txt").read_text().splitlines()
        assert lines[0].split()[5] == "centidf-ann-rwmdq"
        assert lines[0].split()[2] == "d1"  # contains the query token, distance 0

    def test_rerank_depth_zero_exit_3(self, workspace):
        build(workspace)
        assert self.search(workspace, "x.txt", "--rerank", "rwmd_q", "--rerank-depth", "0",
                           "--corpus", str(workspace / "corpus.jsonl")) == 3

    def test_rerank_reads_rows_from_index(self, workspace, capsys):
        build(workspace)
        assert self.search(workspace, "rows.txt", "--rerank", "rwmd_q") == 0
        # --corpus is still accepted, but not read: a missing file is fine.
        assert self.search(workspace, "named.txt", "--rerank", "rwmd_q",
                           "--corpus", str(workspace / "absent.jsonl")) == 0
        assert "ignoring --corpus" in capsys.readouterr().err
        rows = (workspace / "rows.txt").read_bytes()
        assert rows == (workspace / "named.txt").read_bytes()
        assert rows.split(b"\n")[0].split()[2] == b"d1"

    def test_rerank_needs_index_rows(self, workspace, capsys):
        ids = ["d1", "d2", "d3"]
        save_index(CentroidIndex.from_matrix(ids, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                                             mode="cent"), workspace / "index.crvi")
        assert self.search(workspace, "x.txt", "--rerank", "rwmd_q") == 3
        err = capsys.readouterr().err
        assert "build-index" in err and "rerank command" in err
        assert not (workspace / "x.txt").exists()
        assert self.search(workspace, "x.txt") == 0

    @pytest.mark.parametrize("flag", ["--k", "--search-k"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_budget_below_one_exit_3(self, workspace, flag, value):
        build(workspace)
        assert self.search(workspace, "x.txt", flag, value) == 3
        assert not (workspace / "x.txt").exists()

    def test_mode_mismatch_exit_3(self, workspace):
        build(workspace)
        assert self.search(workspace, "x.txt", "--mode", "cent") == 3

    def test_index_without_mode_needs_flag(self, workspace):
        ids = ["d1", "d2", "d3"]
        save_index(CentroidIndex.from_matrix(ids, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
                   workspace / "index.crvi")
        assert self.search(workspace) == 3
        assert self.search(workspace, "run.txt", "--mode", "cent") == 0

    def test_byte_identical_reruns(self, workspace):
        build(workspace)
        self.search(workspace, "one.txt")
        self.search(workspace, "two.txt")
        assert (workspace / "one.txt").read_bytes() == (workspace / "two.txt").read_bytes()

    def test_searches_from_another_directory(self, workspace, monkeypatch):
        # The index carries its IDF weights, so search needs nothing that
        # build-index wrote beside it, wherever either runs from.
        for name in ("a", "b"):
            (workspace / name).mkdir()
        monkeypatch.chdir(workspace / "a")
        assert main(["build-index", "--embeddings", "../vectors.txt",
                     "--corpus", "../corpus.jsonl", "--out", "idx.bin", "--compute-idf"]) == 0
        monkeypatch.chdir(workspace / "b")
        assert main(["search", "--index", "../a/idx.bin", "--embeddings", "../vectors.txt",
                     "--questions", "../questions.jsonl", "--out", "run.txt"]) == 0
        assert (workspace / "b" / "run.txt").read_text().startswith("q1 Q0 d1 1 ")

    def test_unreadable_index_exit_2(self, workspace):
        code = main(["search", "--index", str(workspace / "absent.crvi"),
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--questions", str(workspace / "questions.jsonl"),
                     "--out", str(workspace / "x.txt")])
        assert code == 2


class TestEmbeddingCache:
    def test_a_hit_gives_the_outputs_of_a_miss(self, workspace, monkeypatch):
        cache = workspace / "vectors.txt.crvs"
        assert build(workspace) == 0
        assert cache.exists()
        cache.unlink()
        search = TestSearch().search
        assert search(workspace, "miss.txt", "--rerank", "rwmd_q") == 0
        assert cache.exists()

        def no_parse(path, digest):
            raise AssertionError("a cache hit parsed the text")

        monkeypatch.setattr(emb, "_parse_embeddings", no_parse)
        assert search(workspace, "hit.txt", "--rerank", "rwmd_q") == 0
        assert build(workspace, "hit.crvi") == 0
        assert (workspace / "hit.txt").read_bytes() == (workspace / "miss.txt").read_bytes()
        assert (workspace / "hit.crvi").read_bytes() == (workspace / "index.crvi").read_bytes()
        assert ((workspace / "hit.crvi.idf").read_bytes()
                == (workspace / "index.crvi.idf").read_bytes())


class TestStoreFingerprint:
    """An index searched with other embeddings than it was built with, or
    whose IDF weights changed since, exits 3 instead of writing a
    plausible ranking."""

    def search(self, ws, embeddings="vectors.txt", *extra):
        return main(["search", "--index", str(ws / "index.crvi"),
                     "--embeddings", str(ws / embeddings),
                     "--questions", str(ws / "questions.jsonl"),
                     "--out", str(ws / "run.txt"), "--k", "10", *extra])

    def refused(self, ws, capsys, *args):
        capsys.readouterr()
        assert self.search(ws, *args) == 3
        assert "differ from those the index was built with" in capsys.readouterr().err
        assert not (ws / "run.txt").exists()

    def test_permuted_vectors(self, workspace, capsys):
        # The same tokens in the same order with apoptosis' and kinase's
        # vectors swapped: without the check, q1 ranks d2 first.
        (workspace / "b.txt").write_text(
            "4 2\napoptosis 0.0 1.0\nkinase 1.0 0.0\np53 0.9 0.1\npathway 0.5 0.5\n")
        build(workspace)
        self.refused(workspace, capsys, "b.txt")
        self.refused(workspace, capsys, "b.txt", "--engine", "exact", "--rerank", "rwmd_q")

    def test_other_vocabulary_same_dimension(self, workspace, capsys):
        text = (workspace / "vectors.txt").read_text()
        (workspace / "b.txt").write_text(text.replace("kinase", "kinases"))
        build(workspace)
        self.refused(workspace, capsys, "b.txt")

    def test_changed_idf_weight(self, workspace, capsys):
        # One stored weight changed, saved again with a valid checksum: the
        # index's weights no longer match its own fingerprint.
        build(workspace)
        index = load_index(workspace / "index.crvi")
        changed = index.idf_rows.copy()
        changed[1] = 2.5  # kinase's row
        index.idf_rows = changed
        save_index(index, workspace / "index.crvi")
        load_index(workspace / "index.crvi")
        self.refused(workspace, capsys)

    def test_cent_index_ignores_idf(self, workspace):
        build(workspace, "index.crvi", "--mode", "cent")
        assert self.search(workspace, "vectors.txt", "--rerank", "rwmd_q") == 0


class TestRerankCommand:
    def test_reranks_external_run(self, workspace):
        run = workspace / "external.txt"
        run.write_text("q1 Q0 d2 1 5.0 pubmedse\nq1 Q0 d1 2 4.0 pubmedse\n")
        code = main(["rerank", "--run", str(run),
                     "--questions", str(workspace / "questions.jsonl"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--out", str(workspace / "reranked.txt"),
                     "--method", "rwmd_q"])
        assert code == 0
        lines = (workspace / "reranked.txt").read_text().splitlines()
        assert lines[0].split()[2] == "d1"
        assert lines[0].split()[5] == "pubmedse-rwmdq"

    def test_depth_zero_exit_3(self, workspace):
        run = workspace / "external.txt"
        run.write_text("q1 Q0 d2 1 5.0 pubmedse\nq1 Q0 d1 2 4.0 pubmedse\n")
        out = workspace / "reranked.txt"
        code = main(["rerank", "--run", str(run),
                     "--questions", str(workspace / "questions.jsonl"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--out", str(out), "--rerank-depth", "0"])
        assert code == 3
        assert not out.exists()


class TestHybridCommand:
    def test_falls_back_on_empty_primary(self, workspace):
        primary = workspace / "primary.txt"
        primary.write_text("q1 Q0 d1 1 1.0 pm\n")  # nothing for q2
        fallback = workspace / "fallback.txt"
        fallback.write_text("q1 Q0 d9 1 1.0 cent\nq2 Q0 d5 1 1.0 cent\nq2 Q0 d2 2 0.5 cent\n")
        out = workspace / "hybrid.txt"
        assert main(["hybrid", "--primary", str(primary),
                     "--fallback", str(fallback), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split()[:3] == ["q1", "Q0", "d1"]
        assert [ln.split()[2] for ln in lines if ln.startswith("q2")] == ["d5", "d2"]
        assert lines[0].split()[5] == "hybrid"


class TestEvaluateCommand:
    def test_json_and_table(self, workspace, capsys):
        run = workspace / "run.txt"
        run.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.9 t\nq1 Q0 d3 3 0.8 t\n")
        qrels = workspace / "q.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d3 1\n")
        report_path = workspace / "report.json"
        code = main(["evaluate", "--run", str(run), "--qrels", str(qrels),
                     "--ndcg-k", "3", "--json", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["map"] == pytest.approx(0.83333, abs=1e-5)
        assert payload["maip"] == pytest.approx(0.84848, abs=1e-5)
        assert payload["mean_ndcg"]["3"] == pytest.approx(0.9197207891, abs=1e-9)
        out = capsys.readouterr().out
        assert "MAP" in out

    def test_all_zero_still_exit_0(self, workspace):
        run = workspace / "run.txt"
        run.write_text("q1 Q0 d9 1 1.0 t\n")
        qrels = workspace / "q.txt"
        qrels.write_text("q1 0 d1 1\n")
        assert main(["evaluate", "--run", str(run), "--qrels", str(qrels)]) == 0

    def test_disjoint_qids_exit_4(self, workspace):
        run = workspace / "run.txt"
        run.write_text("q9 Q0 d1 1 1.0 t\n")
        qrels = workspace / "q.txt"
        qrels.write_text("q1 0 d1 1\n")
        assert main(["evaluate", "--run", str(run), "--qrels", str(qrels)]) == 4

    def test_map_depth_zero_exit_3(self, workspace):
        run = workspace / "run.txt"
        run.write_text("q1 Q0 d1 1 1.0 t\n")
        qrels = workspace / "q.txt"
        qrels.write_text("q1 0 d1 1\n")
        assert main(["evaluate", "--run", str(run), "--qrels", str(qrels),
                     "--map-depth", "0"]) == 3


class TestIdfCommand:
    def test_writes_idf_file(self, workspace):
        out = workspace / "scores.idf"
        assert main(["idf", "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        assert text[0] == "#ndocs=3"
        assert any(line.startswith("apoptosis\t") for line in text)

    def test_matches_build_index_idf(self, workspace):
        assert build(workspace) == 0
        out = workspace / "scores.idf"
        assert main(["idf", "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (workspace / "index.crvi.idf").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, workspace):
        config = workspace / "run.conf"
        config.write_text(
            "trees = 2\n"
            "leaf-cap = 2   # comment\n"
            "seed = 9\n"
        )
        code = main(["build-index", "--config", str(config),
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "cfg.crvi"),
                     "--compute-idf", "--trees", "3"])
        assert code == 0
        index = load_index(workspace / "cfg.crvi")
        assert index.n_trees == 3  # flag beats config
        assert index.seed == 9    # config beats default

    def test_value_outside_choices_exit_3(self, workspace, capsys):
        config = workspace / "run.conf"
        config.write_text("engine = fast\n")
        code = main(["build-index", "--config", str(config),
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "x.crvi"), "--compute-idf"])
        assert code == 3
        assert f"error: {config}: invalid engine 'fast'" in capsys.readouterr().err
        assert not (workspace / "x.crvi").exists()

    @pytest.mark.parametrize("line, key", [
        ("trees = abc", "trees"), ("leaf-cap = 2.5", "leaf_cap"), ("seed = ", "seed"),
        ("compute-idf = maybe", "compute_idf"),
    ])
    def test_value_that_fails_conversion_exit_3(self, workspace, capsys, line, key):
        config = workspace / "run.conf"
        config.write_text(line + "\n")
        code = main(["build-index", "--config", str(config),
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "x.crvi"), "--compute-idf"])
        assert code == 3
        assert f"error: {config}: invalid {key} " in capsys.readouterr().err
        assert not (workspace / "x.crvi").exists()

    def evaluate(self, ws, *extra):
        (ws / "run.txt").write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.9 t\n")
        (ws / "report.json").unlink(missing_ok=True)
        return main(["evaluate", "--run", str(ws / "run.txt"), "--qrels", str(ws / "qrels.txt"),
                     "--json", str(ws / "report.json"), *extra])

    @pytest.mark.parametrize("value", ["abc", "0", "3,-1", "2.5", "3;5"])
    def test_bad_ndcg_k(self, workspace, capsys, value):
        # A bad flag fails in argparse, naming the flag; a bad config
        # value names the file and key.
        with pytest.raises(SystemExit) as exit_info:
            self.evaluate(workspace, "--ndcg-k", value)
        assert exit_info.value.code == 2
        assert "argument --ndcg-k: invalid" in capsys.readouterr().err
        config = workspace / "run.conf"
        config.write_text(f"ndcg_k = {value}\n")
        assert self.evaluate(workspace, "--config", str(config)) == 3
        assert f"error: {config}: invalid ndcg_k {value!r}" in capsys.readouterr().err
        assert not (workspace / "report.json").exists()

    def test_ndcg_k_from_config(self, workspace):
        config = workspace / "run.conf"
        config.write_text("ndcg-k = 1, 3,\n")
        assert self.evaluate(workspace, "--config", str(config)) == 0
        report = json.loads((workspace / "report.json").read_text())
        assert sorted(report["mean_ndcg"]) == ["1", "3"]
        assert self.evaluate(workspace, "--config", str(config), "--ndcg-k", "2") == 0
        assert list(json.loads((workspace / "report.json").read_text())["mean_ndcg"]) == ["2"]

    def test_unknown_config_key_exit_3(self, workspace):
        config = workspace / "run.conf"
        config.write_text("no_such_option = 1\n")
        code = main(["build-index", "--config", str(config),
                     "--embeddings", str(workspace / "vectors.txt"),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--out", str(workspace / "x.crvi"), "--compute-idf"])
        assert code == 3
