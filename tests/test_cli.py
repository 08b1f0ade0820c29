"""End-to-end runs of the command-line surface over the bundled suite."""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cgqa.cli import main
from cgqa.graph import load_graph

import mini_suite


@pytest.fixture
def suite(tmp_path):
    paths = mini_suite.write_all(str(tmp_path))
    for kind, src, out in (
        ("table", paths["people_csv"], "people.jsonl"),
        ("kg", paths["movies_tsv"], "movies.jsonl"),
        ("temporal", paths["terms_tsv"], "terms.jsonl"),
    ):
        code = main([
            "ingest", src, "--kind", kind,
            "--out", os.path.join(paths["graphs_dir"], out),
        ])
        assert code == 0
    return paths


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestIngest:
    def test_graphs_load_back(self, suite):
        people = load_graph(os.path.join(suite["graphs_dir"], "people.jsonl"))
        movies = load_graph(os.path.join(suite["graphs_dir"], "movies.jsonl"))
        terms = load_graph(os.path.join(suite["graphs_dir"], "terms.jsonl"))
        assert len(people) == 16  # 4 rows x 4 non-key columns
        assert people.source_kind == "table"
        assert len(movies) == 8
        assert movies.source_kind == "kg"
        assert len(terms) == 4
        assert terms.source_kind == "temporal_kg"
        assert all(e.qualifier for e in terms.edges)

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "ingest", str(tmp_path / "nope.csv"), "--kind", "table",
            "--out", str(tmp_path / "out.jsonl"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAsk:
    def test_single_question_trace(self, suite, tmp_path, capsys):
        script = tmp_path / "ask.jsonl"
        script.write_text(json.dumps({
            "reply": "query1 = get_information(head_entity='Alice', "
                     "relation='Hometown')"
        }) + "\n", encoding="utf-8")
        code = main([
            "ask", "Where is Alice from?",
            "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
            "--backend", "scripted", "--script", str(script),
            "--self-consistency", "1",
        ])
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["status"] == "solved_direct"
        assert trace["initial_outcome"]["answer"] == ["Texas"]


class _NotFoundHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = b"no such model"
        self.send_response(404)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestModelFailures:
    def ask(self, suite, *flags):
        return main([
            "ask", "Where is Alice from?",
            "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
            *flags,
        ])

    def test_exhausted_script_is_one_line_error(self, suite, tmp_path,
                                                capsys):
        script = tmp_path / "empty.jsonl"
        script.write_text("", encoding="utf-8")
        code = self.ask(suite, "--backend", "scripted", "--script",
                        str(script))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no scripted reply")
        assert err.count("\n") == 1

    def test_http_404_is_one_line_error(self, suite, tmp_path, capsys):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _NotFoundHandler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        config = tmp_path / "client.json"
        config.write_text(json.dumps({
            "endpoint": f"http://127.0.0.1:{server.server_port}/v1",
            "retry_backoff": 0.0,
        }), encoding="utf-8")
        try:
            # the default five self-consistency samples run on a thread pool
            code = self.ask(suite, "--backend", "http", "--config",
                            str(config))
        finally:
            server.shutdown()
            server.server_close()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HTTP 404: no such model")
        assert err.count("\n") == 1


class _PlanHandler(BaseHTTPRequestHandler):
    """Answers every chat request with the same plan."""

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = json.dumps({"choices": [{"message": {"content": (
            "query1 = get_information(head_entity='Alice', "
            "relation='Hometown')")}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestSamplingWarning:
    def ask(self, suite, tmp_path, capsys, temperature, *flags,
            handler=_PlanHandler):
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        config = tmp_path / "client.json"
        config.write_text(json.dumps({
            "endpoint": f"http://127.0.0.1:{server.server_port}/v1",
            "temperature": temperature,
        }), encoding="utf-8")
        out = tmp_path / f"trace-{temperature}.json"
        try:
            code = main([
                "ask", "Where is Alice from?",
                "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
                "--backend", "http", "--config", str(config),
                "--out", str(out), *flags,
            ])
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        captured = capsys.readouterr()
        return captured.out, captured.err, out.read_bytes()

    def test_identical_samples_warn_once(self, suite, tmp_path, capsys):
        out, err, trace = self.ask(suite, tmp_path, capsys, 0.0)
        assert err.startswith("warning: --self-consistency 5 at temperature 0")
        assert err.count("\n") == 1
        warm_out, warm_err, warm_trace = self.ask(suite, tmp_path, capsys, 0.7)
        assert warm_err == ""
        assert (out, trace) == (warm_out, warm_trace)
        assert json.loads(trace)["status"] == "solved_direct"

    def test_config_removed_during_the_run_still_succeeds(self, suite,
                                                          tmp_path, capsys):
        # The warning comes from the config read when the command starts,
        # so a config file that goes away mid-run does not fail the run.
        config = tmp_path / "client.json"

        class RemovingHandler(_PlanHandler):
            def do_POST(self):
                config.unlink(missing_ok=True)
                super().do_POST()

        out, err, trace = self.ask(suite, tmp_path, capsys, 0.0,
                                   handler=RemovingHandler)
        assert not config.exists()
        assert err.startswith("warning: --self-consistency 5")
        assert err.count("\n") == 1
        assert json.loads(trace)["status"] == "solved_direct"

    def test_one_sample_or_scripted_backend_is_quiet(self, suite, tmp_path,
                                                      capsys):
        assert self.ask(suite, tmp_path, capsys, 0.0,
                        "--self-consistency", "1")[1] == ""
        script = tmp_path / "ask.jsonl"
        script.write_text(2 * (json.dumps({
            "reply": "query1 = get_information(head_entity='Alice', "
                     "relation='Hometown')"
        }) + "\n"), encoding="utf-8")
        code = main([
            "ask", "Where is Alice from?",
            "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
            "--backend", "scripted", "--script", str(script),
            "--self-consistency", "2",
        ])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestFlags:
    def test_strict_empty_changes_outcome(self, suite, tmp_path, capsys):
        script = tmp_path / "empty.jsonl"
        script.write_text(json.dumps({
            "reply": "query1 = get_information(relation='Hometown', "
                     "tail_entity='Utah')"
        }) + "\n", encoding="utf-8")
        code = main([
            "ask", "Who is from Utah?",
            "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
            "--backend", "scripted", "--script", str(script),
            "--self-consistency", "1", "--no-correction", "--strict-empty",
            "--gold", "[]",
        ])
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["status"] == "failed_mct"  # designed false negative

    def test_demo_pool_flows_into_prompts(self, suite, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({
            "question": "Where is Bob from?",
            "schema_text": "source: table\nHometown: Boston",
            "plan_text": "query1 = get_information(head_entity='Bob', "
                         "relation='Hometown')",
        }) + "\n", encoding="utf-8")
        script = tmp_path / "ask.jsonl"
        script.write_text(json.dumps({
            "reply": "query1 = get_information(head_entity='Alice', "
                     "relation='Hometown')"
        }) + "\n", encoding="utf-8")
        code = main([
            "ask", "Where is Alice from?",
            "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
            "--backend", "scripted", "--script", str(script),
            "--self-consistency", "1", "--demo-pool", str(pool),
        ])
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["status"] == "solved_direct"

    def test_demo_pool_with_invalid_plan_rejected(self, suite, tmp_path,
                                                  capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({
            "question": "q", "schema_text": "s",
            "plan_text": "query1 = frobnicate(set='x')",
        }) + "\n", encoding="utf-8")
        script = tmp_path / "ask.jsonl"
        script.write_text('{"reply": "unused"}\n', encoding="utf-8")
        code = main([
            "ask", "Where is Alice from?",
            "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
            "--backend", "scripted", "--script", str(script),
            "--demo-pool", str(pool),
        ])
        assert code == 1
        assert "does not validate" in capsys.readouterr().err


class TestPipeline:
    def run_correct(self, suite, tmp_path, author="student"):
        out = str(tmp_path / f"traces_{author}.jsonl")
        code = main([
            "correct", "--dataset", suite["dataset"],
            "--graphs", suite["graphs_dir"],
            "--out", out,
            "--backend", "scripted", "--script", suite["script_with"],
            "--self-consistency", "1", "--mct", "3", "--author", author,
        ])
        assert code == 0
        return out

    def test_correct_writes_expected_traces(self, suite, tmp_path):
        traces_path = self.run_correct(suite, tmp_path)
        traces = read_jsonl(traces_path)
        assert len(traces) == 20
        statuses = [t["status"] for t in traces]
        assert statuses.count("solved_direct") == 12
        assert statuses.count("solved_after_n") == 8
        by_id = {t["question_id"]: t for t in traces}
        for qid in mini_suite.ERROR_QUESTION_IDS:
            assert by_id[qid]["n"] == 1

    def test_gen_sft_and_score_loss(self, suite, tmp_path, capsys):
        traces_path = self.run_correct(suite, tmp_path)
        sft_path = str(tmp_path / "sft.jsonl")
        pref_path = str(tmp_path / "pref.jsonl")
        code = main([
            "gen-sft", "--traces", traces_path,
            "--sft-out", sft_path, "--pref-out", pref_path,
        ])
        assert code == 0
        sft = read_jsonl(sft_path)
        pairs = read_jsonl(pref_path)
        # 20 solved traces -> 20 query_gen; 8 one-round traces -> 8 corrections
        assert len(sft) == 28
        assert sum(1 for r in sft if r["kind"] == "query_gen") == 20
        assert sum(1 for r in sft if r["kind"] == "correction") == 8
        assert len(pairs) == 8
        for pair in pairs:
            assert pair["chosen"] != pair["rejected"]

        scorer_path = tmp_path / "scorer.json"
        scorer_path.write_text(
            json.dumps({"default_logprob": -0.5}), encoding="utf-8"
        )
        capsys.readouterr()
        code = main([
            "score-loss", "--sft", sft_path, "--pref", pref_path,
            "--scorer", str(scorer_path),
        ])
        assert code == 0
        losses = json.loads(capsys.readouterr().out)
        assert losses["query_generation_loss"] > 0
        assert losses["correction_loss"] > 0
        assert losses["stage1_loss"] == pytest.approx(
            losses["query_generation_loss"] + losses["correction_loss"]
        )
        # chosen and rejected score identically under a flat scorer only if
        # token counts match; just check the value is finite and present
        assert "preference_loss" in losses

    def test_eval_with_and_without_correction(self, suite, tmp_path, capsys):
        report_with = str(tmp_path / "with.json")
        code = main([
            "eval", "--dataset", suite["dataset"],
            "--graphs", suite["graphs_dir"],
            "--backend", "scripted", "--script", suite["script_with"],
            "--self-consistency", "1", "--mct", "3",
            "--out", report_with,
            "--traces-out", str(tmp_path / "eval_traces.jsonl"),
        ])
        assert code == 0
        with_report = json.loads(open(report_with).read())
        assert with_report["value"] == 100.0
        assert with_report["solved_after_n"] == {"1": 8}

        report_without = str(tmp_path / "without.json")
        code = main([
            "eval", "--dataset", suite["dataset"],
            "--graphs", suite["graphs_dir"],
            "--backend", "scripted", "--script", suite["script_without"],
            "--self-consistency", "1", "--no-correction",
            "--out", report_without,
        ])
        assert code == 0
        without_report = json.loads(open(report_without).read())
        assert without_report["value"] == 60.0
        assert without_report["failed_mct"] == 8

    def test_error_stats_all_corrected(self, suite, tmp_path, capsys):
        traces_path = self.run_correct(suite, tmp_path)
        capsys.readouterr()
        code = main(["error-stats", "--traces", traces_path])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert len(stats["per_kind"]) == 8
        for kind, row in stats["per_kind"].items():
            assert row == {"before": 1, "after": 0, "corrected_pct": 100.0}
        assert stats["overall"]["corrected_pct"] == 100.0
        assert stats["parsing"]["before"] == 6
        assert stats["execution"]["before"] == 2
