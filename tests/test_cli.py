"""End-to-end runs of the command-line surface over the bundled suite."""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

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
        with_report = json.loads(Path(report_with).read_text())
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
        without_report = json.loads(Path(report_without).read_text())
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


ALICE_PLAN = ("query1 = get_information(head_entity='Alice', "
              "relation='Hometown')")
ASK = ["ask", "Where is Alice from?", "--backend", "scripted",
       "--self-consistency", "1"]
# Line 2 of each bad file; "missing_key" drops the input's required key.
BAD_LINES = {
    "invalid_json": lambda good, key: '{"head": "Alice",',
    "not_an_object": lambda good, key: "[1]",
    "missing_key": lambda good, key: json.dumps(
        {k: v for k, v in good.items() if k != key}),
}


@pytest.fixture
def inputs(suite, tmp_path):
    """Per JSONL input: a valid line, a required key, and the command that
    reads the file, with "{path}" where the file goes."""
    people = os.path.join(suite["graphs_dir"], "people.jsonl")
    script = tmp_path / "good_script.jsonl"
    script.write_text(json.dumps({"reply": ALICE_PLAN}) + "\n",
                      encoding="utf-8")
    trace_path = tmp_path / "trace.json"
    assert main([*ASK, "--graph", people, "--script", str(script),
                 "--out", str(trace_path)]) == 0
    scorer = tmp_path / "scorer.json"
    scorer.write_text(json.dumps({"default_logprob": -0.5}), encoding="utf-8")
    ask = [*ASK, "--graph", people, "--script", str(script)]
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return {
        "ask --graph": (
            {"head": "Alice", "relation": "Age", "tail": 20,
             "tail_kind": "numeric", "qualifier": None},
            "relation", [*ASK, "--script", str(script), "--graph", "{path}"]),
        "--script": ({"reply": ALICE_PLAN}, "reply",
                     [*ASK, "--graph", people, "--script", "{path}"]),
        "--demo-pool": (
            {"question": "Where is Bob from?",
             "schema_text": "source: table\nHometown: Boston",
             "plan_text": "query1 = get_information(head_entity='Bob', "
                          "relation='Hometown')"},
            "plan_text", [*ask, "--demo-pool", "{path}"]),
        "correct --dataset": (
            {"id": "q1", "question": "Where is Alice from?",
             "gold": ["Texas"], "graph_ref": "people.jsonl"},
            "question",
            ["correct", "--dataset", "{path}", "--graphs",
             suite["graphs_dir"], "--out", str(tmp_path / "out.jsonl"),
             "--backend", "scripted", "--script", str(script)]),
        "gen-sft --traces": (
            trace, "question_text",
            ["gen-sft", "--traces", "{path}",
             "--sft-out", str(tmp_path / "sft_out.jsonl"),
             "--pref-out", str(tmp_path / "pref_out.jsonl")]),
        "error-stats --traces": (trace, "question_text",
                                 ["error-stats", "--traces", "{path}"]),
        "score-loss --sft": (
            {"kind": "query_gen", "input": "prompt", "target": ALICE_PLAN,
             "round": None, "trace_id": "ask"},
            "target", ["score-loss", "--sft", "{path}",
                       "--scorer", str(scorer)]),
        "score-loss --pref": (
            {"prompt": "prompt", "chosen": ALICE_PLAN, "rejected": "x",
             "round": 1, "trace_id": "ask"},
            "chosen", ["score-loss", "--pref", "{path}",
                       "--scorer", str(scorer)]),
    }


def one_error_line(argv, path, capsys):
    """Run argv with "{path}" filled in; return its only stderr line."""
    capsys.readouterr()
    code = main([str(path) if a == "{path}" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestBadInputLines:
    """Every JSONL input fails as one `error: path:line: reason` line."""

    INPUTS = ["ask --graph", "--script", "--demo-pool", "correct --dataset",
              "gen-sft --traces", "error-stats --traces", "score-loss --sft",
              "score-loss --pref"]

    @pytest.mark.parametrize("bad", list(BAD_LINES))
    @pytest.mark.parametrize("name", INPUTS)
    def test_bad_line_names_file_and_line(self, inputs, tmp_path, capsys,
                                          name, bad):
        good, key, argv = inputs[name]
        path = tmp_path / "input.jsonl"
        path.write_text(json.dumps(good) + "\n" + BAD_LINES[bad](good, key)
                        + "\n", encoding="utf-8")
        err = one_error_line(argv, path, capsys)
        assert err.startswith(f"error: {path}:2: ")
        if bad == "missing_key":
            assert f"'{key}'" in err

    def test_unknown_demo_field_counts_blank_lines(self, inputs, tmp_path,
                                                   capsys):
        good, _, argv = inputs["--demo-pool"]
        path = tmp_path / "pool.jsonl"
        path.write_text(json.dumps(good) + "\n\n"
                        + json.dumps({**good, "answer": "Boston"}) + "\n",
                        encoding="utf-8")
        err = one_error_line(argv, path, capsys)
        assert err.startswith(f"error: {path}:3: ")
        assert "'answer'" in err

    def test_invalid_demo_plan_names_its_line(self, inputs, tmp_path,
                                              capsys):
        good, _, argv = inputs["--demo-pool"]
        path = tmp_path / "pool.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(
            {**good, "plan_text": "query1 = frobnicate(set='x')"}) + "\n",
            encoding="utf-8")
        err = one_error_line(argv, path, capsys)
        assert err.startswith(
            f"error: {path}:2: demonstration plan does not validate: ")


class TestBadJsonFiles:
    """--config and --scorer fail as one `error: path: reason` line."""

    @pytest.mark.parametrize("content, prefix, reason", [
        ('{"temperatur": 0.5}', ": ", "'temperatur'"),
        ('{\n"temperature": 0.5,\n}', ":3: ", "invalid JSON"),
    ], ids=["unknown_key", "invalid_json"])
    def test_config(self, inputs, tmp_path, capsys, content, prefix, reason):
        config = tmp_path / "client.json"
        config.write_text(content, encoding="utf-8")
        err = one_error_line([*inputs["--script"][2], "--config", "{path}"],
                             config, capsys)
        assert err.startswith(f"error: {config}{prefix}")
        assert reason in err

    @pytest.mark.parametrize("table, message", [
        ({"entries": [{"target": ALICE_PLAN}]},
         "{path}: missing key 'logprobs'"),
        ([{"target": ALICE_PLAN, "logprobs": [-1.0]}],
         "{path}: expected a JSON object"),
        ({"entries": [{"target": "other", "logprobs": [-1.0]}]},
         "no score table entry for target"),
    ], ids=["missing_logprobs", "top_level_list", "no_entry_for_target"])
    def test_scorer(self, inputs, tmp_path, capsys, table, message):
        good, _, _ = inputs["score-loss --sft"]
        sft = tmp_path / "sft.jsonl"
        sft.write_text(json.dumps(good) + "\n", encoding="utf-8")
        scorer = tmp_path / "scorer_table.json"
        scorer.write_text(json.dumps(table), encoding="utf-8")
        err = one_error_line(["score-loss", "--sft", str(sft),
                              "--scorer", "{path}"], scorer, capsys)
        assert err.startswith("error: " + message.replace("{path}",
                                                          str(scorer)))
