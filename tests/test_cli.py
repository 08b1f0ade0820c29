"""End-to-end runs of the command-line surface over the bundled suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from cgqa import cli
from cgqa.cli import main
from cgqa.correction import PipelineConfig
from cgqa.graph import dump_graph, ingest_triples, load_graph
from cgqa.llm import (
    ChatError,
    ScriptedChatClient,
    make_client,
    request_digest,
)

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


# Numerals of 5,001 digits, past int()'s 4,300-digit limit, whose number is 7
# (the second in Arabic-Indic digits).
LONG_SEVENS = ["0" * 5000 + "7", "\u0660" * 5000 + "\u0667"]


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
        assert all(terms.columns["qualifier"])

    @pytest.mark.parametrize("numeral", LONG_SEVENS, ids=["ascii", "arabic"])
    def test_a_numeral_past_the_int_digit_limit_is_its_number(self, tmp_path,
                                                             numeral):
        source = tmp_path / "t.csv"
        source.write_text(f"k,v\na,{numeral}\n", encoding="utf-8")
        out = str(tmp_path / "t.jsonl")
        assert main(["ingest", str(source), "--kind", "table",
                     "--out", out]) == 0
        edge, = read_jsonl(out)[1:]
        assert (edge["tail"], edge["tail_kind"]) == (7, "numeric")

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


    def test_a_numeral_no_float_holds_is_run_as_a_plan(self, suite, tmp_path,
                                                      capsys):
        # the reply's numeral stays text, as ingest keeps such a cell: the
        # plan runs, and the run goes on to write its trace
        script = tmp_path / "ask.jsonl"
        script.write_text(json.dumps({
            "reply": "query1 = get_information(relation='Age', tail_entity>"
                     + "9" * 5000 + ")"}) + "\n", encoding="utf-8")
        code = main([
            "ask", "Who is older than that?",
            "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
            "--backend", "scripted", "--script", str(script),
            "--self-consistency", "1",
        ])
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["initial_outcome"]["error"] is None
        assert trace["initial_outcome"]["answer"] == []


    def test_a_numeral_past_the_int_digit_limit_is_run_as_a_plan(
            self, suite, tmp_path, capsys):
        script = tmp_path / "ask.jsonl"
        script.write_text(json.dumps({
            "reply": "query1 = get_information(relation='Age', tail_entity>"
                     + LONG_SEVENS[0] + ")"}) + "\n", encoding="utf-8")
        code = main([
            "ask", "Who is older than 7?",
            "--graph", os.path.join(suite["graphs_dir"], "people.jsonl"),
            "--backend", "scripted", "--script", str(script),
            "--self-consistency", "1",
        ])
        assert code == 0
        outcome = json.loads(capsys.readouterr().out)["initial_outcome"]
        assert (outcome["error"], outcome["answer"]) == (
            None, ["Alice", "Bob", "Carol", "Dave"])


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


    @pytest.mark.parametrize("argv", [
        ["correct", "--dataset", "d", "--graphs", "g", "--out", "o"],
        ["eval", "--dataset", "d", "--graphs", "g"],
        ["ask", "Who directed Heat?", "--graph", "g"],
    ], ids=["correct", "eval", "ask"])
    def test_loop_flags_default_to_the_config_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._pipeline_config(args) == PipelineConfig()


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

    def test_a_numeral_past_the_int_digit_limit_ends_no_batch(self, suite,
                                                              tmp_path):
        dataset, script = tmp_path / "dataset.jsonl", tmp_path / "script.jsonl"
        dataset.write_text("".join(json.dumps(
            {"id": qid, "question": "Who?", "gold": gold,
             "graph_ref": "people.jsonl"}) + "\n" for qid, gold in (
                ("long", ["Alice", "Bob", "Carol", "Dave"]),
                ("alice", ["Texas"]))), encoding="utf-8")
        script.write_text("".join(json.dumps({"reply": reply}) + "\n" for
                                  reply in (
            "query1 = get_information(relation='Age', tail_entity>"
            + LONG_SEVENS[1] + ")", ALICE_PLAN)), encoding="utf-8")
        out = str(tmp_path / "traces.jsonl")
        assert main(["correct", "--dataset", str(dataset),
                     "--graphs", suite["graphs_dir"], "--out", out,
                     "--backend", "scripted", "--script", str(script),
                     "--self-consistency", "1"]) == 0
        assert [(t["question_id"], t["status"]) for t in read_jsonl(out)] == [
            ("long", "solved_direct"), ("alice", "solved_direct")]

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


class _RecordingClient:
    """Passes requests on and records each as a keyed script entry."""

    def __init__(self, client):
        self.client, self.entries = client, []

    def complete(self, messages):
        reply = self.client.complete(messages)
        self.entries.append({"key": request_digest(messages), "reply": reply})
        return reply


class TestJobs:
    def run(self, suite, command, script, out_dir, *flags):
        """Run correct or eval over the bundled suite; return the bytes of
        every file it wrote, by name."""
        os.makedirs(out_dir, exist_ok=True)
        outs = {"correct": ["--out", "traces.jsonl"],
                "eval": ["--out", "report.json",
                         "--traces-out", "traces.jsonl"]}[command]
        code = main([
            command, "--dataset", suite["dataset"],
            "--graphs", suite["graphs_dir"],
            "--backend", "scripted", "--script", script,
            "--self-consistency", "1", "--mct", "3", *flags,
            *(a if a.startswith("--") else os.path.join(out_dir, a)
              for a in outs),
        ])
        assert code == 0
        return {name: (Path(out_dir) / name).read_bytes()
                for name in os.listdir(out_dir)}

    @pytest.mark.parametrize("command", ["correct", "eval"])
    def test_keyless_script_fails_before_any_model_call(
            self, suite, tmp_path, capsys, monkeypatch, command):
        calls = []

        def sample(self, messages, n):
            calls.append(n)
            raise ChatError("no model call expected")
        monkeypatch.setattr(ScriptedChatClient, "sample", sample)
        code = main([
            command, "--dataset", suite["dataset"],
            "--graphs", suite["graphs_dir"],
            "--out", str(tmp_path / "out.json"),
            "--backend", "scripted", "--script", suite["script_with"],
            "--self-consistency", "1", "--jobs", "2",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "keyed" in err
        assert calls == []
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flag, value, low", [
        ("--jobs", "-3", 1), ("--jobs", "0", 1), ("--demos", "-1", 0),
        ("--retrieves", "-2", 0), ("--self-consistency", "0", 1),
        ("--mct", "-1", 0)])
    def test_out_of_range_loop_integer_fails_before_any_model_call(
            self, suite, tmp_path, capsys, monkeypatch, flag, value, low):
        calls = []

        def sample(self, messages, n):
            calls.append(n)
            raise ChatError("no model call expected")
        monkeypatch.setattr(ScriptedChatClient, "sample", sample)
        code = main([
            "eval", "--dataset", suite["dataset"],
            "--graphs", suite["graphs_dir"],
            "--out", str(tmp_path / "out.json"),
            "--backend", "scripted", "--script", suite["script_with"],
            "--self-consistency", "1", flag, value,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag[2:]} must be >= {low}\n"
        assert calls == []
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["correct", "eval"])
    def test_keyed_script_output_is_the_same_for_any_jobs(
            self, suite, tmp_path, monkeypatch, command):
        import cgqa.cli
        recorders = []

        def recording(config):
            recorders.append(_RecordingClient(make_client(config)))
            return recorders[-1]

        with monkeypatch.context() as patch:
            patch.setattr(cgqa.cli, "make_client", recording)
            want = self.run(suite, command, suite["script_with"],
                            tmp_path / "keyless")
        keyed = tmp_path / "keyed.jsonl"
        keyed.write_text("".join(json.dumps(e) + "\n"
                                 for e in recorders[0].entries),
                         encoding="utf-8")
        assert len(recorders[0].entries) == 28  # 20 initial, 8 corrections
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to mix questions
        try:
            for jobs in (1, 2, 4):
                for run in range(10):
                    got = self.run(suite, command, str(keyed),
                                   tmp_path / f"jobs{jobs}-{run}",
                                   "--jobs", str(jobs))
                    assert got == want, (jobs, run)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_resolving_one_graph_load_it_once(self, tmp_path,
                                                      monkeypatch):
        (tmp_path / "g.jsonl").write_text("", encoding="utf-8")
        calls = []

        def slow_load(path):
            calls.append(path)
            time.sleep(0.05)
            return object()
        monkeypatch.setattr(cli, "load_graph", slow_load)
        resolve = cli._graph_resolver(str(tmp_path))
        start, got = threading.Barrier(4), []

        def worker():
            start.wait()
            got.append(resolve("g.jsonl"))
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert calls == [str(tmp_path / "g.jsonl")]
        assert len(got) == 4 and all(graph is got[0] for graph in got)


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

# Per JSONL input: a field, a wrongly typed value, and the type it needs.
WRONG_TYPES = {
    "ask --graph": ("tail", [1], "a string, an integer or a number"),
    "--script": ("reply", 5, "a string"),
    "--demo-pool": ("question", 5, "a string"),
    "correct --dataset": ("question", 5, "a string"),
    "gen-sft --traces": ("question_text", 5, "a string"),
    "error-stats --traces": ("n", "1", "an integer"),
    "score-loss --sft": ("round", True, "an integer or null"),
    "score-loss --pref": ("chosen", ["x"], "a string"),
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


@pytest.mark.parametrize("edit", ["indented", "null tail"])
def test_ask_reads_a_graph_through_a_pipe(tmp_path, capsys, piped, edit):
    """A dump whose line 2501, past the first chunk, is indented answers
    through a pipe as from its file; with a null tail there, the pipe fails
    with the file's one error line, naming the pipe."""
    triples = [("Alice", "Hometown", "Texas")]
    triples += [(f"e{i}", "r", f"t{i}") for i in range(2999)]
    path = tmp_path / "kg.jsonl"
    dump_graph(ingest_triples(triples), str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2500] = (b" " + lines[2500] if edit == "indented" else json.dumps(
        {**json.loads(lines[2500]), "tail": None}).encode() + b"\n")
    script = tmp_path / "ask.jsonl"
    script.write_text(json.dumps({"reply": ALICE_PLAN}) + "\n",
                      encoding="utf-8")
    source = piped(b"".join(lines))
    code = main([*ASK, "--graph", source, "--script", str(script)])
    out, err = capsys.readouterr()
    if edit == "indented":
        assert code == 0 and err == ""
        assert json.loads(out)["initial_outcome"]["answer"] == ["Texas"]
    else:
        assert code == 1 and out == ""
        assert err == (f"error: {source}:2501: field 'tail' must be a "
                       "string, an integer or a number, not null\n")


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

    @pytest.mark.parametrize("name", INPUTS)
    def test_bytes_that_are_not_utf8_name_the_file(self, inputs, tmp_path,
                                                   capsys, name):
        good, _, argv = inputs[name]
        path = tmp_path / "input.jsonl"
        path.write_bytes(json.dumps(good).encode() + b"\n\xff\n")
        err = one_error_line(argv, path, capsys)
        assert err.startswith(
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in ")

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

    @pytest.mark.parametrize("command", ["ask", "correct", "eval"])
    def test_null_tail_names_file_line_and_field(self, suite, tmp_path,
                                                 capsys, command):
        people = Path(suite["graphs_dir"]) / "people.jsonl"
        meta, edge, *rest = people.read_text(encoding="utf-8").splitlines()
        people.write_text("\n".join([meta, json.dumps(
            {**json.loads(edge), "tail": None}), *rest]) + "\n",
            encoding="utf-8")
        argv = (["ask", "Where is Alice from?", "--graph", str(people)]
                if command == "ask" else
                [command, "--dataset", suite["dataset"], "--graphs",
                 suite["graphs_dir"], "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert main([*argv, "--backend", "scripted", "--script",
                     suite["script_with"], "--self-consistency", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {people}:2: field 'tail' must be a string, an integer "
            "or a number, not null\n")

    @pytest.mark.parametrize("name", list(WRONG_TYPES))
    def test_wrong_type_names_file_line_and_field(self, inputs, tmp_path,
                                                  capsys, name):
        key, value, want = WRONG_TYPES[name]
        good, _, argv = inputs[name]
        path = tmp_path / "input.jsonl"
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, key: value}) + "\n",
                        encoding="utf-8")
        err = one_error_line(argv, path, capsys)
        assert err.startswith(f"error: {path}:2: field '{key}' must be "
                              f"{want}, not ")

    @pytest.mark.parametrize("name, bad, want", [
        ("correct --dataset", lambda good: {**good, "gold": [[2]]},
         "field 'gold' items must be a string, a number or a boolean, "
         "not an array"),
        ("gen-sft --traces", lambda good: {**good, "initial_outcome": {
            **good["initial_outcome"], "answer": [[1]]}},
         "field 'answer' items must be a string, an integer or a number, "
         "not an array"),
        ("error-stats --traces", lambda good: {**good, "initial_outcome": {
            **good["initial_outcome"], "per_step": [
                {"index": 1, "kind": "value-set", "values": [[1]]}]}},
         "field 'values' items must be a string, an integer or a number, "
         "not an array"),
        ("ask --graph", lambda good: {"meta": {"source_kind": 5}},
         "field 'source_kind' must be a string, not an integer"),
        ("ask --graph", lambda good: {**good, "qualifier": {
            "key": "time", "value": 5}},
         "field 'qualifier' items must be a string, not an integer"),
        ("ask --graph", lambda good: {**good, "qualifier": {
            "key": 5, "value": "2000"}},
         "field 'qualifier' items must be a string, not an integer"),
        ("gen-sft --traces", lambda good: {**good, "initial_outcome": {
            **good["initial_outcome"], "error": {}}},
         "missing key 'kind'"),
    ], ids=["gold_item", "answer_item", "values_item", "meta_source_kind",
            "qualifier_value", "qualifier_key", "empty_error"])
    def test_wrong_nested_type_names_file_line_and_field(
            self, inputs, tmp_path, capsys, name, bad, want):
        good, _, argv = inputs[name]
        path = tmp_path / "input.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad(good))
                        + "\n", encoding="utf-8")
        err = one_error_line(argv, path, capsys)
        assert err == f"error: {path}:2: {want}\n"

    def test_bad_error_detail_names_file_line_and_field(self, inputs,
                                                        tmp_path, capsys):
        good, _, argv = inputs["gen-sft --traces"]
        bad = {**good, "initial_outcome": {**good["initial_outcome"], "error": {
            "kind": "undefined_function", "detail": {"registry": 5}}}}
        path = tmp_path / "traces.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        err = one_error_line(argv, path, capsys)
        assert err == (f"error: {path}:2: field 'detail' key 'registry' "
                       "must be an array, not an integer\n")

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

    @pytest.mark.parametrize("config, want", [
        ({"timeout": "30"}, "field 'timeout' must be a number, not a string"),
        ({"retries": True}, "field 'retries' must be an integer, not a "
                            "boolean"),
        ({"retries": 1.5}, "field 'retries' must be an integer, not a number"),
        ({"temperature": "hot"}, "field 'temperature' must be a number, not "
                                 "a string"),
    ], ids=["timeout_text", "retries_bool", "retries_float",
            "temperature_text"])
    def test_config_wrong_type(self, inputs, tmp_path, capsys, config, want):
        path = tmp_path / "client.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = one_error_line([*inputs["--script"][2], "--config", "{path}"],
                             path, capsys)
        assert err == f"error: {path}: {want}\n"

    def test_config_with_ordered_fallback_stops_eval(self, suite, tmp_path,
                                                     capsys):
        # The key is gone: keyless replies are always served in order.
        config = tmp_path / "client.json"
        config.write_text('{"ordered_fallback": true}', encoding="utf-8")
        script = tmp_path / "empty_script.jsonl"  # a model call would fail
        script.write_text("", encoding="utf-8")
        out = tmp_path / "report.json"
        err = one_error_line(
            ["eval", "--dataset", suite["dataset"], "--graphs",
             suite["graphs_dir"], "--out", str(out), "--backend", "scripted",
             "--script", str(script), "--config", "{path}"], config, capsys)
        assert err == f"error: {config}: unknown key 'ordered_fallback'\n"
        assert not out.exists()

    def test_config_integer_for_a_number_field(self, inputs, tmp_path):
        path = tmp_path / "client.json"
        path.write_text(json.dumps({"timeout": 30}), encoding="utf-8")
        ask = inputs["--demo-pool"][2][:-2]  # ask with a good script
        assert main([*ask, "--config", str(path)]) == 0

    @pytest.mark.parametrize("table, message", [
        ({"entries": [{"target": ALICE_PLAN}]},
         "{path}: missing key 'logprobs'"),
        ([{"target": ALICE_PLAN, "logprobs": [-1.0]}],
         "{path}: expected a JSON object"),
        ({"entries": [{"target": "other", "logprobs": [-1.0]}]},
         "no score table entry for target"),
        ({"default_logprob": 0.5},
         "{path}: default_logprob must be <= 0: 0.5"),
        ({"default_logprob": float("nan")},
         "{path}: default_logprob must be <= 0: nan"),
        ({"entries": [{"target": ALICE_PLAN, "logprobs": [float("nan"), -1]}]},
         "{path}: log-probabilities must be <= 0: [nan, -1.0]"),
        ({"entries": [{"target": ALICE_PLAN, "logprobs": [-1e308, -1e308]}]},
         "Out of range float values are not JSON compliant"),
    ], ids=["missing_logprobs", "top_level_list", "no_entry_for_target",
            "positive_default_logprob", "nan_default_logprob",
            "nan_logprob", "loss_past_float_range"])
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


INGEST = {kind: ["ingest", "{%s}" % src, "--kind", kind, "--out", "{out}"]
          for kind, src in (("table", "people_csv"), ("kg", "movies_tsv"),
                            ("temporal", "terms_tsv"))}
ASK_PEOPLE = [*ASK, "--graph", "{people}", "--script", "{script_with}",
              "--out", "{out}"]
# Each malformed input: the suite file to edit and its (old, new) text, or
# None, the command ("{name}" marks a path), and what the error line says.
MALFORMED = {
    "table_ragged_row": (
        ("people_csv", "Bob,Princeton,25,Boston,Bo", "Bob,Princeton,25"),
        INGEST["table"], "people.csv:3: 3 cells, header has 5"),
    "table_empty_header_cell": (
        ("people_csv", "Name,Colleges,", "Name,,"), INGEST["table"],
        "header must be non-empty names"),
    "key_column_name": (None, [*INGEST["table"], "--key-column", "Nope"],
                        "key column 'Nope' not in header"),
    "key_column_past_end": (None, [*INGEST["table"], "--key-column", "9"],
                            "key column index 9 out of range"),
    "key_column_negative": (None, [*INGEST["table"], "--key-column", "-1"],
                            "key column index -1 out of range"),
    "table_empty_row_key": (
        ("people_csv", "Bob,Princeton", ",Princeton"), INGEST["table"],
        "edge with empty head or relation"),
    "temporal_bad_time": (
        ("terms_tsv", "Bush\t2004", "Bush\tnot-a-date"), INGEST["temporal"],
        "cannot parse time 'not-a-date'"),
    "table_empty_delimiter": (None, [*INGEST["table"], "--delimiter", ""],
                              "delimiter must be one character, not ''"),
    "table_two_char_delimiter": (
        None, [*INGEST["table"], "--delimiter", ";;"],
        "delimiter must be one character, not ';;'"),
    "kg_empty_delimiter": (None, [*INGEST["kg"], "--delimiter", ""],
                           "delimiter must be one character, not ''"),
    "eval_missing_gold": (
        ("dataset", ', "gold": [2]', ""),
        ["eval", "--dataset", "{dataset}", "--graphs", "{graphs_dir}",
         "--out", "{out}", "--backend", "scripted", "--script",
         "{script_with}", "--self-consistency", "1"],
        "question m01 has no gold answer"),
    "ask_blank_head": (
        ("people", '"head": "Alice"', '"head": " "'), ASK_PEOPLE,
        "edge with empty head or relation"),
    "ask_gold_number": (None, [*ASK_PEOPLE, "--gold", "5"],
                        "field 'gold' must be an array or null, not an "
                        "integer"),
    "ask_gold_string": (None, [*ASK_PEOPLE, "--gold", '"11"'],
                        "field 'gold' must be an array or null, not a "
                        "string"),
    "ask_gold_not_json": (None, [*ASK_PEOPLE, "--gold", "abc"],
                          "--gold 'abc' is not JSON: Expecting value"),
    "ask_gold_infinity": (None, [*ASK_PEOPLE, "--gold", "[1e999]"],
                          "field 'gold' items must be finite, not inf"),
    "ask_gold_nan": (None, [*ASK_PEOPLE, "--gold", "[1, NaN]"],
                     "field 'gold' items must be finite, not nan"),
    "ask_gold_past_float_range": (
        None, [*ASK_PEOPLE, "--gold", f"[1{'0' * 400}]"],
        f"field 'gold' items must be finite, not 1{'0' * 400}"),
    "correct_gold_infinity": (
        ("dataset", '"gold": [2]', '"gold": [1e999]'),
        ["correct", "--dataset", "{dataset}", "--graphs", "{graphs_dir}",
         "--out", "{out}", "--backend", "scripted", "--script",
         "{script_with}"],
        "dataset.jsonl:1: field 'gold' items must be finite, not inf"),
    "kg_short_row": (
        ("movies_tsv", "Heat\tgenre\tCrime", "Heat\tgenre"), INGEST["kg"],
        "movies.tsv:8: 2 cells, not 3"),
    "kg_long_row": (
        ("movies_tsv", "Heat\tgenre\tCrime", "Heat\tgenre\tCrime\tx\ty"),
        INGEST["kg"], "movies.tsv:8: 5 cells, not 3"),
    "temporal_short_row": (
        ("terms_tsv", "USA\tpresident\tBush\t2004", "USA\tpresident"),
        INGEST["temporal"], "terms.tsv:4: 2 cells, not 4"),
    "temporal_long_row": (
        ("terms_tsv", "Bush\t2004", "Bush\t2004\tx"), INGEST["temporal"],
        "terms.tsv:4: 5 cells, not 4"),
    "kg_cell_past_field_limit": (
        ("movies_tsv", "Heat\tgenre\tCrime", "Heat\tgenre\t" + "x" * 200_000),
        INGEST["kg"], "movies.tsv:8: field larger than field limit (131072)"),
}


# A --key-column that int() cannot read names a column: '²' is a digit, but
# not a decimal one; '١' (Arabic-Indic one) is decimal, so it is index 1.
@pytest.mark.parametrize("key_column", ["\u00b2", "\u0661"])
def test_a_key_column_int_cannot_read_is_a_name(tmp_path, key_column):
    source = tmp_path / "t.csv"
    source.write_text("k,\u00b2\nx,y\n", encoding="utf-8")
    out = str(tmp_path / "t.jsonl")
    assert main(["ingest", str(source), "--kind", "table", "--out", out,
                 "--key-column", key_column]) == 0
    edge, = read_jsonl(out)[1:]
    assert (edge["head"], edge["relation"], edge["tail"]) == ("y", "k", "x")


@pytest.mark.parametrize("argv, name", [
    (INGEST["kg"], "movies_tsv"), ([*ASK_PEOPLE, "--config", "{config}"],
                                   "config")], ids=["ingest", "config"])
def test_undecodable_input_is_one_error_line_naming_its_file(
        suite, tmp_path, capsys, argv, name):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\n")
    paths = {**suite, name: str(path), "out": str(tmp_path / "out.json"),
             "people": os.path.join(suite["graphs_dir"], "people.jsonl")}
    capsys.readouterr()
    code = main([paths.get(a[1:-1], a) if a.startswith("{") else a
                 for a in argv])
    assert (code, capsys.readouterr().err) == (1, (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position "
        "0: invalid start byte\n"))


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_input_is_one_error_line(suite, tmp_path, capsys,
                                           monkeypatch, name):
    edit, argv, want = MALFORMED[name]
    paths = {**suite, "out": str(tmp_path / "out.json"),
             "people": os.path.join(suite["graphs_dir"], "people.jsonl")}
    if edit:
        key, old, new = edit
        text = Path(paths[key]).read_text(encoding="utf-8")
        assert old in text
        Path(paths[key]).write_text(text.replace(old, new), encoding="utf-8")
    calls = []

    def sample(self, messages, n):
        calls.append(n)
        raise ChatError("no model call expected")
    monkeypatch.setattr(ScriptedChatClient, "sample", sample)
    capsys.readouterr()
    code = main([paths.get(a[1:-1], a) if a.startswith("{") else a
                 for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert want in err
    assert calls == []
    assert not os.path.exists(paths["out"])


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "cgqa", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")
    assert "error-stats" in done.stdout
