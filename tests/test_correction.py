"""The correction loop: demo retrieval, prompt building, self-consistency
voting, round bookkeeping, and terminal statuses."""

from __future__ import annotations

from pathlib import Path

import pytest

from cgqa.correction import (
    CorrectionTrace,
    Demonstration,
    Question,
    answers_match,
    assess,
    build_correction_prompt,
    build_query_prompt,
    correction_prompt_text,
    extract_plan,
    generate_initial,
    query_prompt_text,
    render_schema,
    retrieve_demos,
    run_correction,
    token_set_jaccard,
)
from cgqa.errors import ErrorKind
from cgqa.graph import schema_summary
from cgqa.llm import ScriptedChatClient, request_digest

GOLDEN_DIR = Path(__file__).parent / "golden" / "prompts"

QUESTION = "How many people studied in Utah?"
GOOD_PLAN = (
    "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
    "query2 = count(set=output_of_query1)"
)
WRONG_SUBTRACT = "query1 = subtract(set1='a', set2='b')"
WRONG_NESTED = "query1 = count(set=get_information(relation='Colleges'))"


def ordered_client(*replies: str) -> ScriptedChatClient:
    return ScriptedChatClient([{"reply": r} for r in replies])


def make_question(gold=None):
    return Question(id="q1", text=QUESTION, gold_answer=gold, graph_ref="toy")


class TestRetrieveDemos:
    def test_clamping_small_pool(self):
        pool = [Demonstration("only one", "s", "query1 = count(set=output_of_query1)")]
        assert retrieve_demos("anything", pool, 15, 8) == pool

    def test_identical_question_ranks_first(self):
        pool = [
            Demonstration("who directed heat", "s", "p1"),
            Demonstration(QUESTION, "s", "p2"),
            Demonstration("what is the mean age", "s", "p3"),
        ]
        got = retrieve_demos(QUESTION, pool, 15, 2)
        assert got[0].question == QUESTION
        assert token_set_jaccard(QUESTION, QUESTION) == 1.0

    def test_top_k_against_brute_force(self):
        pool = [
            Demonstration(f"question about topic {i} number {i % 7}", "s", f"p{i}")
            for i in range(100)
        ]
        query = "question about topic 13 number 6"
        got = retrieve_demos(query, pool, k_retrieve=15, k_use=8)
        assert len(got) == 8
        scores = [token_set_jaccard(query, d.question) for d in got]
        assert scores == sorted(scores, reverse=True)
        # independent full ranking: stable sort by (-score, pool position)
        ranked = sorted(
            range(len(pool)),
            key=lambda i: (-token_set_jaccard(query, pool[i].question), i),
        )
        assert [d.plan_text for d in got] == [
            pool[i].plan_text for i in ranked[:8]
        ]

    def test_empty_pool(self):
        assert retrieve_demos("q", [], 15, 8) == []

    def test_deduplication(self):
        demo = Demonstration("same", "s", "samep")
        got = retrieve_demos("same", [demo, demo, demo], 3, 3)
        assert len(got) == 1


class TestPrompts:
    def test_query_prompt_golden(self, toy_graph):
        text = query_prompt_text(QUESTION, render_schema(schema_summary(toy_graph)))
        golden = (GOLDEN_DIR / "query_prompt.txt").read_text(encoding="utf-8")
        assert text + "\n" == golden

    def test_correction_prompt_golden(self, toy_graph):
        schema_text = render_schema(schema_summary(toy_graph))
        err = assess(WRONG_SUBTRACT, toy_graph).error
        text = correction_prompt_text(
            QUESTION, schema_text, WRONG_SUBTRACT, err.message
        )
        golden = (GOLDEN_DIR / "correction_prompt.txt").read_text(
            encoding="utf-8"
        )
        assert text + "\n" == golden
        assert "Please call one of: [get_information" in text

    def test_prompts_are_deterministic(self, toy_graph):
        schema_text = render_schema(schema_summary(toy_graph))
        a = build_query_prompt(QUESTION, schema_text)
        b = build_query_prompt(QUESTION, schema_text)
        assert a == b
        assert request_digest(a) == request_digest(b)

    def test_zero_demos_still_well_formed(self):
        messages = build_query_prompt("q", "schema: s", demos=())
        assert messages[0].role == "system"
        assert "(none)" in messages[1].content

    def test_demo_blocks_render(self, toy_graph):
        schema_text = render_schema(schema_summary(toy_graph))
        demos = [
            Demonstration("who is from texas", schema_text,
                          "query1 = get_information(relation='Hometown')"),
            Demonstration(
                "how many colleges", schema_text,
                "query1 = count(set=output_of_query1)",
                wrong_plan_text="query1 = size(set=output_of_query1)",
                error_message="The function 'size' is not defined!",
                analysis="size is not a registry function; count is.",
            ),
        ]
        pq = build_query_prompt("q", schema_text, demos)
        assert "[Demonstration 1]" in pq[1].content
        pc = build_correction_prompt("q", schema_text, "wrong", "msg", demos)
        assert "Corrected query:" in pc[1].content


class TestExtractPlan:
    def test_analysis_then_plan(self):
        completion = (
            "The function subtract does not exist, count is the right one.\n\n"
            + GOOD_PLAN
        )
        analysis, plan = extract_plan(completion)
        assert "does not exist" in analysis
        assert plan == GOOD_PLAN

    def test_plan_only(self):
        analysis, plan = extract_plan(GOOD_PLAN)
        assert analysis == ""
        assert plan == GOOD_PLAN

    def test_code_fences_ignored(self):
        completion = "Fix:\n```\n" + GOOD_PLAN + "\n```"
        _, plan = extract_plan(completion)
        assert plan == GOOD_PLAN

    def test_no_plan(self):
        analysis, plan = extract_plan("I am not sure what to do.")
        assert plan is None
        assert analysis == "I am not sure what to do."

    def test_trailing_prose_excluded(self):
        completion = GOOD_PLAN + "\nThat should work."
        _, plan = extract_plan(completion)
        assert plan == GOOD_PLAN


class TestGenerateInitial:
    def schema(self, cg):
        return render_schema(schema_summary(cg))

    def test_single_sample(self, toy_graph):
        client = ordered_client(GOOD_PLAN)
        got = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, sc_n=1)
        assert got == GOOD_PLAN

    def test_majority_wins(self, toy_graph):
        plan_b = "query1 = get_information(relation='Age')"
        replies = [GOOD_PLAN, GOOD_PLAN, plan_b, WRONG_SUBTRACT, GOOD_PLAN]
        client = ordered_client(*replies)
        got = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, sc_n=5)
        assert got == GOOD_PLAN

    def test_tie_breaks_to_earliest(self, toy_graph):
        plan_b = "query1 = get_information(relation='Age')"
        replies = [plan_b, plan_b, GOOD_PLAN, GOOD_PLAN, WRONG_SUBTRACT]
        client = ordered_client(*replies)
        got = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, sc_n=5)
        assert got == plan_b

    def test_error_outcomes_share_a_bucket(self, toy_graph):
        replies = [WRONG_SUBTRACT, WRONG_NESTED, GOOD_PLAN]
        client = ordered_client(*replies)
        got = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, sc_n=3)
        assert got == WRONG_SUBTRACT  # two errors outvote one clean answer

    def test_client_with_sample_gets_one_batch(self, toy_graph):
        plan_b = "query1 = get_information(relation='Age')"

        class BatchClient:
            calls = []

            def sample(self, messages, n):
                self.calls.append(n)
                return [plan_b, GOOD_PLAN, GOOD_PLAN][:n]

            def complete(self, messages):
                raise AssertionError("complete() called despite sample()")

        client = BatchClient()
        got = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, sc_n=3)
        assert got == GOOD_PLAN
        assert client.calls == [3]


@pytest.mark.parametrize("plan", [
    WRONG_SUBTRACT,  # rejected by the validator
    "query1 = get_information(relation='Colleges')\n"
    "query2 = sum(set=output_of_query1)",  # fails in the executor
])
def test_stored_error_keeps_no_traceback(toy_graph, plan):
    err = assess(plan, toy_graph).error
    assert err is not None
    assert err.__traceback__ is None
    assert err.__cause__ is None


def _chain_ok(trace: CorrectionTrace) -> bool:
    prev = trace.initial_outcome.error
    for rnd in trace.rounds:
        if rnd.error_in.to_dict() != (prev.to_dict() if prev else None):
            return False
        prev = rnd.outcome_after.error
    return True


class TestRunCorrection:
    def test_solved_direct(self, toy_graph):
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            ordered_client(GOOD_PLAN), mct=3, sc_n=1,
        )
        assert trace.status == "solved_direct"
        assert trace.rounds == []
        assert trace.n == 0
        assert trace.final_plan_text == GOOD_PLAN

    def test_solved_after_one_round(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT,
            "subtract is not defined; count does the job.\n\n" + GOOD_PLAN,
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, mct=3, sc_n=1,
        )
        assert trace.status == "solved_after_n"
        assert trace.n == 1
        assert trace.final_plan_text == GOOD_PLAN
        assert trace.rounds[0].error_in.kind is ErrorKind.UNDEFINED_FUNCTION
        assert trace.rounds[0].analysis.startswith("subtract is not defined")
        assert _chain_ok(trace)

    def test_solved_after_two_rounds(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT,
            "Try a different missing function.\n\n"
            "query1 = tally(set=output_of_query1)",
            "tally is also undefined; count is correct.\n\n" + GOOD_PLAN,
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, mct=3, sc_n=1,
        )
        assert trace.status == "solved_after_n"
        assert trace.n == 2
        assert [r.index for r in trace.rounds] == [1, 2]
        assert _chain_ok(trace)

    def test_failed_mct_uses_every_round(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT,
            "still wrong\n\n" + WRONG_SUBTRACT,
            "still wrong\n\n" + WRONG_SUBTRACT,
            "still wrong\n\n" + WRONG_SUBTRACT,
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, mct=3, sc_n=1,
        )
        assert trace.status == "failed_mct"
        assert trace.n == 3
        assert len(trace.rounds) == 3
        assert trace.final_plan_text is None
        assert _chain_ok(trace)

    def test_mct_zero_is_single_pass(self, toy_graph):
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            ordered_client(WRONG_SUBTRACT), mct=0, sc_n=1,
        )
        assert trace.status == "failed_mct"
        assert trace.rounds == []

    def test_gold_mismatch(self, toy_graph):
        trace = run_correction(
            make_question(gold=[2]), schema_summary(toy_graph), toy_graph,
            ordered_client(GOOD_PLAN), mct=3, sc_n=1,
        )
        assert trace.status == "failed_gold_mismatch"
        assert trace.final_plan_text is None

    def test_gold_ignored_when_absent(self, toy_graph):
        trace = run_correction(
            make_question(gold=None), schema_summary(toy_graph), toy_graph,
            ordered_client(GOOD_PLAN), mct=3, sc_n=1,
        )
        assert trace.status == "solved_direct"

    def test_malformed_completion_counts_as_round(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT,
            "I cannot help with that.",
            "count fixes it.\n\n" + GOOD_PLAN,
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, mct=3, sc_n=1,
        )
        assert trace.status == "solved_after_n"
        assert trace.n == 2
        first = trace.rounds[0]
        assert first.outcome_after.error is not None
        assert first.outcome_after.error.kind is ErrorKind.NON_STANDARD_EXPRESSION
        assert _chain_ok(trace)

    def test_strict_empty_none_answer_is_designed_false_negative(
        self, toy_graph
    ):
        # a correct plan whose true answer is empty keeps tripping the empty
        # check under strict mode and exhausts the round budget
        empty_plan = (
            "query1 = get_information(relation='Hometown', tail_entity='Utah')"
        )
        client = ordered_client(
            empty_plan, "a\n\n" + empty_plan, "b\n\n" + empty_plan,
            "c\n\n" + empty_plan,
        )
        question = Question(id="q", text="Who is from Utah?", gold_answer=[])
        trace = run_correction(
            question, schema_summary(toy_graph), toy_graph, client,
            mct=3, sc_n=1, strict_empty=True,
        )
        assert trace.status == "failed_mct"

    def test_loop_bound_property(self, toy_graph):
        for mct in (0, 1, 2, 3):
            replies = [WRONG_SUBTRACT] + ["x\n\n" + WRONG_SUBTRACT] * mct
            trace = run_correction(
                make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
                ordered_client(*replies), mct=mct, sc_n=1,
            )
            assert len(trace.rounds) <= mct
            assert trace.n == mct

    def test_trace_json_round_trip(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT, "analysis here.\n\n" + GOOD_PLAN
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, mct=3, sc_n=1,
        )
        back = CorrectionTrace.from_dict(trace.to_dict())
        assert back.to_dict() == trace.to_dict()

    def test_keyed_script_drives_loop(self, toy_graph):
        schema = schema_summary(toy_graph)
        schema_text = render_schema(schema)
        pq = build_query_prompt(QUESTION, schema_text)
        err = assess(WRONG_SUBTRACT, toy_graph).error
        pc = build_correction_prompt(
            QUESTION, schema_text, WRONG_SUBTRACT, err.message
        )
        client = ScriptedChatClient(
            [
                {"key": request_digest(pq), "reply": WRONG_SUBTRACT},
                {"key": request_digest(pc),
                 "reply": "use count.\n\n" + GOOD_PLAN},
            ],
            ordered_fallback=False,
        )
        trace = run_correction(
            make_question(gold=[1]), schema, toy_graph, client, mct=3, sc_n=1
        )
        assert trace.status == "solved_after_n"
        assert trace.n == 1


class TestHistoryMode:
    def test_default_prompt_carries_only_latest_attempt(self, toy_graph):
        client = RecordingClient([
            WRONG_SUBTRACT,
            "x.\n\nquery1 = tally(set=output_of_query1)",
            "y.\n\n" + GOOD_PLAN,
        ])
        run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, mct=3, sc_n=1,
        )
        round2_prompt = client.prompts[2][1].content
        assert "tally" in round2_prompt
        assert WRONG_SUBTRACT not in round2_prompt

    def test_full_history_shows_earlier_attempts(self, toy_graph):
        client = RecordingClient([
            WRONG_SUBTRACT,
            "x.\n\nquery1 = tally(set=output_of_query1)",
            "y.\n\n" + GOOD_PLAN,
        ])
        run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, mct=3, sc_n=1, full_history=True,
        )
        round2_prompt = client.prompts[2][1].content
        assert "Earlier attempt 1:" in round2_prompt
        assert WRONG_SUBTRACT in round2_prompt


class RecordingClient:
    """Ordered scripted replies that also remember every prompt seen."""

    def __init__(self, replies):
        self._client = ordered_client(*replies)
        self.prompts = []

    def complete(self, messages):
        self.prompts.append(list(messages))
        return self._client.complete(messages)


class TestBackendSubstitutability:
    def test_http_backend_drives_the_loop(self, toy_graph):
        # the loop only sees complete(); an HTTP-backed client slots in
        # wherever the scripted one does
        import json as _json
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        from cgqa.llm import ClientConfig, HttpChatClient

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = _json.dumps(
                    {"choices": [{"message": {"content": GOOD_PLAN}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = HttpChatClient(ClientConfig(
                backend="http",
                endpoint=f"http://127.0.0.1:{server.server_port}/v1",
                retry_backoff=0.0,
            ))
            trace = run_correction(
                make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
                client, mct=3, sc_n=1,
            )
            assert trace.status == "solved_direct"
        finally:
            server.shutdown()


class TestAnswersMatch:
    def test_denotation_set_equality(self):
        assert answers_match({"Alice"}, ["alice"])
        assert answers_match({20}, ["20"])
        assert answers_match({20.0000000001}, [20], mode="denotation")
        assert not answers_match({"Alice", "Bob"}, ["Alice"])
        assert not answers_match({"Alice"}, ["Bob"])

    def test_hits_at_one(self):
        assert answers_match({"b", "a"}, ["a"], mode="hits1")
        assert not answers_match({"b", "a"}, ["b"], mode="hits1")
        assert answers_match({5, "zz"}, ["5"], mode="hits1")
        assert not answers_match(set(), ["a"], mode="hits1")

    def test_punctuation_and_case(self):
        assert answers_match({"New York!"}, ["new york"])
