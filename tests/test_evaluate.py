"""Evaluation reports and error statistics."""

from __future__ import annotations

import gc
import sys
import types

import pytest

from cgqa.correction import METRIC_HITS1, Question, run_correction
from cgqa.evaluate import (
    GraphNotFoundError,
    MissingGoldError,
    PipelineConfig,
    error_stats,
    evaluate,
    load_questions,
    run_questions,
)
from cgqa.graph import (
    load_table_file,
    load_temporal_file,
    load_triples_file,
    schema_summary,
)
from cgqa.llm import ScriptedChatClient

import mini_suite

GOOD_PLAN = (
    "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
    "query2 = count(set=output_of_query1)"
)
WRONG = "query1 = subtract(set1='a', set2='b')"


def build_mini_graphs(tmp_path):
    paths = mini_suite.write_all(str(tmp_path))
    return {
        "people.jsonl": load_table_file(paths["people_csv"]),
        "movies.jsonl": load_triples_file(paths["movies_tsv"]),
        "terms.jsonl": load_temporal_file(paths["terms_tsv"]),
    }, paths


def mini_questions():
    return [
        Question(id=qid, text=text, gold_answer=gold, graph_ref=ref)
        for qid, text, gold, ref, _, _ in mini_suite.QUESTIONS
    ]


def script_client(path):
    return ScriptedChatClient.from_file(path)


class TestEvaluate:
    def test_mini_suite_with_correction(self, tmp_path):
        graphs, paths = build_mini_graphs(tmp_path)
        report, traces = evaluate(
            mini_questions(),
            graphs.__getitem__,
            script_client(paths["script_with"]),
            PipelineConfig(mct=3, sc_n=1),
        )
        assert report.total == 20
        assert report.value == pytest.approx(100.0)
        assert report.solved_direct == 12
        assert report.solved_after_n == {1: 8}
        assert report.failed_mct == 0
        assert report.alignment_miss == 0
        assert len(traces) == 20

    def test_mini_suite_without_correction(self, tmp_path):
        graphs, paths = build_mini_graphs(tmp_path)
        report, _ = evaluate(
            mini_questions(),
            graphs.__getitem__,
            script_client(paths["script_without"]),
            PipelineConfig(mct=0, sc_n=1),
        )
        assert report.total == 20
        assert report.value == pytest.approx(60.0)
        assert report.solved_direct == 12
        assert report.failed_mct == 8

    def test_with_beats_without_by_construction(self, tmp_path):
        graphs, paths = build_mini_graphs(tmp_path)
        with_report, _ = evaluate(
            mini_questions(), graphs.__getitem__,
            script_client(paths["script_with"]), PipelineConfig(mct=3, sc_n=1),
        )
        without_report, _ = evaluate(
            mini_questions(), graphs.__getitem__,
            script_client(paths["script_without"]),
            PipelineConfig(mct=0, sc_n=1),
        )
        assert with_report.value >= without_report.value

    def test_mini_suite_leaves_no_frame_cycles(self, tmp_path):
        # Stored errors must not pin the frames that raised them: a frame in
        # a reference cycle lives until a full collection.
        graphs, paths = build_mini_graphs(tmp_path)
        questions = mini_questions()
        client = script_client(paths["script_with"])
        gc.collect()
        flags = gc.get_debug()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            report, _ = evaluate(questions, graphs.__getitem__, client,
                                 PipelineConfig(mct=3, sc_n=1))
            del _
            gc.collect()
            frames = [o for o in gc.garbage if isinstance(o, types.FrameType)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert report.solved_after_n == {1: 8}
        assert frames == []

    def test_empty_question_list(self):
        report, traces = evaluate([], lambda ref: None, None,
                                  PipelineConfig())
        assert report.total == 0
        assert report.value is None
        assert report.to_dict()["value"] == "n/a"
        assert traces == []

    def test_missing_gold_rejected(self, toy_graph):
        question = Question(id="q", text="t", gold_answer=None, graph_ref="g")
        with pytest.raises(MissingGoldError):
            evaluate([question], lambda ref: toy_graph, None)

    def test_unknown_graph_ref(self, toy_graph):
        question = Question(id="q", text="t", gold_answer=[1], graph_ref="nope")

        def resolve(ref):
            raise KeyError(ref)

        with pytest.raises(GraphNotFoundError):
            evaluate([question], resolve,
                     ScriptedChatClient([{"reply": GOOD_PLAN}]),
                     PipelineConfig(sc_n=1))

    def test_hits1_metric(self, toy_graph):
        # answer set {Alice}; gold membership of the top answer suffices
        question = Question(
            id="q", text="who studied in utah", gold_answer=["Alice", "Zoe"],
            graph_ref="toy",
        )
        plan = ("query1 = get_information(relation='Colleges', "
                "tail_entity='Utah')")
        report, _ = evaluate(
            [question], lambda ref: toy_graph,
            ScriptedChatClient([{"reply": plan}]),
            PipelineConfig(mct=0, sc_n=1, metric=METRIC_HITS1),
        )
        assert report.metric == "hits_at_1"
        assert report.value == pytest.approx(100.0)

    def test_gold_mismatch_counts_as_alignment_miss(self, toy_graph):
        question = Question(id="q", text="t", gold_answer=["Zurich"],
                            graph_ref="toy")
        plan = ("query1 = get_information(relation='Colleges', "
                "tail_entity='Utah')")
        report, _ = evaluate(
            [question], lambda ref: toy_graph,
            ScriptedChatClient([{"reply": plan}]),
            PipelineConfig(mct=0, sc_n=1),
        )
        assert report.failed_gold_mismatch == 1
        assert report.alignment_miss == 1
        assert report.value == pytest.approx(0.0)

    def test_counts_sum_to_total(self, tmp_path):
        graphs, paths = build_mini_graphs(tmp_path)
        report, _ = evaluate(
            mini_questions(), graphs.__getitem__,
            script_client(paths["script_with"]), PipelineConfig(mct=3, sc_n=1),
        )
        total = (report.solved_direct + sum(report.solved_after_n.values())
                 + report.failed_mct + report.failed_gold_mismatch)
        assert total == report.total

    def test_parallel_workers_with_keyed_script(self, toy_graph):
        from cgqa.correction import build_query_prompt, render_schema
        from cgqa.graph import schema_summary as summarize
        from cgqa.llm import request_digest

        cases = [
            ("a", "How many people studied in Utah?",
             "query1 = get_information(relation='Colleges', "
             "tail_entity='Utah')\nquery2 = count(set=output_of_query1)", [1]),
            ("b", "Where is Alice from?",
             "query1 = get_information(head_entity='Alice', "
             "relation='Hometown')", ["Texas"]),
            ("c", "Who studied in Princeton?",
             "query1 = get_information(relation='Colleges', "
             "tail_entity='Princeton')", ["Bob"]),
            ("d", "What is the maximum age?",
             "query1 = get_information(relation='Age')\n"
             "query2 = max(set=output_of_query1)", [25]),
        ]
        schema_text = render_schema(summarize(toy_graph))
        entries = [
            {"key": request_digest(build_query_prompt(text, schema_text)),
             "reply": plan}
            for _, text, plan, _ in cases
        ]
        client = ScriptedChatClient(entries)
        questions = [
            Question(id=qid, text=text, gold_answer=gold, graph_ref="toy")
            for qid, text, _, gold in cases
        ]
        report, traces = evaluate(
            questions, lambda ref: toy_graph, client,
            PipelineConfig(mct=0, sc_n=1, jobs=3),
        )
        assert report.value == pytest.approx(100.0)
        assert [t.question_id for t in traces] == ["a", "b", "c", "d"]

    def test_same_text_questions_take_keyed_replies_in_dataset_order(
            self, toy_graph):
        # Questions with one text send one request and share its keyed
        # replies, so the earlier question must ask first under any jobs.
        from cgqa.correction import build_query_prompt, render_schema
        from cgqa.llm import request_digest

        text = "How many people studied in Utah?"
        key = request_digest(build_query_prompt(
            text, render_schema(schema_summary(toy_graph))))
        questions = [Question(id=qid, text=text, gold_answer=[1],
                              graph_ref="toy") for qid in ("q1", "q2")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to mix questions
        try:
            for run in range(200):
                client = ScriptedChatClient(
                    [{"key": key, "reply": GOOD_PLAN},
                     {"key": key, "reply": WRONG}])
                traces = run_questions(questions, lambda ref: toy_graph,
                                       client, PipelineConfig(mct=0, sc_n=1,
                                                              jobs=2))
                assert [t.initial_plan_text for t in traces] == [
                    GOOD_PLAN, WRONG], run
        finally:
            sys.setswitchinterval(interval)

    def test_parallel_evaluation_keeps_order(self, tmp_path):
        graphs, paths = build_mini_graphs(tmp_path)
        # scripted replies are consumed in call order, so parallel execution
        # only works with a keyed or per-question client; here we check the
        # jobs=1 path equals itself re-run (determinism)
        r1, t1 = evaluate(
            mini_questions(), graphs.__getitem__,
            script_client(paths["script_with"]), PipelineConfig(mct=3, sc_n=1),
        )
        r2, t2 = evaluate(
            mini_questions(), graphs.__getitem__,
            script_client(paths["script_with"]), PipelineConfig(mct=3, sc_n=1),
        )
        assert r1.to_dict() == r2.to_dict()
        assert [x.to_dict() for x in t1] == [x.to_dict() for x in t2]


def make_trace(toy_graph, replies, gold=(1,), mct=3):
    question = Question(id="q", text="how many in utah",
                        gold_answer=list(gold))
    return run_correction(
        question, schema_summary(toy_graph), toy_graph,
        ScriptedChatClient([{"reply": r} for r in replies]),
        PipelineConfig(mct=mct, sc_n=1),
    )


class TestErrorStats:
    def test_spec_ratio(self, toy_graph):
        traces = []
        for _ in range(3):  # corrected undefined-function traces
            traces.append(make_trace(
                toy_graph, [WRONG, "use count.\n\n" + GOOD_PLAN]
            ))
        traces.append(make_trace(  # one surviving failure
            toy_graph, [WRONG] + ["nope.\n\n" + WRONG] * 3
        ))
        for _ in range(6):  # clean traces contribute nothing
            traces.append(make_trace(toy_graph, [GOOD_PLAN]))
        stats = error_stats(traces)
        uf = stats.per_kind["undefined_function"]
        assert uf["before"] == 4
        assert uf["after"] == 1
        assert uf["corrected_pct"] == pytest.approx(75.0)
        assert stats.parsing["before"] == 4
        assert stats.parsing["after"] == 1
        assert stats.overall["corrected_pct"] == pytest.approx(75.0)

    def test_no_errors_all_zero(self, toy_graph):
        stats = error_stats([make_trace(toy_graph, [GOOD_PLAN])])
        assert stats.per_kind == {}
        assert stats.overall == {"before": 0, "after": 0, "corrected_pct": 0.0}

    def test_hand_tallied_mixed_fixture(self, toy_graph):
        nested = "query1 = count(set=get_information(relation='Age'))"
        traces = [
            make_trace(toy_graph, [WRONG, "fix.\n\n" + GOOD_PLAN]),
            make_trace(toy_graph, [nested, "split.\n\n" + GOOD_PLAN]),
            make_trace(toy_graph, [nested] + ["no.\n\n" + nested] * 3),
            make_trace(toy_graph, [GOOD_PLAN]),
        ]
        stats = error_stats(traces)
        assert stats.per_kind["undefined_function"] == {
            "before": 1, "after": 0, "corrected_pct": 100.0,
        }
        assert stats.per_kind["non_atomic_operation"] == {
            "before": 2, "after": 1, "corrected_pct": 50.0,
        }
        assert stats.overall["before"] == 3
        assert stats.overall["after"] == 1

    def test_after_never_exceeds_before(self, toy_graph):
        traces = [
            make_trace(toy_graph, [WRONG, "x.\n\n" + GOOD_PLAN]),
            make_trace(toy_graph, [WRONG] + ["y.\n\n" + WRONG] * 3),
        ]
        stats = error_stats(traces)
        for kind, row in stats.per_kind.items():
            assert 0 <= row["after"] <= row["before"]


def test_load_questions(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "a", "question": "q?", "gold": [1], "graph_ref": "g.jsonl"}\n',
        encoding="utf-8",
    )
    (question,) = load_questions(str(path))
    assert question.id == "a"
    assert question.gold_answer == [1]
    assert question.graph_ref == "g.jsonl"
