"""Distillation records and loss arithmetic."""

from __future__ import annotations

import dataclasses

import pytest

from cgqa import dsl
from cgqa.correction import CorrectionTrace, Question, run_correction
from cgqa.distill import (
    IneligibleTraceError,
    PreferencePair,
    ScorerFailure,
    SftRecord,
    TableTokenScorer,
    correction_loss,
    preference_loss,
    query_generation_loss,
    score_sequence,
    self_records,
    stage1_loss,
    teacher_records,
    write_jsonl,
)
from cgqa.evaluate import PipelineConfig, load_questions, run_questions
from cgqa.graph import (load_table_file, load_temporal_file,
                        load_triples_file, schema_summary)
from cgqa.jsonl import read_jsonl
from cgqa.llm import ScriptedChatClient

import mini_suite

GOOD_PLAN = (
    "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
    "query2 = count(set=output_of_query1)"
)
WRONG_A = "query1 = subtract(set1='a', set2='b')"
WRONG_B = "query1 = tally(set=output_of_query1)"


def ordered_client(*replies):
    return ScriptedChatClient([{"reply": r} for r in replies])


def make_trace(toy_graph, replies, author="teacher", gold=(1,), mct=3):
    question = Question(id="q1", text="How many people studied in Utah?",
                        gold_answer=list(gold), graph_ref="toy")
    return run_correction(
        question, schema_summary(toy_graph), toy_graph,
        ordered_client(*replies),
        PipelineConfig(mct=mct, sc_n=1, author=author),
    )


@pytest.fixture
def two_round_trace(toy_graph):
    return make_trace(
        toy_graph,
        [
            WRONG_A,
            "subtract is undefined; maybe tally?\n\n" + WRONG_B,
            "tally is undefined too; count is correct.\n\n" + GOOD_PLAN,
        ],
    )


@pytest.fixture
def failed_trace(toy_graph):
    return make_trace(
        toy_graph,
        [WRONG_A] + ["still broken\n\n" + WRONG_A] * 3,
    )


class TestTeacherRecords:
    def test_direct_solution_single_record(self, toy_graph):
        trace = make_trace(toy_graph, [GOOD_PLAN])
        records = teacher_records(trace)
        assert len(records) == 1
        assert records[0].kind == "query_gen"
        assert records[0].target_text == GOOD_PLAN
        assert records[0].round_index is None

    def test_two_round_trace_shares_final_plan_suffix(self, two_round_trace):
        records = teacher_records(two_round_trace)
        assert [r.kind for r in records] == [
            "query_gen", "correction", "correction",
        ]
        final = two_round_trace.final_plan_text
        for record in records[1:]:
            assert record.target_text.endswith(final)
        assert records[1].target_text != records[2].target_text  # analyses differ
        assert records[1].target_text.startswith(
            "subtract is undefined; maybe tally?"
        )

    def test_correction_inputs_carry_prior_attempt_and_error(
        self, two_round_trace
    ):
        records = teacher_records(two_round_trace)
        assert WRONG_A in records[1].input_text
        assert "'subtract' is not defined" in records[1].input_text
        assert WRONG_B in records[2].input_text
        assert "'tally' is not defined" in records[2].input_text

    def test_failed_trace_is_ineligible(self, failed_trace):
        with pytest.raises(IneligibleTraceError):
            teacher_records(failed_trace)

    def test_gold_mismatch_is_ineligible(self, toy_graph):
        trace = make_trace(toy_graph, [GOOD_PLAN], gold=(99,))
        assert trace.status == "failed_gold_mismatch"
        with pytest.raises(IneligibleTraceError):
            teacher_records(trace)

    def test_student_authored_traces_also_produce_records(self, toy_graph):
        trace = make_trace(
            toy_graph,
            [WRONG_A, "use count.\n\n" + GOOD_PLAN],
            author="student",
        )
        records = teacher_records(trace)
        assert len(records) == 2


class TestSelfRecords:
    def test_one_round_one_pair(self, toy_graph):
        trace = make_trace(
            toy_graph, [WRONG_A, "use count.\n\n" + GOOD_PLAN],
            author="student",
        )
        (pair,) = self_records(trace)
        assert pair.preferred == GOOD_PLAN
        assert pair.dispreferred == WRONG_A
        assert pair.round_index == 1

    def test_three_rounds_three_pairs(self, toy_graph):
        wrong_c = "query1 = tabulate(set=output_of_query1)"
        trace = make_trace(
            toy_graph,
            [
                WRONG_A,
                "a\n\n" + WRONG_B,
                "b\n\n" + wrong_c,
                "c\n\n" + GOOD_PLAN,
            ],
            author="student",
        )
        pairs = self_records(trace)
        assert [p.dispreferred for p in pairs] == [WRONG_A, WRONG_B, wrong_c]
        assert all(p.preferred == GOOD_PLAN for p in pairs)
        assert all(p.input_text == pairs[0].input_text for p in pairs)

    def test_direct_solution_yields_no_pairs(self, toy_graph):
        trace = make_trace(toy_graph, [GOOD_PLAN], author="student")
        assert self_records(trace) == []

    def test_teacher_trace_rejected(self, two_round_trace):
        with pytest.raises(IneligibleTraceError):
            self_records(two_round_trace)

    def test_pairs_never_degenerate(self, toy_graph):
        trace = make_trace(
            toy_graph, [WRONG_A, "fix.\n\n" + GOOD_PLAN], author="student"
        )
        for pair in self_records(trace):
            assert pair.preferred != pair.dispreferred


class TestScoring:
    def test_score_sequence_sums(self):
        scorer = TableTokenScorer([
            {"target": "plan text", "logprobs": [-0.1, -0.2, -0.3]},
        ])
        assert score_sequence("ctx", "plan text", scorer) == pytest.approx(-0.6)

    def test_empty_target_scores_zero(self):
        scorer = TableTokenScorer([])
        assert score_sequence("ctx", "", scorer) == 0.0

    def test_hand_sums_on_fixtures(self):
        table = [
            {"target": "t1", "logprobs": [-0.5]},
            {"target": "t2", "logprobs": [-0.25, -0.25]},
            {"target": "t3", "logprobs": [-1.0, -2.0, -3.0]},
            {"target": "t4", "logprobs": []},
            {"target": "t5", "logprobs": [-0.125] * 8},
        ]
        scorer = TableTokenScorer(table)
        expected = {"t1": -0.5, "t2": -0.5, "t3": -6.0, "t4": 0.0, "t5": -1.0}
        for target, want in expected.items():
            assert score_sequence("ctx", target, scorer) == pytest.approx(
                want, abs=1e-9
            )

    def test_positive_logprob_rejected(self):
        with pytest.raises(ScorerFailure):
            TableTokenScorer([{"target": "t", "logprobs": [0.1]}])

    def test_missing_entry_fails(self):
        scorer = TableTokenScorer([])
        with pytest.raises(ScorerFailure):
            scorer.token_logprobs("ctx", "unknown")

    def test_default_logprob_fallback(self):
        scorer = TableTokenScorer([], default_logprob=-0.5)
        assert scorer.token_logprobs("ctx", "three word target") == [-0.5] * 3

    def test_context_specific_entry_wins(self):
        scorer = TableTokenScorer([
            {"context": "A", "target": "t", "logprobs": [-1.0]},
            {"target": "t", "logprobs": [-2.0]},
        ])
        assert scorer.token_logprobs("A", "t") == [-1.0]
        assert scorer.token_logprobs("B", "t") == [-2.0]


class TestLosses:
    def test_query_generation_loss_signs_and_sum(self):
        record = SftRecord("query_gen", "in", "target", None, "t")
        scorer = TableTokenScorer(
            [{"target": "target", "logprobs": [-0.1, -0.2, -0.3]}]
        )
        assert query_generation_loss([record], scorer) == pytest.approx(
            0.6, abs=1e-9
        )
        assert query_generation_loss([record, record], scorer) == pytest.approx(
            1.2, abs=1e-9
        )

    def test_loss_kind_checked(self):
        record = SftRecord("correction", "in", "t", 1, "t")
        scorer = TableTokenScorer([{"target": "t", "logprobs": [-1.0]}])
        with pytest.raises(ScorerFailure):
            query_generation_loss([record], scorer)
        assert correction_loss([record], scorer) == pytest.approx(1.0)

    def test_empty_record_sets_are_zero(self):
        scorer = TableTokenScorer([])
        assert query_generation_loss([], scorer) == 0.0
        assert correction_loss([], scorer) == 0.0
        assert preference_loss([], scorer) == 0.0

    def test_stage1_is_plain_sum(self):
        assert stage1_loss(0.6, 0.4) == pytest.approx(1.0, abs=1e-12)
        assert stage1_loss(0.0, 2.5) == 2.5

    def test_preference_loss_direct_substitution(self):
        scorer = TableTokenScorer([
            {"target": "cor", "logprobs": [-1.0]},
            {"target": "err", "logprobs": [-2.5]},
        ])
        pair = PreferencePair("in", "cor", "err", 1, "t")
        assert preference_loss([pair], scorer) == pytest.approx(-1.5, abs=1e-9)

    def test_preference_loss_symmetry_zero(self):
        scorer = TableTokenScorer([{"target": "same", "logprobs": [-1.0]}])
        pair = PreferencePair("in", "same", "same", 1, "t")
        assert preference_loss([pair], scorer) == 0.0

    def test_preference_loss_three_pair_hand_total(self):
        scorer = TableTokenScorer([
            {"target": "cor", "logprobs": [-1.0]},
            {"target": "e1", "logprobs": [-4.0]},
            {"target": "e2", "logprobs": [-2.0]},
            {"target": "e3", "logprobs": [-1.5]},
        ])
        pairs = [
            PreferencePair("in", "cor", "e1", 1, "t"),
            PreferencePair("in", "cor", "e2", 2, "t"),
            PreferencePair("in", "cor", "e3", 3, "t"),
        ]
        # -( (-1+4) + (-1+2) + (-1+1.5) ) = -4.5
        assert preference_loss(pairs, scorer) == pytest.approx(-4.5, abs=1e-9)

    def test_preference_loss_decreases_as_preferred_improves(self):
        pair = PreferencePair("in", "cor", "err", 1, "t")
        low = TableTokenScorer([
            {"target": "cor", "logprobs": [-3.0]},
            {"target": "err", "logprobs": [-2.0]},
        ])
        high = TableTokenScorer([
            {"target": "cor", "logprobs": [-0.5]},
            {"target": "err", "logprobs": [-2.0]},
        ])
        assert preference_loss([pair], high) < preference_loss([pair], low)

    def test_losses_are_nonnegative_for_sft(self, two_round_trace):
        records = teacher_records(two_round_trace)
        scorer = TableTokenScorer([], default_logprob=-0.25)
        lq = query_generation_loss(
            [r for r in records if r.kind == "query_gen"], scorer
        )
        lc = correction_loss(
            [r for r in records if r.kind == "correction"], scorer
        )
        assert lq >= 0 and lc >= 0
        assert stage1_loss(lq, lc) == pytest.approx(lq + lc, abs=1e-12)


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_later_rounds_sit_closer_to_the_final_plan(toy_graph):
    # fixture built so each attempt is nearer the final plan than the last
    wrong_far = "query1 = subtract(set1='a', set2='b')"
    wrong_near = (
        "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
        "query2 = tally(set=output_of_query1)"
    )
    trace = make_trace(
        toy_graph,
        [wrong_far, "closer now.\n\n" + wrong_near,
         "count, not tally.\n\n" + GOOD_PLAN],
        author="student",
    )
    pairs = self_records(trace)
    final = trace.final_plan_text
    distances = [_levenshtein(final, p.dispreferred) for p in pairs]
    assert distances == sorted(distances, reverse=True)


def test_jsonl_round_trip(tmp_path, two_round_trace, toy_graph):
    records = teacher_records(two_round_trace)
    student = make_trace(
        toy_graph, [WRONG_A, "fix.\n\n" + GOOD_PLAN], author="student"
    )
    pairs = self_records(student)
    sft_path = tmp_path / "sft.jsonl"
    pref_path = tmp_path / "pref.jsonl"
    assert write_jsonl(records, str(sft_path)) == len(records)
    assert write_jsonl(pairs, str(pref_path)) == len(pairs)
    assert [r.to_dict() for r in read_jsonl(str(sft_path),
                                            SftRecord.from_dict)] == [
        r.to_dict() for r in records
    ]
    assert [p.to_dict() for p in read_jsonl(str(pref_path),
                                            PreferencePair.from_dict)] == [
        p.to_dict() for p in pairs
    ]


@pytest.fixture(scope="module")
def suite_student_traces(tmp_path_factory):
    """The bundled suite's student traces, as run_correction returns them."""
    suite = mini_suite.write_all(str(tmp_path_factory.mktemp("suite")))
    graphs = {"people.jsonl": load_table_file(suite["people_csv"]),
              "movies.jsonl": load_triples_file(suite["movies_tsv"]),
              "terms.jsonl": load_temporal_file(suite["terms_tsv"])}
    return run_questions(load_questions(suite["dataset"]), graphs.__getitem__,
                         ScriptedChatClient.from_file(suite["script_with"]),
                         PipelineConfig(sc_n=1, author="student"))


def counting_parses(monkeypatch) -> list[str]:
    parsed: list[str] = []
    parse = dsl.parse_plan
    monkeypatch.setattr(dsl, "parse_plan",
                        lambda text: parsed.append(text) or parse(text))
    return parsed


def round_trip(tmp_path, traces):
    path = str(tmp_path / "traces.jsonl")
    write_jsonl(traces, path)
    return read_jsonl(path, CorrectionTrace.from_dict)


class TestSelfRecordsReuseTheVoteParses:
    def test_suite_pairs_equal_those_of_a_trace_read_back(
            self, tmp_path, monkeypatch, suite_student_traces):
        traces = suite_student_traces
        read_back = round_trip(tmp_path, traces)
        assert [t.to_dict() for t in read_back] == [t.to_dict()
                                                    for t in traces]
        assert all(t.parses for t in traces)
        assert not any(t.parses for t in read_back)
        parsed = counting_parses(monkeypatch)
        in_memory = [p.to_dict() for t in traces for p in self_records(t)]
        assert parsed == []  # every compared text was parsed by assess
        from_file = [p.to_dict() for t in read_back for p in self_records(t)]
        assert from_file == in_memory
        assert len(in_memory) == len(mini_suite.ERROR_QUESTION_IDS)
        assert parsed  # a trace read from a file parses again

    def test_an_attempt_that_differs_only_in_spacing_makes_no_pair(
            self, tmp_path, monkeypatch, toy_graph):
        trace = make_trace(toy_graph, [WRONG_A, "fix.\n\n" + GOOD_PLAN],
                           author="student")
        spaced = "  " + GOOD_PLAN.replace("=", " =  ").replace(",", " ,")
        trace = dataclasses.replace(
            trace, initial_plan_text=spaced,
            parses={spaced: dsl.parse_plan(spaced),
                    GOOD_PLAN: dsl.parse_plan(GOOD_PLAN)})
        (read_back,) = round_trip(tmp_path, [trace])
        parsed = counting_parses(monkeypatch)
        assert self_records(trace) == []
        assert parsed == []
        assert self_records(read_back) == []
        assert sorted(parsed) == sorted([spaced, GOOD_PLAN])
