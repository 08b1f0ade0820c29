"""Executor semantics: projections, aggregates, set algebra, empty handling,
and agreement with the brute-force reference evaluator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa.dsl import parse_plan, validate_plan
from cgqa.errors import ErrorKind
from cgqa.executor import execute_plan, sort_values
from cgqa.errors import classify_fault
from cgqa.graph import (
    KindMismatchError,
    compare_values,
    dump_graph,
    ingest_table,
    load_graph,
)

from oracle import (
    gen_lookup_plan,
    random_case,
    random_large_graph,
    run_reference,
    summarize_outcome,
)


def run(text: str, cg, strict_empty: bool = False):
    return execute_plan(validate_plan(parse_plan(text)), cg,
                        strict_empty=strict_empty)


def answer(text: str, cg):
    outcome = run(text, cg)
    assert outcome.error is None, outcome.error and outcome.error.message
    return set(outcome.answer)


class TestGetInformation:
    def test_tail_bound_projects_heads(self, toy_graph):
        got = answer(
            "query1 = get_information(relation='Colleges', tail_entity='Utah')",
            toy_graph,
        )
        assert got == {"Alice"}

    def test_head_bound_projects_tails(self, toy_graph):
        got = answer(
            "query1 = get_information(head_entity='Alice', relation='Hometown')",
            toy_graph,
        )
        assert got == {"Texas"}

    def test_relation_only_projects_column(self, toy_graph):
        got = answer("query1 = get_information(relation='Age')", toy_graph)
        assert got == {20, 25}

    def test_numeric_comparator(self, toy_graph):
        got = answer(
            "query1 = get_information(relation='Age', tail_entity<21)",
            toy_graph,
        )
        assert got == {"Alice"}

    def test_hop_through_step_ref(self, people_graph):
        got = answer(
            "query1 = get_information(relation='Hometown', tail_entity='Boston')\n"
            "query2 = get_information(head_entity=output_of_query1, "
            "relation='Age')",
            people_graph,
        )
        assert got == {25, 35}

    def test_qualifier_value_projects_heads(self, terms_graph):
        got = answer(
            "query1 = get_information(relation='president', key='time', "
            "value=1996)",
            terms_graph,
        )
        assert got == {"France", "USA"}

    def test_head_and_qualifier(self, terms_graph):
        got = answer(
            "query1 = get_information(head_entity='France', "
            "relation='president', key='time', value=2008)",
            terms_graph,
        )
        assert got == {"Sarkozy"}

    def test_temporal_range(self, terms_graph):
        got = answer(
            "query1 = get_information(relation='president', key='time', "
            "value<2000)",
            terms_graph,
        )
        assert got == {"France", "USA"}

    def test_key_only_mirrors_column_access(self, terms_graph):
        got = answer("query1 = get_information(key='time')", terms_graph)
        assert got == {"Chirac", "Sarkozy", "Clinton", "Bush"}


class TestAggregates:
    def test_aggregates_see_each_distinct_value_once(self):
        # Results are sets: two people aged 20 contribute one 20.
        cg = ingest_table([["Ann", "20"], ["Ben", "20"], ["Cy", "30"]],
                          ["Name", "Age"])
        base = "query1 = get_information(relation='Age')\n"
        assert answer(base, cg) == {20, 30}
        assert answer(base + "query2 = sum(set=output_of_query1)", cg) == {50}
        assert answer(base + "query2 = count(set=output_of_query1)",
                      cg) == {2}
        assert answer(base + "query2 = mean(set=output_of_query1)",
                      cg) == {25}

    def test_sum(self, toy_graph):
        got = answer(
            "query1 = get_information(relation='Age')\n"
            "query2 = sum(set=output_of_query1)",
            toy_graph,
        )
        assert got == {45}

    def test_mean_count_consistency(self, people_graph):
        outcome = run(
            "query1 = get_information(relation='Age')\n"
            "query2 = mean(set=output_of_query1)",
            people_graph,
        )
        (mean,) = outcome.answer
        assert mean == pytest.approx(27.5)

    def test_min_max(self, people_graph):
        assert answer(
            "query1 = get_information(relation='Age')\n"
            "query2 = max(set=output_of_query1)",
            people_graph,
        ) == {35}
        assert answer(
            "query1 = get_information(relation='Age')\n"
            "query2 = min(set=output_of_query1)",
            people_graph,
        ) == {20}

    def test_count(self, toy_graph):
        got = answer(
            "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
            "query2 = count(set=output_of_query1)",
            toy_graph,
        )
        assert got == {1}

    def test_sum_over_text_is_runtime_fault(self):
        cg = ingest_table([["Alice", "20"], ["Bob", "x"]], ["Name", "Age"])
        outcome = run(
            "query1 = get_information(relation='Age')\n"
            "query2 = sum(set=output_of_query1)",
            cg,
        )
        assert outcome.error is not None
        assert outcome.error.kind is ErrorKind.RUNTIME_EXCEPTION
        assert outcome.error.detail["function"] == "sum"
        assert "unsupported operand type(s)" in outcome.error.message

    def test_min_over_dates_chronological(self):
        cg = ingest_table(
            [["a", "1999-06-15"], ["b", "1999-01-02"]], ["K", "When"]
        )
        got = answer(
            "query1 = get_information(relation='When')\n"
            "query2 = min(set=output_of_query1)",
            cg,
        )
        assert got == {"1999-01-02"}


class TestSetOps:
    def test_intersection(self, movies_graph):
        got = answer(
            "query1 = get_information(relation='directed_by', "
            "tail_entity='Nolan')\n"
            "query2 = get_information(relation='genre', tail_entity='SciFi')\n"
            "query3 = set_intersection(set1=output_of_query1, "
            "set2=output_of_query2)",
            movies_graph,
        )
        assert got == {"Inception", "Interstellar"}

    def test_union_and_difference(self, movies_graph):
        got = answer(
            "query1 = get_information(relation='genre', tail_entity='SciFi')\n"
            "query2 = get_information(relation='genre', tail_entity='Crime')\n"
            "query3 = set_union(set1=output_of_query1, set2=output_of_query2)",
            movies_graph,
        )
        assert got == {"Inception", "Interstellar", "Heat"}
        got = answer(
            "query1 = get_information(relation='directed_by', "
            "tail_entity='Nolan')\n"
            "query2 = get_information(relation='genre', tail_entity='SciFi')\n"
            "query3 = set_difference(set1=output_of_query1, "
            "set2=output_of_query2)",
            movies_graph,
        )
        assert got == {"Memento"}

    def test_negation_within_head_universe(self, movies_graph):
        got = answer(
            "query1 = get_information(relation='directed_by', "
            "tail_entity='Nolan')\n"
            "query2 = set_negation(set=output_of_query1)",
            movies_graph,
        )
        assert got == {"Heat"}

    def test_keep_filters_by_related_value(self, people_graph):
        got = answer(
            "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
            "query2 = keep(set=output_of_query1, key='Hometown', "
            "value='Texas')",
            people_graph,
        )
        assert got == {"Alice"}

    def test_keep_on_qualifier(self, terms_graph):
        got = answer(
            "query1 = get_information(relation='president', key='time', "
            "value>=1996)\n"
            "query2 = keep(set=output_of_query1, key='time', value<2000)",
            terms_graph,
        )
        assert got == {"France", "USA"}


class TestEmptyHandling:
    def test_empty_mid_step(self, toy_graph):
        outcome = run(
            "query1 = get_information(relation='Hometown', tail_entity='Utah')\n"
            "query2 = count(set=output_of_query1)",
            toy_graph,
        )
        assert outcome.error is not None
        assert outcome.error.kind is ErrorKind.EMPTY_MID_STEP_RESULT
        assert outcome.error.detail["step"] == 1
        assert len(outcome.per_step) == 1

    def test_final_empty_is_success_by_default(self, toy_graph):
        outcome = run(
            "query1 = get_information(relation='Hometown', tail_entity='Utah')",
            toy_graph,
        )
        assert outcome.status == "success"
        assert outcome.answer == frozenset()

    def test_final_empty_flagged_in_strict_mode(self, toy_graph):
        outcome = run(
            "query1 = get_information(relation='Hometown', tail_entity='Utah')",
            toy_graph,
            strict_empty=True,
        )
        assert outcome.error is not None
        assert outcome.error.kind is ErrorKind.EMPTY_MID_STEP_RESULT


class TestOutcomeShape:
    def test_per_step_is_prefix_and_deterministic(self, people_graph):
        text = (
            "query1 = get_information(relation='Age')\n"
            "query2 = count(set=output_of_query1)"
        )
        first = run(text, people_graph).to_dict()
        second = run(text, people_graph).to_dict()
        assert first == second
        assert [s["index"] for s in first["per_step"]] == [1, 2]

    def test_json_round_trip(self, people_graph):
        from cgqa.executor import ExecutionOutcome

        outcome = run(
            "query1 = get_information(relation='Hometown', tail_entity='Utah')\n"
            "query2 = count(set=output_of_query1)",
            people_graph,
        )
        back = ExecutionOutcome.from_dict(outcome.to_dict())
        assert back.to_dict() == outcome.to_dict()

    def test_sort_values_stable(self):
        assert sort_values({"b", 2, "a", 10}) == [2, 10, "a", "b"]

    def test_success_iff_no_error_and_full_prefix(self, people_graph):
        clean = run(
            "query1 = get_information(relation='Age')\n"
            "query2 = count(set=output_of_query1)",
            people_graph,
        )
        assert clean.status == "success"
        assert clean.error is None
        assert len(clean.per_step) == 2
        broken = run(
            "query1 = get_information(relation='Nope', tail_entity='x')\n"
            "query2 = count(set=output_of_query1)",
            people_graph,
        )
        assert broken.status == "exec_error"
        assert broken.error is not None
        assert len(broken.per_step) < 2


class TestSetAlgebraLaws:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_laws_on_random_graphs(self, seed):
        rng = random.Random(seed)
        cg, _, _ = random_case(rng)
        if not cg.edges:
            return
        base = (
            "query1 = get_information(relation='age')\n"
            "query2 = get_information(relation='city')\n"
        )
        inter_ab = run(
            base + "query3 = set_intersection(set1=output_of_query1, "
                   "set2=output_of_query2)",
            cg,
        )
        inter_ba = run(
            base + "query3 = set_intersection(set1=output_of_query2, "
                   "set2=output_of_query1)",
            cg,
        )
        if inter_ab.error is None and inter_ba.error is None:
            assert inter_ab.answer == inter_ba.answer
        diff_self = run(
            base + "query3 = set_difference(set1=output_of_query1, "
                   "set2=output_of_query1)",
            cg,
        )
        if diff_self.error is None:
            assert diff_self.answer == frozenset()

    def test_double_negation_restores_head_sets(self, movies_graph):
        outcome = run(
            "query1 = get_information(relation='directed_by', "
            "tail_entity='Nolan')\n"
            "query2 = set_negation(set=output_of_query1)\n"
            "query3 = set_negation(set=output_of_query2)",
            movies_graph,
        )
        assert outcome.answer == frozenset({"Inception", "Memento",
                                            "Interstellar"})


def test_reference_agreement_quick():
    rng = random.Random(2024)
    agree = 0
    for _ in range(120):
        cg, tuples, plan = (None, None, None)
        cg, tuples, plan = random_case(rng)
        validate_plan(plan)
        got = summarize_outcome(execute_plan(plan, cg))
        want = run_reference(plan, tuples)
        assert got == want, f"\nplan:\n{plan}\ngot:  {got}\nwant: {want}"
        agree += 1
    assert agree == 120


@pytest.fixture(scope="module", params=[False, True],
                ids=["numeric-tails", "numeric-looking-text-tails"])
def large_case(request, tmp_path_factory):
    """A graph of about 3000 edges, read back from its dump; the second
    variant holds text tails such as "20" (tail_kind "text")."""
    cg, tuples = random_large_graph(random.Random(31), 3000,
                                    numeric_text=request.param)
    path = str(tmp_path_factory.mktemp("large") / "graph.jsonl")
    dump_graph(cg, path)
    loaded = load_graph(path)
    assert loaded.edges == cg.edges
    if request.param:
        assert any(e.tail == "20" and e.tail_kind == "text"
                   for e in loaded.edges)
    return loaded, tuples


def test_reference_agreement_on_large_graphs(large_case):
    cg, tuples = large_case
    rng = random.Random(4242)
    kinds = set()
    for _ in range(120):
        plan = validate_plan(gen_lookup_plan(rng))
        got = summarize_outcome(execute_plan(plan, cg))
        want = run_reference(plan, tuples)
        assert got == want, f"\nplan:\n{plan}\ngot:  {got}\nwant: {want}"
        kinds.add(got["status"] if got["error_kind"] is None
                  else got["error_kind"])
    # the plans reach answers, empty steps and trapped faults alike
    assert kinds == {"success", "empty_mid_step_result", "runtime_exception"}


def test_ordering_fault_names_the_first_edge_a_scan_reaches(large_case):
    cg, _ = large_case
    rng = random.Random(7)
    faults = 0
    for _ in range(60):
        head = f"e{rng.randrange(300)}"
        cmp = rng.choice(["<", ">", "<=", ">="])
        limit = rng.randint(0, 50)
        outcome = run(f"query1 = get_information(head_entity='{head}', "
                      f"tail_entity{cmp}{limit})", cg)
        expected = None
        for edge in cg.edges:  # the first edge of the head whose tail is text
            if edge.head != head:
                continue
            try:
                compare_values(edge.tail, limit, cmp)
            except KindMismatchError as exc:
                expected = classify_fault("get_information", exc).message
                break
        if expected is None:
            assert outcome.error is None or outcome.error.kind is not \
                ErrorKind.RUNTIME_EXCEPTION
        else:
            faults += 1
            assert outcome.error.kind is ErrorKind.RUNTIME_EXCEPTION
            assert outcome.error.message == expected
    assert faults > 10
