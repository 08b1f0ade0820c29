"""Executor semantics: projections, aggregates, set algebra, empty handling,
and agreement with the brute-force reference evaluator."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgqa.executor as executor_module
import cgqa.graph as graph_module
from cgqa.dsl import Arg, QueryStep, StepRef, parse_plan, validate_plan
from cgqa.errors import ErrorKind, QueryError
from cgqa.executor import (ENTITY_SET, VALUE_SET, StepResult, execute_plan,
                           execute_step, sort_values)
from cgqa.errors import classify_fault
from cgqa.graph import (
    ConditionGraph,
    Edge,
    KindMismatchError,
    ValueSet,
    compare_values,
    dump_graph,
    ingest_table,
    ingest_triples,
    key_map,
    load_graph,
    normalize,
    value_key,
    value_text,
)

from genplans import gen_plan
from oracle import (
    gen_lookup_plan,
    gen_set_op_plan,
    random_case,
    random_graph,
    random_large_graph,
    run_reference,
    summarize_outcome,
)
from test_graph import _iso, _temporal_edges


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

    @pytest.mark.parametrize("fn", ["sum", "mean"])
    @pytest.mark.parametrize("tails", [["1e308", "1.5e308"], ["inf", "-inf"]])
    def test_a_result_that_is_not_finite_is_runtime_fault(self, fn, tails):
        # JSON has no Infinity or NaN: a sum that overflows, or a sum or mean
        # over infinite tails (a graph built in memory), is no answer
        cg = ConditionGraph(Edge(f"p{i}", "mass", float(t), "numeric")
                            for i, t in enumerate(tails))
        outcome = run("query1 = get_information(relation='mass')\n"
                      f"query2 = {fn}(set=output_of_query1)", cg)
        assert outcome.error.kind is ErrorKind.RUNTIME_EXCEPTION
        assert outcome.error.message == (
            f"Exception from executor in function '{fn}': the result is "
            "not a finite number")
        assert len(outcome.per_step) == 1 and outcome.answer is None

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

    @pytest.mark.parametrize("tail", ["0.00001", "0.5"])
    def test_keep_reaches_an_entity_labelled_by_a_float(self, tail):
        # The entity's label is the float's text, as value_text prints it.
        cg = ingest_triples([("a", "r", tail), (tail, "color", "red")])
        got = answer(
            "query1 = get_information(head_entity='a', relation='r')\n"
            "query2 = keep(set=output_of_query1, key='color', value='red')",
            cg)
        assert got == {float(tail)}

    @pytest.mark.parametrize("key, condition", [("Hometown", "='Texas'"),
                                                ("Age", "<30")])
    def test_keep_without_qualifiers_builds_no_qualifier_table(
            self, key, condition):
        cg = ingest_table([["Alice", "Utah", "20", "Texas"],
                           ["Bob", "Utah", "35", "Boston"]],
                          ["Name", "Colleges", "Age", "Hometown"])
        got = answer(
            "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
            f"query2 = keep(set=output_of_query1, key='{key}', value{condition})",
            cg)
        assert got == {"Alice"}
        assert {field for field, _ in cg._edge_keys} <= {
            "head", "relation", "tail"}

    def test_keep_builds_qualifier_values_once_a_qualifier_key_matches(
            self, terms_graph):
        plan = ("query1 = get_information(relation='president', key='time', "
                "value>=1996)\n"
                "query2 = keep(set=output_of_query1, key='{}', value{})")
        assert answer(plan.format("president", "='Chirac'"),
                      terms_graph) == {"France"}
        assert ("qvalue", "=") not in terms_graph._edge_keys
        assert answer(plan.format("time", "='2004'"), terms_graph) == {"USA"}
        assert ("qvalue", "=") in terms_graph._edge_keys


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

    @given(st.lists(st.integers(-3, 3) | st.floats(-3, 3) | st.booleans()
                    | st.sampled_from(["a", "A", " a", "b", "B ", "ß", "SS",
                                       "ss", "10", "2"]) | st.text(max_size=3),
                    max_size=12))
    def test_sort_values_is_numbers_by_value_then_text_by_label(self, values):
        # sorted is stable, so ties keep their input order; repr tells
        # 1, 1.0 and True (and 0.0 and -0.0) apart
        numbers = sorted((v for v in values if not isinstance(v, str)),
                         key=float)
        texts = sorted((v for v in values if isinstance(v, str)),
                       key=normalize)
        assert list(map(repr, sort_values(values))) == list(
            map(repr, numbers + texts))

    @given(st.lists(st.integers(-3, 3) | st.floats(-3, 3) | st.booleans()
                    | st.sampled_from(["a", "A", " a", "b", "B ", "ß", "SS",
                                       "ss", "10", "2"]) | st.text(max_size=3),
                    max_size=12))
    def test_a_value_set_sorts_by_its_held_keys(self, values):
        held = ValueSet(key_map(values))
        assert held == frozenset(key_map(values).values())
        assert list(map(repr, sort_values(held))) == list(
            map(repr, sort_values(list(held))))

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


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_reference_agreement_on_labels_that_share_a_key(seed):
    # "h1", "H1" and "h1 " share one key, as do "austin", "Austin",
    # " AUSTIN " and "austin ": a projection keeps the first surface form in
    # edge order, a set operation set1's, as the oracle does
    rng = random.Random(seed)
    cg, tuples = random_graph(rng, variants=True)
    plan = validate_plan(rng.choice([gen_plan, gen_set_op_plan])(rng))
    got = summarize_outcome(execute_plan(plan, cg))
    want = run_reference(plan, tuples)
    assert got == want, f"\nplan:\n{plan}\ngot:  {got}\nwant: {want}"


def test_steps_read_the_keys_the_graph_and_earlier_steps_hold(monkeypatch):
    # Once a graph's key tables are built, projecting, combining, negating,
    # filtering and encoding step results computes no value_key. A literal
    # under "=" keys itself once (_eq_key), so only relations bind one here.
    cg, _ = random_large_graph(random.Random(31), 3000)
    plan = validate_plan(parse_plan(
        "query1 = get_information(relation='age', tail_entity>40)\n"
        "query2 = get_information(relation='team')\n"
        "query3 = set_union(set1=output_of_query1, set2=output_of_query2)\n"
        "query4 = set_intersection(set1=output_of_query3, "
        "set2=output_of_query1)\n"
        "query5 = set_difference(set1=output_of_query3, "
        "set2=output_of_query4)\n"
        "query6 = set_negation(set=output_of_query5)\n"
        "query7 = keep(set=output_of_query6, key='score', value>25)\n"
        "query8 = get_information(head_entity=output_of_query7, "
        "relation='team')\n"
        "query9 = get_information(tail_entity=output_of_query8)\n"
        "query10 = get_information(head_entity=output_of_query7, "
        "tail_entity=output_of_query9)"))
    want = execute_plan(plan, cg).to_dict()  # builds the key tables
    assert want["status"] == "success" and all(
        step["values"] for step in want["per_step"])
    calls = []

    def counted(value):
        calls.append(value)
        return value_key(value)
    for module in (graph_module, executor_module):
        if hasattr(module, "value_key"):
            monkeypatch.setattr(module, "value_key", counted)
    assert execute_plan(plan, cg).to_dict() == want
    assert calls == []


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


def _first_match_keep(cg, entities, key, bound, cmp):
    """keep by a scan: an entity stays if, among its edges in edge order,
    the first whose relation or qualifier key is key also matches bound."""
    def match(value):
        if isinstance(bound, frozenset):
            if cmp != "=":
                raise ValueError(f"comparison symbol '{cmp}' cannot be "
                                 "applied to a step result")
            return value_key(value) in {value_key(v) for v in bound}
        return compare_values(value, bound, cmp)

    by_head: dict = {}
    for edge in cg.edges:
        by_head.setdefault(normalize(edge.head), []).append(edge)
    kept = []
    for entity in sort_values(entities):
        for edge in by_head.get(normalize(entity), []):
            q = edge.qualifier
            if (normalize(edge.relation) == normalize(key) and match(edge.tail)
                    or q and normalize(q[0]) == normalize(key)
                    and match(q[1])):
                kept.append(entity)
                break
    return sorted(kept)


def test_keep_equals_a_first_match_scan_on_a_temporal_graph():
    cg = ConditionGraph(_temporal_edges(random.Random(13), 1500))
    rng = random.Random(3)
    cmps = ["=", "<", ">", "<=", ">="]
    outcomes = set()
    for _ in range(200):
        entities = frozenset(f"org{rng.randrange(160)}"
                             for _ in range(rng.randint(1, 12)))
        key = rng.choice(["time", " TIME", "budget", "opened", "chair",
                          "source"])
        value = rng.choice([rng.randint(0, 60), rng.randint(1990, 2020),
                            str(rng.randint(1990, 2020)), _iso(rng),
                            f"p{rng.randrange(80)}", "unknown"])
        bound = (frozenset({value, _iso(rng)}) if rng.random() < 0.2
                 else value)
        cmp = rng.choice(cmps)
        env = {1: StepResult(1, ENTITY_SET, entities),
               2: StepResult(2, VALUE_SET, bound if isinstance(
                   bound, frozenset) else frozenset())}
        step = QueryStep(3, "keep", (
            Arg("set", "=", StepRef(1)), Arg("key", "=", key),
            Arg("value", cmp, StepRef(2) if isinstance(bound, frozenset)
                else bound)))
        try:
            want = ("kept", _first_match_keep(cg, entities, key, bound, cmp))
        except (KindMismatchError, ValueError) as exc:
            want = ("raised", str(exc))
        try:
            got = ("kept", sorted(execute_step(step, env, cg).values))
        except QueryError as err:
            got = ("raised", err.detail["fault"])
        assert got == want, (sorted(entities), key, bound, cmp)
        outcomes.add(got[0] if got[0] == "raised" else bool(got[1]))
    assert outcomes == {"raised", True, False}


KEEP_FAULT = """
from cgqa.dsl import parse_plan, validate_plan
from cgqa.executor import execute_plan
from cgqa.graph import ingest_triples
cg = ingest_triples(row for i in range(8) for row in (
    (f"org{i}", "kind", "company"), (f"org{i}", "chair", f"p{i}")))
plan = validate_plan(parse_plan(
    "query1 = get_information(relation='kind', tail_entity='company')\\n"
    "query2 = keep(set=output_of_query1, key='chair', value<2000)"))
print(execute_plan(plan, cg).error.message)
"""


def test_keep_reports_the_same_fault_under_any_hash_seed():
    """Every kept entity's chair is text, so each one faults; the message
    must name the same entity in every process, whatever order the step
    result's set has."""
    src = Path(__file__).resolve().parent.parent / "src"
    runs = [subprocess.Popen(
        [sys.executable, "-c", KEEP_FAULT], stdout=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": str(src),
                        "PYTHONHASHSEED": seed}) for seed in ("1", "2")]
    messages = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert messages[0] == messages[1]
    assert "'p0'" in messages[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-999, 999), min_size=3, max_size=9),
       st.integers(1, 8), st.sampled_from(["sum", "mean"]))
def test_sum_and_mean_do_not_depend_on_operand_order(tenths, split, fn):
    """Float addition is not associative, so a set's total must not follow
    the order its values were inserted in: a union reached from either side
    holds the same values and must give the same answer."""
    triples = [(f"e{i}", "q1" if i < split else "q2", str(t / 10))
               for i, t in enumerate(tenths)]
    cg = ingest_triples(triples)

    def answer(first: str, second: str):
        plan = validate_plan(parse_plan(
            "query1 = get_information(relation='q1')\n"
            "query2 = get_information(relation='q2')\n"
            f"query3 = set_union(set1=output_of_query{first}, "
            f"set2=output_of_query{second})\n"
            f"query4 = {fn}(set=output_of_query3)"))
        return execute_plan(plan, cg).to_dict()

    assert answer("1", "2") == answer("2", "1")


@pytest.mark.parametrize("label", ["7", "007", "7.0", "0.5", "2.50", "1e-05",
                                   "0.00001"])
def test_a_number_in_a_step_result_reaches_the_entity_its_numeral_labels(
        label):
    # 'a' has the number the label reads as; the entity labelled by that
    # numeral is reached by a hop and by keep as by the literal number
    cg = ingest_triples([("a", "r", label), (label, "color", "red")])
    (number,) = answer("query1 = get_information(head_entity='a', "
                       "relation='r')", cg)
    hop = answer("query1 = get_information(head_entity='a', relation='r')\n"
                 "query2 = get_information(head_entity=output_of_query1, "
                 "relation='color')", cg)
    literal = answer(f"query1 = get_information(head_entity="
                     f"{value_text(number)}, relation='color')", cg)
    kept = answer("query1 = get_information(head_entity='a', relation='r')\n"
                  "query2 = keep(set=output_of_query1, key='color', "
                  "value='red')", cg)
    assert hop == literal == {"red"}
    assert kept == {number}


def test_a_set_bound_head_matches_as_a_literal_head_does():
    # every value of the set under '=' (compare_values), as a scan tests it
    rng = random.Random(17)
    labels = ["7", "07", "7.0", "1e1", "10", "0.5", ".5", "x", "X ", "seven"]
    cg = ingest_triples((rng.choice(labels), rng.choice(["r", "s"]), str(i))
                        for i in range(300))
    values = [7, 10, 0.5, 3, "7", "07", "10.0", "x", "seven", "nope"]
    for _ in range(200):
        bound = frozenset(rng.sample(values, rng.randint(1, 4)))
        relation = rng.choice([None, "r", frozenset({"s"})])
        relations = {relation} if isinstance(relation, str) else relation
        want = [e for e in cg.edges
                if any(compare_values(e.head, v, "=") for v in bound)
                and (relations is None or e.relation in relations)]
        assert cg.lookup(head=bound, relation=relation) == want, bound
    assert cg.head_ids({7.0}) == cg.head_ids({"07", "7"}) != []
