"""Error taxonomy: classification of the eight canonical failures and the
byte-exact feedback messages they render."""

from __future__ import annotations

from pathlib import Path

import pytest

from cgqa.correction import assess
from cgqa.dsl import parse_plan, validate_plan
from cgqa.errors import (
    EXECUTION_KINDS,
    PARSING_KINDS,
    ErrorKind,
    QueryError,
    classify_fault,
    render_message,
)
from cgqa.graph import ingest_table

GOLDEN_DIR = Path(__file__).parent / "golden" / "messages"


def golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")[:-1]


def classify(plan_text: str, cg) -> QueryError:
    outcome = assess(plan_text, cg)
    assert outcome.error is not None, f"expected an error for: {plan_text}"
    return outcome.error


def canonical_cases(toy_graph, mixed_graph):
    return [
        (
            "query1 = subtract(set1='a', set2='b')",
            toy_graph,
            ErrorKind.UNDEFINED_FUNCTION,
        ),
        (
            "query1 = get_information(relation='Age')\n"
            "query2 = max(set=output_of_query1, key='Age')",
            toy_graph,
            ErrorKind.ILLEGAL_PARAMETER,
        ),
        (
            "query1 = get_information(head_entity='Alice', relation='Colleges',"
            " tail_entity='Utah')",
            toy_graph,
            ErrorKind.INCONSISTENT_PARAMETERS,
        ),
        (
            "query1 = get_information(tail_entity='Utah', relation='Colleges',"
            " head_entity<'Bob')",
            toy_graph,
            ErrorKind.ILLEGAL_COMPARATOR,
        ),
        (
            "query1 = sum(set=set_negation(set=output_of_query1))",
            toy_graph,
            ErrorKind.NON_ATOMIC_OPERATION,
        ),
        (
            "query1 = sum(set=[output_of_query1, output_of_query2])",
            toy_graph,
            ErrorKind.NON_STANDARD_EXPRESSION,
        ),
        (
            "query1 = get_information(relation='Age')\n"
            "query2 = sum(set=output_of_query1)",
            mixed_graph,
            ErrorKind.RUNTIME_EXCEPTION,
        ),
        (
            "query1 = get_information(relation='Hometown', tail_entity='Utah')\n"
            "query2 = count(set=output_of_query1)",
            toy_graph,
            ErrorKind.EMPTY_MID_STEP_RESULT,
        ),
    ]


@pytest.fixture
def mixed_graph():
    return ingest_table([["Alice", "20"], ["Bob", "x"]], ["Name", "Age"])


def test_all_eight_classified_and_rendered(toy_graph, mixed_graph):
    cases = canonical_cases(toy_graph, mixed_graph)
    assert len(cases) == 8
    for plan_text, cg, kind in cases:
        err = classify(plan_text, cg)
        assert err.kind is kind, f"{plan_text} -> {err.kind}"
        assert err.message == golden(kind.value)


def test_kind_partition_matches_categories():
    assert PARSING_KINDS | EXECUTION_KINDS == frozenset(ErrorKind)
    assert not PARSING_KINDS & EXECUTION_KINDS
    assert len(PARSING_KINDS) == 6
    assert len(EXECUTION_KINDS) == 2
    for kind in ErrorKind:
        expected = "parsing" if kind in PARSING_KINDS else "execution"
        assert kind.category == expected


def test_rendering_is_pure(toy_graph, mixed_graph):
    for plan_text, cg, _ in canonical_cases(toy_graph, mixed_graph):
        err = classify(plan_text, cg)
        assert render_message(err) == render_message(err) == err.message


def test_json_round_trip(toy_graph, mixed_graph):
    for plan_text, cg, _ in canonical_cases(toy_graph, mixed_graph):
        err = classify(plan_text, cg)
        back = QueryError.from_dict(err.to_dict())
        assert back.kind is err.kind
        assert back.detail == err.detail
        assert back.message == err.message
        assert err.to_dict()["category"] == err.category


def test_classify_fault_wraps_text():
    err = classify_fault("sum", TypeError("boom"))
    assert err.kind is ErrorKind.RUNTIME_EXCEPTION
    assert "boom" in err.message
    assert "sum" in err.message


def test_inconsistent_parameter_variants_render():
    missing = QueryError(
        ErrorKind.INCONSISTENT_PARAMETERS,
        function="count",
        parameters=["set"],
        reason="missing",
    )
    assert "required parameters ['set'] are missing" in missing.message
    dupe = QueryError(
        ErrorKind.INCONSISTENT_PARAMETERS,
        function="count",
        parameters=["set"],
        reason="duplicate",
    )
    assert "more than once" in dupe.message
    unbound = QueryError(
        ErrorKind.INCONSISTENT_PARAMETERS,
        function="get_information",
        parameters=[],
        reason="unbound",
    )
    assert "at least one parameter" in unbound.message


def test_parse_and_validate_raise_query_error_only():
    bad_texts = [
        "",
        "what is this",
        "query1 = ",
        "query2 = count(set=output_of_query1)",
        "query1 = count(set=count(set=output_of_query1))",
        "query1 = count(set=[a, b])",
        "query1 = count(set='x', set='y')",
        "query1 = count()",
        "query1 = get_information()",
        "query1 = count(set=output_of_query9)",
    ]
    for text in bad_texts:
        with pytest.raises(QueryError) as exc_info:
            validate_plan(parse_plan(text))
        assert exc_info.value.kind in PARSING_KINDS


@pytest.mark.parametrize("data, want", [
    ({"kind": "non_standard_expression", "detail": {}},
     "field 'detail' has no key 'text'"),
    ({"kind": "undefined_function",
      "detail": {"function": "f", "registry": 5}},
     "field 'detail' key 'registry' must be an array, not an integer"),
    ({"kind": "empty_mid_step_result", "detail": {"step": [1]}},
     "field 'detail' key 'step' must be an integer, not an array"),
], ids=["missing_text", "registry_number", "step_array"])
def test_from_dict_names_the_bad_detail_key(data, want):
    with pytest.raises(TypeError) as exc_info:
        QueryError.from_dict(data)
    assert str(exc_info.value) == want
