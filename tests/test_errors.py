"""Error taxonomy: classification of the eight canonical failures and the
byte-exact feedback messages they render."""

from __future__ import annotations

import re
import string
from pathlib import Path

import pytest

from cgqa import errors
from cgqa.correction import assess
from cgqa.dsl import parse_plan, validate_plan
from cgqa.errors import (
    _DETAIL_TYPES,
    _LISTS,
    _TEMPLATES,
    EXECUTION_KINDS,
    ErrorKind,
    QueryError,
    classify_fault,
    render_message,
)
from cgqa.graph import ingest_table

GOLDEN_DIR = Path(__file__).parent / "golden" / "messages"
SRC_DIR = Path(__file__).parent.parent / "src" / "cgqa"


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
    assert len(EXECUTION_KINDS) == 2
    assert [k.category for k in ErrorKind].count("parsing") == 6
    for kind in ErrorKind:
        expected = "execution" if kind in EXECUTION_KINDS else "parsing"
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
        assert exc_info.value.category == "parsing"


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


# Every message text, byte for byte: one case per (kind, reason), with
# multi-name lists so each join and quoting shows.
_ALL_MESSAGES = [
    (ErrorKind.UNDEFINED_FUNCTION,
     {"function": "f", "registry": ["count", "sum"]},
     "The function 'f' is not defined! Please call one of: [count, sum]."),
    (ErrorKind.ILLEGAL_PARAMETER,
     {"function": "max", "parameter": "key", "allowed": ["set", "top"]},
     "For function 'max', parameter name 'key' is illegal, the parameter "
     "name must be in ['set', 'top']."),
    (ErrorKind.INCONSISTENT_PARAMETERS,
     {"function": "keep", "parameters": ["a", "b"], "reason": "missing"},
     "For function 'keep', the parameter combination is incomplete: "
     "required parameters ['a', 'b'] are missing."),
    (ErrorKind.INCONSISTENT_PARAMETERS,
     {"function": "count", "parameters": ["set"], "reason": "duplicate"},
     "For function 'count', it is not allowed to pass the parameters "
     "['set'] more than once."),
    (ErrorKind.INCONSISTENT_PARAMETERS,
     {"function": "get_information", "parameters": [], "reason": "unbound"},
     "For function 'get_information', at least one parameter must be given."),
    (ErrorKind.INCONSISTENT_PARAMETERS,
     {"function": "get_information", "parameters": ["tail_entity", "value"],
      "reason": "simultaneous"},
     "For function 'get_information', it is not allowed to assign values "
     "to parameters ['tail_entity', 'value'] at the same time."),
    (ErrorKind.ILLEGAL_COMPARATOR,
     {"function": "keep", "comparator": ">=", "parameter": "relation"},
     "In function 'keep', comparison symbol '>=' for 'relation' is illegal, "
     "and non-equal comparators are only allowed for parameters "
     "'tail_entity' and 'value'."),
    (ErrorKind.NON_ATOMIC_OPERATION,
     {"outer": "count", "inner": "keep"},
     "The query is not an atomic operation: functions 'count' and 'keep' "
     "are nested. Please make sure that each step is atomic."),
    (ErrorKind.NON_STANDARD_EXPRESSION,
     {"text": "{x}"},
     "Parsing the passed parameter value '{x}' failed. Please ensure that "
     "the format of the query is correct"),
    (ErrorKind.RUNTIME_EXCEPTION,
     {"function": "sum", "fault": "bad {0} operand"},
     "Exception from executor in function 'sum': bad {0} operand"),
    (ErrorKind.EMPTY_MID_STEP_RESULT,
     {"step": 12},
     "For query12, the execution result=set(), that is output_of_query12 is "
     "empty, which may affect subsequent query execution and final result. "
     "Please verify the correctness of entity or relation."),
]


@pytest.mark.parametrize("kind, detail, want", _ALL_MESSAGES,
                         ids=[f"{k.value}-{d.get('reason', '')}"
                              for k, d, _ in _ALL_MESSAGES])
def test_every_message_is_pinned(kind, detail, want):
    err = QueryError(kind, **detail)
    assert err.message == render_message(err) == str(err) == want
    assert QueryError.from_dict(err.to_dict()).message == want


@pytest.mark.parametrize("what", [
    "query", "query step", "step reference", "correction reply",
])
def test_every_what_is_pinned(what):
    err = QueryError(ErrorKind.NON_STANDARD_EXPRESSION, text="x y", what=what)
    assert err.message == (f"Parsing the {what} 'x y' failed. Please ensure "
                           "that the format of the query is correct")


def test_unknown_reason_renders_the_simultaneous_text():
    err = QueryError(ErrorKind.INCONSISTENT_PARAMETERS, function="keep",
                     parameters=["a"], reason="sideways")
    assert err.message == ("For function 'keep', it is not allowed to assign "
                           "values to parameters ['a'] at the same time.")


def _one_key_short():
    for kind, detail, _ in _ALL_MESSAGES:
        for key in detail:
            if key != "reason":
                short = {k: v for k, v in detail.items() if k != key}
                yield pytest.param(kind, short, key,
                                   id=f"{kind.value}-{detail.get('reason', '')}"
                                      f"-{key}")


@pytest.mark.parametrize("kind, detail, key", _one_key_short())
def test_from_dict_names_the_one_missing_key(kind, detail, key):
    # "unbound" shows no parameters, yet its detail must still carry them.
    with pytest.raises(TypeError) as exc_info:
        QueryError.from_dict({"kind": kind.value, "detail": detail})
    assert str(exc_info.value) == f"field 'detail' has no key '{key}'"


def test_the_template_table_covers_every_kind_and_reason():
    reasons = {reason for path in SRC_DIR.glob("*.py")
               for reason in re.findall(r'reason="(\w+)"', path.read_text())}
    assert reasons == {"missing", "duplicate", "unbound", "simultaneous"}
    assert set(_TEMPLATES) == reasons | (
        set(ErrorKind) - {ErrorKind.INCONSISTENT_PARAMETERS})


def test_from_dict_checks_exactly_the_keys_the_messages_read():
    read = {field for template in _TEMPLATES.values()
            for _, field, _, _ in string.Formatter().parse(template) if field}
    assert {name for name, _ in _LISTS.values()} <= read
    # "reason" picks an inconsistent-parameters template; templates read
    # every other key.
    assert read | {"reason"} == set(_DETAIL_TYPES)


def test_a_stored_error_keeps_its_rendered_message(toy_graph, monkeypatch):
    calls = []
    monkeypatch.setattr(errors, "render_message",
                        lambda err, render=render_message: calls.append(
                            err.kind) or render(err))
    err = assess("query1 = find_everything(head_entity='Alice')",
                 toy_graph).error
    assert calls == [ErrorKind.UNDEFINED_FUNCTION]  # rendered once
    assert err.kind is ErrorKind.UNDEFINED_FUNCTION
    assert err.message == render_message(err)
    assert (err.__traceback__, err.__cause__, err.__context__) == (
        None, None, None)
    copy = err.detached()
    assert (copy.kind, copy.detail, copy.args) == (err.kind, err.detail,
                                                   err.args)
    assert copy.detail is not err.detail
