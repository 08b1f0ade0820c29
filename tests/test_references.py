"""Faster checks of plans and replies against the versions they replaced.

Each reference below is the earlier, plainer version of a function that
was rewritten to do less work: validate_plan (every check on every step),
extract_plan (a fence pass over every reply) and normalize_answer_value (a
regex pass over every text). The properties check that each rewrite
returns, or raises, exactly what its reference does.
"""

from __future__ import annotations

import copy
import math
import random
import re
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa.correction import extract_plan, normalize_answer_value
from cgqa.dsl import (
    DEFAULT_REGISTRY,
    Arg,
    FunctionSignature,
    QueryPlan,
    QueryStep,
    StepRef,
    parse_plan,
    render_plan,
    validate_plan,
)
from cgqa.errors import ErrorKind, QueryError

from genplans import BAD_FUNCTIONS, BAD_PARAMS, CMPS, gen_plan

# ------------------------------------------------------------ references


def _ref_validate_plan(plan: QueryPlan) -> QueryPlan:
    for step in plan.steps:
        sig = DEFAULT_REGISTRY.entries.get(step.function)
        if sig is None:
            raise QueryError(
                ErrorKind.UNDEFINED_FUNCTION,
                function=step.function,
                registry=DEFAULT_REGISTRY.names(),
            )
        for arg in step.args:
            if arg.name not in sig.params:
                raise QueryError(
                    ErrorKind.ILLEGAL_PARAMETER,
                    function=step.function,
                    parameter=arg.name,
                    allowed=list(sig.params),
                )
        _ref_check_combination(step, sig)
        for arg in step.args:
            if arg.comparator != "=" and arg.name not in sig.comparable:
                raise QueryError(
                    ErrorKind.ILLEGAL_COMPARATOR,
                    function=step.function,
                    parameter=arg.name,
                    comparator=arg.comparator,
                )
        for arg in step.args:
            if isinstance(arg.value, StepRef) and not (
                1 <= arg.value.index < step.index
            ):
                raise QueryError(
                    ErrorKind.NON_STANDARD_EXPRESSION,
                    text=f"output_of_query{arg.value.index}",
                    what="step reference",
                )
    return plan


def _ref_check_combination(step: QueryStep, sig: FunctionSignature) -> None:
    names = [a.name for a in step.args]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise QueryError(
            ErrorKind.INCONSISTENT_PARAMETERS,
            function=step.function,
            parameters=dupes,
            reason="duplicate",
        )
    missing = sorted(sig.required - set(names))
    if missing:
        raise QueryError(
            ErrorKind.INCONSISTENT_PARAMETERS,
            function=step.function,
            parameters=missing,
            reason="missing",
        )
    if len(names) < sig.min_bound:
        raise QueryError(
            ErrorKind.INCONSISTENT_PARAMETERS,
            function=step.function,
            parameters=[],
            reason="unbound",
        )
    if sig.exclusive_assign:
        assigned = {a.name for a in step.args if a.comparator == "="}
        if all(p in assigned for p in sig.exclusive_assign):
            raise QueryError(
                ErrorKind.INCONSISTENT_PARAMETERS,
                function=step.function,
                parameters=list(sig.exclusive_assign),
                reason="simultaneous",
            )


_STEP_LINE_RE = re.compile(r"^\s*query\d+\s*=")


def _ref_extract_plan(completion: str) -> tuple[str, str | None]:
    lines = [
        ln for ln in completion.splitlines() if not ln.strip().startswith("```")
    ]
    start = None
    for i, ln in enumerate(lines):
        if _STEP_LINE_RE.match(ln):
            start = i
            break
    if start is None:
        return completion.strip(), None
    end = start
    while end < len(lines) and _STEP_LINE_RE.match(lines[end]):
        end += 1
    analysis = "\n".join(lines[:start]).strip()
    plan = "\n".join(ln.strip() for ln in lines[start:end])
    return analysis, plan


_PUNCT_RE = re.compile(r"[^\w\s.-]|_")
_NUMERIC_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _ref_normalize_answer_value(value: Any) -> tuple[str, Any]:
    if isinstance(value, bool):
        return ("t", str(value).casefold())
    if isinstance(value, (int, float)):
        return ("n", float(value))
    text = str(value).strip()
    if _NUMERIC_RE.match(text) and math.isfinite(number := float(text)):
        return ("n", number)
    cleaned = _PUNCT_RE.sub(" ", text.casefold())
    return ("t", " ".join(cleaned.split()))


def _outcome(fn, *args) -> tuple:
    """What fn returns, or the type, kind, detail and message it raises."""
    try:
        return ("returned", fn(*args))
    except QueryError as err:
        return ("raised", err.kind, err.detail, err.message)
    except Exception as exc:
        return ("raised", type(exc), str(exc))


# ------------------------------------------------------------ validation


_FUNCTIONS = BAD_FUNCTIONS + DEFAULT_REGISTRY.names()
_PARAMS = BAD_PARAMS + sorted({p for sig in DEFAULT_REGISTRY.entries.values()
                               for p in sig.params})


@st.composite
def _mutated_plans(draw) -> QueryPlan:
    """A genplans plan with up to three of its steps' shapes or references
    broken: unknown functions; illegal, duplicate, missing, excess and
    jointly bound parameters; bad comparators; and references to the step
    itself, a later step or none."""
    plan = gen_plan(random.Random(draw(st.integers(0, 2**32 - 1))), 4)
    steps = list(plan.steps)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(steps) - 1))
        index, function, args = steps[i]
        args = list(args)
        how = draw(st.sampled_from(["function", "bind", "add", "rename",
                                    "drop", "repeat", "comparator",
                                    "reference"]))
        j = draw(st.integers(0, max(len(args) - 1, 0)))
        if how == "function":
            function = draw(st.sampled_from(_FUNCTIONS))
        elif how == "bind":  # its exclusive three and key, all by "="
            function, args = "get_information", draw(st.permutations([
                Arg(name, "=", "x") for name in ("head_entity", "relation",
                                                 "tail_entity", "key")]))
        elif how == "add":
            args.insert(draw(st.integers(0, len(args))), Arg(
                draw(st.sampled_from(_PARAMS)), draw(st.sampled_from(CMPS)),
                "x"))
        elif not args:
            continue
        elif how == "rename":
            args[j] = args[j]._replace(name=draw(st.sampled_from(_PARAMS)))
        elif how == "drop":
            del args[j]
        elif how == "repeat":
            args.insert(draw(st.integers(0, len(args))), args[j])
        elif how == "comparator":
            args[j] = args[j]._replace(comparator=draw(st.sampled_from(CMPS)))
        else:
            ref = StepRef(draw(st.integers(-1, len(steps) + 1)))
            args[j] = args[j]._replace(value=ref)
        steps[i] = QueryStep(index, function, tuple(args))
    return QueryPlan(steps=steps)


@settings(max_examples=300, deadline=None)
@given(plan=_mutated_plans())
def test_validation_raises_what_the_reference_raises(plan):
    assert _outcome(validate_plan, plan) == _outcome(_ref_validate_plan, plan)
    # once more, now that the memo holds every shape of the plan
    assert _outcome(validate_plan, plan) == _outcome(_ref_validate_plan, plan)


@pytest.mark.parametrize("text, key", [
    ("query1 = subtract(set='a')", "registry"),
    ("query1 = count(sets='a')", "allowed"),
    ("query1 = count(set='a', set='b')", "parameters"),
    ("query1 = keep(set='a')", "parameters"),
    ("query1 = get_information()", "parameters"),
])
def test_a_raised_errors_detail_shares_nothing_with_the_next(text, key):
    def raised() -> QueryError:
        with pytest.raises(QueryError) as info:
            validate_plan(parse_plan(text))
        return info.value

    first = raised()
    want = (first.kind, copy.deepcopy(first.detail), first.message)
    first.detail[key].append("changed")
    first.detail["function"] = "changed"
    second = raised()
    assert (second.kind, second.detail, second.message) == want
    assert second.detail[key] is not first.detail[key]


def test_plan_nodes_are_hashable_named_tuples():
    text = ("query1 = get_information(relation='age', tail_entity>=3)\n"
            "query2 = count(set=output_of_query1)")
    plan, again = parse_plan(text), parse_plan(text)
    assert plan == again and plan.steps[0] is not again.steps[0]
    assert len({*plan.steps, *again.steps}) == 2
    ref = plan.steps[1].args[0].value
    assert isinstance(ref, StepRef) and not isinstance(1, StepRef)
    assert ref == StepRef(1) == (1,)  # equal to the tuple of its fields
    assert plan.steps[0].args[1] == ("tail_entity", ">=", 3)
    with pytest.raises(AttributeError):
        ref.index = 2
    assert render_plan(parse_plan(text)) == text


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_rendered_plan_parses_back_to_equal_nodes(seed):
    plan = gen_plan(random.Random(seed), 4)
    assert parse_plan(render_plan(plan)) == plan
    assert render_plan(parse_plan(render_plan(plan))) == render_plan(plan)


# ------------------------------------------------------------ replies


# every separator str.splitlines breaks on
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]
_REPLY_LINES = st.sampled_from([
    "query1 = count(set=output_of_query1)", "  query2 = get_information("
    "relation='x')  ", "query3=", "queryX = 1", "```", "```python", "  ``` ",
    "see ```this```", "`` `", "Analysis: step 2 is wrong.", "", "  ",
]) | st.text(max_size=6)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(_REPLY_LINES, st.sampled_from(_BREAKS)),
                      max_size=8),
       last=_REPLY_LINES)
def test_a_reply_splits_as_the_reference_splits_it(lines, last):
    completion = "".join(line + br for line, br in lines) + last
    assert extract_plan(completion) == _ref_extract_plan(completion)


_ANY_TEXT = st.text() | st.text(st.characters(exclude_categories=()),
                                max_size=4)  # lone surrogates too


_ANSWERS = st.sampled_from(
    ["İ", "İstanbul", "ß", "²", "_", "a_b", "٣", "१२", "๓", "Ⅻ", "ǅ", "ﬁ",
     " Boston ", "1", "-2.5", "x.y-z", "", " "]) | _ANY_TEXT | st.booleans(
     ) | st.integers() | st.floats()


@settings(max_examples=300, deadline=None)
@given(value=_ANSWERS)
def test_an_answer_key_is_the_reference_key(value):
    got, want = normalize_answer_value(value), _ref_normalize_answer_value(
        value)
    assert (got[0], type(got[1]), repr(got[1])) == (
        want[0], type(want[1]), repr(want[1]))


def test_no_alphanumeric_character_is_cleaned():
    """An alphanumeric text is left as it is by the reference's cleaning:
    no character that isalnum() matches _PUNCT_RE or is a space."""
    for code in range(0x110000):
        c = chr(code)
        if c.isalnum():
            assert not _PUNCT_RE.match(c) and not c.isspace(), hex(code)
