"""Query language: parsing, validation order, rendering round-trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa.dsl import (
    DEFAULT_REGISTRY,
    Arg,
    QueryPlan,
    QueryStep,
    StepRef,
    parse_plan,
    render_plan,
    render_value,
    split_args,
    validate_plan,
)
from cgqa.errors import ErrorKind, QueryError

from genplans import MUTATORS, gen_plan, gen_plan_text


def first_error(text: str) -> QueryError:
    with pytest.raises(QueryError) as exc_info:
        validate_plan(parse_plan(text))
    return exc_info.value


class TestParse:
    def test_two_step_plan(self):
        plan = parse_plan(
            "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
            "query2 = count(set=output_of_query1)"
        )
        assert len(plan.steps) == 2
        s1, s2 = plan.steps
        assert s1.function == "get_information"
        assert [a.name for a in s1.args] == ["relation", "tail_entity"]
        assert s2.args[0].value == StepRef(1)

    def test_nested_call_names_both_functions(self):
        err = first_error("query1 = sum(set=set_negation(set=output_of_query1))")
        assert err.kind is ErrorKind.NON_ATOMIC_OPERATION
        assert err.detail["outer"] == "sum"
        assert err.detail["inner"] == "set_negation"

    def test_bracketed_list_cites_value(self):
        err = first_error(
            "query1 = sum(set=[output_of_query1, output_of_query2])"
        )
        assert err.kind is ErrorKind.NON_STANDARD_EXPRESSION
        assert err.detail["text"] == "[output_of_query1, output_of_query2]"

    def test_noncontiguous_indices_rejected(self):
        err = first_error("query2 = count(set=output_of_query1)")
        assert err.kind is ErrorKind.NON_STANDARD_EXPRESSION

    def test_garbage_line_rejected(self):
        err = first_error("how many people are there?")
        assert err.kind is ErrorKind.NON_STANDARD_EXPRESSION

    def test_comparators_parse(self):
        plan = parse_plan(
            "query1 = get_information(relation='age', tail_entity<=30)"
        )
        arg = plan.steps[0].args[1]
        assert arg.comparator == "<="
        assert arg.value == 30

    def test_string_with_comma_stays_whole(self):
        plan = parse_plan(
            "query1 = get_information(relation='city', tail_entity='Austin, TX')"
        )
        assert plan.steps[0].args[1].value == "Austin, TX"


class TestValidate:
    def test_undefined_function(self):
        err = first_error("query1 = subtract(set1='a', set2='b')")
        assert err.kind is ErrorKind.UNDEFINED_FUNCTION
        assert err.detail["function"] == "subtract"
        assert err.detail["registry"] == DEFAULT_REGISTRY.names()

    def test_illegal_parameter(self):
        err = first_error(
            "query1 = get_information(relation='age')\n"
            "query2 = max(set=output_of_query1, key='age')"
        )
        assert err.kind is ErrorKind.ILLEGAL_PARAMETER
        assert err.detail["function"] == "max"
        assert err.detail["parameter"] == "key"

    def test_inconsistent_parameters(self):
        err = first_error(
            "query1 = get_information(head_entity='a', relation='r', "
            "tail_entity='b')"
        )
        assert err.kind is ErrorKind.INCONSISTENT_PARAMETERS
        assert err.detail["parameters"] == [
            "head_entity", "relation", "tail_entity",
        ]

    def test_comparator_binding_is_not_assignment(self):
        # all three named but head carries a comparator: the combination is
        # legal and the comparator itself is the reported problem
        err = first_error(
            "query1 = get_information(tail_entity='b', relation='r', "
            "head_entity<'a')"
        )
        assert err.kind is ErrorKind.ILLEGAL_COMPARATOR
        assert err.detail["parameter"] == "head_entity"
        assert err.detail["comparator"] == "<"

    def test_forward_reference(self):
        err = first_error(
            "query1 = get_information(relation='r')\n"
            "query2 = count(set=output_of_query2)"
        )
        assert err.kind is ErrorKind.NON_STANDARD_EXPRESSION
        assert err.detail["text"] == "output_of_query2"

    def test_parse_errors_precede_validation_errors(self):
        # line 1 calls an unknown function; line 2 has a structural fault;
        # the structural fault wins because parsing completes first
        err = first_error(
            "query1 = subtract(set1='a', set2='b')\n"
            "query2 = count(set=[output_of_query1, output_of_query1])"
        )
        assert err.kind is ErrorKind.NON_STANDARD_EXPRESSION

    def test_validation_walks_steps_in_order(self):
        err = first_error(
            "query1 = subtract(set1='a', set2='b')\n"
            "query2 = max(set=output_of_query1, key='age')"
        )
        assert err.kind is ErrorKind.UNDEFINED_FUNCTION


class TestRegistry:
    def test_default_names_frozen(self):
        assert DEFAULT_REGISTRY.names() == [
            "get_information", "min", "mean", "max", "count", "sum", "keep",
            "set_intersection", "set_union", "set_negation", "set_difference",
        ]

    def test_aggregates_accept_only_set(self):
        for fn in ("min", "mean", "max", "count", "sum"):
            assert DEFAULT_REGISTRY.entries[fn].params == ("set",)


class TestRendering:
    def test_canonical_form(self):
        text = "query1  =  get_information( relation='r',tail_entity<5 )"
        plan = parse_plan(text)
        assert render_plan(plan) == (
            "query1 = get_information(relation='r', tail_entity<5)"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip(self, seed):
        plan = gen_plan(random.Random(seed))
        text = render_plan(plan)
        assert parse_plan(text).steps == list(plan.steps)
        assert render_plan(parse_plan(text)) == text

    @settings(max_examples=500, deadline=None)
    @given(st.integers() | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.00001, 1e20, 12345678901234567890.5, -0.0]))
    def test_number_literals_round_trip(self, number):
        # The grammar reads no exponent, so a float renders positionally.
        step = QueryStep(index=1, function="keep", args=(
            Arg("set", "=", StepRef(1)), Arg("key", "=", "k"),
            Arg("value", "<", number)))
        text = render_plan(QueryPlan(steps=[step]))
        value = parse_plan(text).steps[0].args[2].value
        assert (type(value), value) == (type(number), number)
        assert render_plan(parse_plan(text)) == text

    def test_determinism(self):
        text = gen_plan_text(random.Random(42))
        assert parse_plan(text).steps == parse_plan(text).steps
        bad = "query1 = count(set=[a, b])"
        e1, e2 = first_error(bad), first_error(bad)
        assert (e1.kind, e1.detail) == (e2.kind, e2.detail)


# Characters str.splitlines breaks on: a plan holds one step per line.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
LABELS = st.text(st.sampled_from("'\\,()[]=<> \"") | st.characters(
    blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS))


def scan_args(text: str) -> list[str]:
    """split_args one character at a time: the reference it must match."""
    parts, current, depth, quoted = [], [], 0, False
    chars = iter(text)
    for ch in chars:
        if quoted and ch == "\\":
            ch += next(chars, "")
        elif ch == "'":
            quoted = not quoted
        elif not quoted and ch in "([":
            depth += 1
        elif not quoted and ch in ")]":
            depth -= 1
        if ch == "," and depth == 0 and not quoted:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


class TestQuoting:
    def test_quote_and_backslash_are_escaped(self):
        assert render_value("O'Brien") == "'O\\'Brien'"
        assert render_value("C:\\") == "'C:\\\\'"

    def test_escaped_quote_and_backslash_parse(self):
        plan = parse_plan("query1 = get_information(head_entity='O\\'Brien', "
                          "relation='a\\\\b, c')")
        assert [a.value for a in plan.steps[0].args] == ["O'Brien", "a\\b, c"]

    def test_other_backslashes_stay_literal(self):
        plan = parse_plan("query1 = get_information(relation='C:\\path')")
        assert plan.steps[0].args[0].value == "C:\\path"

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(["'", "\\", "\\'", ",", "(", ")", "[",
                                     "]", " ", "a=", "\n", "ß"])).map("".join))
    def test_split_args_matches_a_character_scan(self, text):
        assert split_args(text) == scan_args(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(LABELS, min_size=1, max_size=3), min_size=1,
                    max_size=3))
    def test_labels_round_trip(self, steps):
        params = ("head_entity", "relation", "tail_entity")
        plan = QueryPlan(steps=[
            QueryStep(index=i, function="get_information", args=tuple(
                Arg(name, "=", label) for name, label in zip(params, labels)))
            for i, labels in enumerate(steps, start=1)])
        assert parse_plan(render_plan(plan)).steps == plan.steps

    def test_line_breaks_are_escaped(self):
        assert render_value("Al\nice") == "'Al\\nice'"
        assert render_value("a\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029b") == (
            "'a\\r\\v\\f\\x1c\\x1d\\x1e\\x85\\u2028\\u2029b'")
        assert len(render_value(LINE_BREAKS).splitlines()) == 1

    def test_line_break_escapes_parse(self):
        plan = parse_plan("query1 = get_information(head_entity='Al\\nice', "
                          "relation='a\\\\nb')")
        assert [a.value for a in plan.steps[0].args] == ["Al\nice", "a\\nb"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from(LINE_BREAKS + "'\\nrvfxu12c")
                            | st.characters(blacklist_categories=("Cs",))),
                    min_size=1, max_size=3))
    def test_labels_with_line_breaks_round_trip(self, labels):
        params = ("head_entity", "relation", "tail_entity")
        plan = QueryPlan(steps=[QueryStep(index=1, function="get_information",
                                          args=tuple(Arg(name, "=", label)
                                                     for name, label
                                                     in zip(params, labels)))])
        text = render_plan(plan)
        assert len(text.splitlines()) == 1
        assert parse_plan(text).steps == plan.steps


class TestGeneratedPlans:
    def test_generated_plans_validate(self):
        rng = random.Random(1234)
        for _ in range(200):
            plan = parse_plan(gen_plan_text(rng))
            validate_plan(plan)

    @pytest.mark.parametrize("mutator,kind", MUTATORS,
                             ids=[k.value for _, k in MUTATORS])
    def test_mutators_hit_exact_kind(self, mutator, kind):
        rng = random.Random(99)
        for _ in range(50):
            plan = gen_plan(rng)
            mutated = mutator(plan, rng)
            err = first_error(mutated)
            assert err.kind is kind, f"{mutated!r} -> {err.kind}"
