"""Query language: parsing, validation order, rendering round-trips."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa import dsl
from cgqa.dsl import (
    DEFAULT_REGISTRY,
    Arg,
    QueryPlan,
    QueryStep,
    StepRef,
    parse_plan,
    render_plan,
    render_value,
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

    @pytest.mark.parametrize("numeral", ["9" * 5000, "9" * 400 + ".5",
                                         "-" + "9" * 400],
                             ids=["5000_digits", "fraction", "negative"])
    def test_a_numeral_no_float_holds_stays_text(self, numeral):
        # as infer_scalar keeps it; the plan renders and parses back
        plan = parse_plan(f"query1 = get_information(relation='r', "
                          f"tail_entity<{numeral})")
        assert plan.steps[0].args[1] == Arg("tail_entity", "<", numeral)
        assert parse_plan(render_plan(plan)).steps == plan.steps

    def test_a_numeral_a_float_holds_is_a_number(self):
        plan = parse_plan("query1 = get_information(tail_entity=1"
                          + "0" * 300 + ", value=-2.5)")
        assert [a.value for a in plan.steps[0].args] == [10 ** 300, -2.5]
        assert type(plan.steps[0].args[0].value) is int

    @pytest.mark.parametrize("zero, seven", [("0", "7"),
                                             ("\u0660", "\u0667")])
    def test_a_numeral_past_the_int_digit_limit_is_its_number(self, zero,
                                                             seven):
        plan = parse_plan(f"query1 = get_information(relation='r', "
                          f"tail_entity>-{zero * 5000}{seven}, "
                          f"value={zero * 5000}.5)")
        assert [a.value for a in plan.steps[0].args[1:]] == [-7, 0.5]
        assert type(plan.steps[0].args[1].value) is int

    def test_a_step_number_past_the_int_digit_limit_is_read(self):
        # leading zeros name the step; digits no float holds name none
        plan = parse_plan(f"query{'0' * 5000}1 = count(set="
                          f"output_of_query{'0' * 5000}1)")
        assert plan.steps[0].index == 1
        assert plan.steps[0].args[0].value == StepRef(1)
        err = first_error(f"query{'1' * 5000} = count(set='x')")
        assert (err.kind, err.detail["what"]) == (
            ErrorKind.NON_STANDARD_EXPRESSION, "query step")
        ref = "output_of_query" + "1" * 5000
        err = first_error(f"query1 = count(set={ref})")
        assert (err.kind, err.detail["text"], err.detail["what"]) == (
            ErrorKind.NON_STANDARD_EXPRESSION, ref, "step reference")

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
    """Split an argument list on commas outside quotes and brackets, one
    character at a time, as the parser before the one-pass scanner did."""
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


# The parser before arguments were scanned in one pass, kept as the
# reference the scanner must agree with: every argument list is split by
# scan_args and each argument is then matched part by part.
_OLD_STEP_RE = re.compile(
    r"^query(\d+)\s*=\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$")
_OLD_ARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|=|<|>)\s*(.*)$",
                         re.S)
_OLD_REF_RE = re.compile(r"^output_of_query(\d+)$")
_OLD_CALL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\(.*\)$", re.S)
_OLD_NUM_RE = re.compile(r"^-?\d+(\.\d+)?$")
_OLD_STR_RE = re.compile(r"^'([^'\\]*(?:\\.[^'\\]*)*)'$")
_OLD_ESCAPES = {"'": "'", "\\": "\\", "n": "\n", "r": "\r", "v": "\x0b",
                "f": "\x0c", "x1c": "\x1c", "x1d": "\x1d", "x1e": "\x1e",
                "x85": "\x85", "u2028": "\u2028", "u2029": "\u2029"}
_OLD_ESCAPE_RE = re.compile(r"\\(x1[cde]|x85|u202[89]|['\\nrvf])")


def old_parse_value(raw: str, function: str):
    m = _OLD_STR_RE.match(raw)
    if m:
        return _OLD_ESCAPE_RE.sub(lambda e: _OLD_ESCAPES[e.group(1)],
                                  m.group(1))
    if _OLD_NUM_RE.match(raw):
        return int(raw) if "." not in raw else float(raw)
    m = _OLD_REF_RE.match(raw)
    if m:
        return StepRef(int(m.group(1)))
    m = _OLD_CALL_RE.match(raw)
    if m:
        raise QueryError(ErrorKind.NON_ATOMIC_OPERATION, outer=function,
                         inner=m.group(1))
    raise QueryError(ErrorKind.NON_STANDARD_EXPRESSION, text=raw)


def old_parse_plan(text: str) -> QueryPlan:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise QueryError(ErrorKind.NON_STANDARD_EXPRESSION, text="",
                         what="query")
    steps = []
    for pos, line in enumerate(lines, start=1):
        m = _OLD_STEP_RE.match(line)
        if not m or int(m.group(1)) != pos:
            raise QueryError(ErrorKind.NON_STANDARD_EXPRESSION, text=line,
                             what="query step")
        args = []
        for token in scan_args(m.group(3)):
            a = _OLD_ARG_RE.match(token)
            if not a:
                raise QueryError(ErrorKind.NON_STANDARD_EXPRESSION, text=token)
            args.append(Arg(a.group(1), a.group(2),
                            old_parse_value(a.group(3).strip(), m.group(2))))
        steps.append(QueryStep(pos, m.group(2), tuple(args)))
    return QueryPlan(steps=steps)


def parsed(parse, text: str):
    """The steps, reprs and all (1 and 1.0, 0 and -0.0 differ), or the
    first error's kind and detail."""
    try:
        return repr(parse(text).steps)
    except QueryError as err:
        return err.kind, err.detail


# Argument lists built from the parts of an argument, each part well-formed
# or not, for the scanner to take or leave.
def _parts(*parts: str):
    return st.sampled_from(parts)


_BLANKS = _parts("", " ", "  ", "\t", "\u3000")
ARG_TEXTS = st.lists(st.tuples(
    _parts("", "", "", ",", " ,", ";", "(", "[", "'", "\\"),
    _parts("set", "tail_entity", "x1", "_", "1x", "a-b", ""), _BLANKS,
    _parts("=", "<", ">", "<=", ">=", "==", "=<", "<>", ""), _BLANKS,
    _parts("'a'", "''", "'a, b'", "'O\\'Brien'", "'\\n'", "'(]'", "'", "'a",
           "'a\\'", "1", "-7", "- 1", "-0", "-0.0", "007", "1.5", "1.5.6",
           ".5", "1.", "\u0663", "\u0661.\u0665", "\uff11",
           "output_of_query1", "output_of_query1x", "output_of_query\u0662",
           "output_of_query", "min(set=output_of_query1)", "min()", "[1, 2]",
           "(1)", ")", "]", '"a"', "\u00df", "e", ""), _BLANKS,
    _parts(",", ", ", ",,", "", ";", ")", "]", "(", "'", "\\")).map("".join),
    max_size=4).map("".join)


class TestOnePassScanner:
    @pytest.mark.parametrize("args", [
        "set=output_of_query1,,", ",, set=output_of_query1", ",", ",,", "",
        "  ", "relation='a',", "relation='a', ,tail_entity=3",
        "tail_entity <= 3 , value >= -2", "tail_entity\t<\t3", "a  =  'x'  ",
        "tail_entity==3", "tail_entity=- 1", "tail_entity=1.5.6",
        "tail_entity=-0", "tail_entity=-0.0", "tail_entity=007",
        "tail_entity=\u0663", "tail_entity=\u0661.\u0665", "tail_entity=\uff11",
        "set=output_of_query\u0662", "set=output_of_query1x",
        "set=output_of_query", "relation='a", "relation='a\\'",
        "relation='a', tail_entity='b", "relation='a'b'", "relation='a' 'b'",
        "set=min(set=output_of_query1)", "relation='a', set=min(set=x)",
        "set=[output_of_query1]", "relation='a'], set=1", "relation=(1",
        "relation='a', set=1)", "relation='(', tail_entity=')'",
        "relation='a,b', tail_entity='[,]'", "1=2", "=2", "relation",
        "relation 'a'", "relation=a", "relation=\"a\"", "relation='a'=1",
        "relation=1,=2", "relation=1 2", "relation<>1", "relation=<1",
        "relation='\\x1c'", "relation='\\\\'", "tail_entity=1.",
        "tail_entity=.5", ";relation='a'", "relation='a';tail_entity=1"])
    def test_pinned_argument_lists(self, args):
        text = f"query1 = get_information({args})"
        assert parsed(parse_plan, text) == parsed(old_parse_plan, text)

    @settings(max_examples=250, deadline=None)
    @given(st.lists(ARG_TEXTS, min_size=1, max_size=3),
           st.sampled_from(["get_information", "count", "f"]))
    def test_argument_text_parses_as_before(self, arglists, function):
        text = "\n".join(f"query{i} = {function}({args})"
                         for i, args in enumerate(arglists, start=1))
        assert parsed(parse_plan, text) == parsed(old_parse_plan, text)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(LABELS, min_size=1, max_size=4))
    def test_label_text_parses_as_before(self, labels):
        text = "query1 = get_information(" + "".join(labels) + ")"
        assert parsed(parse_plan, text) == parsed(old_parse_plan, text)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.integers(0, len(MUTATORS)), ARG_TEXTS)
    def test_generated_plans_and_mutants_parse_as_before(self, rng, which,
                                                         insert):
        plan = gen_plan(rng)
        text = (render_plan(plan) if which == len(MUTATORS)
                else MUTATORS[which][0](plan, rng))
        at = rng.randrange(len(text) + 1)  # and with pieces spliced in
        for case in (text, text[:at] + insert + text[at:]):
            assert parsed(parse_plan, case) == parsed(old_parse_plan, case)

    def test_well_formed_arguments_are_not_split(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dsl, "_raise_bad_arg",
                            lambda text, function: calls.append(text))
        rng = random.Random(7)
        for _ in range(50):
            text = gen_plan_text(rng)
            assert parse_plan(text).steps == old_parse_plan(text).steps
        assert calls == []
