"""One order rule: comparisons, aggregates and temporal ingest read each value
through its order key, so none of them disagrees with another."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa.dsl import parse_plan, validate_plan
from cgqa.executor import execute_plan
from cgqa.graph import (
    BadTimestampError,
    ConditionGraph,
    KindMismatchError,
    compare_values,
    ingest_temporal,
    ingest_triples,
    time_key,
    value_key,
)

PROJECT = "query1 = get_information(head_entity='x', relation='r')\n"


def graph_of(tails) -> ConditionGraph:
    """One head 'x' whose relation 'r' holds each tail, in order."""
    return ConditionGraph(rows=[
        ("x", "r", t, "text" if isinstance(t, str) else "numeric", None)
        for t in tails])


def run(text: str, cg: ConditionGraph):
    return execute_plan(validate_plan(parse_plan(text)), cg)


def aggregate(fn: str, tails):
    return run(PROJECT + f"query2 = {fn}(set=output_of_query1)",
               graph_of(tails))


class TestTheFourDisagreements:
    def test_text_numerals_order_as_numbers_in_lookups_and_in_min(self):
        cg = ConditionGraph(rows=[("a", "code", "7", "text", None),
                                  ("b", "code", "12", "text", None)])
        below = run("query1 = get_information(relation='code', "
                    "tail_entity<'10')", cg)
        assert below.answer == {"a"}
        base = "query1 = get_information(relation='code')\n"
        low = run(base + "query2 = min(set=output_of_query1)", cg)
        high = run(base + "query2 = max(set=output_of_query1)", cg)
        assert (low.status, low.answer) == ("success", {"7"})
        assert (high.status, high.answer) == ("success", {"12"})

    @pytest.mark.parametrize("year", [1999.0, "1999", "1999.0", "01999",
                                      "+1999", " 1999 "])
    def test_a_whole_year_numeral_compares_with_a_date_as_its_number(
            self, year):
        assert compare_values(year, "2000-01-01", "<")
        assert not compare_values("2000-01-01", year, "<=")
        assert compare_values(year, "1999-01-01", ">=")

    @pytest.mark.parametrize("year", [1999.5, "1999.5", "1e999", "abc"])
    def test_what_is_no_whole_year_still_does_not_compare_with_a_date(
            self, year):
        with pytest.raises(KindMismatchError, match="comparison symbol '<'"):
            compare_values(year, "2000-01-01", "<")

    def test_a_year_and_a_date_aggregate_on_the_date_axis(self):
        tails = [1999, "2001-05-03"]
        assert aggregate("max", tails).answer == {"2001-05-03"}
        assert aggregate("min", tails).answer == {1999}
        total = aggregate("sum", tails)  # dates do not add
        assert total.error.message == (
            "Exception from executor in function 'sum': unsupported operand "
            "type(s) for +: 'int' and 'str'")

    @pytest.mark.parametrize("stamp, when", [
        ("800", (800, 1, 1)), ("0800", (800, 1, 1)), ("+1999", (1999, 1, 1)),
        ("1999.0", (1999, 1, 1)), ("1999-02-03", (1999, 2, 3))])
    def test_temporal_ingest_takes_every_whole_year_numeral(self, stamp,
                                                            when):
        cg = ingest_temporal([("France", "president", "Chirac", stamp)])
        assert cg.columns["qualifier"] == (("time", stamp),)
        assert time_key(stamp) == when

    @pytest.mark.parametrize("stamp", ["abc", "1999.5", "1e999", "1999-1-1"])
    def test_temporal_ingest_still_rejects_what_is_no_time(self, stamp):
        with pytest.raises(BadTimestampError,
                           match=f"row 0: cannot parse time '{stamp}'"):
            ingest_temporal([("France", "president", "Chirac", stamp)])


class TestAggregatesReadOrderKeys:
    def test_sum_and_mean_add_numeral_text(self):
        assert aggregate("sum", ["7", 5, "0.5"]).answer == {12.5}
        assert aggregate("mean", ["7", "+5"]).answer == {6}

    def test_an_overflowing_numeral_sums_to_no_finite_number(self):
        for fn in ("sum", "mean"):
            out = aggregate(fn, ["1e999", 5])
            assert out.error.message == (
                f"Exception from executor in function '{fn}': the result is "
                "not a finite number")
        assert aggregate("max", ["1e999", 5]).answer == {"1e999"}

    def test_a_number_result_is_tightened_and_text_kept(self):
        assert aggregate("min", [2.0, "3"]).answer == {2}
        assert aggregate("max", [2.0, "3.0"]).answer == {"3.0"}

    @pytest.mark.parametrize("fn", ["min", "max"])
    def test_an_integer_result_keeps_every_digit(self, fn):
        # 2**53 + 1: its float is 2**53, but the step's own set holds it
        cg = ingest_triples([("a", "n", "9007199254740993")])
        out = run("query1 = get_information(relation='n')\n"
                  f"query2 = {fn}(set=output_of_query1)", cg)
        assert run("query1 = get_information(relation='n')", cg).answer == {
            9007199254740993}
        (best,) = out.answer
        assert (type(best), best) == (int, 9007199254740993)

    def test_tied_keys_rank_a_number_first_then_text_by_its_characters(self):
        # '1999' and 1999 order as January 1 1999 on the date axis
        assert aggregate("min", [1999, "1999-01-01"]).answer == {1999}
        assert aggregate("max", [1999, "1999-01-01"]).answer == {
            "1999-01-01"}
        tails = ["1999", " 1999-01-01", "\u0661\u0669\u0669\u0669-01-01"]
        assert aggregate("min", tails).answer == {" 1999-01-01"}
        assert aggregate("max", tails).answer == {tails[2]}

    @pytest.mark.parametrize("tails, message", [
        (["abc", "7"], "ordering not supported between text values"),
        ([5, "abc"], "'<' not supported between instances of 'str' and "
                     "'int'"),
        ([7.5, "2001-05-03"], "'<' not supported between instances of "
                              "'str' and 'float'"),
    ])
    def test_a_set_without_one_order_keeps_its_fault_text(self, tails,
                                                          message):
        out = aggregate("min", tails)
        assert out.error.message == (
            f"Exception from executor in function 'min': {message}")


def _fails(left, right, op) -> bool:
    try:
        compare_values(left, right, op)
    except KindMismatchError:
        return True
    return False


_numbers = (st.integers(-10**6, 10**6)
            | st.floats(-1e6, 1e6, allow_nan=False).map(lambda f: round(f, 3)))
_values = st.one_of(
    _numbers,
    _numbers.map(str),  # numeral text
    st.integers(0, 999).map(lambda n: f"0{n}"),
    st.dates(datetime.date(1000, 1, 1)).map(datetime.date.isoformat),
    st.integers(1000, 2999),  # bare years, as numbers and as text
    st.integers(1000, 2999).map(str),
    st.sampled_from(["abc", "Austin", "x1", "1999-13-45"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, min_size=1, max_size=5))
def test_aggregates_agree_with_compare_values(tails):
    """min answers a least value under compare_values, max a greatest, and
    both fail exactly when some pair of the set does not compare; sum and
    mean answer exactly when every value orders as a number."""
    cg = graph_of(tails)
    values = run(PROJECT, cg).answer
    unordered = any(_fails(u, w, "<") for u in values for w in values)
    keys = {value_key(v) for v in values}
    for fn, op in (("min", "<="), ("max", ">=")):
        out = aggregate(fn, tails)
        assert (out.status == "exec_error") == unordered, (fn, out)
        if not unordered:
            (best,) = out.answer
            assert value_key(best) in keys
            assert all(compare_values(best, u, op) for u in values)
    numeric = not any(_fails(v, 0.5, "<") for v in values)  # no date or text
    for fn in ("sum", "mean"):
        assert (aggregate(fn, tails).status == "success") == numeric
