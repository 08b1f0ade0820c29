"""Every Record writes the documented JSON keys and reads its own output back."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa.correction import (CorrectionRound, CorrectionTrace, Demonstration,
                             Question)
from cgqa.distill import PreferencePair, SftRecord
from cgqa.errors import ErrorKind, QueryError
from cgqa.evaluate import ErrorStats, EvalReport
from cgqa.executor import ExecutionOutcome, StepResult
from cgqa.graph import Edge
from cgqa.jsonl import Record, write_jsonl
from cgqa.llm import ClientConfig

WIRE_KEYS = {
    Edge: ["head", "relation", "tail", "tail_kind", "qualifier"],
    StepResult: ["index", "kind", "values"],
    ExecutionOutcome: ["status", "per_step", "answer", "error"],
    CorrectionRound: ["index", "error_in", "analysis", "updated_plan_text",
                      "outcome_after"],
    CorrectionTrace: ["question_id", "question_text", "schema_text", "author",
                      "initial_plan_text", "initial_outcome", "rounds",
                      "status", "n", "final_plan_text", "gold_answer"],
    SftRecord: ["kind", "input", "target", "round", "trace_id"],
    PreferencePair: ["prompt", "chosen", "rejected", "round", "trace_id"],
    EvalReport: ["metric", "value", "total", "solved_direct",
                 "solved_after_n", "failed_mct", "failed_gold_mismatch",
                 "alignment_miss"],
    ErrorStats: ["per_kind", "parsing", "execution", "overall"],
    Question: ["id", "question", "gold", "graph_ref"],
    Demonstration: ["question", "schema_text", "plan_text",
                    "wrong_plan_text", "error_message", "analysis"],
    ClientConfig: ["backend", "endpoint", "model", "temperature", "timeout",
                   "retries", "retry_backoff", "script_path", "api_key_env"],
}

text = st.text(max_size=12)
ints = st.integers(-10**12, 10**12)
numbers = st.floats(allow_nan=False, allow_infinity=False)
scalars = text | ints | numbers
errors = (st.builds(lambda t: QueryError(ErrorKind.NON_STANDARD_EXPRESSION,
                                         text=t), text)
          | st.builds(lambda f, r: QueryError(ErrorKind.UNDEFINED_FUNCTION,
                                              function=f, registry=r),
                      text, st.lists(text, max_size=3)))
steps = st.builds(StepResult, index=ints, kind=text,
                  values=st.frozensets(scalars, max_size=4))
outcomes = st.builds(ExecutionOutcome, status=text,
                     per_step=st.lists(steps, max_size=3),
                     answer=st.none() | st.frozensets(scalars, max_size=4),
                     error=st.none() | errors)
rounds = st.builds(CorrectionRound, index=ints, error_in=errors,
                   analysis=text, updated_plan_text=text,
                   outcome_after=outcomes)
gold = st.none() | st.lists(text | ints | numbers | st.booleans(), max_size=3)
maybe_text = st.none() | text
counts = st.dictionaries(text, ints | numbers, max_size=3)

RECORDS = {
    Edge: st.builds(Edge, head=text, relation=text,
                    tail=scalars, tail_kind=text,
                    qualifier=st.none() | st.tuples(text, text)),
    StepResult: steps,
    ExecutionOutcome: outcomes,
    CorrectionRound: rounds,
    CorrectionTrace: st.builds(
        CorrectionTrace, question_id=text, question_text=text,
        schema_text=text, author=text, initial_plan_text=text,
        initial_outcome=outcomes, rounds=st.lists(rounds, max_size=2),
        status=text, n=ints, final_plan_text=maybe_text, gold_answer=gold),
    SftRecord: st.builds(SftRecord, kind=text, input_text=text,
                         target_text=text, round_index=st.none() | ints,
                         trace_id=text),
    PreferencePair: st.builds(PreferencePair, input_text=text,
                              preferred=text, dispreferred=text,
                              round_index=ints, trace_id=text),
    EvalReport: st.builds(
        EvalReport, metric=text,
        value=st.none() | numbers.map(lambda v: round(v, 6)), total=ints,
        solved_direct=ints, solved_after_n=st.dictionaries(ints, ints),
        failed_mct=ints, failed_gold_mismatch=ints, alignment_miss=ints),
    ErrorStats: st.builds(ErrorStats,
                          per_kind=st.dictionaries(text, counts, max_size=3),
                          parsing=counts, execution=counts, overall=counts),
    Question: st.builds(Question, id=text, text=text, gold_answer=gold,
                        graph_ref=maybe_text),
    Demonstration: st.builds(Demonstration, question=text, schema_text=text,
                             plan_text=text, wrong_plan_text=maybe_text,
                             error_message=maybe_text, analysis=maybe_text),
    ClientConfig: st.builds(
        ClientConfig, backend=text, endpoint=text, model=text,
        temperature=numbers, timeout=numbers.filter(lambda v: v > 0),
        retries=st.integers(0, 10), retry_backoff=numbers,
        script_path=text, api_key_env=text),
}


def same(a, b) -> bool:
    """Equality that also compares QueryErrors, which as exceptions are
    equal only to themselves, and the exact type of every value."""
    if isinstance(a, QueryError):
        return (type(b) is QueryError
                and (a.kind, a.detail) == (b.kind, b.detail))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def test_every_record_is_covered():
    def subclasses(cls):
        return {cls, *(s for sub in cls.__subclasses__()
                       for s in subclasses(sub))}
    assert subclasses(Record) - {Record} == set(RECORDS) == set(WIRE_KEYS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_through_json(cls, data):
    record = data.draw(RECORDS[cls])
    wire = record.to_dict()
    assert list(wire) == WIRE_KEYS[cls]
    assert same(cls.from_dict(json.loads(json.dumps(wire))), record)


@pytest.mark.parametrize("cls, key", [
    (SftRecord, "input"), (SftRecord, "round"), (PreferencePair, "chosen"),
    (Question, "question"), (Edge, "tail_kind"), (StepResult, "values"),
    (CorrectionTrace, "initial_outcome"),
], ids=lambda v: getattr(v, "__name__", v))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_missing_key_names_the_wire_key(cls, key, data):
    wire = data.draw(RECORDS[cls]).to_dict()
    del wire[key]
    with pytest.raises(KeyError) as exc_info:
        cls.from_dict(wire)
    assert exc_info.value.args == (key,)


def test_question_id_may_be_an_integer():
    question = Question.from_dict({"id": 7, "question": "q"})
    assert (question.id, question.gold_answer, question.graph_ref) == (
        "7", None, None)


def test_solved_after_n_counts_must_be_integers():
    wire = EvalReport("accuracy", 50.0, 2, 1, {1: 1}, 0, 0, 0).to_dict()
    with pytest.raises(TypeError, match="field 'solved_after_n' items must "
                                        "be an integer, not a string"):
        EvalReport.from_dict({**wire, "solved_after_n": {"1": "1"}})


json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(list(RECORDS)).flatmap(RECORDS.get)
                | json_values, max_size=4))
def test_written_lines_are_json_dumps(items):
    """Records nest records; text is any Unicode, floats any float. Strict
    JSON holds no NaN or infinity: writing one fails as json.dumps with
    allow_nan=False fails."""
    try:
        want = "".join(json.dumps(
            item.to_dict() if isinstance(item, Record) else item,
            ensure_ascii=False, allow_nan=False) + "\n" for item in items)
    except ValueError as exc:
        want = str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.jsonl")
        try:
            assert write_jsonl(items, path) == len(items)
        except ValueError as exc:
            assert str(exc) == want
            return
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == want
