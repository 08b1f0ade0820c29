"""Step-by-step plan execution over a condition graph.

Semantics per function:

    get_information  edge lookup, projected onto the unbound side:
                     head bound -> tails; tail or value bound -> heads;
                     head and tail bound -> qualifier values (key bound) or
                     relations; relation/key only -> tails (column access).
    min/max/mean/sum aggregate a referenced set by order key: min/max pick
                     the least/greatest value, sum/mean add numbers; any
                     other set, or a result that is not finite, is a trapped
                     runtime fault. A result is a set, so an aggregate sees
                     each value once: sum over ages 20, 20 and 30 is 50.
    count            cardinality of a referenced set.
    keep             filter entities by a condition on a related value,
                     matching either a relation or a qualifier key.
    set_*            exact set algebra; negation complements against the
                     set of all head entities in the graph.

A plan stops at the first failing step. An empty result in any non-final
step is an error (the final step too, under strict mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Mapping

from .dsl import DEFAULT_REGISTRY, QueryPlan, QueryStep, StepRef
from .errors import ErrorKind, QueryError, classify_fault
from .graph import (
    ConditionGraph,
    Scalar,
    ValueSet,
    key_map,
    order_keys,
    sort_values,
    sorted_keys,
    value_key,
)
from .jsonl import Record

ENTITY_SET = "entity-set"
VALUE_SET = "value-set"
SCALAR = "scalar"


@dataclass
class StepResult(Record):
    index: int
    kind: str
    values: frozenset[Scalar] = field(metadata={"encode": sort_values})


@dataclass
class ExecutionOutcome(Record):
    """Result of running a plan: per-step prefix, final answer or error."""

    status: str  # "success" | "exec_error"
    per_step: list[StepResult]
    answer: frozenset[Scalar] | None = field(metadata={
        "encode": lambda a: None if a is None else sort_values(a)})
    error: QueryError | None


def _value_set(value: Any, env: Mapping[int, StepResult]) -> frozenset[Scalar]:
    """The value set of a referenced step, or a literal as a one-value set."""
    if isinstance(value, StepRef):
        return env[value.index].values
    return frozenset({value})


def _bound_value(value: Any, env: Mapping[int, StepResult]) -> Any:
    """A literal argument, or the value set of a referenced step."""
    return env[value.index].values if isinstance(value, StepRef) else value


def execute_step(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    """Run one step against the graph and earlier results.

    Raises QueryError(RUNTIME_EXCEPTION) wrapping any trapped evaluation
    fault; emptiness is judged by the plan runner, not here.
    """
    try:
        comparable = DEFAULT_REGISTRY.entries[step.function].comparable
        for p, cmp, _ in step.args:  # as validate_plan admits them
            if cmp != "=" and p not in comparable:
                raise ValueError(f"'{p}' takes no comparison symbol '{cmp}'")
        return _HANDLERS[step.function](step, env, cg)
    except Exception as exc:
        raise classify_fault(step.function, exc) from exc


# each get_information parameter's lookup_ids bound, and comparator if any
_LOOKUP_ARGS = {"head_entity": ("head", None), "relation": ("relation", None),
                "tail_entity": ("tail", "tail_cmp"), "key": ("qual_key", None),
                "value": ("qual_value", "qual_cmp")}


def _exec_get_information(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    bounds: dict[str, Any] = {}
    for a in step.args:
        name, cmp = _LOOKUP_ARGS[a.name]
        bounds[name] = _bound_value(a.value, env)
        if cmp:
            bounds[cmp] = a.comparator
    if "head" in bounds and "tail" in bounds:
        side = "qvalue" if "qual_key" in bounds else "relation"
    elif "head" not in bounds and ("tail" in bounds or "qual_value" in bounds):
        side = "head"
    else:  # head bound alone, or column access: project tails
        side = "tail"
    kind = ENTITY_SET if side == "head" else VALUE_SET
    return StepResult(step.index, kind=kind, values=cg.project(side, **bounds))


_AGGREGATES = {
    "sum": sum,
    "mean": lambda values: sum(values) / len(values),
    "min": min,
    "max": max,
}


def _exec_aggregate(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    source = _value_set(step.args[0].value, env)
    fn, values = step.function, list(source)
    keys = order_keys(values) if fn != "count" else None
    if fn == "count":
        result: Scalar = len(source)
    elif keys and fn in ("min", "max"):
        # Tied keys rank a number first, then text by its characters.
        ranked = zip(keys, [isinstance(v, str) for v in values], values)
        best = _AGGREGATES[fn](ranked)[2]
        result = _tighten(best) if isinstance(best, float) else best
    elif keys and keys[0][0] == "n":  # sum or mean over numbers
        # Added in sorted order, so a float total is the same however the
        # set's values were inserted.
        result = _tighten(_AGGREGATES[fn](sorted(k for _, k in keys)))
    else:
        # No order, or dates to add: evaluate literally, in a fixed operand
        # order, so the fault and its text are the same every run.
        ordered = sort_values(source)
        if fn in ("min", "max") and ordered and all(
                isinstance(v, str) for v in ordered):
            # Python would happily order text; the aggregate contract does not.
            raise TypeError("ordering not supported between text values")
        result = _AGGREGATES[fn](ordered)
    return StepResult(step.index, kind=SCALAR, values=frozenset({result}))


def _tighten(value: float) -> Scalar:
    if not math.isfinite(value):  # JSON holds no Infinity or NaN
        raise ArithmeticError("the result is not a finite number")
    return int(value) if float(value).is_integer() else value


def _exec_keep(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    bound = {a.name: a for a in step.args}
    source = key_map(_value_set(bound["set"].value, env))
    key = bound["key"].value
    if isinstance(key, StepRef):
        raise ValueError("parameter 'key' of keep must be a literal")
    cond = bound["value"]
    value = _bound_value(cond.value, env)
    tails, tail_ok = cg.field_test("tail", value, cond.comparator)
    match_key = value_key(key)
    relations, entities = cg.column("relation"), cg.entity_index
    keys, quals = cg.value_keys, cg.has_qualifier and cg.column("qkey")

    @cache  # the qualifier-value test, built once a qualifier key matches
    def value_ok() -> Callable[[int], bool]:
        values, ok = cg.field_test("qvalue", value, cond.comparator)
        return lambda i: ok(values[i])

    kept = {}
    for k in sorted_keys(source):  # the first fault is the same each run
        for i in entities.get(k, ()):
            if keys[relations[i]] == match_key and tail_ok(tails[i]) or (
                    quals and keys[quals[i]] == match_key and value_ok()(i)):
                kept[k] = source[k]
                break
    return StepResult(step.index, kind=ENTITY_SET, values=ValueSet(kept))


def _exec_set_op(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    fn = step.function
    bound = {a.name: key_map(_value_set(a.value, env)) for a in step.args}
    if fn == "set_negation":
        exclude = bound["set"]
        # a head's value_key is its entity_index key
        out = {head: cg.columns["head"][ids[0]]
               for head, ids in cg.entity_index.items() if head not in exclude}
        return StepResult(step.index, kind=ENTITY_SET, values=ValueSet(out))
    lmap, rmap = bound["set1"], bound["set2"]
    if fn == "set_intersection":
        values = {k: v for k, v in lmap.items() if k in rmap}
    elif fn == "set_union":  # set1's value wins on a shared key
        values = {**rmap, **lmap}
    else:  # set_difference
        values = {k: v for k, v in lmap.items() if k not in rmap}
    kinds = {env[a.value.index].kind for a in step.args
             if isinstance(a.value, StepRef)}
    kind = ENTITY_SET if kinds == {ENTITY_SET} else VALUE_SET
    return StepResult(step.index, kind=kind, values=ValueSet(values))


_HANDLERS = {
    "get_information": _exec_get_information,
    "min": _exec_aggregate,
    "mean": _exec_aggregate,
    "max": _exec_aggregate,
    "count": _exec_aggregate,
    "sum": _exec_aggregate,
    "keep": _exec_keep,
    "set_intersection": _exec_set_op,
    "set_union": _exec_set_op,
    "set_negation": _exec_set_op,
    "set_difference": _exec_set_op,
}


def execute_plan(
    plan: QueryPlan, cg: ConditionGraph, strict_empty: bool = False
) -> ExecutionOutcome:
    """Run a validated plan; stop at the first error or empty mid-step result.

    A final step returning the empty set counts as success with an empty
    answer unless strict_empty is set.
    """
    env: dict[int, StepResult] = {}
    per_step: list[StepResult] = []
    last = len(plan.steps)
    for step in plan.steps:
        try:
            result = execute_step(step, env, cg)
        except QueryError as err:
            return ExecutionOutcome("exec_error", per_step, None,
                                    err.detached())
        per_step.append(result)
        env[step.index] = result
        if not result.values and (step.index != last or strict_empty):
            err = QueryError(ErrorKind.EMPTY_MID_STEP_RESULT, step=step.index)
            return ExecutionOutcome("exec_error", per_step, None, err)
    answer = per_step[-1].values if per_step else frozenset()
    return ExecutionOutcome("success", per_step, answer, None)
