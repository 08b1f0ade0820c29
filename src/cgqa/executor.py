"""Step-by-step plan execution over a condition graph.

Semantics per function:

    get_information  edge lookup, projected onto the unbound side:
                     head bound -> tails; tail or value bound -> heads;
                     head and tail bound -> qualifier values (key bound) or
                     relations; relation/key only -> tails (column access).
    min/max/mean/sum aggregate a referenced set; inputs must be all-numeric
                     (min/max also accept all-date); anything else is a
                     trapped runtime fault. Every result is a set, so an
                     aggregate sees each distinct value once: sum over the
                     ages 20, 20 and 30 of three people is 50, not 70.
    count            cardinality of a referenced set.
    keep             filter entities by a condition on a related value,
                     matching either a relation or a qualifier key.
    set_*            exact set algebra; negation complements against the
                     set of all head entities in the graph.

A plan stops at the first failing step. An empty result in any non-final
step is an error (the final step too, under strict mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .dsl import QueryPlan, QueryStep, StepRef
from .errors import ErrorKind, QueryError, classify_fault
from .graph import (
    ConditionGraph,
    Scalar,
    normalize,
    time_key,
    value_key,
    value_matcher,
    value_text,
)

ENTITY_SET = "entity-set"
VALUE_SET = "value-set"
SCALAR = "scalar"


@dataclass
class StepResult:
    index: int
    values: frozenset[Scalar]
    kind: str

    def sorted_values(self) -> list[Scalar]:
        return sort_values(self.values)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "values": self.sorted_values(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StepResult":
        return cls(
            index=data["index"],
            values=frozenset(data["values"]),
            kind=data["kind"],
        )


@dataclass
class ExecutionOutcome:
    """Result of running a plan: per-step prefix, final answer or error."""

    status: str  # "success" | "exec_error"
    per_step: list[StepResult]
    answer: frozenset[Scalar] | None
    error: QueryError | None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "per_step": [s.to_dict() for s in self.per_step],
            "answer": sort_values(self.answer) if self.answer is not None else None,
            "error": self.error.to_dict() if self.error else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionOutcome":
        return cls(
            status=data["status"],
            per_step=[StepResult.from_dict(s) for s in data["per_step"]],
            answer=(
                frozenset(data["answer"]) if data["answer"] is not None else None
            ),
            error=(
                QueryError.from_dict(data["error"]) if data["error"] else None
            ),
        )


def sort_values(values: Iterable[Scalar]) -> list[Scalar]:
    """Stable rendering order: numbers first by value, then text."""
    return sorted(values, key=_sort_key)


def _sort_key(value: Scalar) -> tuple[int, float, str]:
    if isinstance(value, (int, float)):
        return (0, float(value), "")
    return (1, 0.0, normalize(value))


def _dedupe(values: Iterable[Scalar]) -> frozenset[Scalar]:
    seen: dict[tuple[str, Any], Scalar] = {}
    for v in values:
        seen.setdefault(value_key(v), v)
    return frozenset(seen.values())


def _resolve(value: Any, env: Mapping[int, StepResult]) -> Any:
    if isinstance(value, StepRef):
        return env[value.index]
    return value


def _as_set(value: Any) -> frozenset[Scalar]:
    if isinstance(value, StepResult):
        return value.values
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
        handler = _HANDLERS[step.function]
        return handler(step, env, cg)
    except QueryError:
        raise
    except Exception as exc:
        raise classify_fault(step.function, exc) from exc


def _exec_get_information(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    bound: dict[str, tuple[str, Any]] = {
        a.name: (a.comparator, _bound_value(a.value, env)) for a in step.args
    }
    head, relation, tail, key, value = (
        bound.get(name, ("=", None))
        for name in ("head_entity", "relation", "tail_entity", "key", "value")
    )
    hits = cg.lookup(
        head=head[1], relation=relation[1], tail=tail[1], tail_cmp=tail[0],
        qual_key=key[1], qual_value=value[1], qual_cmp=value[0],
        head_cmp=head[0], relation_cmp=relation[0], key_cmp=key[0],
    )
    if "head_entity" in bound and "tail_entity" in bound:
        if "key" in bound:
            values = (e.qualifier[1] for e in hits if e.qualifier)
        else:
            values = (e.relation for e in hits)
    elif "head_entity" not in bound and ("tail_entity" in bound
                                         or "value" in bound):
        return StepResult(step.index, _dedupe(e.head for e in hits),
                          ENTITY_SET)
    else:  # head bound alone, or column access: project tails
        values = (e.tail for e in hits)
    return StepResult(step.index, _dedupe(values), VALUE_SET)


def _numeric(values: Iterable[Scalar]) -> list[float] | None:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None
        out.append(float(v))
    return out


def _dates(values: Iterable[Scalar]) -> list[tuple[tuple[int, int, int], Scalar]] | None:
    out = []
    for v in values:
        if not isinstance(v, str):
            return None
        tk = time_key(v)
        if tk is None:
            return None
        out.append((tk, v))
    return out


def _fault_order(values: Iterable[Scalar]) -> list[Scalar]:
    # Deterministic operand order so trapped fault text is stable.
    return sort_values(values)


def _exec_aggregate(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    source = _as_set(_resolve(step.args[0].value, env))
    fn = step.function
    if fn == "count":
        return StepResult(step.index, frozenset({len(source)}), SCALAR)
    nums = _numeric(source)
    if nums is not None and nums:
        if fn == "sum":
            result: Scalar = _tighten(sum(nums))
        elif fn == "mean":
            result = _tighten(sum(nums) / len(nums))
        elif fn == "min":
            result = _tighten(min(nums))
        else:
            result = _tighten(max(nums))
        return StepResult(step.index, frozenset({result}), SCALAR)
    if fn in ("min", "max"):
        dated = _dates(source)
        if dated is not None and dated:
            picked = (min if fn == "min" else max)(dated)[1]
            return StepResult(step.index, frozenset({picked}), SCALAR)
    # Mixed or non-numeric input: evaluate literally and let the fault bubble
    # into a runtime-exception report.
    ordered = _fault_order(source)
    if fn in ("min", "max") and ordered and all(
        isinstance(v, str) for v in ordered
    ):
        # Python would happily order text; the aggregate contract does not.
        raise TypeError("ordering not supported between text values")
    if fn == "sum":
        result = sum(ordered)  # type: ignore[arg-type]
    elif fn == "mean":
        result = sum(ordered) / len(ordered)  # type: ignore[arg-type]
    elif fn == "min":
        result = min(ordered)  # type: ignore[type-var]
    else:
        result = max(ordered)  # type: ignore[type-var]
    return StepResult(step.index, frozenset({result}), SCALAR)


def _tighten(value: float) -> Scalar:
    return int(value) if float(value).is_integer() else value


def _exec_keep(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    bound = {a.name: a for a in step.args}
    source = _as_set(_resolve(bound["set"].value, env))
    key = _resolve(bound["key"].value, env)
    if isinstance(key, StepResult):
        raise ValueError("parameter 'key' of keep must be a literal")
    cond = bound["value"]
    match = value_matcher(_bound_value(cond.value, env), cond.comparator)
    key_norm = normalize(str(key))
    kept = []
    for entity in source:
        ids = cg.entity_index.get(normalize(value_text(entity)), ())
        for i in ids:
            edge = cg.edges[i]
            if normalize(edge.relation) == key_norm and match(edge.tail):
                kept.append(entity)
                break
            if (
                edge.qualifier is not None
                and normalize(edge.qualifier[0]) == key_norm
                and match(edge.qualifier[1])
            ):
                kept.append(entity)
                break
    return StepResult(step.index, _dedupe(kept), ENTITY_SET)


def _exec_set_op(
    step: QueryStep, env: Mapping[int, StepResult], cg: ConditionGraph
) -> StepResult:
    fn = step.function
    bound = {a.name: _resolve(a.value, env) for a in step.args}
    if fn == "set_negation":
        source = _as_set(bound["set"])
        kind = ENTITY_SET
        exclude = {value_key(v) for v in source}
        universe = cg.head_entities()
        out = [u for u in universe if value_key(u) not in exclude]
        return StepResult(step.index, _dedupe(out), kind)
    left = _as_set(bound["set1"])
    right = _as_set(bound["set2"])
    lmap = {value_key(v): v for v in left}
    rmap = {value_key(v): v for v in right}
    if fn == "set_intersection":
        keys = [k for k in lmap if k in rmap]
    elif fn == "set_union":
        keys = list(lmap) + [k for k in rmap if k not in lmap]
        lmap = {**lmap, **{k: v for k, v in rmap.items() if k not in lmap}}
    else:  # set_difference
        keys = [k for k in lmap if k not in rmap]
    kinds = {
        r.kind
        for r in (_resolve(a.value, env) for a in step.args)
        if isinstance(r, StepResult)
    }
    kind = ENTITY_SET if kinds == {ENTITY_SET} else VALUE_SET
    return StepResult(step.index, frozenset(lmap[k] for k in keys), kind)


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
