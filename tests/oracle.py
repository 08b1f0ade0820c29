"""Reference evaluator: materializes every step by scanning all edges.

Independent of the executor's index structures and dispatch — everything is
recomputed from plain edge tuples with the simplest possible loops, so the
two paths can be compared outcome-for-outcome on random cases.
"""

from __future__ import annotations

import random
import re

from cgqa.dsl import QueryPlan, StepRef
from cgqa.graph import ConditionGraph, Edge

from genplans import ENTITIES, NUMERIC_RELATIONS, RELATIONS, TEXTS, gen_plan

_NUM = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DATE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_YEAR = re.compile(r"^\d{4}$")


def _norm(s: str) -> str:
    return s.strip().casefold()


def _canon(v) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def _key(v):
    if isinstance(v, (int, float)):
        return ("n", float(v))
    return ("t", _norm(str(v)))


def _eq(a, b) -> bool:
    def coerce(x):
        if isinstance(x, str) and _NUM.match(x.strip()):
            return float(x)
        return x

    return _key(coerce(a)) == _key(coerce(b))


def _time_tuple(v):
    if isinstance(v, (int, float)):
        return (int(v), 1, 1) if float(v).is_integer() else None
    text = str(v).strip()
    m = _DATE.match(text)
    if m:
        return (int(m.group(1)), int(m.group(2)), int(m.group(3)))
    if _YEAR.match(text):
        return (int(text), 1, 1)
    return None


class _Fault(Exception):
    pass


def _cmp(a, b, op) -> bool:
    if op == "=":
        return _eq(a, b)

    def okey(x):
        if isinstance(x, (int, float)):
            return ("n", float(x))
        text = str(x).strip()
        if _NUM.match(text):
            return ("n", float(text))
        t = _time_tuple(text)
        if t is not None:
            return ("d", t)
        return None

    ka, kb = okey(a), okey(b)
    if ka and kb and ka[0] != kb[0]:
        if ka[0] == "d" and kb[0] == "n" and _time_tuple(b):
            kb = ("d", _time_tuple(b))
        elif ka[0] == "n" and kb[0] == "d" and _time_tuple(a):
            ka = ("d", _time_tuple(a))
    if ka is None or kb is None or ka[0] != kb[0]:
        raise _Fault(f"cannot compare {a!r} {op} {b!r}")
    return {
        "<": ka < kb,
        ">": ka > kb,
        "<=": ka <= kb,
        ">=": ka >= kb,
    }[op]


def _dedupe(values):
    seen = {}
    for v in values:
        seen.setdefault(_key(v), v)
    return list(seen.values())


def _match_field(edge_value, bound, op, env_keys):
    if isinstance(bound, StepRef):
        if op != "=":
            raise _Fault("comparator against a step result")
        return _key(edge_value) in env_keys[bound.index]
    return _cmp(edge_value, bound, op)


def run_reference(plan: QueryPlan, edges, strict_empty: bool = False) -> dict:
    """Evaluate a validated plan over edge tuples, scanning everything.

    edges: list of (head, relation, tail, qual_key_or_None, qual_value_or_None)
    Returns a summary dict comparable with summarize_outcome().
    """
    env: dict[int, list] = {}
    env_keys: dict[int, set] = {}  # each step's value keys, built once
    steps_out = []
    last = len(plan.steps)
    for step in plan.steps:
        bound = {a.name: (a.comparator, a.value) for a in step.args}
        try:
            values = _run_step(step, bound, edges, env, env_keys)
        except _Fault:
            return {
                "status": "exec_error",
                "error_kind": "runtime_exception",
                "error_at": step.index,
                "steps": steps_out,
                "answer": None,
            }
        env[step.index] = values
        env_keys[step.index] = {_key(v) for v in values}
        steps_out.append(sorted(_canon(v) for v in values))
        if not values and (step.index != last or strict_empty):
            return {
                "status": "exec_error",
                "error_kind": "empty_mid_step_result",
                "error_at": step.index,
                "steps": steps_out,
                "answer": None,
            }
    return {
        "status": "success",
        "error_kind": None,
        "error_at": None,
        "steps": steps_out,
        "answer": steps_out[-1] if steps_out else [],
    }


def _run_step(step, bound, edges, env, env_keys):
    fn = step.function
    if fn == "get_information":
        hits = []
        field_order = ("head_entity", "relation", "tail_entity", "key", "value")
        for head, rel, tail, qk, qv in edges:
            ok = True
            for name in field_order:
                if name not in bound:
                    continue
                op, val = bound[name]
                if name == "head_entity":
                    ok = _match_field(head, val, op, env_keys)
                elif name == "relation":
                    ok = _match_field(rel, val, op, env_keys)
                elif name == "tail_entity":
                    ok = _match_field(tail, val, op, env_keys)
                elif name == "key":
                    ok = qk is not None and _match_field(qk, val, op, env_keys)
                else:
                    ok = qv is not None and _match_field(qv, val, op, env_keys)
                if not ok:
                    break
            if ok:
                hits.append((head, rel, tail, qk, qv))
        head_b = "head_entity" in bound
        tail_b = "tail_entity" in bound or "value" in bound
        if head_b and "tail_entity" not in bound:
            return _dedupe(h[2] for h in hits)
        if tail_b and not head_b:
            return _dedupe(h[0] for h in hits)
        if head_b and "tail_entity" in bound:
            if "key" in bound:
                return _dedupe(h[4] for h in hits if h[3] is not None)
            return _dedupe(h[1] for h in hits)
        return _dedupe(h[2] for h in hits)

    if fn == "count":
        return [len(_ref_values(bound["set"], env))]
    if fn in ("sum", "mean", "min", "max"):
        values = _ref_values(bound["set"], env)
        nums = []
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                nums = None
                break
            nums.append(float(v))
        if nums:
            if fn == "sum":
                out = sum(nums)
            elif fn == "mean":
                out = sum(nums) / len(nums)
            elif fn == "min":
                out = min(nums)
            else:
                out = max(nums)
            return [int(out) if float(out).is_integer() else out]
        if fn in ("min", "max"):
            dated = [( _time_tuple(v), v) for v in values]
            if values and all(
                isinstance(v, str) and t is not None for t, v in dated
            ):
                picked = (min if fn == "min" else max)(dated)[1]
                return [picked]
        if nums == [] and fn == "sum":
            return [0]
        raise _Fault(f"{fn} over non-numeric values")
    if fn == "keep":
        source = _ref_values(bound["set"], env)
        key = bound["key"][1]
        op, target = bound["value"]
        kept = []
        for entity in source:
            for head, rel, tail, qk, qv in edges:
                if not _eq(head, entity):
                    continue
                if _norm(rel) == _norm(str(key)) and _match_field(
                    tail, target, op, env_keys
                ):
                    kept.append(entity)
                    break
                if (
                    qk is not None
                    and _norm(qk) == _norm(str(key))
                    and _match_field(qv, target, op, env_keys)
                ):
                    kept.append(entity)
                    break
        return _dedupe(kept)
    if fn == "set_negation":
        source = {_key(v) for v in _ref_values(bound["set"], env)}
        universe = _dedupe(e[0] for e in edges)
        return [u for u in universe if _key(u) not in source]
    left = _ref_values(bound["set1"], env)
    right = _ref_values(bound["set2"], env)
    lkeys = {_key(v) for v in left}
    rkeys = {_key(v) for v in right}
    if fn == "set_intersection":
        return [v for v in left if _key(v) in rkeys]
    if fn == "set_union":
        return _dedupe(list(left) + list(right))
    if fn == "set_difference":
        return [v for v in left if _key(v) not in rkeys]
    raise AssertionError(f"unknown function {fn}")


def _ref_values(entry, env):
    op, val = entry
    if isinstance(val, StepRef):
        return list(env[val.index])
    return [val]


def summarize_outcome(outcome) -> dict:
    """Shape an executor outcome for comparison against run_reference."""
    return {
        "status": outcome.status,
        "error_kind": outcome.error.kind.value if outcome.error else None,
        "error_at": _error_step(outcome),
        "steps": [sorted(_canon(v) for v in s.values) for s in outcome.per_step],
        "answer": (
            sorted(_canon(v) for v in outcome.answer)
            if outcome.answer is not None
            else None
        ),
    }


def _error_step(outcome):
    if outcome.error is None:
        return None
    if outcome.error.kind.value == "empty_mid_step_result":
        return outcome.error.detail["step"]
    return len(outcome.per_step) + 1


def random_graph(rng: random.Random, max_edges: int = 30):
    """A graph aligned with the plan generator's vocabulary, plus the raw
    edge tuples the reference evaluator consumes."""
    n = rng.randint(0, max_edges)
    raw = []
    for _ in range(n):
        head = rng.choice(ENTITIES)
        rel = rng.choice(RELATIONS)
        if rel in NUMERIC_RELATIONS:
            tail = rng.randint(0, 50)
        elif rel == "team":
            tail = rng.choice(ENTITIES)
        else:
            tail = rng.choice(TEXTS)
        if rng.random() < 0.3:
            year = rng.randint(1990, 2020)
            if rng.random() < 0.5:
                qual = ("time", str(year))
            else:
                qual = ("time", f"{year}-{rng.randint(1, 12):02d}-"
                                f"{rng.randint(1, 28):02d}")
        else:
            qual = None
        raw.append((head, rel, tail, qual))
    seen = {}
    for item in raw:
        seen.setdefault(item, None)
    raw = list(seen)
    edges = [
        Edge(h, r, t, "numeric" if isinstance(t, int) else "text", q)
        for h, r, t, q in raw
    ]
    cg = ConditionGraph(edges)
    tuples = [
        (h, r, t, q[0] if q else None, q[1] if q else None)
        for h, r, t, q in raw
    ]
    return cg, tuples


def random_case(rng: random.Random):
    cg, tuples = random_graph(rng)
    plan = gen_plan(rng)
    return cg, tuples, plan


# Graphs of a few thousand edges and plans that exercise every lookup index:
# head-only and tail-only literals, reference-bound heads and tails, ordering
# comparators that meet text tails, and text tails that look like numbers.

BIG_ENTITIES = [f"e{i}" for i in range(300)]
BIG_TEXTS = TEXTS + [f"town{i}" for i in range(40)]
# "code" holds text tails; with numeric_text some of them read as numbers.
BIG_RELATIONS = RELATIONS + ["code"]


def random_large_graph(rng: random.Random, n_edges: int = 3000,
                       numeric_text: bool = False):
    """Like random_graph, over a wider vocabulary and n_edges draws."""
    raw = []
    for _ in range(n_edges):
        head = rng.choice(BIG_ENTITIES)
        rel = rng.choice(BIG_RELATIONS)
        if rel in NUMERIC_RELATIONS:
            tail, kind = rng.randint(0, 50), "numeric"
        elif rel == "team":
            tail, kind = rng.choice(BIG_ENTITIES), "text"
        elif rel == "code" and numeric_text and rng.random() < 0.5:
            tail, kind = str(rng.randint(0, 50)), "text"
        else:
            tail, kind = rng.choice(BIG_TEXTS), "text"
        qual = None
        if rng.random() < 0.3:
            qual = ("time", str(rng.randint(1990, 2020)))
        raw.append((head, rel, tail, kind, qual))
    raw = list(dict.fromkeys(raw))
    cg = ConditionGraph(Edge(h, r, t, k, q) for h, r, t, k, q in raw)
    tuples = [
        (h, r, t, q[0] if q else None, q[1] if q else None)
        for h, r, t, _, q in raw
    ]
    return cg, tuples


def _big_tail(rng: random.Random):
    """A tail literal of any kind: number, number-like text, text, entity."""
    pick = rng.randrange(4)
    if pick == 0:
        return rng.randint(0, 50)
    if pick == 1:
        return str(rng.randint(0, 50))
    if pick == 2:
        return rng.choice(BIG_TEXTS)
    return rng.choice(BIG_ENTITIES)


def gen_lookup_plan(rng: random.Random):
    """A valid plan of one or two get_information steps, optionally followed
    by keep, set_negation or an aggregate over the last result."""
    from cgqa.dsl import Arg, QueryPlan, QueryStep

    cmps = ["=", "<", ">", "<=", ">="]
    rel = rng.choice(BIG_RELATIONS)
    first = rng.choice([
        [Arg("head_entity", "=", rng.choice(BIG_ENTITIES))],
        [Arg("tail_entity", "=", _big_tail(rng))],
        [Arg("tail_entity", rng.choice(cmps), rng.randint(0, 50))],
        [Arg("head_entity", "=", rng.choice(BIG_ENTITIES)),
         Arg("tail_entity", rng.choice(cmps[1:]), rng.randint(0, 50))],
        [Arg("relation", "=", rel), Arg("tail_entity", "=", _big_tail(rng))],
        [Arg("relation", "=", rel),
         Arg("tail_entity", rng.choice(cmps), rng.randint(0, 50))],
        [Arg("relation", "=", rel), Arg("key", "=", "time"),
         Arg("value", rng.choice(cmps), rng.randint(1990, 2020))],
    ])
    steps = [QueryStep(1, "get_information", tuple(first))]
    ref = StepRef(1)
    if rng.random() < 0.7:
        second = rng.choice([
            [Arg("head_entity", "=", ref)],
            [Arg("head_entity", "=", ref), Arg("relation", "=", rel)],
            [Arg("tail_entity", "=", ref)],
            [Arg("relation", "=", rel), Arg("tail_entity", "=", ref)],
            [Arg("relation", "=", rel),
             Arg("tail_entity", rng.choice(cmps[1:]), ref)],
        ])
        steps.append(QueryStep(2, "get_information", tuple(second)))
        ref = StepRef(2)
    if rng.random() < 0.4:
        i = len(steps) + 1
        steps.append(rng.choice([
            QueryStep(i, "keep", (Arg("set", "=", ref),
                                  Arg("key", "=", rel),
                                  Arg("value", rng.choice(cmps),
                                      rng.randint(0, 50)))),
            QueryStep(i, "set_negation", (Arg("set", "=", ref),)),
            QueryStep(i, rng.choice(["count", "sum", "max"]),
                      (Arg("set", "=", ref),)),
        ]))
    return QueryPlan(steps=steps)
