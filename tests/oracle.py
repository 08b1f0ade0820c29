"""Reference evaluator: materializes every step by scanning all edges.

Independent of the executor's index structures and dispatch — everything is
recomputed from plain edge tuples with the simplest possible loops, so the
two paths can be compared outcome-for-outcome on random cases.
"""

from __future__ import annotations

import math
import random
import re

from cgqa.dsl import QueryPlan, StepRef
from cgqa.graph import ConditionGraph

from genplans import ENTITIES, NUMERIC_RELATIONS, RELATIONS, TEXTS, gen_plan

_NUM = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DATE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")


def _norm(s: str) -> str:
    return s.strip().casefold()


def _canon(v) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def _key(v):
    """A number, or a numeral within float range ('07', '7.0', '1e1',
    '.5'), keys as its number; other text ('1e999' too) as itself."""
    if isinstance(v, (int, float)):
        return ("n", float(v))
    text = _norm(str(v))
    if _NUM.match(text) and math.isfinite(float(text)):
        return ("n", float(text))
    return ("t", text)


def _eq(a, b) -> bool:
    return _key(a) == _key(b)


def _okey(x):
    """Order key: ("n", number) for a number or numeral (+-inf past float
    range), ("d", (year, month, day)) for an ISO date, else None."""
    if isinstance(x, (int, float)):
        return ("n", float(x))
    text = str(x).strip()
    if _NUM.match(text):
        return ("n", float(text))
    m = _DATE.match(text)
    if m:
        return ("d", (int(m.group(1)), int(m.group(2)), int(m.group(3))))
    return None


def _on_dates(k):
    """An order key on the date axis: a whole number is January 1 of its
    year, any other number has no place there."""
    if k[0] == "d":
        return k
    if k[1].is_integer():
        return ("d", (int(k[1]), 1, 1))
    return None


def _axis(values):
    """Every value's order key on one axis, dates if any value is a date;
    None if some value does not join it."""
    keys = [_okey(v) for v in values]
    if any(k is None for k in keys):
        return None
    if any(k[0] == "d" for k in keys):
        keys = [_on_dates(k) for k in keys]
    return None if any(k is None for k in keys) else keys


class _Fault(Exception):
    pass


def _cmp(a, b, op) -> bool:
    if op == "=":
        return _eq(a, b)
    keys = _axis([a, b])
    if keys is None:
        raise _Fault(f"cannot compare {a!r} {op} {b!r}")
    ka, kb = keys
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
        keys = _axis(values) if values else None
        if keys and fn in ("min", "max"):
            # equal keys: a number first, then text by its characters
            ranked = sorted(
                (k, isinstance(v, str), v if isinstance(v, str) else "", v)
                for k, v in zip(keys, values))
            out = ranked[0 if fn == "min" else -1][3]
            if isinstance(out, str):
                return [out]
        elif keys and keys[0][0] == "n":
            nums = sorted(k[1] for k in keys)
            out = sum(nums) if fn == "sum" else sum(nums) / len(nums)
        elif not values and fn == "sum":
            return [0]
        else:
            raise _Fault(f"{fn} over values that do not order as numbers")
        if not math.isfinite(out):
            raise _Fault(f"{fn} is not a finite number")
        return [int(out) if float(out).is_integer() else out]
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


# Labels that share a match key with one of the plan generator's ("h1",
# "austin"): on a graph that holds them, each step must choose which
# surface form of a key it keeps.
VARIANT_ENTITIES = ["H1", "h1 "]
VARIANT_TEXTS = ["Austin", " AUSTIN ", "austin "]


def random_graph(rng: random.Random, max_edges: int = 30,
                 variants: bool = False):
    """A graph aligned with the plan generator's vocabulary, plus the raw
    edge tuples the reference evaluator consumes. Numeric relations also
    hold numeral text, and "score" years and dates (_numeric_tail). With
    variants, heads and text tails are also drawn from VARIANT_ENTITIES
    and VARIANT_TEXTS."""
    entities = ENTITIES + VARIANT_ENTITIES if variants else ENTITIES
    texts = TEXTS + VARIANT_TEXTS if variants else TEXTS
    n = rng.randint(0, max_edges)
    raw = []
    for _ in range(n):
        head = rng.choice(entities)
        rel = rng.choice(RELATIONS)
        if rel in NUMERIC_RELATIONS:
            tail = _numeric_tail(rng, rel)
        elif rel == "team":
            tail = rng.choice(entities)
        else:
            tail = rng.choice(texts)
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
        (h, r, t, "numeric" if isinstance(t, int) else "text", q)
        for h, r, t, q in raw
    ]
    cg = ConditionGraph(edges)
    tuples = [
        (h, r, t, q[0] if q else None, q[1] if q else None)
        for h, r, t, q in raw
    ]
    return cg, tuples


def _numeric_tail(rng: random.Random, rel: str):
    """A number, or numeral text for one ('07', '7.0', '+7'); a "score" is
    also a year, as a number or numeral, or an ISO date, so that its values
    order on the date axis."""
    pick = rng.random()
    if rel == "score" and pick < 0.2:
        year = rng.randint(1990, 2020)
        return rng.choice([year, str(year), f"{year}.0",
                           f"{year}-{rng.randint(1, 12):02d}-"
                           f"{rng.randint(1, 28):02d}"])
    n = rng.randint(0, 50)
    if pick < 0.4:
        return rng.choice([str(n), f"0{n}", f"{n}.0", f"+{n}", f"{n}.5"])
    return n


def gen_set_op_plan(rng: random.Random):
    """Two get_information steps whose results can hold one key in
    different surface forms, then a set operation over them in either
    order."""
    from cgqa.dsl import Arg, QueryPlan, QueryStep

    def projection(i: int) -> QueryStep:
        return QueryStep(i, "get_information", tuple(rng.choice([
            [Arg("relation", "=", rng.choice(["city", "team"]))],
            [Arg("head_entity", "=", rng.choice(ENTITIES))],
            [Arg("relation", "=", "team"),
             Arg("tail_entity", "=", rng.choice(ENTITIES))],
        ])))

    set1, set2 = rng.sample([StepRef(1), StepRef(2)], 2)
    op = rng.choice(["set_intersection", "set_union", "set_difference"])
    return QueryPlan(steps=[projection(1), projection(2), QueryStep(
        3, op, (Arg("set1", "=", set1), Arg("set2", "=", set2)))])


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
# Entities labelled by numerals: '7', '07' and '7.0' are the number 7 (a
# tail too), '1e1' and '10' are 10, '.5' and '0.5' are 0.5, and '1e999',
# which overflows a float, is text that equals no number.
NUMERAL_ENTITIES = BIG_ENTITIES[:20] + ["7", "07", "7.0", "1e1", "10", ".5",
                                        "0.5", "1e999"]
NUMERAL_LITERALS = NUMERAL_ENTITIES + [7, 7.0, 10, 0.5]


def random_large_graph(rng: random.Random, n_edges: int = 3000,
                       numeric_text: bool = False,
                       entities: list[str] = BIG_ENTITIES):
    """Like random_graph, over a wider vocabulary and n_edges draws; heads
    and "team" tails are drawn from entities."""
    raw = []
    for _ in range(n_edges):
        head = rng.choice(entities)
        rel = rng.choice(BIG_RELATIONS)
        if rel in NUMERIC_RELATIONS:
            tail, kind = rng.randint(0, 50), "numeric"
        elif rel == "team":
            tail, kind = rng.choice(entities), "text"
        elif rel == "code" and numeric_text and rng.random() < 0.5:
            tail, kind = str(rng.randint(0, 50)), "text"
        else:
            tail, kind = rng.choice(BIG_TEXTS), "text"
        qual = None
        if rng.random() < 0.3:
            qual = ("time", str(rng.randint(1990, 2020)))
        raw.append((head, rel, tail, kind, qual))
    raw = list(dict.fromkeys(raw))
    cg = ConditionGraph(raw)
    tuples = [
        (h, r, t, q[0] if q else None, q[1] if q else None)
        for h, r, t, _, q in raw
    ]
    return cg, tuples


def _big_tail(rng: random.Random, entities: list):
    """A tail literal of any kind: number, number-like text, text, entity."""
    pick = rng.randrange(4)
    if pick == 0:
        return rng.randint(0, 50)
    if pick == 1:
        return str(rng.randint(0, 50))
    if pick == 2:
        return rng.choice(BIG_TEXTS)
    return rng.choice(entities)


def gen_lookup_plan(rng: random.Random,
                    entities: list = BIG_ENTITIES):
    """A valid plan of one or two get_information steps, optionally followed
    by keep, set_negation or an aggregate over the last result; entity
    literals are drawn from entities."""
    from cgqa.dsl import Arg, QueryPlan, QueryStep

    cmps = ["=", "<", ">", "<=", ">="]
    rel = rng.choice(BIG_RELATIONS)
    first = rng.choice([
        [Arg("head_entity", "=", rng.choice(entities))],
        [Arg("tail_entity", "=", _big_tail(rng, entities))],
        [Arg("tail_entity", rng.choice(cmps), rng.randint(0, 50))],
        [Arg("head_entity", "=", rng.choice(entities)),
         Arg("tail_entity", rng.choice(cmps[1:]), rng.randint(0, 50))],
        [Arg("relation", "=", rel),
         Arg("tail_entity", "=", _big_tail(rng, entities))],
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
