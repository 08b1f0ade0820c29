"""Seeded inputs for the benchmark: source files, questions, replies, expectations.

Everything here is a pure function of (workload, seed, smoke). Gold answers
are computed from the generator's own rows under cgqa's documented set
semantics (every step result is a set, deduplicated by value), never by
running cgqa. cgqa's prompt builders, error templates and request_digest are
used only to key the scripted replies, because a reply must be keyed by the
exact request the pipeline will send.

Three graph kinds are generated, one per source format:

  table     people.csv   Name (key), Age, City, Team, Joined (date), Score
  kg        films.tsv    film directed_by/genre/released, director born_in
  temporal  terms.tsv    org chair <person> @year, org budget <amount> @year
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from cgqa.correction import (
    Demonstration,
    build_correction_prompt,
    build_query_prompt,
    render_schema,
    retrieve_demos,
)
from cgqa.dsl import DEFAULT_REGISTRY
from cgqa.errors import ErrorKind, QueryError
from cgqa.graph import SchemaDescriptor
from cgqa.llm import request_digest

EXECUTION_KINDS = ("runtime_exception", "empty_mid_step_result")
KIND_ORDER = [k.value for k in ErrorKind]

# ---------------------------------------------------------------- values


def vkey(value: Any) -> tuple[str, Any]:
    """Set identity of a value, as cgqa dedupes results and compares answers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ("n", float(value))
    return ("t", str(value).strip().casefold())


def distinct(values) -> list:
    seen: dict = {}
    for v in values:
        seen.setdefault(vkey(v), v)
    return list(seen.values())


def tighten(x: float):
    return int(x) if float(x).is_integer() else x


_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


class Names:
    """Unique capitalised pseudo-words. No word contains an 'x', so a label
    with an 'x' appended is guaranteed to be absent from every graph."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def make(self, syllables: int) -> str:
        while True:
            word = "".join(self.rng.choice(_SYLLABLES)
                           for _ in range(syllables)).capitalize()
            if word.casefold() not in self.used:
                self.used.add(word.casefold())
                return word


# ----------------------------------------------------------------- plans


@dataclass(frozen=True)
class Ref:
    index: int


@dataclass(frozen=True)
class Raw:
    """A parameter value written verbatim (used to build malformed plans)."""

    text: str


Step = tuple[str, tuple[tuple[str, str, Any], ...]]


def step(fn: str, *args: tuple[str, str, Any]) -> Step:
    return (fn, tuple(args))


def _value_text(v: Any) -> str:
    if isinstance(v, Ref):
        return f"output_of_query{v.index}"
    if isinstance(v, Raw):
        return v.text
    if isinstance(v, str):
        return f"'{v}'"
    return str(v)


def call_text(s: Step) -> str:
    fn, args = s
    return f"{fn}(" + ", ".join(
        f"{n}{c}{_value_text(v)}" for n, c, v in args) + ")"


def plan_text(plan: list[Step]) -> str:
    return "\n".join(f"query{i} = {call_text(s)}"
                     for i, s in enumerate(plan, start=1))


# ---------------------------------------------------------------- graphs


@dataclass
class Graph:
    ref: str            # graph dump file name, the dataset's graph_ref
    source: str         # source file name
    kind: str           # table | kg | temporal
    lines: list[str]    # source file lines
    edges: int          # distinct edges cgqa must load
    schema_text: str
    data: dict = field(default_factory=dict)


def _schema(source_kind: str, rel_tails) -> str:
    samples: dict[str, list[str]] = {}
    for rel, tail in rel_tails:
        bucket = samples.setdefault(rel, [])
        text = str(tail)
        if text not in bucket and len(bucket) < 3:
            bucket.append(text)
    return render_schema(SchemaDescriptor(sorted(samples), samples, source_kind))


def make_table(name: str, rng: random.Random, names: Names, n_rows: int,
               team_size: int) -> Graph:
    n_cities = max(6, n_rows // 30)
    cities = [names.make(2) for _ in range(n_cities)]
    teams = [names.make(2) + "s" for _ in range(max(6, n_rows // team_size))]
    header = ["Name", "Age", "City", "Team", "Joined", "Score"]
    rows = []
    for i in range(n_rows):
        rows.append([
            names.make(3),
            rng.randint(18, 79),
            rng.choice(cities),
            teams[i % len(teams)],
            f"{rng.randint(1995, 2023)}-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}",
            rng.randint(0, 999),
        ])
    lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
    rel_tails = ((header[c], r[c]) for r in rows for c in range(1, 6))
    return Graph(
        ref=f"{name}.jsonl", source=f"{name}.csv", kind="table", lines=lines,
        edges=5 * n_rows, schema_text=_schema("table", rel_tails),
        data={"rows": rows, "cities": cities, "teams": teams},
    )


def make_films(name: str, rng: random.Random, names: Names, n_films: int
               ) -> Graph:
    directors = [names.make(2) + "r" for _ in range(max(6, n_films // 10))]
    genres = [names.make(2) + "ic" for _ in range(12)]
    places = [names.make(2) + "burg" for _ in range(max(2, n_films // 40))]
    films = []
    triples = []
    for _ in range(n_films):
        film = names.make(3) + "on"
        d = rng.choice(directors)
        g = rng.choice(genres)
        year = rng.randint(1950, 2023)
        films.append((film, d, g, year))
        triples += [(film, "directed_by", d), (film, "genre", g),
                    (film, "released", year)]
    born = {d: rng.choice(places) for d in directors}
    triples += [(d, "born_in", born[d]) for d in directors]
    lines = ["\t".join(str(x) for x in t) for t in triples]
    return Graph(
        ref=f"{name}.jsonl", source=f"{name}.tsv", kind="kg", lines=lines,
        edges=len(triples), schema_text=_schema("kg", ((r, t) for _, r, t in triples)),
        data={"films": films,
              "directors": list(dict.fromkeys(f[1] for f in films))},
    )


def make_terms(name: str, rng: random.Random, names: Names, n_orgs: int
               ) -> Graph:
    orgs = {}
    quads = []
    for k in range(n_orgs):
        org = names.make(2) + "corp"
        # The first two organisations pin the earliest and latest start, so
        # the last chair years always differ across organisations.
        year = (1950, 1990)[k] if k < 2 else rng.randint(1950, 1990)
        chairs = []
        for _ in range(12):
            chairs.append((names.make(3) + "ez", year))
            year += rng.randint(2, 4)
        base = rng.randint(1995, 2010)
        budgets = [(rng.randint(10, 999), base + j) for j in range(10)]
        orgs[org] = {"chairs": chairs, "budgets": budgets}
        quads += [(org, "chair", p, y) for p, y in chairs]
        quads += [(org, "budget", b, y) for b, y in budgets]
    lines = ["\t".join(str(x) for x in q) for q in quads]
    return Graph(
        ref=f"{name}.jsonl", source=f"{name}.tsv", kind="temporal",
        lines=lines, edges=len(quads),
        schema_text=_schema("temporal_kg", ((r, t) for _, r, t, _ in quads)),
        data={"orgs": orgs},
    )


# ------------------------------------------------------------- templates
# Each template draws parameters from a graph and returns (question text,
# correct plan, gold answer, whether step 1 yields a set of entity names).


@dataclass
class Inst:
    text: str
    plan: list[Step]
    answer: list
    names_first: bool


def _members(g: Graph, team: str) -> list[list]:
    return [r for r in g.data["rows"] if r[3] == team]


def _team_agg(col: int, rel: str, fn: str, phrase: str):
    def make(g: Graph, rng: random.Random) -> Inst:
        team = rng.choice(g.data["teams"])
        values = distinct(r[col] for r in _members(g, team))
        if fn == "mean":
            answer = tighten(sum(float(v) for v in values) / len(values))
        else:
            answer = {"sum": sum, "min": min, "max": max}[fn](values)
        return Inst(
            f"What is the {phrase} of team {team}?",
            [step("get_information", ("relation", "=", "Team"),
                  ("tail_entity", "=", team)),
             step("get_information", ("head_entity", "=", Ref(1)),
                  ("relation", "=", rel)),
             step(fn, ("set", "=", Ref(2)))],
            [answer], True)
    return make


def t_count_city(g, rng):
    city = rng.choice(sorted({r[2] for r in g.data["rows"]}))
    n = sum(1 for r in g.data["rows"] if r[2] == city)
    return Inst(f"How many people live in {city}?",
                [step("get_information", ("relation", "=", "City"),
                      ("tail_entity", "=", city)),
                 step("count", ("set", "=", Ref(1)))], [n], True)


def t_head_only(g, rng):
    row = rng.choice(g.data["rows"])
    return Inst(f"What is recorded about {row[0]}?",
                [step("get_information", ("head_entity", "=", row[0]))],
                distinct(row[1:]), False)


def t_tail_only(g, rng):
    city = rng.choice(sorted({r[2] for r in g.data["rows"]}))
    return Inst(f"Who is connected to {city}?",
                [step("get_information", ("tail_entity", "=", city))],
                [r[0] for r in g.data["rows"] if r[2] == city], True)


def t_keep_age(g, rng):
    team = rng.choice(g.data["teams"])
    ages = sorted(r[1] for r in _members(g, team))
    limit = ages[len(ages) // 2]
    if limit == ages[-1]:
        limit = ages[0] - 1
    return Inst(f"Which members of team {team} are older than {limit}?",
                [step("get_information", ("relation", "=", "Team"),
                      ("tail_entity", "=", team)),
                 step("keep", ("set", "=", Ref(1)), ("key", "=", "Age"),
                      ("value", ">", limit))],
                [r[0] for r in _members(g, team) if r[1] > limit], True)


def t_team_city(g, rng):
    team = rng.choice(g.data["teams"])
    city = rng.choice(_members(g, team))[2]
    return Inst(f"Which members of team {team} live in {city}?",
                [step("get_information", ("relation", "=", "Team"),
                      ("tail_entity", "=", team)),
                 step("get_information", ("relation", "=", "City"),
                      ("tail_entity", "=", city)),
                 step("set_intersection", ("set1", "=", Ref(1)),
                      ("set2", "=", Ref(2)))],
                [r[0] for r in _members(g, team) if r[2] == city], True)


def t_team_union(g, rng):
    a, b = rng.sample(g.data["teams"], 2)
    return Inst(f"Who plays for team {a} or team {b}?",
                [step("get_information", ("relation", "=", "Team"),
                      ("tail_entity", "=", a)),
                 step("get_information", ("relation", "=", "Team"),
                      ("tail_entity", "=", b)),
                 step("set_union", ("set1", "=", Ref(1)),
                      ("set2", "=", Ref(2)))],
                [r[0] for r in g.data["rows"] if r[3] in (a, b)], True)


def t_team_difference(g, rng):
    # The second step must find someone younger than the team's oldest.
    youngest = min(r[1] for r in g.data["rows"])
    team = rng.choice([t for t in g.data["teams"]
                       if max(r[1] for r in _members(g, t)) > youngest])
    limit = max(r[1] for r in _members(g, team))
    return Inst(f"Which members of team {team} are not younger than {limit}?",
                [step("get_information", ("relation", "=", "Team"),
                      ("tail_entity", "=", team)),
                 step("get_information", ("relation", "=", "Age"),
                      ("tail_entity", "<", limit)),
                 step("set_difference", ("set1", "=", Ref(1)),
                      ("set2", "=", Ref(2)))],
                [r[0] for r in _members(g, team) if r[1] >= limit], True)


def _films_by(g: Graph, director: str) -> list[tuple]:
    return [f for f in g.data["films"] if f[1] == director]


def t_kg_count(g, rng):
    d = rng.choice(g.data["directors"])
    return Inst(f"How many films did {d} direct?",
                [step("get_information", ("relation", "=", "directed_by"),
                      ("tail_entity", "=", d)),
                 step("count", ("set", "=", Ref(1)))],
                [len(_films_by(g, d))], True)


def t_kg_genres(g, rng):
    d = rng.choice(g.data["directors"])
    return Inst(f"Which genres has {d} directed?",
                [step("get_information", ("relation", "=", "directed_by"),
                      ("tail_entity", "=", d)),
                 step("get_information", ("head_entity", "=", Ref(1)),
                      ("relation", "=", "genre"))],
                distinct(f[2] for f in _films_by(g, d)), True)


def t_kg_first(g, rng):
    d = rng.choice(g.data["directors"])
    return Inst(f"When was the first film by {d} released?",
                [step("get_information", ("relation", "=", "directed_by"),
                      ("tail_entity", "=", d)),
                 step("get_information", ("head_entity", "=", Ref(1)),
                      ("relation", "=", "released")),
                 step("min", ("set", "=", Ref(2)))],
                [min(f[3] for f in _films_by(g, d))], True)


def t_kg_head(g, rng):
    film = rng.choice(g.data["films"])
    return Inst(f"What do we know about the film {film[0]}?",
                [step("get_information", ("head_entity", "=", film[0]))],
                distinct(film[1:]), False)


def t_kg_union(g, rng):
    a, b = rng.sample(g.data["directors"], 2)
    return Inst(f"Which films were directed by {a} or {b}?",
                [step("get_information", ("relation", "=", "directed_by"),
                      ("tail_entity", "=", a)),
                 step("get_information", ("relation", "=", "directed_by"),
                      ("tail_entity", "=", b)),
                 step("set_union", ("set1", "=", Ref(1)),
                      ("set2", "=", Ref(2)))],
                [f[0] for f in g.data["films"] if f[1] in (a, b)], True)


def t_tmp_chair(g, rng):
    org = rng.choice(sorted(g.data["orgs"]))
    person, year = rng.choice(g.data["orgs"][org]["chairs"])
    return Inst(f"Who became chair of {org} in {year}?",
                [step("get_information", ("head_entity", "=", org),
                      ("relation", "=", "chair"), ("key", "=", "time"),
                      ("value", "=", year))],
                [p for p, y in g.data["orgs"][org]["chairs"] if y == year],
                False)


def t_tmp_negation(g, rng):
    last = sorted(max(y for _, y in o["chairs"])
                  for o in g.data["orgs"].values())
    lo, hi = last[0], last[-1]
    year = rng.randint(lo + 1, hi) if hi > lo else hi
    answer = sum(1 for v in last if v < year)
    return Inst(f"How many organisations had no new chair from {year} on?",
                [step("get_information", ("relation", "=", "chair"),
                      ("key", "=", "time"), ("value", ">=", year)),
                 step("set_negation", ("set", "=", Ref(1))),
                 step("count", ("set", "=", Ref(2)))],
                [answer], True)


def _tmp_budget(fn: str, phrase: str):
    def make(g: Graph, rng: random.Random) -> Inst:
        org = rng.choice(sorted(g.data["orgs"]))
        values = distinct(b for b, _ in g.data["orgs"][org]["budgets"])
        if fn == "mean":
            answer = tighten(sum(float(v) for v in values) / len(values))
        else:
            answer = max(values)
        return Inst(f"What is the {phrase} budget of {org}?",
                    [step("get_information", ("head_entity", "=", org),
                          ("relation", "=", "budget")),
                     step(fn, ("set", "=", Ref(1)))],
                    [answer], False)
    return make


TEMPLATES: list[tuple[str, str, Callable[[Graph, random.Random], Inst]]] = [
    ("table", "count_city", t_count_city),
    ("kg", "kg_count", t_kg_count),
    ("table", "team_mean_score", _team_agg(5, "Score", "mean", "average score")),
    ("temporal", "tmp_chair", t_tmp_chair),
    ("table", "head_only", t_head_only),
    ("kg", "kg_genres", t_kg_genres),
    ("table", "team_sum_age", _team_agg(1, "Age", "sum", "sum of distinct ages")),
    ("temporal", "tmp_negation", t_tmp_negation),
    ("table", "tail_only", t_tail_only),
    ("kg", "kg_first", t_kg_first),
    ("table", "team_min_age", _team_agg(1, "Age", "min", "youngest age")),
    ("temporal", "tmp_mean_budget", _tmp_budget("mean", "average")),
    ("table", "keep_age", t_keep_age),
    ("kg", "kg_head", t_kg_head),
    ("table", "team_last_joined", _team_agg(4, "Joined", "max", "latest join date")),
    ("temporal", "tmp_max_budget", _tmp_budget("max", "largest")),
    ("table", "team_city", t_team_city),
    ("kg", "kg_union", t_kg_union),
    ("table", "team_union", t_team_union),
    ("table", "team_difference", t_team_difference),
]


# ------------------------------------------------------------- mutations
# Each mutation breaks a correct plan in one way and returns the broken plan
# with the error cgqa must report for it, or None where it does not apply.

_BAD_FUNCTIONS = ["lookup", "fetch_rows", "subtract", "filter_rows", "join"]
_BAD_PARAMS = ["column", "entity", "field", "attribute", "target"]


def _replace_step(plan, i, new):
    return plan[:i] + [new] + plan[i + 1:]


def _mutate(kind: str, plan: list[Step], names_first: bool, rng
            ) -> tuple[list[Step], dict] | None:
    fn, args = plan[0]
    if kind == "undefined_function":
        bad = rng.choice(_BAD_FUNCTIONS)
        return (_replace_step(plan, 0, (bad, args)),
                {"function": bad, "registry": DEFAULT_REGISTRY.names()})
    if kind == "illegal_parameter":
        bad = rng.choice(_BAD_PARAMS)
        new = ((bad,) + args[0][1:],) + args[1:]
        return (_replace_step(plan, 0, (fn, new)),
                {"function": fn, "parameter": bad,
                 "allowed": list(DEFAULT_REGISTRY.entries[fn].params)})
    if kind == "inconsistent_parameters":
        return (_replace_step(plan, 0, (fn, (args[0],) + args)),
                {"function": fn, "parameters": [args[0][0]],
                 "reason": "duplicate"})
    if kind == "illegal_comparator":
        for j, (n, c, v) in enumerate(args):
            if n in ("relation", "head_entity", "key") and c == "=":
                new = args[:j] + ((n, ">=", v),) + args[j + 1:]
                return (_replace_step(plan, 0, (fn, new)),
                        {"function": fn, "parameter": n, "comparator": ">="})
        return None
    if kind == "non_atomic_operation":
        for i, (sfn, sargs) in enumerate(plan):
            for j, (n, c, v) in enumerate(sargs):
                if isinstance(v, Ref):
                    inner = plan[v.index - 1]
                    new = sargs[:j] + ((n, c, Raw(call_text(inner))),) \
                        + sargs[j + 1:]
                    return (_replace_step(plan, i, (sfn, new)),
                            {"outer": sfn, "inner": inner[0]})
        return ([step("count", ("set", "=", Raw(call_text(plan[0]))))],
                {"outer": "count", "inner": fn})
    if kind == "non_standard_expression":
        for j, (n, c, v) in enumerate(args):
            if isinstance(v, str):
                new = args[:j] + ((n, c, Raw(v)),) + args[j + 1:]
                return _replace_step(plan, 0, (fn, new)), {"text": v}
        return None
    if kind == "runtime_exception":
        if not names_first:
            return None
        return ([plan[0], step("min", ("set", "=", Ref(1)))],
                {"function": "min",
                 "fault": "ordering not supported between text values"})
    if kind == "empty_mid_step_result":
        if len(plan) < 2:
            return None
        for j, (n, c, v) in enumerate(args):
            if n in ("head_entity", "tail_entity", "relation") and \
                    isinstance(v, str) and c == "=":
                new = args[:j] + ((n, c, v + "x"),) + args[j + 1:]
                return _replace_step(plan, 0, (fn, new)), {"step": 1}
        return None
    raise ValueError(kind)


_ANALYSES = {
    "undefined_function": "The function does not exist; use a registry function.",
    "illegal_parameter": "A parameter name is not legal for this function.",
    "inconsistent_parameters": "The parameters were passed inconsistently.",
    "illegal_comparator": "That comparator is only allowed on tail_entity and value.",
    "non_atomic_operation": "Calls were nested; each step must be one call.",
    "non_standard_expression": "A string value was not quoted.",
    "runtime_exception": "The aggregate was applied to the wrong set.",
    "empty_mid_step_result": "An entity or relation label was misspelled.",
}


# -------------------------------------------------------------- workloads


@dataclass
class Workload:
    name: str
    graphs: list[Graph]
    dataset: list[dict]         # {id, question, gold, graph_ref}
    replies: list[dict]         # {key, reply}
    demos: list[dict]           # Demonstration fields
    expect: dict[str, dict]     # question id -> expected outcome
    config: dict                # sc_n, mct, author, jobs


# Outcome classes for corrected questions, in rotation:
# (status, rounds); "gold" ends with a clean plan that misses the gold answer.
_CLASSES = [
    ("direct", 0), ("after", 1), ("after", 2), ("mct", 3), ("after", 1),
    ("gold", 0), ("after", 3), ("direct", 0), ("after", 1), ("gold", 1),
    ("after", 2), ("mct", 3), ("direct", 0), ("after", 1), ("gold", 2),
    ("after", 3),
]
_STATUS = {"direct": "solved_direct", "after": "solved_after_n",
           "mct": "failed_mct", "gold": "failed_gold_mismatch"}


def _other_inst(make, g, rng, avoid: list[set]) -> Inst | None:
    """Another instance of the same template whose answer differs from all
    answers in avoid (so it lands in a vote bucket of its own)."""
    for _ in range(200):
        inst = make(g, rng)
        key = {vkey(v) for v in inst.answer}
        if key and key not in avoid:
            return inst
    return None


def _build(name: str, graphs: list[Graph], n_questions: int, corrected: bool,
           rng: random.Random, pool: list[Demonstration], config: dict
           ) -> Workload:
    by_kind: dict[str, list[Graph]] = {}
    for g in graphs:
        by_kind.setdefault(g.kind, []).append(g)
    used_kind = {k: 0 for k in by_kind}
    pool_c = [d for d in pool if d.is_correction]
    sc_n = config["sc_n"]
    dataset, replies, expect = [], [], {}
    keys: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    kind_cursor = 0

    def add_reply(key: str, reply: str) -> None:
        keys.setdefault(key, []).append(reply)
        replies.append({"key": key, "reply": reply})

    i = 0
    while len(dataset) < n_questions:
        gkind, _, make = TEMPLATES[i % len(TEMPLATES)]
        group = by_kind[gkind]
        g = group[used_kind[gkind] % len(group)]
        used_kind[gkind] += 1
        inst = make(g, rng)
        i += 1
        if (g.ref, inst.text) in seen:
            continue
        seen.add((g.ref, inst.text))
        qid = f"{name}-{len(dataset):04d}"
        cls, rounds = (_CLASSES[len(dataset) % len(_CLASSES)]
                       if corrected else ("direct", 0))
        gold_key = {vkey(v) for v in inst.answer}

        # The chain of plans the model proposes: attempts 0..rounds.
        chain: list[tuple[str, dict | None, str | None]] = []
        used_kinds: set[str] = set()
        n_wrong = rounds if cls in ("after", "gold") else (
            rounds + 1 if cls == "mct" else 0)
        for _ in range(n_wrong):
            for _ in range(len(KIND_ORDER)):
                kind = KIND_ORDER[kind_cursor % len(KIND_ORDER)]
                kind_cursor += 1
                if kind in used_kinds:
                    continue
                mutated = _mutate(kind, inst.plan, inst.names_first, rng)
                if mutated is not None:
                    break
            else:
                raise RuntimeError("no applicable mutation")
            used_kinds.add(kind)
            chain.append((plan_text(mutated[0]), mutated[1], kind))
        final_answer = inst.answer
        if cls == "gold":
            other = _other_inst(make, g, rng, [gold_key])
            if other is None:
                raise RuntimeError(f"{qid}: no instance misses the gold answer")
            chain.append((plan_text(other.plan), None, None))
            final_answer = other.answer
        elif cls != "mct":
            chain.append((plan_text(inst.plan), None, None))

        text = inst.text
        schema = g.schema_text
        demos_q = retrieve_demos(text, pool, 15, 8)
        demos_c = retrieve_demos(text, pool_c, 15, 8)

        # Initial samples: three copies of attempt 0 and, for every third
        # question, two distractors with answers of their own. The vote then
        # picks attempt 0 whatever order the samples are served in.
        first = chain[0][0]
        samples = [first] * sc_n
        if sc_n >= 5 and len(dataset) % 3 == 0:
            avoid = [gold_key] if chain[0][1] is None else []
            if cls == "gold":
                avoid.append({vkey(v) for v in final_answer})
            d1 = _other_inst(make, g, rng, avoid)
            d2 = d1 and _other_inst(make, g, rng,
                                    avoid + [{vkey(v) for v in d1.answer}])
            if d2 is not None:
                samples = [first] * (sc_n - 2) + [plan_text(d1.plan),
                                                  plan_text(d2.plan)]
        key0 = request_digest(build_query_prompt(text, schema, demos_q))
        for s in samples:
            add_reply(key0, s)
        for r in range(1, len(chain)):
            wrong, detail, kind = chain[r - 1]
            message = QueryError(ErrorKind(kind), **detail).message
            prompt = build_correction_prompt(text, schema, wrong, message,
                                             demos_c)
            add_reply(request_digest(prompt),
                      f"{_ANALYSES[kind]}\n{chain[r][0]}")

        status = _STATUS[cls]
        solved = status in ("solved_direct", "solved_after_n")
        expect[qid] = {
            "status": status,
            "n": len(chain) - 1,
            "initial_kind": chain[0][2],
            "answer": None if cls == "mct" else final_answer,
            "records": len(chain) if solved else 0,
            "pairs": (len(chain) - 1) if solved and config["author"] == "student"
            else 0,
        }
        dataset.append({"id": qid, "question": text, "gold": inst.answer,
                        "graph_ref": g.ref})

    for key, lst in keys.items():
        # The SC samples of one prompt come in one run; any other repeated
        # key would make replay depend on request order.
        if len(lst) not in (1, sc_n):
            raise RuntimeError(f"reply key {key} requested {len(lst)} times")
    return Workload(name, graphs, dataset, replies,
                    [_demo_dict(d) for d in pool], expect, config)


def _demo_pool(graphs: list[Graph], size: int, rng: random.Random
               ) -> list[Demonstration]:
    """Half plain demonstrations, half correction demonstrations."""
    pool = []
    by_kind: dict[str, list[Graph]] = {}
    for g in graphs:
        by_kind.setdefault(g.kind, []).append(g)
    for i in range(size):
        gkind, _, make = TEMPLATES[i % len(TEMPLATES)]
        g = rng.choice(by_kind[gkind])
        inst = make(g, rng)
        good = plan_text(inst.plan)
        if i % 2 == 0:
            pool.append(Demonstration(inst.text, g.schema_text, good))
            continue
        kind = KIND_ORDER[(i // 2) % len(KIND_ORDER)]
        mutated = _mutate(kind, inst.plan, inst.names_first, rng)
        if mutated is None:
            kind = "undefined_function"
            mutated = _mutate(kind, inst.plan, inst.names_first, rng)
        message = QueryError(ErrorKind(kind), **mutated[1]).message
        pool.append(Demonstration(inst.text, g.schema_text, good,
                                  plan_text(mutated[0]), message,
                                  _ANALYSES[kind]))
    return pool


def _demo_dict(d: Demonstration) -> dict:
    return {k: getattr(d, k) for k in (
        "question", "schema_text", "plan_text", "wrong_plan_text",
        "error_message", "analysis")}


WORKLOADS = ("large-graph", "many-rounds", "slow-model")


def generate(workload: str, seed: int, smoke: bool = False) -> Workload:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # slow-model replays exactly the many-rounds inputs, so it shares its seed
    # stream; only the client and worker count differ.
    stream = "many-rounds" if workload == "slow-model" else workload
    rng = random.Random(f"{stream}:{seed}")
    names = Names(rng)
    if workload == "large-graph":
        # ~5e4 edges: 30k from the table, ~11k triples, ~9k quads.
        scale = 20 if smoke else 1
        graphs = [
            make_table("people", rng, names, 6000 // scale, 30),
            make_films("films", rng, names, 3500 // scale),
            make_terms("terms", rng, names, 400 // scale),
        ]
        config = {"sc_n": 1, "mct": 3, "author": "teacher", "jobs": 1}
        return _build(workload, graphs, 20 if smoke else 100, False, rng, [],
                      config)
    # many-rounds and slow-model share one question mix: ~20 small graphs
    # (1e2..1e3 edges each) and a ~400-entry demonstration pool.
    n_graphs = 3 if smoke else 20
    graphs = []
    for k in range(n_graphs):
        name = f"g{k:02d}"
        # Sizes are spread evenly rather than drawn, so every seed does the
        # same amount of work.
        frac = k / (n_graphs - 1)
        if k % 3 == 0:
            graphs.append(make_table(name, rng, names, 20 + int(180 * frac), 10))
        elif k % 3 == 1:
            graphs.append(make_films(name, rng, names, 35 + int(265 * frac)))
        else:
            graphs.append(make_terms(name, rng, names, 8 + int(37 * frac)))
    pool = _demo_pool(graphs, 40 if smoke else 400, rng)
    config = {"sc_n": 5, "mct": 3, "author": "student",
              "jobs": 2 if workload == "slow-model" else 1}
    return _build(workload, graphs, 40 if smoke else 160, True, rng, pool,
                  config)


def write_inputs(w: Workload, root) -> dict:
    """Write the files cgqa reads; return their layout for the measuring
    process."""
    src = root / "sources"
    src.mkdir(parents=True, exist_ok=True)
    sources = []
    for g in w.graphs:
        (src / g.source).write_text("\n".join(g.lines) + "\n", encoding="utf-8")
        sources.append({"path": str(src / g.source), "kind": g.kind,
                        "ref": g.ref, "edges": g.edges})
    files = {"dataset": w.dataset, "replies": w.replies, "demos": w.demos}
    for stem, items in files.items():
        with open(root / f"{stem}.jsonl", "w", encoding="utf-8") as fh:
            for item in items:
                fh.write(json.dumps(item, ensure_ascii=False) + "\n")
    return {"sources": sources,
            **{stem: str(root / f"{stem}.jsonl") for stem in files}}
