"""Condition graph: ingestion, lookup against a brute-force scan, schema."""

from __future__ import annotations

import gc
import json
import random
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa.graph import (
    BadTimestampError,
    ConditionGraph,
    Edge,
    EmptyFieldError,
    EmptyHeaderError,
    KindMismatchError,
    RaggedRowError,
    compare_values,
    dump_graph,
    infer_scalar,
    ingest_table,
    ingest_temporal,
    ingest_triples,
    load_graph,
    load_table_file,
    load_temporal_file,
    load_triples_file,
    normalize,
    schema_summary,
    time_key,
    value_key,
)
from cgqa.executor import execute_plan
from cgqa.dsl import parse_plan, validate_plan

from oracle import BIG_ENTITIES, BIG_RELATIONS, random_large_graph


def brute_lookup(cg, head=None, relation=None, tail=None, tail_cmp="=",
                 qual_key=None, qual_value=None, qual_cmp="="):
    """Linear filter over all edges: the index-free reference for lookup."""
    hits = []
    for edge in cg.edges:
        if head is not None and normalize(str(edge.head)) != normalize(str(head)):
            continue
        if relation is not None and normalize(edge.relation) != normalize(relation):
            continue
        if tail is not None and not compare_values(edge.tail, tail, tail_cmp):
            continue
        if qual_key is not None and (
            edge.qualifier is None
            or normalize(edge.qualifier[0]) != normalize(qual_key)
        ):
            continue
        if qual_value is not None and (
            edge.qualifier is None
            or not compare_values(edge.qualifier[1], qual_value, qual_cmp)
        ):
            continue
        hits.append(edge)
    return hits


class TestIngestTable:
    def test_column_to_edge_mapping(self):
        cg = ingest_table([["Alice", "Utah", "20"]], ["Name", "Colleges", "Age"])
        assert len(cg) == 2
        by_rel = {e.relation: e for e in cg.edges}
        assert by_rel["Colleges"].head == "Alice"
        assert by_rel["Colleges"].tail == "Utah"
        assert by_rel["Colleges"].tail_kind == "text"
        assert by_rel["Age"].tail == 20
        assert by_rel["Age"].tail_kind == "numeric"

    def test_empty_rows(self):
        cg = ingest_table([], ["Name"])
        assert len(cg) == 0

    def test_hundred_rows_by_construction(self):
        rows = [[f"row{i}", f"v{i}", str(i)] for i in range(100)]
        cg = ingest_table(rows, ["Key", "ColA", "ColB"])
        assert len(cg) == 200
        for rel in ("ColA", "ColB"):
            ids = cg.relation_index[normalize(rel)]
            assert len(ids) == 100

    def test_ragged_row(self):
        with pytest.raises(RaggedRowError):
            ingest_table([["a", "b"], ["a"]], ["X", "Y"])

    def test_empty_header(self):
        with pytest.raises(EmptyHeaderError):
            ingest_table([], [])
        with pytest.raises(EmptyHeaderError):
            ingest_table([], ["A", " "])

    def test_key_column_by_name(self):
        cg = ingest_table([["1", "Alice"]], ["Id", "Name"], key_column="Name")
        (edge,) = cg.edges
        assert edge.head == "Alice"
        assert edge.relation == "Id"


class TestIngestTriples:
    def test_single_triple(self):
        cg = ingest_triples([("Bob", "Hometown", "Texas")])
        assert len(cg) == 1

    def test_duplicates_collapse(self):
        cg = ingest_triples([("a", "r", "b"), ("a", "r", "b")])
        assert len(cg) == 1

    def test_empty_field(self):
        with pytest.raises(EmptyFieldError):
            ingest_triples([("", "r", "b")])

    def test_edge_count_equals_distinct_count(self):
        rng = random.Random(7)
        triples = [
            (f"h{rng.randrange(40)}", f"r{rng.randrange(5)}",
             f"t{rng.randrange(40)}")
            for _ in range(5000)
        ]
        distinct = len(set(triples))
        cg = ingest_triples(triples)
        assert len(cg) == distinct


class TestIngestTemporal:
    def test_year_qualifier(self):
        cg = ingest_temporal([("X", "president_of", "Y", "1999")])
        (edge,) = cg.edges
        assert edge.qualifier == ("time", "1999")

    def test_bad_timestamp(self):
        with pytest.raises(BadTimestampError):
            ingest_temporal([("X", "r", "Y", "abc")])

    def test_mixed_year_and_date_ordering(self):
        stamps = [
            "2001", "1999-06-15", "2000", "1999", "2000-01-02",
            "1998-12-31", "2001-01-01", "1997", "2000-11-30", "1999-01-01",
        ]
        ordered = sorted(stamps, key=time_key)
        manual = [
            "1997", "1998-12-31", "1999", "1999-01-01", "1999-06-15",
            "2000", "2000-01-02", "2000-11-30", "2001", "2001-01-01",
        ]
        assert ordered == manual


class TestRowErrorsNameTheFileLine:
    """In memory a bad row is named by its index; loaded from a file, by
    the 1-based line it starts on, counting blank lines and the header."""

    def test_in_memory_rows_keep_the_index(self):
        with pytest.raises(RaggedRowError, match=r"^row 1: 2 cells, not 3$"):
            ingest_triples([("a", "r", "b"), ("a", "r")])
        with pytest.raises(BadTimestampError,
                           match=r"^row 0: cannot parse time 'abc'$"):
            ingest_temporal([("X", "r", "Y", "abc")])

    @pytest.mark.parametrize("load, text, error, want", [
        (load_triples_file, "a\tr\tb\n\n\na\tr\n", RaggedRowError,
         ":4: 2 cells, not 3"),
        (load_triples_file, 'a\t"r\n\nr"\tb\n\nc\n', RaggedRowError,
         ":5: 1 cells, not 3"),
        (load_temporal_file, "\nX\tr\tY\t1999\nX\tr\tY\tabc\n",
         BadTimestampError, ":3: cannot parse time 'abc'"),
        (load_table_file, "\nK\tV\n\na\t1\nb\n", RaggedRowError,
         ":5: 1 cells, header has 2"),
    ], ids=["blank_lines", "multi_line_cell", "bad_time", "table_header"])
    def test_file_rows_name_the_line(self, tmp_path, load, text, error,
                                     want):
        path = tmp_path / "rows.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error) as info:
            load(str(path))
        assert str(info.value) == f"{path}{want}"


class TestLookup:
    def test_single_match(self, toy_graph):
        hits = toy_graph.lookup(relation="Colleges", tail="Utah")
        assert [(e.head, e.tail) for e in hits] == [("Alice", "Utah")]
        assert hits == brute_lookup(toy_graph, relation="Colleges", tail="Utah")

    def test_empty_result(self, toy_graph):
        assert toy_graph.lookup(relation="Hometown", tail="Utah") == []

    def test_numeric_comparator(self, toy_graph):
        hits = toy_graph.lookup(relation="Age", tail=21, tail_cmp="<")
        assert [(e.head, e.tail) for e in hits] == [("Alice", 20)]
        assert hits == brute_lookup(toy_graph, relation="Age", tail=21,
                                    tail_cmp="<")

    def test_text_comparator_rejected(self, toy_graph):
        with pytest.raises(KindMismatchError):
            toy_graph.lookup(relation="Colleges", tail="Utah", tail_cmp="<")

    def test_qualifier_lookup(self, terms_graph):
        hits = terms_graph.lookup(relation="president", qual_key="time",
                                  qual_value=1996)
        assert sorted(e.head for e in hits) == ["France", "USA"]

    def test_monotone_restriction(self, toy_graph):
        broad = set(toy_graph.lookup(relation="Age"))
        narrow = set(toy_graph.lookup(relation="Age", tail=20))
        assert narrow <= broad


@st.composite
def graphs_and_patterns(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    heads = [f"h{i}" for i in range(5)]
    rels = ["age", "city"]
    edges = []
    for _ in range(n):
        head = draw(st.sampled_from(heads))
        rel = draw(st.sampled_from(rels))
        if rel == "age":
            tail, kind = draw(st.integers(0, 50)), "numeric"
        else:
            tail, kind = draw(st.sampled_from(["x", "y", "z"])), "text"
        qual = draw(st.sampled_from([None, ("time", "1999"), ("time", "2001")]))
        edges.append(Edge(head, rel, tail, kind, qual))
    cg = ConditionGraph(edges)
    pattern = {}
    if draw(st.booleans()):
        pattern["head"] = draw(st.sampled_from(heads))
    if draw(st.booleans()):
        pattern["relation"] = draw(st.sampled_from(rels))
    if pattern.get("relation") == "age" and draw(st.booleans()):
        pattern["tail"] = draw(st.integers(0, 50))
        pattern["tail_cmp"] = draw(st.sampled_from(["=", "<", ">", "<=", ">="]))
    if not pattern:
        pattern["relation"] = "age"
    if draw(st.booleans()):
        pattern["qual_key"] = "time"
        pattern["qual_value"] = draw(st.sampled_from([1999, 2001]))
    return cg, pattern


@settings(max_examples=150, deadline=None)
@given(graphs_and_patterns())
def test_lookup_equals_brute_force(case):
    cg, pattern = case
    assert cg.lookup(**pattern) == brute_lookup(cg, **pattern)


@settings(max_examples=100, deadline=None)
@given(graphs_and_patterns())
def test_lookup_monotone_restriction(case):
    cg, pattern = case
    narrow = set(cg.lookup(**pattern))
    for dropped in list(pattern):
        if dropped in ("tail_cmp", "qual_cmp"):
            continue
        broad_pattern = {
            k: v for k, v in pattern.items()
            if k != dropped and not (dropped == "tail" and k == "tail_cmp")
            and not (dropped == "qual_value" and k == "qual_cmp")
        }
        if not any(k in broad_pattern
                   for k in ("head", "relation", "tail", "qual_key",
                             "qual_value")):
            continue
        try:
            broad = set(cg.lookup(**broad_pattern))
        except KindMismatchError:
            continue  # widening exposed a text tail to a comparator
        assert narrow <= broad


@given(st.text(max_size=40))
def test_normalize_idempotent(s):
    assert normalize(normalize(s)) == normalize(s)


def test_indices_cover_every_edge(people_graph):
    for i, edge in enumerate(people_graph.edges):
        assert i in people_graph.entity_index[normalize(edge.head)]
        assert i in people_graph.relation_index[normalize(edge.relation)]


def test_head_entities_keep_first_seen_surface_form():
    cg = ingest_triples([("Bob", "r", "x"), ("Alice", "r", "y"),
                         ("alice", "s", "z"), ("BOB", "s", "w")])
    outcome = execute_plan(validate_plan(parse_plan(
        "query1 = get_information(head_entity='Bob', relation='r')\n"
        "query2 = set_negation(set=output_of_query1)")), cg)
    assert set(outcome.answer) == {"Bob", "Alice"}


def test_dedup_no_identical_edges(people_graph):
    seen = set()
    for edge in people_graph.edges:
        key = (edge.head, edge.relation, edge.tail, edge.qualifier)
        assert key not in seen
        seen.add(key)


class TestSchemaSummary:
    def test_lexicographic_relations(self, toy_graph):
        schema = schema_summary(toy_graph)
        assert schema.relations == ["Age", "Colleges", "Hometown"]

    def test_empty_graph(self):
        schema = schema_summary(ConditionGraph([]))
        assert schema.relations == []
        assert schema.sample_values == {}

    def test_relation_count_from_table(self):
        rows = [[f"row{i}", f"v{i}", str(i)] for i in range(100)]
        cg = ingest_table(rows, ["Key", "ColA", "ColB"])
        schema = schema_summary(cg)
        assert len(schema.relations) == 2

    def test_sample_cap_and_first_seen(self, people_graph):
        schema = schema_summary(people_graph)
        assert schema.sample_values["Age"] == ["20", "25", "30"]
        assert schema.sample_values["Colleges"] == ["Utah", "Princeton",
                                                    "Stanford"]

    def test_ingest_then_summary_lists_distinct_relations(self, movies_graph):
        schema = schema_summary(movies_graph)
        assert schema.relations == sorted({"directed_by", "genre"})

    def test_repeated_calls_agree(self, people_graph):
        first = schema_summary(people_graph)
        again = schema_summary(people_graph)
        fresh = schema_summary(ConditionGraph(people_graph.edges, "table"))
        assert first == again == fresh
        assert first.text == fresh.text
        assert first is again

    def test_tiny_float_sample_reads_back(self):
        cg = ingest_triples([("a", "r", "0.00001"), ("b", "r", "2.5e-7")])
        assert schema_summary(cg).text == "source: kg\nr: 0.00001, 0.00000025"
        outcome = execute_plan(validate_plan(parse_plan(
            "query1 = get_information(relation='r', tail_entity=0.00001)")),
            cg)
        assert outcome.error is None and set(outcome.answer) == {"a"}


def test_infer_scalar_kinds():
    assert infer_scalar("20") == (20, "numeric")
    assert infer_scalar("20.5") == (20.5, "numeric")
    assert infer_scalar("1999") == (1999, "numeric")  # numbers win over years
    assert infer_scalar("1999-06-15") == ("1999-06-15", "date")
    assert infer_scalar("hello") == ("hello", "text")


def test_a_numeral_no_float_holds_is_ingested_as_text(tmp_path):
    # JSON has no Infinity: "1e999" would read as float inf, so it stays
    # the text it is, and its dump round-trips
    assert infer_scalar("1e999") == ("1e999", "text")
    assert infer_scalar("-1e999") == ("-1e999", "text")
    assert infer_scalar("1e-999") == (0.0, "numeric")
    cg = ingest_triples([("Ann", "mass", "1e999"), ("Ann", "age", "20")])
    path = tmp_path / "graph.jsonl"
    dump_graph(cg, str(path))
    for line in path.read_text(encoding="utf-8").splitlines():
        json.loads(line, parse_constant=pytest.fail)
    assert load_graph(str(path)).edges == cg.edges


def test_dump_load_round_trip(tmp_path, people_graph, terms_graph):
    for cg in (people_graph, terms_graph):
        path = str(tmp_path / f"{cg.source_kind}.jsonl")
        dump_graph(cg, path)
        back = load_graph(path)
        assert back.edges == cg.edges
        assert back.source_kind == cg.source_kind


def scan_lookup(cg, head=None, relation=None, tail=None, tail_cmp="=",
                qual_key=None, qual_value=None, qual_cmp="=", head_cmp="=",
                relation_cmp="=", key_cmp="="):
    """Every edge, every bound field, in lookup's documented test order,
    with no index: the reference for results and raised errors."""
    def match(value, bound, cmp):
        if isinstance(bound, frozenset):
            if cmp != "=":
                raise ValueError(f"comparison symbol '{cmp}' cannot be "
                                 "applied to a step result")
            return value_key(value) in {value_key(v) for v in bound}
        return compare_values(value, bound, cmp)

    literal_relation = relation is not None and not isinstance(relation,
                                                               frozenset)
    hits = []
    for edge in cg.edges:
        q = edge.qualifier
        if literal_relation and normalize(edge.relation) != normalize(
                str(relation)):
            continue
        if head is not None and not match(edge.head, head, head_cmp):
            continue
        if isinstance(relation, frozenset) and not match(
                edge.relation, relation, relation_cmp):
            continue
        if tail is not None and not match(edge.tail, tail, tail_cmp):
            continue
        if qual_key is not None and (q is None
                                     or not match(q[0], qual_key, key_cmp)):
            continue
        if qual_value is not None and (
                q is None or not match(q[1], qual_value, qual_cmp)):
            continue
        hits.append(edge)
    return hits


def _outcome(fn, **pattern):
    try:
        return ("hits", fn(**pattern))
    except (KindMismatchError, ValueError, AttributeError) as exc:
        return ("raised", type(exc), str(exc))


def _random_pattern(rng: random.Random) -> dict:
    cmps = ["=", "<", ">", "<=", ">="]

    def value():
        return rng.choice([rng.randint(0, 50), str(rng.randint(0, 50)),
                           rng.choice(BIG_ENTITIES), "austin", "nowhere"])

    def bound():
        if rng.random() < 0.4:
            return frozenset(value() for _ in range(rng.randint(0, 30)))
        return value()

    pattern = {}
    for name, cmp_name, p in (("head", "head_cmp", 0.4),
                              ("tail", "tail_cmp", 0.6),
                              ("qual_value", "qual_cmp", 0.15)):
        if rng.random() < p:
            pattern[name] = bound()
            if rng.random() < 0.3:
                pattern[cmp_name] = rng.choice(cmps)
    if rng.random() < 0.5:
        pattern["relation"] = (rng.choice(BIG_RELATIONS)
                               if rng.random() < 0.8
                               else frozenset(rng.sample(BIG_RELATIONS, 2)))
        if rng.random() < 0.2:
            pattern["relation_cmp"] = rng.choice(cmps)
    if rng.random() < 0.15:
        pattern["qual_key"] = "time"
    return pattern


@pytest.mark.parametrize("numeric_text", [False, True])
def test_indexed_lookup_equals_scan_at_scale(numeric_text):
    cg, _ = random_large_graph(random.Random(5), 3000, numeric_text)
    rng = random.Random(11)
    # A comparison that raises before the tail test must still raise when
    # no edge holds the tail.
    fixed = [{"head": "e1", "head_cmp": "<", "tail": "nowhere"},
             {"relation": frozenset({"age"}), "relation_cmp": "<",
              "tail": "nowhere"},
             # set members that normalize alike must not repeat an edge
             {"head": frozenset({"e1", "E1 "})},
             {"tail": frozenset({"Austin", "austin", "e2", " E2"})}]
    raised = hits = 0
    for pattern in fixed + [_random_pattern(rng) for _ in range(400)]:
        got = _outcome(cg.lookup, **pattern)
        assert got == _outcome(scan_lookup, cg=cg, **pattern), pattern
        raised += got[0] == "raised"
        hits += got[0] == "hits" and bool(got[1])
    assert raised > 20 and hits > 100


def _lookup_patterns():
    entities = frozenset(BIG_ENTITIES[:40])
    return [
        {"tail": 20}, {"tail": "20"}, {"tail": "austin"},
        {"relation": "team", "tail": entities}, {"tail": entities},
        {"head": entities, "relation": "age"}, {"head": "e7"},
        {"relation": "age", "tail": 30, "tail_cmp": "<"},
    ]


def test_concurrent_first_lookups_match_one_thread():
    edges = random_large_graph(random.Random(9), 3000, True)[0].edges
    patterns = _lookup_patterns()
    alone = ConditionGraph(edges)
    want = ([alone.lookup(**p) for p in patterns], schema_summary(alone))

    shared = ConditionGraph(edges)
    barrier = threading.Barrier(4)
    results = []

    def work():
        barrier.wait(timeout=10)
        results.append(([shared.lookup(**p) for p in patterns],
                        schema_summary(shared)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * 4


def test_dropped_graph_leaves_no_step_result_alive():
    cg, _ = random_large_graph(random.Random(3), 2000)
    plan = validate_plan(parse_plan(
        "query1 = get_information(relation='team', tail_entity='e5')\n"
        "query2 = get_information(tail_entity=output_of_query1)\n"
        "query3 = get_information(head_entity=output_of_query2, "
        "relation='age')"
    ))
    outcome = execute_plan(plan, cg)
    assert outcome.error is None and len(outcome.per_step) == 3
    schema_summary(cg)
    refs = [weakref.ref(step) for step in outcome.per_step]
    refs.append(weakref.ref(cg))
    del outcome, cg
    gc.collect()
    assert [r() for r in refs] == [None] * 4


def test_null_tail_in_a_dump_fails_at_load(tmp_path):
    # A tail is a string or a number: a hand-written "tail": null fails as
    # its file and line, before any lookup could reach the edge.
    path = tmp_path / "graph.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in [
        {"head": "Ann", "relation": "age", "tail": 20, "tail_kind": "numeric"},
        {"head": "Ann", "relation": "home", "tail": None, "tail_kind": "text"},
    ]), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_graph(str(path))
    assert str(err.value) == (f"{path}:2: field 'tail' must be a string, "
                              "an integer or a number, not null")


@pytest.mark.parametrize("tail", ["1e999", "-Infinity", "NaN",
                                  "1" + "0" * 400])
def test_non_finite_tail_in_a_dump_fails_at_load(tmp_path, tail):
    # Python's json reads the first three as floats no JSON holds, and the
    # last as an integer that no float holds, which value_key cannot key
    path = tmp_path / "graph.jsonl"
    path.write_text(
        '{"head": "Ann", "relation": "age", "tail": 20, '
        '"tail_kind": "numeric"}\n'
        f'{{"head": "Ann", "relation": "mass", "tail": {tail}, '
        '"tail_kind": "numeric"}\n', encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_graph(str(path))
    assert str(err.value) == (f"{path}:2: field 'tail' must be a string or "
                              "a number within float range")


TEMPORAL_RELATIONS = ["chair", "budget", "opened", "member"]


def _iso(rng: random.Random) -> str:
    return (f"{rng.randint(1990, 2020)}-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}")


def _temporal_edges(rng: random.Random, n_edges: int = 3000) -> list[Edge]:
    """Qualifier values are ISO dates, bare years and a few text values;
    tails are numbers, dates and text; some edges have no qualifier."""
    edges: dict[Edge, None] = {}
    while len(edges) < n_edges:
        relation = rng.choice(TEMPORAL_RELATIONS)
        if relation == "budget":
            tail, kind = rng.randint(0, 60), "numeric"
        elif relation == "opened":
            tail, kind = _iso(rng), "date"
        else:
            tail, kind = f"p{rng.randrange(80)}", "text"
        pick = rng.random()
        when = (str(rng.randint(1990, 2020)) if pick < 0.45 else _iso(rng)
                if pick < 0.9 else rng.choice(["unknown", "Ongoing"]))
        qualifier = (None if rng.random() < 0.1 else
                     ("source", "press") if rng.random() < 0.05 else
                     ("time", when))
        edges[Edge(f"org{rng.randrange(150)}", relation, tail, kind,
                   qualifier)] = None
    return list(edges)


def _temporal_pattern(rng: random.Random) -> dict:
    cmps = ["=", "<", ">", "<=", ">="]

    def when():
        return rng.choice([rng.randint(1990, 2020),
                           str(rng.randint(1990, 2020)), _iso(rng),
                           "unknown", " Ongoing"])

    def tail():
        return rng.choice([rng.randint(0, 60), str(rng.randint(0, 60)),
                           _iso(rng), f"p{rng.randrange(80)}"])

    def bound(value):
        if rng.random() < 0.3:
            return frozenset(value() for _ in range(rng.randint(0, 6)))
        return value()

    pattern: dict = {}
    if rng.random() < 0.7:
        pattern["relation"] = rng.choice(TEMPORAL_RELATIONS)
    if rng.random() < 0.6:
        pattern["qual_key"] = rng.choice(["time", " TIME", "source"])
    if rng.random() < 0.7:
        pattern["qual_value"] = bound(when)
        pattern["qual_cmp"] = rng.choice(cmps)
    if rng.random() < 0.4:
        pattern["tail"] = bound(tail)
        pattern["tail_cmp"] = rng.choice(cmps)
    if rng.random() < 0.2:
        pattern["head"] = f"org{rng.randrange(150)}"
    return pattern or {"relation": "chair"}


def test_temporal_lookups_equal_scan_before_and_after_key_tables():
    edges = _temporal_edges(random.Random(21))
    rng = random.Random(4)
    raised = hits = 0
    for pattern in [_temporal_pattern(rng) for _ in range(150)]:
        cg = ConditionGraph(edges, "temporal_kg")  # no key table built yet
        want = _outcome(scan_lookup, cg=cg, **pattern)
        assert _outcome(cg.lookup, **pattern) == want, pattern
        assert _outcome(cg.lookup, **pattern) == want, pattern
        raised += want[0] == "raised"
        hits += want[0] == "hits" and bool(want[1])
    assert raised > 20 and hits > 40


def test_edges_without_qualifier_never_raise_under_a_qualifier_test():
    cg = ConditionGraph([Edge("Ann", "age", 20, "numeric"),
                         Edge("Ann", "chair", "Bo", "text", ("time", "1999")),
                         Edge("Cy", "age", 30, "numeric")], "temporal_kg")
    for pattern in [{"qual_value": frozenset({1999}), "qual_cmp": "<"},
                    {"qual_value": "x", "qual_cmp": ">"},
                    {"qual_key": frozenset({"time"}), "key_cmp": "<"}]:
        for head, raises in (("Cy", False), ("Ann", True)):
            got = _outcome(cg.lookup, head=head, **pattern)
            assert got == _outcome(scan_lookup, cg=cg, head=head, **pattern)
            assert (got[0] == "raised") is raises, (head, pattern)


def test_concurrent_first_temporal_lookups_match_one_thread():
    edges = _temporal_edges(random.Random(8))
    rng = random.Random(6)
    patterns = [_temporal_pattern(rng) for _ in range(12)]
    alone = ConditionGraph(edges, "temporal_kg")
    want = [_outcome(alone.lookup, **p) for p in patterns]

    shared = ConditionGraph(edges, "temporal_kg")
    barrier = threading.Barrier(4)
    results = []

    def work():
        barrier.wait(timeout=10)
        results.append([_outcome(shared.lookup, **p) for p in patterns])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * 4


# Labels and tails that JSON escapes, or that Python's json writes in a form
# of its own: quotes, backslashes, control and separator characters,
# non-ASCII text, integers past 2**53 and floats in exponent form.
_LABELS = st.one_of(
    st.sampled_from(['Ann', 'Zoë', '"quoted"', 'back\\slash', 'tab\there',
                     'nul\x00', 'line sep', '\xa0nbsp', '数据', 'del\x7f',
                     'emoji \U0001f600']),
    st.text(min_size=1, max_size=6)).filter(lambda s: normalize(s) != "")
_TAILS = st.one_of(
    _LABELS, st.text(max_size=4),
    st.integers(-2**70, 2**70), st.sampled_from([1e-05, -0.0, 1e16, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False))
_EDGES = st.builds(
    lambda h, r, t, q: Edge(h, r, t, "text" if isinstance(t, str)
                            else "numeric", q),
    _LABELS, _LABELS, _TAILS, st.none() | st.tuples(_LABELS, _LABELS))


@settings(max_examples=100, deadline=None)
@given(st.lists(_EDGES, max_size=12), st.data(),
       st.sampled_from(["kg", "table", "temporal_kg", "é\"x"]))
def test_dump_writes_each_edge_as_its_record_does(tmp_path_factory, edges,
                                                  data, source_kind):
    # duplicate rows collapse to the first, in the dump as in the graph
    edges += data.draw(st.lists(st.sampled_from(edges), max_size=4)
                       if edges else st.just([]))
    cg = ConditionGraph(edges, source_kind)
    path = tmp_path_factory.getbasetemp() / "dump-property.jsonl"
    dump_graph(cg, str(path))
    want = [json.dumps({"meta": {"source_kind": source_kind}},
                       ensure_ascii=False)]
    want += [json.dumps(edge.to_dict(), ensure_ascii=False)
             for edge in dict.fromkeys(edges)]
    assert path.read_bytes().decode("utf-8").split("\n") == want + [""]
    back = load_graph(str(path))
    assert back.edges == cg.edges and len(back) == len(cg)
    assert [type(e.tail) for e in back.edges] == [
        type(e.tail) for e in cg.edges]


def _ingest_every_kind() -> list[ConditionGraph]:
    return [
        ingest_triples([("Ann", "age", "20"), ("Ann", "city", "Austin"),
                        ("Bo", "age", "31"), ("Bo", "city", "Boston"),
                        ("Cy", "age", "25"), ("Cy", "city", "Austin")]),
        ingest_temporal([("France", "president", "Chirac", "1996"),
                         ("France", "president", "Sarkozy", "2008-05-16")]),
        ingest_table([["Ann", "Utah", "20"], ["Bo", "Yale", "31"]],
                     ["Name", "College", "Age"]),
    ]


_EVERY_FUNCTION = [
    "query1 = get_information(relation='age', tail_entity>21)",
    "query1 = get_information(head_entity='France', tail_entity='Chirac', "
    "key='time')",
    *(f"query1 = get_information(relation='age')\n"
      f"query2 = {fn}(set=output_of_query1)"
      for fn in ("min", "max", "mean", "sum", "count")),
    "query1 = get_information(relation='city', tail_entity='Austin')\n"
    "query2 = keep(set=output_of_query1, key='age', value>21)",
    "query1 = get_information(relation='president', tail_entity='Chirac')\n"
    "query2 = keep(set=output_of_query1, key='time', value<2000)",
    *("query1 = get_information(relation='city', tail_entity='Austin')\n"
      "query2 = get_information(relation='age', tail_entity>21)\n"
      f"query3 = {fn}(set1=output_of_query1, set2=output_of_query2)"
      for fn in ("set_intersection", "set_union", "set_difference")),
    "query1 = get_information(relation='city', tail_entity='Austin')\n"
    "query2 = set_negation(set=output_of_query1)",
]


def test_no_edge_is_built_to_ingest_dump_load_summarize_or_execute(
        tmp_path, monkeypatch):
    built = []
    init = Edge.__init__

    def counted(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Edge, "__init__", counted)
    answered = set()
    for cg in _ingest_every_kind():
        path = str(tmp_path / f"{cg.source_kind}.jsonl")
        dump_graph(cg, path)
        for graph in (cg, load_graph(path)):
            schema_summary(graph)
            for text in _EVERY_FUNCTION:
                outcome = execute_plan(validate_plan(parse_plan(text)), graph)
                if outcome.answer:
                    answered.add(text)
    assert built == []
    assert answered == set(_EVERY_FUNCTION)
    # lookup and edges still give Edges, built on demand
    monkeypatch.undo()
    kg, temporal, table = _ingest_every_kind()
    assert kg.lookup(head="ann") == [Edge("Ann", "age", 20, "numeric"),
                                     Edge("Ann", "city", "Austin", "text")]
    assert temporal.edges == (
        Edge("France", "president", "Chirac", "text", ("time", "1996")),
        Edge("France", "president", "Sarkozy", "text",
             ("time", "2008-05-16")))
    assert table.lookup(relation="age", tail=25, tail_cmp=">") == [
        Edge("Bo", "Age", 31, "numeric")]
    path = str(tmp_path / "again.jsonl")
    dump_graph(temporal, path)
    assert load_graph(path).edges == temporal.edges
    # a qualifier lookup leaves columns holding exactly the Edge fields
    assert temporal.lookup(qual_key="time", qual_value=2000, qual_cmp=">")
    assert list(temporal.columns) == [
        "head", "relation", "tail", "tail_kind", "qualifier"]


def test_a_loaded_graph_takes_at_most_half_the_bytes_edge_objects_took(
        tmp_path):
    # tracemalloc counts bytes, not time, so the figure is the same each
    # run. A graph of Edge objects held 411 bytes per loaded edge of this kg
    # (CPython 3.11); its columns, indexes and keys must hold at most half.
    rng = random.Random(0)
    triples = []
    for i in range(20000):
        r = rng.randrange(20)
        tail = (str(rng.randrange(10**6)) if r % 2
                else f"val{rng.randrange(10**6)}")
        triples.append((f"ent{i // 5}", f"rel{r}", tail))
    path = str(tmp_path / "kg.jsonl")
    dump_graph(ingest_triples(triples), path)
    gc.collect()
    tracemalloc.start()
    try:
        cg = load_graph(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(cg) == 20000
    assert held / len(cg) <= 205
