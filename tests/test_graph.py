"""Condition graph: ingestion, lookup against a brute-force scan, schema."""

from __future__ import annotations

import csv
import gc
import io
import json
import random
import re
import sys
import threading
import time
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa import graph
from cgqa.graph import (
    BadTimestampError,
    ConditionGraph,
    Edge,
    EmptyFieldError,
    EmptyHeaderError,
    GraphError,
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
from cgqa.jsonl import read_json, read_jsonl

from oracle import BIG_ENTITIES, BIG_RELATIONS, random_large_graph


def edge_rows(cg) -> list[tuple]:
    """Every edge of cg as its row (its Edge fields), in edge order."""
    return list(zip(*cg.columns.values()))


def lookup(cg, **pattern) -> list[tuple]:
    """The rows of the edges cg.lookup_ids(**pattern) names."""
    rows = edge_rows(cg)
    return [rows[i] for i in cg.lookup_ids(**pattern)]


def brute_lookup(cg, head=None, relation=None, tail=None, tail_cmp="=",
                 qual_key=None, qual_value=None, qual_cmp="="):
    """Linear filter over all edges: the index-free reference for lookup."""
    hits = []
    for row in edge_rows(cg):
        edge = Edge(*row)
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
        hits.append(row)
    return hits


class TestIngestTable:
    def test_column_to_edge_mapping(self):
        cg = ingest_table([["Alice", "Utah", "20"]], ["Name", "Colleges", "Age"])
        assert len(cg) == 2
        assert edge_rows(cg) == [("Alice", "Colleges", "Utah", "text", None),
                                 ("Alice", "Age", 20, "numeric", None)]

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
        assert [row[:2] for row in edge_rows(cg)] == [("Alice", "Id")]


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
        assert cg.columns["qualifier"] == (("time", "1999"),)

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
        (load_table_file, "K\tV\nb\n", RaggedRowError,
         ":2: 1 cells, header has 2"),
        (load_triples_file, "a\tr\na\tr\tb\n", RaggedRowError,
         ":1: 2 cells, not 3"),
    ], ids=["blank_lines", "multi_line_cell", "bad_time", "table_header",
            "row_after_header", "ragged_first_line"])
    def test_file_rows_name_the_line(self, tmp_path, load, text, error,
                                     want):
        path = tmp_path / "rows.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error) as info:
            load(str(path))
        assert str(info.value) == f"{path}{want}"

    def test_a_cell_past_the_csv_field_limit_names_its_line(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "rows.tsv"
        path.write_text("a\tr\tb\n\na\tr\t" + "x" * 200_000 + "\n",
                        encoding="utf-8")
        with pytest.raises(GraphError) as info:
            load_triples_file(str(path))
        assert str(info.value) == (
            f"{path}:3: field larger than field limit ({limit})")
        assert csv.field_size_limit() == limit

    def test_the_first_fault_in_file_order_is_named(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("a\tr\na\tr\t" + "x" * 200_000 + "\n",
                        encoding="utf-8")
        with pytest.raises(RaggedRowError, match=r":1: 2 cells, not 3$"):
            load_triples_file(str(path))

    @pytest.mark.parametrize("load", [load_table_file, load_triples_file,
                                      load_temporal_file])
    def test_text_that_is_not_utf8_names_the_file(self, tmp_path, load):
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"K\tV\nab\xffc\t1\n")
        with pytest.raises(ValueError) as info:
            load(str(path))
        assert str(info.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 6: "
            "invalid start byte")

    @pytest.mark.parametrize("read, line", [
        (load_triples_file, b"a\tr\tb\n"),
        (lambda path: read_jsonl(path, dict), b'{"a": 1}\n'),
        (lambda path: read_json(path, dict), b" " * 7 + b"\n")],
        ids=["load_triples_file", "read_jsonl", "read_json"])
    def test_a_bad_byte_is_named_by_its_offset_in_the_file(self, tmp_path,
                                                          read, line):
        """The decoder reads in chunks and counts from its chunk; the
        error names where the byte is in the file."""
        path = tmp_path / "input"
        path.write_bytes(line * 3000 + b"\xff\n")
        with pytest.raises(ValueError) as info:
            read(str(path))
        assert str(info.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position "
            f"{len(line) * 3000}: invalid start byte")

    @pytest.mark.parametrize("read, line", [
        (load_triples_file, b"a\tr\tb\n"),
        (lambda path: read_jsonl(path, dict), b'{"a": 1}\n'),
        (lambda path: read_json(path, dict), b" " * 7 + b"\n"),
        (load_graph, b'{"head": "a", "relation": "r", "tail": "b", '
         b'"tail_kind": "text", "qualifier": null}\n')],
        ids=["load_triples_file", "read_jsonl", "read_json", "load_graph"])
    def test_a_bad_byte_in_a_pipe_is_named_without_an_offset(self, piped,
                                                             read, line):
        """A pipe cannot be decoded again from its start, and its decoder
        counts from its chunk: the error names the byte and no offset."""
        source = piped(line * 3000 + b"\xff\n")
        with pytest.raises(ValueError) as info:
            read(source)
        assert str(info.value) == (
            f"{source}: 'utf-8' codec can't decode byte 0xff: invalid start "
            "byte")


class TestLookup:
    def test_single_match(self, toy_graph):
        hits = lookup(toy_graph, relation="Colleges", tail="Utah")
        assert [(h, t) for h, _, t, _, _ in hits] == [("Alice", "Utah")]
        assert hits == brute_lookup(toy_graph, relation="Colleges", tail="Utah")

    @pytest.mark.parametrize("bounds, want", [
        ({"relation": "r"}, [1, 2, 3, 20]),
        ({"tail": frozenset({"t1"})}, [1, 20])],
        ids=["from_head_index", "from_tail_index"])
    def test_a_head_set_is_keyed_once_per_lookup(self, monkeypatch, bounds,
                                                 want):
        cg = ingest_triples([(f"e{i}", "r", f"t{i}") for i in range(20)]
                            + [("07", "r", "t1")])
        heads = frozenset({"e1", "e2", "e3", 7})  # 7 matches the head '07'
        assert cg.lookup_ids(head=heads, **bounds) == want  # builds indexes
        calls = []
        real = graph.value_key
        monkeypatch.setattr(graph, "value_key",
                            lambda value: calls.append(value) or real(value))
        assert cg.lookup_ids(head=heads, **bounds) == want
        assert len(calls) == len(heads) + 1  # and the other bound's one

    @pytest.mark.parametrize("bounds, want, keys, tests", [
        ({"relation": "r"}, [1, 20], 2, 2),  # 2 relation tests
        ({"head": frozenset({"e1", "e2", "e3", 7})}, [1, 20], 5, 0),
        ({"head": "e1"}, [1], 2, 1)],
        ids=["from_tail_index", "head_set_from_tail_index",
             "from_head_index"])
    def test_a_literal_tail_is_keyed_once_per_lookup(self, monkeypatch, bounds,
                                                     want, keys, tests):
        cg = ingest_triples([(f"e{i}", "r", f"t{i}") for i in range(20)]
                            + [("07", "r", "t1")])
        assert cg.lookup_ids(tail="t1", **bounds) == want  # builds indexes
        calls, compared = [], []
        real_key, real_eq = graph.value_key, graph.eq
        monkeypatch.setattr(graph, "value_key",
                            lambda value: calls.append(value)
                            or real_key(value))
        monkeypatch.setattr(graph, "eq",
                            lambda a, b: compared.append(a) or real_eq(a, b))
        assert cg.lookup_ids(tail="t1", **bounds) == want
        assert len(calls) == keys
        # the tail index's candidates are not tested on their tail again
        assert len(compared) == tests

    @pytest.mark.parametrize("bounds, want, keys", [
        ({"relation": "r3"}, [3], 2),
        ({"tail": "t3"}, [3], 2),
        ({"relation": "r3", "tail": "t3"}, [3], 3)],
        ids=["from_relation_index", "from_tail_index", "both"])
    def test_a_literal_head_is_keyed_once_per_lookup(self, monkeypatch,
                                                     bounds, want, keys):
        # the head index holds more edges than the one the other index
        # names, so the head is tested on it, with the key the index used
        cg = ingest_triples([("e1", f"r{i}", f"t{i}") for i in range(6)]
                            + [("07", "r3", "t3")])
        assert cg.lookup_ids(head="E1", **bounds) == want  # builds indexes
        calls = []
        real = graph.value_key
        monkeypatch.setattr(graph, "value_key",
                            lambda value: calls.append(value) or real(value))
        assert cg.lookup_ids(head="E1", **bounds) == want
        assert cg.lookup_ids(head=7, **bounds) == [6]
        assert len(calls) == 2 * keys

    def test_empty_result(self, toy_graph):
        assert toy_graph.lookup_ids(relation="Hometown", tail="Utah") == []

    def test_numeric_comparator(self, toy_graph):
        hits = lookup(toy_graph, relation="Age", tail=21, tail_cmp="<")
        assert [(h, t) for h, _, t, _, _ in hits] == [("Alice", 20)]
        assert hits == brute_lookup(toy_graph, relation="Age", tail=21,
                                    tail_cmp="<")

    def test_text_comparator_rejected(self, toy_graph):
        with pytest.raises(KindMismatchError):
            toy_graph.lookup_ids(relation="Colleges", tail="Utah",
                                 tail_cmp="<")

    def test_qualifier_lookup(self, terms_graph):
        hits = lookup(terms_graph, relation="president", qual_key="time",
                      qual_value=1996)
        assert sorted(h for h, *_ in hits) == ["France", "USA"]

    def test_monotone_restriction(self, toy_graph):
        broad = set(lookup(toy_graph, relation="Age"))
        narrow = set(lookup(toy_graph, relation="Age", tail=20))
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
        edges.append((head, rel, tail, kind, qual))
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
    assert lookup(cg, **pattern) == brute_lookup(cg, **pattern)


@settings(max_examples=100, deadline=None)
@given(graphs_and_patterns())
def test_lookup_monotone_restriction(case):
    cg, pattern = case
    narrow = set(lookup(cg, **pattern))
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
            broad = set(lookup(cg, **broad_pattern))
        except KindMismatchError:
            continue  # widening exposed a text tail to a comparator
        assert narrow <= broad


@given(st.text(max_size=40))
def test_normalize_idempotent(s):
    assert normalize(normalize(s)) == normalize(s)


def test_indices_cover_every_edge(people_graph):
    for i, (head, relation, *_) in enumerate(edge_rows(people_graph)):
        assert i in people_graph.entity_index[normalize(head)]
        assert i in people_graph.relation_index[normalize(relation)]


def test_head_entities_keep_first_seen_surface_form():
    cg = ingest_triples([("Bob", "r", "x"), ("Alice", "r", "y"),
                         ("alice", "s", "z"), ("BOB", "s", "w")])
    outcome = execute_plan(validate_plan(parse_plan(
        "query1 = get_information(head_entity='Bob', relation='r')\n"
        "query2 = set_negation(set=output_of_query1)")), cg)
    assert set(outcome.answer) == {"Bob", "Alice"}


def test_dedup_no_identical_edges(people_graph):
    seen = set()
    for head, relation, tail, _, qualifier in edge_rows(people_graph):
        key = (head, relation, tail, qualifier)
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
        fresh = schema_summary(ConditionGraph(edge_rows(people_graph),
                                              "table"))
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
    assert load_graph(str(path)).columns == cg.columns


# Numeral-like texts: a sign, leading zeros (ASCII, Arabic-Indic or
# fullwidth; up to 5,000, past int()'s digit limit), digits (Unicode too;
# 400 overflow a float), a point with or without digits, and an exponent.
# An empty part, a lone point or a bare "e" makes text that is no numeral.
_NUMERAL_LIKE = st.builds(
    lambda *parts: "".join(parts), st.sampled_from(["", "+", "-"]),
    st.builds(str.__mul__, st.sampled_from(["0", "\u0660", "\uff10"]),
              st.sampled_from([0, 1, 5000])),
    st.sampled_from(["", "7", "25", "\u0667", "\uff17\u0662", "1" * 300,
                     "9" * 400]),
    st.sampled_from(["", ".", ".5", ".\u0665"]),
    st.sampled_from(["", "e1", "E-2", "e+999", "e-999", "e"]))
# An unquoted plan literal: what the grammar reads as a bare numeral.
_UNQUOTED = re.compile(r"-?\d+(\.\d+)?")


def _compared(value, number, op):
    """compare_values(value, number, op), or the error it raises."""
    try:
        return compare_values(value, number, op)
    except KindMismatchError as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(text=_NUMERAL_LIKE)
def test_a_numeral_is_one_value_as_cell_dump_tail_and_plan_literal(
        tmp_path_factory, text):
    # one rule (read_numeral) reads the text in each place it can appear
    cg = ingest_table([["a", text]], ["k", "v"])
    path = str(tmp_path_factory.mktemp("numeral") / "graph.jsonl")
    dump_graph(cg, path)
    values = {"cell": cg.columns["tail"][0],
              "dump tail": load_graph(path).columns["tail"][0]}
    literals = {"quoted plan literal": f"'{text}'"}
    if _UNQUOTED.fullmatch(text):
        literals["unquoted plan literal"] = text
    for where, literal in literals.items():
        plan = parse_plan("query1 = get_information(relation='v', "
                          f"tail_entity={literal})")
        values[where] = plan.steps[0].args[1].value
    want = values["cell"]
    for where, value in values.items():
        assert value_key(value) == value_key(want), where
        for number in (7, -0.5):
            for op in ("=", "<", ">", "<=", ">="):
                assert _compared(value, number, op) == _compared(
                    want, number, op), (where, number, op)


def test_text_that_is_nearly_a_long_numeral_is_read_in_linear_time():
    # a numeral regex that can split a run of digits in more than one way
    # backtracks over every split before it fails: about 10 s for this text
    text = "0" * 20_000 + "e"
    start = time.perf_counter()
    assert infer_scalar(text) == (text, "text")
    assert value_key(text) == text
    assert time.perf_counter() - start < 1


def test_dump_load_round_trip(tmp_path, people_graph, terms_graph):
    for cg in (people_graph, terms_graph):
        path = str(tmp_path / f"{cg.source_kind}.jsonl")
        dump_graph(cg, path)
        back = load_graph(path)
        assert back.columns == cg.columns
        assert back.source_kind == cg.source_kind


def scan_lookup(cg, head=None, relation=None, tail=None, tail_cmp="=",
                qual_key=None, qual_value=None, qual_cmp="="):
    """Every edge, every bound field, in lookup's documented test order,
    with no index: the reference for results and raised errors."""
    def match(value, bound, cmp="="):
        if isinstance(bound, frozenset):
            if cmp != "=":
                raise ValueError(f"comparison symbol '{cmp}' cannot be "
                                 "applied to a step result")
            return value_key(value) in {value_key(v) for v in bound}
        return compare_values(value, bound, cmp)

    hits = []
    for row in edge_rows(cg):
        edge = Edge(*row)
        q = edge.qualifier
        if head is not None and not match(edge.head, head):
            continue
        if relation is not None and not match(edge.relation, relation):
            continue
        if tail is not None and not match(edge.tail, tail, tail_cmp):
            continue
        if qual_key is not None and (q is None
                                     or not match(q[0], qual_key)):
            continue
        if qual_value is not None and (
                q is None or not match(q[1], qual_value, qual_cmp)):
            continue
        hits.append(row)
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
    for name, cmp_name, p in (("head", None, 0.4),
                              ("tail", "tail_cmp", 0.6),
                              ("qual_value", "qual_cmp", 0.15)):
        if rng.random() < p:
            pattern[name] = bound()
            if cmp_name and rng.random() < 0.5:
                pattern[cmp_name] = rng.choice(cmps)
    if rng.random() < 0.5:
        pattern["relation"] = (rng.choice(BIG_RELATIONS)
                               if rng.random() < 0.8
                               else frozenset(rng.sample(BIG_RELATIONS, 2)))
    if rng.random() < 0.15:
        pattern["qual_key"] = "time"
    return pattern


@pytest.mark.parametrize("numeric_text", [False, True])
def test_indexed_lookup_equals_scan_at_scale(numeric_text):
    cg, _ = random_large_graph(random.Random(5), 3000, numeric_text)
    rng = random.Random(11)
    # set members that normalize alike must not repeat an edge
    fixed = [{"head": frozenset({"e1", "E1 "})},
             {"relation": frozenset({"age", " AGE", "team"}), "tail": 30,
              "tail_cmp": "<"},
             {"tail": frozenset({"Austin", "austin", "e2", " E2"})}]
    raised = hits = 0
    for pattern in fixed + [_random_pattern(rng) for _ in range(400)]:
        got = _outcome(partial(lookup, cg), **pattern)
        assert got == _outcome(scan_lookup, cg=cg, **pattern), pattern
        raised += got[0] == "raised"
        hits += got[0] == "hits" and bool(got[1])
    assert raised > 20 and hits > 100


RANGE_RELATIONS = ["score", "born", "mixed", "code", "name"]


def _range_edges(rng: random.Random, n_edges: int = 2000) -> list[tuple]:
    """Rows whose buckets lie on one axis or not: score tails are numbers
    (some not whole), born tails ISO dates, mixed tails either, code tails
    numeral text ('07') and name tails text. A "time" qualifier is a year
    for score and code, a date for born and name, either for mixed; some
    edges have none. Most heads hold one relation's edges, h0..h9 any."""
    edges: dict[tuple, None] = {}
    while len(edges) < n_edges:
        relation = rng.choice(RANGE_RELATIONS)
        number = rng.choice([rng.randint(0, 60), rng.randint(0, 600) / 10])
        tail = {"score": number, "born": _iso(rng),
                "mixed": rng.choice([number, _iso(rng)]),
                "code": f"{rng.randint(0, 60):02d}",
                "name": f"p{rng.randrange(80)}"}[relation]
        year, date = str(rng.randint(1990, 2020)), _iso(rng)
        when = {"score": year, "code": year, "born": date, "name": date,
                "mixed": rng.choice([year, date])}[relation]
        head = (f"{relation}{rng.randrange(25)}" if rng.random() < 0.8
                else f"h{rng.randrange(10)}")
        edges[(head, relation, tail,
               "text" if isinstance(tail, str) else "numeric",
               None if rng.random() < 0.25 else ("time", when))] = None
    return list(edges)


def _range_pattern(rng: random.Random) -> dict:
    """A lookup with one or two comparators whose candidates come from a
    relation, head or tail bucket, a relation set, or every edge."""
    cmps = ["<", ">", "<=", ">="]

    def number():
        return rng.choice([rng.randint(0, 60), rng.randint(0, 600) / 10,
                           str(rng.randint(0, 60))])

    def when():  # 2005.5 is no date
        return rng.choice([rng.randint(1990, 2020), 2005.5, _iso(rng),
                           str(rng.randint(1990, 2020)), _iso(rng)])

    def bound(value):
        pick = rng.random()
        if pick < 0.08:  # a step result carrying a comparator
            return frozenset({value(), value()})
        return rng.choice(["p3", "unknown"]) if pick < 0.14 else value()

    pattern: dict = {}
    source = rng.choice(["relation", "relation", "head", "head", "tail",
                         "relations", "none"])
    if source == "relation":
        pattern["relation"] = rng.choice(RANGE_RELATIONS)
    elif source == "head":
        pattern["head"] = rng.choice([f"{rng.choice(RANGE_RELATIONS)}"
                                      f"{rng.randrange(25)}",
                                      f"h{rng.randrange(10)}"])
    elif source == "tail":
        pattern["tail"] = rng.choice([20, "07", "p3", _iso(rng)])
    elif source == "relations":
        pattern["relation"] = frozenset(rng.sample(RANGE_RELATIONS, 2))
    ranges = rng.choice(["tail", "qvalue", "qvalue", "both"])
    if ranges != "qvalue" and source != "tail":
        pattern["tail"] = bound(rng.choice([number, number, when]))
        pattern["tail_cmp"] = rng.choice(cmps)
    if ranges != "tail" or source == "tail":
        pattern["qual_value"] = bound(when)
        pattern["qual_cmp"] = rng.choice(cmps)
    if rng.random() < 0.3:
        pattern["qual_key"] = rng.choice(["time", "source"])
    return pattern


def test_range_lookups_equal_scan_on_every_axis():
    cg = ConditionGraph(_range_edges(random.Random(13)))
    answered, real = [], cg._bisect

    def counted(*args):
        answered.append(hits := real(*args))
        return hits
    cg._bisect = counted
    rng = random.Random(17)
    # step results of one axis each: the index answers no set's candidates
    fixed = [{"relation": frozenset({"score"}), "tail": 30, "tail_cmp": "<"},
             {"relation": frozenset({"code"}), "tail": 30, "tail_cmp": "<"},
             {"head": frozenset({"score1", "score2"}), "qual_value": 2000,
              "qual_cmp": ">="},
             {"head": frozenset({"code1"}), "qual_value": 2000,
              "qual_cmp": ">="}]
    raised = hits = 0
    for pattern in fixed + [_range_pattern(rng) for _ in range(400)]:
        want = _outcome(scan_lookup, cg=cg, **pattern)
        assert _outcome(partial(lookup, cg), **pattern) == want, pattern
        assert _outcome(partial(lookup, cg), **pattern) == want, pattern
        raised += want[0] == "raised"
        hits += want[0] == "hits" and bool(want[1])
    assert raised > 80 and hits > 100
    # the order index answered some lookups and declined others
    assert sum(a is not None for a in answered) > 80
    assert sum(a is None for a in answered) > 200


def test_a_bucket_range_keys_only_its_own_edges():
    cg = ConditionGraph(_range_edges(random.Random(13)))
    assert lookup(cg, relation="score", tail=30, tail_cmp=">=") == (
        scan_lookup(cg, relation="score", tail=30, tail_cmp=">="))
    assert lookup(cg, relation="born", qual_value="2001-02-03",
                  qual_cmp="<") == scan_lookup(
        cg, relation="born", qual_value="2001-02-03", qual_cmp="<")
    # no whole-column order key table was built for either
    assert {test for _, test in cg._edge_keys} == {"in"}


@pytest.mark.parametrize("cmp", ["<", ">", "<=", ">="])
def test_a_nan_key_or_bound_has_no_order_and_matches_nothing(cmp):
    # NaN fails every comparison, so no sorted index can answer for it
    cg = ConditionGraph([("a", "n", 5, "numeric", None),
                         ("b", "n", float("nan"), "numeric", None),
                         ("c", "n", 1, "numeric", None),
                         ("d", "m", 2, "numeric", None)])
    for pattern in [{"relation": "n", "tail": 3}, {"tail": float("nan")},
                    {"relation": "m", "tail": float("nan")}]:
        pattern["tail_cmp"] = cmp
        assert lookup(cg, **pattern) == scan_lookup(cg, **pattern), pattern


def _lookup_patterns():
    entities = frozenset(BIG_ENTITIES[:40])
    return [
        {"tail": 20}, {"tail": "20"}, {"tail": "austin"},
        {"relation": "team", "tail": entities}, {"tail": entities},
        {"head": entities, "relation": "age"}, {"head": "e7"},
        {"relation": "age", "tail": 30, "tail_cmp": "<"},
        {"relation": "score", "tail": 25, "tail_cmp": ">="},
        {"head": "e7", "relation": "age", "tail": 20, "tail_cmp": "<="},
        {"relation": "team", "qual_key": "time", "qual_value": 2000,
         "qual_cmp": "<"},
        {"tail": 20, "qual_value": "2005", "qual_cmp": ">"},
        {"qual_value": 2010, "qual_cmp": ">="},
    ]


def test_concurrent_first_lookups_match_one_thread():
    edges = edge_rows(random_large_graph(random.Random(9), 3000, True)[0])
    patterns = _lookup_patterns()
    alone = ConditionGraph(edges)
    want = ([lookup(alone, **p) for p in patterns], schema_summary(alone))

    shared = ConditionGraph(edges)
    barrier = threading.Barrier(4)
    results = []

    def work():
        barrier.wait(timeout=10)
        results.append(([lookup(shared, **p) for p in patterns],
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


def _three_edge_dump(path) -> list[str]:
    """The lines of a dump of three edges at path: a meta line first."""
    dump_graph(ingest_triples([("a", "r", "1"), ("b", "r", "2"),
                               ("c", "r", "3")]), str(path))
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize("line", [1, 3])
def test_an_edge_line_that_also_holds_meta_fails_as_its_line(tmp_path, line):
    # not read as a meta line that drops its edge and sets the source kind
    path = tmp_path / "graph.jsonl"
    lines = _three_edge_dump(path)[line == 1:]  # line 1: an edge line
    lines[line - 1] = lines[line - 1].replace(
        "{", '{"meta": {"source_kind": "table"}, ', 1)
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_graph(str(path))
    assert str(err.value) == (
        f'{path}:{line}: "meta" must be alone on the first line')


def test_a_meta_line_after_line_1_fails_as_its_line(tmp_path):
    path = tmp_path / "graph.jsonl"
    lines = _three_edge_dump(path)
    lines.insert(2, '{"meta": {"source_kind": "table"}}\n')
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_graph(str(path))
    assert str(err.value) == (
        f'{path}:3: "meta" must be alone on the first line')


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


def _temporal_edges(rng: random.Random, n_edges: int = 3000) -> list[tuple]:
    """Rows whose qualifier values are ISO dates, bare years and a few text
    values; tails are numbers, dates and text; some have no qualifier."""
    edges: dict[tuple, None] = {}
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
        edges[(f"org{rng.randrange(150)}", relation, tail, kind,
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
        assert _outcome(partial(lookup, cg), **pattern) == want, pattern
        assert _outcome(partial(lookup, cg), **pattern) == want, pattern
        raised += want[0] == "raised"
        hits += want[0] == "hits" and bool(want[1])
    assert raised > 20 and hits > 40


def test_edges_without_qualifier_never_raise_under_a_qualifier_test():
    cg = ConditionGraph([("Ann", "age", 20, "numeric", None),
                         ("Ann", "chair", "Bo", "text", ("time", "1999")),
                         ("Cy", "age", 30, "numeric", None)], "temporal_kg")
    for pattern in [{"qual_value": frozenset({1999}), "qual_cmp": "<"},
                    {"qual_value": "x", "qual_cmp": ">"}]:
        for head, raises in (("Cy", False), ("Ann", True)):
            got = _outcome(partial(lookup, cg), head=head, **pattern)
            assert got == _outcome(scan_lookup, cg=cg, head=head, **pattern)
            assert (got[0] == "raised") is raises, (head, pattern)


def test_concurrent_first_temporal_lookups_match_one_thread():
    edges = _temporal_edges(random.Random(8))
    rng = random.Random(6)
    patterns = [_temporal_pattern(rng) for _ in range(12)]
    alone = ConditionGraph(edges, "temporal_kg")
    want = [_outcome(partial(lookup, alone), **p) for p in patterns]

    shared = ConditionGraph(edges, "temporal_kg")
    barrier = threading.Barrier(4)
    results = []

    def work():
        barrier.wait(timeout=10)
        results.append([_outcome(partial(lookup, shared), **p)
                        for p in patterns])

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
    lambda h, r, t, q: (h, r, t, "text" if isinstance(t, str) else "numeric",
                        q),
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
    want += [json.dumps(Edge(*row).to_dict(), ensure_ascii=False)
             for row in dict.fromkeys(edges)]
    assert path.read_bytes().decode("utf-8").split("\n") == want + [""]
    back = load_graph(str(path))
    assert back.columns == cg.columns and len(back) == len(cg)
    assert list(map(type, back.columns["tail"])) == list(
        map(type, cg.columns["tail"]))


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
    assert answered == set(_EVERY_FUNCTION)
    # the columns hold each edge's fields, and lookup_ids names its edges
    kg, temporal, table = _ingest_every_kind()
    assert lookup(kg, head="ann") == [("Ann", "age", 20, "numeric", None),
                                      ("Ann", "city", "Austin", "text", None)]
    assert edge_rows(temporal) == [
        ("France", "president", "Chirac", "text", ("time", "1996")),
        ("France", "president", "Sarkozy", "text", ("time", "2008-05-16"))]
    assert lookup(table, relation="age", tail=25, tail_cmp=">") == [
        ("Bo", "Age", 31, "numeric", None)]
    path = str(tmp_path / "again.jsonl")
    dump_graph(temporal, path)
    assert load_graph(path).columns == temporal.columns
    # a qualifier lookup leaves columns holding exactly the Edge fields
    assert temporal.lookup_ids(qual_key="time", qual_value=2000, qual_cmp=">")
    assert list(temporal.columns) == [
        "head", "relation", "tail", "tail_kind", "qualifier"]
    assert built == []


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


def test_a_file_is_read_once_without_holding_its_rows(tmp_path):
    # tracemalloc counts bytes, not time, so the figure is the same each
    # run. Reading the whole file as a list of rows before ingesting it
    # peaked at 235 bytes per row of this kg (CPython 3.11) above what the
    # finished graph holds; reading rows as ingest asks for them, at 111.
    rng = random.Random(0)
    lines = []
    for i in range(20000):
        r = rng.randrange(20)
        tail = (str(rng.randrange(10**6)) if r % 2
                else f"val{rng.randrange(10**6)}")
        lines.append(f"ent{i // 5}\trel{r}\t{tail}\n")
    path = tmp_path / "kg.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    del lines
    gc.collect()
    tracemalloc.start()
    try:
        cg = load_triples_file(str(path))
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cg) == 20000
    assert (peak - held) / len(cg) <= 160


def test_a_head_lookup_without_numeric_heads_reuses_entity_index():
    cg = ingest_triples([("Ann", "age", "7"), ("07x", "age", "8"),
                         ("Bo", "likes", "Ann")])
    assert [h for h, *_ in lookup(cg, head="ann")] == ["Ann"]
    assert cg.project("head", tail=frozenset({7})) == {"Ann"}
    assert cg.index("head") is cg.entity_index
    numeric = ingest_triples([("7", "age", "x"), ("Bo", "likes", "7")])
    assert [h for h, *_ in lookup(numeric, head=7.0)] == ["7"]
    assert numeric.index("head") is numeric.entity_index
    for held in (cg, numeric):  # one key per value: no "=" table
        assert {test for _, test in held._edge_keys} == {"in"}


def test_a_failed_dump_leaves_no_graph_behind(tmp_path):
    # the last edge cannot be written as UTF-8, so the dump fails after
    # 20,000 lines: none of them may reach path, as a graph that loads
    cg = ingest_triples([(f"a{i}", "r", f"t{i}") for i in range(20000)]
                        + [("b\ud800", "r", "t")])
    path = tmp_path / "kg.jsonl"
    with pytest.raises(UnicodeEncodeError):
        dump_graph(cg, str(path))
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"an earlier file\n")
    with pytest.raises(UnicodeEncodeError):
        dump_graph(cg, str(path))
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"an earlier file\n"
    # a dump that cannot be placed names path, as open(path) would
    cg = ingest_triples([("a", "r", "t")])
    missing = tmp_path / "no" / "kg.jsonl"
    with pytest.raises(FileNotFoundError) as err:
        dump_graph(cg, str(missing))
    assert str(err.value) == ("[Errno 2] No such file or directory: "
                              f"'{missing}'")
    folder = tmp_path / "folder"
    folder.mkdir()
    with pytest.raises(IsADirectoryError) as err:
        dump_graph(cg, str(folder))
    assert str(err.value) == f"[Errno 21] Is a directory: '{folder}'"
    assert sorted(tmp_path.iterdir()) == [folder, path]


def test_a_dump_is_loaded_without_the_per_line_reader(tmp_path,
                                                      monkeypatch):
    edges = [("Ann", "age", 2**70, "numeric", None),
             ("Bo", "x", -0.0, "numeric", ("time", "1999")),
             ("Zoë", '"q"', "数据", "text", None)]
    calls = []  # into the per-line build of load_graph's per-chunk fallback
    read = graph._build_lines
    monkeypatch.setattr(graph, "_build_lines", lambda lines, build, *rest: (
        read(lines, lambda data: calls.append(data) or build(data), *rest)))
    for cg in [*_ingest_every_kind(), ConditionGraph(edges, "é\"x")]:
        path = tmp_path / f"{cg.source_kind}.jsonl"
        dump_graph(cg, str(path))
        back = load_graph(str(path))
        assert calls == []
        assert (back.columns, back.source_kind) == (cg.columns,
                                                    cg.source_kind)
        # a file dump_graph did not write is read line by line
        path.write_bytes(path.read_bytes() + b"\n")
        assert load_graph(str(path)).columns == cg.columns
        assert len(calls) == len(cg) + 1  # the meta line too
        calls.clear()


def test_a_dump_is_loaded_a_chunk_at_a_time(tmp_path):
    # tracemalloc counts bytes, not time, so the figure is the same each
    # run. Above what the finished graph holds, the per-line reader peaked
    # at 71 bytes per edge of this kg (CPython 3.11), and a reader of the
    # whole file at 678. The bulk reader, holding 16 KiB of lines at once,
    # peaks at 76; the bound 100 allows chunks up to about 64 KiB.
    rng = random.Random(0)
    triples = []
    for i in range(20000):
        r = rng.randrange(20)
        tail = (str(rng.randrange(10**6)) if r % 2
                else f"val{rng.randrange(10**6)}")
        triples.append((f"ent{i // 5}", f"rel{r}", tail))
    path = str(tmp_path / "kg.jsonl")
    dump_graph(ingest_triples(triples), path)
    del triples
    gc.collect()
    tracemalloc.start()
    try:
        cg = load_graph(path)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cg) == 20000
    assert (peak - held) / len(cg) <= 100


_NUMERALS = st.sampled_from(["7", "07", "2.50", "-3e2", "1e999", "1e-999",
                             "0", "20", "1" + "0" * 30])
_CELLS = _LABELS | _NUMERALS


@st.composite
def _any_graph(draw) -> ConditionGraph:
    """A table, kg or temporal kg as ingested, or a graph of any edges; it
    holds at least one edge."""
    kind = draw(st.sampled_from(["table", "kg", "temporal_kg", "edges"]))
    if kind == "table":
        header = draw(st.lists(_LABELS, min_size=2, max_size=4))
        cells = st.lists(_CELLS, min_size=len(header), max_size=len(header))
        rows = draw(st.lists(cells, min_size=1, max_size=5))
        return ingest_table(rows, header)
    if kind == "kg":
        return ingest_triples(draw(st.lists(
            st.tuples(_LABELS, _LABELS, _CELLS), min_size=1, max_size=8)))
    if kind == "temporal_kg":
        times = st.sampled_from(["1996", "2008-05-16", " 2001 "])
        return ingest_temporal(draw(st.lists(
            st.tuples(_LABELS, _LABELS, _CELLS, times), min_size=1,
            max_size=8)))
    return ConditionGraph(draw(st.lists(_EDGES, min_size=1, max_size=8)),
                          draw(st.sampled_from(["kg", "é\"x"])))


def _with(key: str, text: str | None):
    """An edit of an edge line: key set to the JSON text, or dropped."""
    def edit(line: str) -> list[str]:
        obj = {k: json.dumps(v, ensure_ascii=False)
               for k, v in json.loads(line).items()}
        obj[key] = text
        return ["{" + ", ".join(f'"{k}": {v}' for k, v in obj.items()
                                if v is not None) + "}\n"]
    return edit


def _as(*texts: str):
    """An edit that puts texts in place of a line."""
    return lambda line: list(texts)


_QUALIFIED = ('{"head": "a", "relation": "r", "tail": 1, '
              '"tail_kind": "numeric", "qualifier": ')
# Edits of one edge line that give a file dump_graph did not write (the
# first gives the dump itself), as the line's new lines...
_EDITS = {
    "none": lambda line: [line],
    **{f"no {key}": _with(key, None)
       for key in ["head", "relation", "tail", "tail_kind"]},
    "meta key": _with("meta", '{"source_kind": "table"}'),
    **{f"{key}: {text}": _with(key, text) for key, text in [
        ("head", "5"), ("head", '""'), ("relation", "null"),
        ("tail", "true"), ("tail", "false"), ("tail", "null"),
        ("tail", "[1]"), ("tail", "{}"), ("tail_kind", "3"),
        ("qualifier", '"x"'), ("qualifier", "5"), ("qualifier", "[]"),
        ("tail", "NaN"), ("tail", "Infinity"), ("tail", "-Infinity"),
        ("tail", "1e400"), ("tail", "1" + "0" * 400),
        ("tail", "-1" + "0" * 400),
        ("tail", str(int(sys.float_info.max) + 1)),
        ("tail", "1" * 5000),  # past the int digits limit
        ("tail", "[" * 5000 + "]" * 5000)]},  # past the recursion limit
    **{f"qualifier: {text}": _as(_QUALIFIED + text + "}\n") for text in [
        "{}", '{"key": "time", "value": "1996", "x": "y"}',
        '{"key": "time", "value": "1996", "x": 5}', '{"key": "time"}',
        '{"value": "1996"}', '{"key": "time", "value": 5}',
        '{"key": 5, "value": "1996"}']},
    **{f"line {texts!r}": _as(*texts) for texts in [
        ['{"meta": {"source_kind": "table"}}\n'], ["[1]\n"], ["null\n"],
        ['"text"\n'], ["5\n"], ['{"head": \n']]},
    "meta line before": lambda line: ['{"meta": {}}\n', line],
    "blank line before": lambda line: ["\n", line],
    "blank line after": lambda line: [line, "  \t\n"],
    "crlf": lambda line: [line[:-1] + "\r\n"],
    "cr": lambda line: [line[:-1] + "\r"],
    "trailing blank": lambda line: [line[:-1] + " \n"],
    "leading blank": lambda line: [" " + line],
    "leading tab": lambda line: ["\t" + line],
    "two on one line": lambda line: [line[:-1] + line],
    "two spaced": lambda line: [line[:-1] + " " + line],
    "split over two lines": lambda line: [line.replace(", ", ",\n", 1)],
    "truncated": lambda line: [line[:-3] + "\n"],
}
# ...and edits of a dump's meta line.
_META_EDITS = {
    **{f"meta {text}": _as(text + "\n") for text in [
        '{"meta": 5}', '{"meta": null}', '{"meta": {"source_kind": 3}}',
        '{"meta": {}}', '{"meta": {"source_kind": "table", "x": 1}}']},
    "no meta": _as(),
    "bom": lambda line: ["\ufeff" + line],
}
# The bulk reader takes the dump and these files, whose lines it reads as
# the per-line reader does (an empty head passes, and fails as the graph
# is built).
_TAKEN = {"none", 'head: ""', "qualifier: {}",
          'qualifier: {"key": "time", "value": "1996", "x": "y"}',
          "crlf", "cr", "all crlf", "no final newline", "no meta",
          'meta {"meta": {}}',
          'meta {"meta": {"source_kind": "table", "x": 1}}'}


def _read_lines(path: str) -> ConditionGraph:
    """load_graph as a whole-file per-line read: read_jsonl with load_graph's
    per-line check."""
    meta = {}
    rows = read_jsonl(path, partial(graph._edge_row, meta, {}.setdefault))
    return ConditionGraph(rows=filter(None, rows),
                          source_kind=meta.get("source_kind", "kg"))


def _load_outcome(load, path: str) -> tuple:
    try:
        cg = load(path)
    except Exception as exc:  # the reference raises what the load raises
        return type(exc), str(exc)
    return (cg.source_kind, cg.columns,
            [type(tail) for tail in cg.columns["tail"]])


@settings(max_examples=20, deadline=None)
@given(_any_graph(), st.data())
def test_a_dump_loads_as_the_per_line_reader_reads_it(tmp_path_factory, cg,
                                                      data):
    # load_graph reads every file as a whole-file per-line read (read_jsonl
    # with the per-line build) does, whether the bulk reader takes each
    # chunk or hands it over
    path = tmp_path_factory.getbasetemp() / "dump-as-lines.jsonl"
    dump_graph(cg, str(path))
    text = path.read_bytes().decode("utf-8")  # a label may hold U+2028
    dumped = [line + "\n" for line in text.split("\n")[:-1]]
    cases = [*((name, i, edit) for name, edit in _EDITS.items()
               for i in [data.draw(st.integers(1, len(dumped) - 1))]),
             *((name, 0, edit) for name, edit in _META_EDITS.items()),
             ("no final newline", len(dumped) - 1, lambda line: [line[:-1]]),
             ("all crlf", 0, None)]
    for name, i, edit in cases:
        if edit is None:
            lines = [line[:-1] + "\r\n" for line in dumped]
        else:
            lines = [*dumped[:i], *edit(dumped[i]), *dumped[i + 1:]]
        raw = [line.encode("utf-8") for line in lines]
        bad_byte = data.draw(st.sampled_from([None, "before", "after"]))
        if bad_byte:  # a line of its own, before or after the edited one
            where = (data.draw(st.integers(0, i)) if bad_byte == "before"
                     else data.draw(st.integers(i + 1, len(raw))))
            raw.insert(where, b"\xff\n")
        path.write_bytes(b"".join(raw))
        handed = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_CHUNK", data.draw(
                st.sampled_from([1, 100, graph._CHUNK])))
            patch.setattr(graph, "_build_lines", lambda lines, *rest, read=(
                graph._build_lines): handed.append(lines) or read(
                    lines, *rest))
            loaded = _load_outcome(load_graph, str(path))
        assert loaded == _load_outcome(_read_lines, str(path)), (
            name, bad_byte)
        assert (handed == []) == (name in _TAKEN and not bad_byte), name


def _dump_edited_at_2501(tmp_path, edit) -> tuple[ConditionGraph, Path]:
    """A 3,000-triple graph, and the path of its dump with line 2501, far
    past the first chunk, replaced by edit(line)."""
    cg = ingest_triples([(f"e{i}", "r", f"t{i}") for i in range(3000)])
    path = tmp_path / "kg.jsonl"
    dump_graph(cg, str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2500] = edit(lines[2500])
    path.write_bytes(b"".join(lines))
    return cg, path


def _indented(line: bytes) -> bytes:
    return b" " + line


def _null_tail(line: bytes) -> bytes:
    return json.dumps({**json.loads(line), "tail": None}).encode() + b"\n"


def test_only_the_chunk_of_a_bad_line_is_read_line_by_line(tmp_path,
                                                           monkeypatch):
    cg, path = _dump_edited_at_2501(tmp_path, _indented)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    handed = []  # (lines, number of the first) per chunk read line by line
    read = graph._build_lines
    monkeypatch.setattr(graph, "_build_lines", lambda chunk, build, path,
                        line: handed.append((chunk, line)) or read(
                            chunk, build, path, line))
    back = load_graph(str(path))
    assert (back.columns, back.source_kind) == (cg.columns, cg.source_kind)
    [(chunk, line)] = handed
    assert chunk == lines[line - 1:line - 1 + len(chunk)]
    assert line <= 2501 < line + len(chunk) and len(chunk) < len(lines) / 10


def test_a_dump_loads_through_a_pipe_as_from_its_file(tmp_path, piped):
    cg, path = _dump_edited_at_2501(tmp_path, _indented)
    for source in [str(path), piped(path.read_bytes())]:
        back = load_graph(source)
        assert (back.columns, back.source_kind) == (cg.columns,
                                                    cg.source_kind)
    _, path = _dump_edited_at_2501(tmp_path, _null_tail)
    for source in [str(path), piped(path.read_bytes())]:
        with pytest.raises(ValueError) as info:
            load_graph(source)
        assert str(info.value) == (
            f"{source}:2501: field 'tail' must be a string, an integer or "
            "a number, not null")


def _read_outcome(read, source: str):
    """What read(source) gives, or its error with source written as
    <source>."""
    try:
        got = read(source)
    except ValueError as exc:
        return str(exc).replace(source, "<source>")
    return getattr(got, "columns", got)


@pytest.mark.parametrize("read, line, bad", [
    (load_triples_file, b"a\tr\tb\n", b"a\tr\n"),
    (lambda path: read_jsonl(path, dict), b'{"a": 1}\n', b"[1]\n")],
    ids=["load_triples_file", "read_jsonl"])
def test_a_pipe_is_read_as_its_file(tmp_path, piped, read, line, bad):
    path = tmp_path / "input"
    for data in [line * 3000, line * 2500 + bad + line * 499]:
        path.write_bytes(data)
        assert _read_outcome(read, piped(data)) == _read_outcome(
            read, str(path))


_DUMP_LINE = (b'{"head": "a", "relation": "r", "tail": 1, '
              b'"tail_kind": "numeric", "qualifier": null}\n')
# Per reader: a file it reads, and a line that it fails on.
_SOURCES = {
    "load_graph": (load_graph, b'{"meta": {"source_kind": "kg"}}\n'
                   + _DUMP_LINE * 3, b"[1]\n"),
    "load_table_file": (load_table_file, b"K,V\na,1\n", b"b\n"),
    "load_triples_file": (load_triples_file, b"a\tr\tb\n", b"a\tr\n"),
    "load_temporal_file": (load_temporal_file, b"a\tr\tb\t1996\n",
                           b"a\tr\tb\n"),
    "read_jsonl": (lambda path: read_jsonl(path, dict), b'{"a": 1}\n',
                   b"[1]\n"),
    "read_json": (lambda path: read_json(path, dict), b'{"a": 1}', b"}"),
}


@pytest.mark.parametrize("damage", ["none", "bad line", "bad byte"])
@pytest.mark.parametrize("name", list(_SOURCES))
def test_a_source_is_opened_once(tmp_path, monkeypatch, name, damage):
    read, good, bad = _SOURCES[name]
    path = tmp_path / ("input.csv" if name == "load_table_file" else "input")
    path.write_bytes(good + {"none": b"", "bad line": bad,
                             "bad byte": b"\xff\n"}[damage])
    opened, real = [], open
    monkeypatch.setattr("builtins.open", lambda *args, **kwargs: (
        opened.append(args[0]) or real(*args, **kwargs)))
    outcome = _read_outcome(read, str(path))
    monkeypatch.undo()
    assert opened == [str(path)]
    assert isinstance(outcome, str) == (damage != "none"), outcome


# The per-row ingest that the memoized one replaced, kept as the reference:
# infer_scalar and the time check run on every cell.
def _per_row_table(rows, header, key_column=0):
    if not header or any(not h.strip() for h in header):
        raise EmptyHeaderError("header must be non-empty names")
    if isinstance(key_column, str):
        try:
            key_idx = [normalize(h) for h in header].index(
                normalize(key_column))
        except ValueError:
            raise EmptyHeaderError(f"key column {key_column!r} not in header")
    else:
        key_idx = key_column
        if not 0 <= key_idx < len(header):
            raise EmptyHeaderError(f"key column index {key_idx} out of range")
    edges = []
    names = [h.strip() for h in header]
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise RaggedRowError(
                r, f"{len(row)} cells, header has {len(header)}")
        head = str(row[key_idx]).strip()
        for c, cell in enumerate(row):
            if c != key_idx:
                edges.append((head, names[c], *infer_scalar(str(cell)), None))
    return ConditionGraph(rows=edges, source_kind="table")


def _per_row_facts(rows, width, source_kind):
    edges = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowError(r, f"{len(row)} cells, not {width}")
        qualifier = None
        if width == 4:
            qualifier = ("time", str(row[3]).strip())
            if time_key(qualifier[1]) is None:
                raise BadTimestampError(r, f"cannot parse time {row[3]!r}")
        edges.append((str(row[0]).strip(), str(row[1]).strip(),
                      *infer_scalar(str(row[2])), qualifier))
    return ConditionGraph(rows=edges, source_kind=source_kind)


_TEXT_CELLS = ["1", "1.0", "True", " 1 ", "01", "1e999", "-0.0",
               "2020-01-02", " 1999", "1999", "Ann", "ann ", "x"]
_TEXTS = st.sampled_from(_TEXT_CELLS) | st.text(max_size=3)
# equal as dict keys, yet each infers as its own text does
_OBJECTS = st.sampled_from([*_TEXT_CELLS, 1, 1.0, True, 0, -0.0, 0.0, False,
                            1999, 1999.0]) | _TEXTS
_TIMES = st.sampled_from(["1999", " 2004 ", "2020-01-02", "soon", "",
                          "2020-1-2", 1999, 1999.0, True, 2004, "1999.0"])


def _ingest_outcome(ingest, *args):
    try:
        cg = ingest(*args)
    except Exception as exc:  # the reference raises what the ingest raises
        return type(exc), str(exc)
    return (cg.source_kind, cg.columns,
            [type(tail) for tail in cg.columns["tail"]])


@st.composite
def _cell_rows(draw, width, cells):
    """Rows of width cells drawn from cells, a time from a few drawn times;
    now and then a ragged one."""
    times = draw(st.lists(_TIMES, min_size=1, max_size=3)) + draw(
        st.sampled_from([[], [1999, 1999.0]]))  # equal; only one a time
    times, rows = st.sampled_from(times), []
    for _ in range(draw(st.integers(0, 16))):
        n = width if draw(st.integers(0, 9)) else draw(st.integers(0, 5))
        rows.append([draw(times if c == 3 and width == 4 else cells)
                     for c in range(n)])
    return rows


@pytest.mark.parametrize("source", ["rows", ".tsv", ".csv"])
@pytest.mark.parametrize("kind", ["table", "kg", "temporal_kg"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_memoized_ingest_equals_the_per_row_ingest(tmp_path_factory, kind,
                                                   source, data):
    width = {"table": data.draw(st.integers(2, 4)), "kg": 3,
             "temporal_kg": 4}[kind]
    # a few cells, repeated: the memo's hits, and equal objects in one ingest
    cells = data.draw(st.lists(_OBJECTS if source == "rows" else _TEXTS,
                               min_size=1, max_size=4))
    if source == "rows":
        cells += data.draw(st.sampled_from([[], [1, 1.0, True], [0, -0.0,
                                            False], [1999, 1999.0, "1999"]]))
    rows = data.draw(_cell_rows(width, st.sampled_from(cells)))
    memo = data.draw(st.sampled_from([1, 2, 5, graph._MEMO]))
    ingest, reference = {
        "table": (ingest_table, _per_row_table),
        "kg": (ingest_triples, lambda rows: _per_row_facts(rows, 3, "kg")),
        "temporal_kg": (ingest_temporal, lambda rows: _per_row_facts(
            rows, 4, "temporal_kg"))}[kind]
    header = [f"c{i}" for i in range(width)] if kind == "table" else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_MEMO", memo)  # more distinct cells than it
        if source == "rows":
            args = (rows, header) if header else (rows,)
            assert _ingest_outcome(ingest, *args) == _ingest_outcome(
                reference, *args)
            return
        path = tmp_path_factory.getbasetemp() / f"ingest{source}"
        delimiter = "\t" if source == ".tsv" else ","
        lines = []
        for row in [header] * bool(header) + rows:
            if data.draw(st.integers(0, 4)) == 0:
                lines.append("\n")  # a blank line
            text = io.StringIO()
            csv.writer(text, delimiter=delimiter,
                       lineterminator="\n").writerow(row)
            lines.append(text.getvalue())
        path.write_text("".join(lines), encoding="utf-8", newline="")
        if kind == "table":
            got = _ingest_outcome(load_table_file, str(path))
            want = _ingest_outcome(graph._load_file, str(path), None,
                                   _per_row_table, True)
        else:
            load = (load_triples_file if kind == "kg"
                    else load_temporal_file)
            got = _ingest_outcome(load, str(path), delimiter)
            want = _ingest_outcome(graph._load_file, str(path), delimiter,
                                   reference)
        assert got == want


def test_an_ingested_graph_is_dumped_without_key_tables(tmp_path):
    for cg in (ingest_table([["Ann", "7", "x"], ["Bo", "07", "x"]],
                            ["name", "age", "tag"]),
               ingest_triples([("a", "r", "1"), ("b", "r", "x")]),
               ingest_temporal([("a", "r", "x", "1999")])):
        assert len(cg) > 0
        dump_graph(cg, str(tmp_path / "g.jsonl"))
        assert (cg._edge_keys, cg._indexes) == ({}, {})


def test_a_loaded_graph_holds_its_head_and_relation_indexes(tmp_path):
    path = tmp_path / "g.jsonl"
    dump_graph(ingest_temporal([("a", "r", "x", "1999"),
                                ("B", "s", "7", "2004")]), str(path))
    bulk = load_graph(str(path))
    path.write_bytes(path.read_bytes() + b"\n")  # read line by line
    per_line = load_graph(str(path))
    for cg in (bulk, per_line):
        assert set(cg._edge_keys) == {("head", "in"), ("relation", "in")}
        assert set(cg._indexes) == {"head", "relation"}
        assert cg.entity_index is cg._indexes["head"]


def test_a_column_is_keyed_once_per_distinct_value(monkeypatch):
    cg = ingest_triples([(f"E{i % 7}", f"r{i % 3}", ["1", "01", "x", "X"][
        i % 4]) for i in range(60)])
    calls = []
    monkeypatch.setattr(graph, "value_key", lambda value, key=(
        graph.value_key): calls.append(value) or key(value))
    for field in ("head", "relation", "tail"):
        calls.clear()
        keys = cg.edge_keys(field, "in")
        # at most once a value: "x" is not keyed once "X" has keyed as "x"
        assert len(calls) == len(set(map(repr, calls)))
        assert set(calls) <= set(cg.column(field))
        assert len(set(map(id, keys))) == len(set(keys))  # one object a key
        assert keys == tuple(map(value_key, cg.column(field)))
    assert len(calls) < len(cg)


def test_a_file_is_ingested_and_dumped_without_key_tables(tmp_path):
    # tracemalloc counts bytes, not time, so the figure is the same each
    # run. Ingesting this kg and dumping it peaked at 351 bytes per row
    # (CPython 3.11) while the graph built its head and relation keys and
    # indexes; without them, and with the ingest memo bounded, at 333.
    rng = random.Random(0)
    lines = []
    for i in range(20000):
        r = rng.randrange(20)
        tail = (str(rng.randrange(10**6)) if r % 2
                else f"val{rng.randrange(10**6)}")
        lines.append(f"ent{i // 5}\trel{r}\t{tail}\n")
    path = tmp_path / "kg.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    del lines
    gc.collect()
    tracemalloc.start()
    try:
        cg = load_triples_file(str(path))
        dump_graph(cg, str(tmp_path / "kg.jsonl"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cg) == 20000
    assert peak / len(cg) <= 340


_DUMP_LABELS = _LABELS | st.sampled_from(
    ['say "hi"', "a\\b", "\x00\x1f\x7f", "line\u2028sep\u2029", "Zoë 数据",
     "\x85x"])
_DUMP_TAILS = st.one_of(
    _DUMP_LABELS, st.sampled_from([-0.0, 0.0, 1e-07, 1e16, 2 ** 1000,
                                   -(10 ** 308), 10 ** 300, 7, -7]),
    st.integers(), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_DUMP_LABELS, _DUMP_LABELS, _DUMP_TAILS,
                          st.sampled_from(["text", "numeric", "date"]),
                          st.none() | st.tuples(_DUMP_LABELS, _DUMP_LABELS)),
                min_size=1, max_size=8),
       st.sampled_from(["kg", "table", 'q"uote']))
def test_dump_lines_are_what_json_dumps_writes(tmp_path_factory, rows,
                                               source_kind):
    cg = ConditionGraph(rows=rows, source_kind=source_kind)
    path = tmp_path_factory.getbasetemp() / "dump-lines.jsonl"
    dump_graph(cg, str(path))
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines == [
        json.dumps({"meta": {"source_kind": source_kind}}, ensure_ascii=False),
        *(json.dumps(Edge(*row).to_dict(), ensure_ascii=False)
          for row in edge_rows(cg)), ""]
