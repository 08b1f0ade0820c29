"""Condition graph: a uniform edge store for tables, triples, and temporal facts.

Every data source is flattened to (head, relation, tail[, qualifier]) edges.
Tails carry a scalar kind fixed at ingestion — number, date, or text — so the
executor's comparators have stable semantics. Graphs are immutable once built
and safe for concurrent readers.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import chain, count
from json.encoder import encode_basestring
from operator import attrgetter, eq, ge, gt, itemgetter, le, lt
from typing import Any, Callable, Iterable, Sequence

from .dsl import render_value
from .jsonl import Record, _codec, _read_fields, check_types, read_jsonl

Scalar = str | int | float
Bound = Scalar | set | frozenset | None  # a lookup field; None is unbound

KIND_TEXT = "text"
KIND_NUMERIC = "numeric"
KIND_DATE = "date"

_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_YEAR_RE = re.compile(r"^\d{4}$")


class GraphError(ValueError):
    """Base for ingestion and lookup failures: bad input, so a ValueError."""


class EmptyHeaderError(GraphError):
    pass


class RowError(GraphError):
    """A bad input row, named by its index among the rows ingested, or by
    file and line once a file loader has placed it."""

    def __init__(self, row: int, reason: str, where: str | None = None):
        super().__init__(f"{where or f'row {row}'}: {reason}")
        self.row, self.reason = row, reason


class RaggedRowError(RowError):
    pass


class EmptyFieldError(GraphError):
    pass


class BadTimestampError(RowError):
    pass


class KindMismatchError(GraphError):
    """A non-equality comparator was applied to a text value."""


def normalize(label: str) -> str:
    """Trim and case-fold a label. Idempotent; a label that is already
    normal comes back as the same object, so no copy is kept of it."""
    folded = label.strip().casefold()
    return label if folded == label else folded


def infer_scalar(text: str) -> tuple[Scalar, str]:
    """Infer (typed value, kind) for a cell. Numbers win over bare years."""
    cell = text.strip()
    if _NUM_RE.match(cell):
        value = float(cell)
        if value.is_integer() and "e" not in cell.lower() and "." not in cell:
            return int(cell), KIND_NUMERIC
        if abs(value) > sys.float_info.max:  # 1e999: JSON holds no Infinity
            return cell, KIND_TEXT
        return value, KIND_NUMERIC
    if _DATE_RE.match(cell):
        return cell, KIND_DATE
    return cell, KIND_TEXT


def time_key(value: Scalar) -> tuple[int, int, int] | None:
    """Comparable (year, month, day) for a date or bare-year value."""
    if isinstance(value, (int, float)):
        if float(value).is_integer():
            return (int(value), 1, 1)
        return None
    m = _DATE_RE.match(value.strip())
    if m:
        return (int(m.group(1)), int(m.group(2)), int(m.group(3)))
    if _YEAR_RE.match(value.strip()):
        return (int(value), 1, 1)
    return None


def value_text(value: Scalar) -> str:
    """Canonical text form of a scalar: integral floats print as ints, other
    floats in positional digits, as the query language writes them."""
    if isinstance(value, bool):  # guard: bools are ints but never stored
        return str(value)
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else render_value(value)
    return str(value)


def value_key(value: Scalar) -> float | str:
    """Identity key used for set membership and deduplication: the number,
    or the normalized text. A str never equals a float, so kinds stay apart."""
    if isinstance(value, (int, float)):
        return float(value)
    return normalize(value)


class ValueSet(frozenset):
    """A step result: a frozenset of one value per value_key that holds
    by_key (key -> value), so later steps, bounds and sort_values read the
    keys instead of computing them again."""

    __slots__ = ("by_key",)

    def __new__(cls, by_key: dict[float | str, Scalar]) -> ValueSet:
        values = super().__new__(cls, by_key.values())
        values.by_key = by_key
        return values


def key_map(values: Iterable[Scalar]) -> dict[float | str, Scalar]:
    """value_key -> value: a ValueSet's own map, else one built from values
    (a plain set has no first value, so the last of a key wins)."""
    if isinstance(values, ValueSet):
        return values.by_key
    return {value_key(v): v for v in values}


def sorted_keys(keys: Iterable[float | str]) -> list[float | str]:
    """Value keys in rendering order: numbers by value, then text."""
    return sorted(keys, key=lambda k: (isinstance(k, str), k))


def sort_values(values: Iterable[Scalar]) -> list[Scalar]:
    """Stable rendering order: numbers first by value, then text. A ValueSet
    sorts by its held keys; other values keep ties in iteration order."""
    if isinstance(values, ValueSet):
        return [values.by_key[k] for k in sorted_keys(values.by_key)]
    return sorted(values, key=lambda v: (isinstance(v, str), value_key(v)))


def compare_values(left: Scalar, right: Scalar, op: str) -> bool:
    """Compare two scalars under =, <, >, <=, >=.

    Numbers compare numerically; date-shaped text compares chronologically
    (bare years count as January 1). Text supports only equality; a non-equal
    comparator against text raises KindMismatchError.
    """
    if op == "=":
        return _eq_key(left) == _eq_key(right)
    return _compare_keys(_order_key(left), _order_key(right), left, right, op)


def _compare_keys(lk: tuple[str, Any] | None, rk: tuple[str, Any] | None,
                  left: Scalar, right: Scalar, op: str) -> bool:
    """compare_values for a non-equal op, given both values' order keys."""
    if lk and rk and lk[0] != rk[0]:
        # Year against full date: promote integral numbers to January 1.
        if lk[0] == "n" and (promoted := time_key(left)):
            lk = ("d", promoted)
        elif rk[0] == "n" and (promoted := time_key(right)):
            rk = ("d", promoted)
    if not (lk and rk and lk[0] == rk[0]):
        raise KindMismatchError(
            f"comparison symbol '{op}' is not supported between "
            f"'{value_text(left)}' and '{value_text(right)}'"
        )
    if op not in _ORDERS:
        raise KindMismatchError(f"unknown comparison symbol '{op}'")
    return _ORDERS[op](lk, rk)


_ORDERS = {"<": lt, ">": gt, "<=": le, ">=": ge}


def _eq_key(value: Scalar) -> float | str:
    """value_key under '=', where '20' and 20 match."""
    return _eq_of(value_key(value))


def _eq_of(key: float | str) -> float | str:
    """The "=" key (_eq_key) of a value whose value_key is key."""
    return float(key) if isinstance(key, str) and _NUM_RE.match(key) else key


def _order_key(value: Scalar) -> tuple[str, Any] | None:
    if isinstance(value, (int, float)):
        return ("n", float(value))
    if isinstance(value, str):
        text = value.strip()
        if _NUM_RE.match(text):
            return ("n", float(text))
        tk = time_key(text)
        if tk is not None:
            return ("d", tk)
    return None


def _wire(qualifier: tuple[str, str] | None) -> dict[str, str] | None:
    """A qualifier's JSON form."""
    return {"key": qualifier[0], "value": qualifier[1]} if qualifier else None


@dataclass(frozen=True)
class Edge(Record):
    """One fact: head --relation--> tail, optionally qualified (e.g. by time)."""

    head: str
    relation: str
    tail: Scalar
    tail_kind: str
    qualifier: tuple[str, str] | None = field(default=None, metadata={
        "encode": _wire,
        "decode": (dict[str, str] | None,
                   lambda q: (q["key"], q["value"]) if q else None)})


@dataclass
class SchemaDescriptor:
    """Relation inventory with sample values, rendered into prompts.
    schema_summary shares one per graph, so treat it as read-only."""

    relations: list[str]
    sample_values: dict[str, list[str]]
    source_kind: str

    @cached_property
    def text(self) -> str:
        """Deterministic schema block shown to the model."""
        lines = [f"source: {self.source_kind}"]
        for relation in self.relations:
            samples = ", ".join(self.sample_values.get(relation, []))
            lines.append(f"{relation}: {samples}" if samples
                         else f"{relation}:")
        return "\n".join(lines)


class ConditionGraph:
    """Immutable, indexed edge set, held as columns.

    columns maps each Edge field (_ROW) to its values in edge order; Edges
    are built on demand (edges, lookup). entity_index and relation_index
    map normalized head and relation labels to arrays of edge ids;
    relation_keys holds each edge's. Other keys (edge_keys), a tail-key
    index and a numeric-head index are built by the first lookup that
    needs them. Indexes and keys only accelerate: lookup results equal a
    brute-force scan. The lazy caches live on the graph and die with it;
    two threads filling one at once store equal values.
    """

    def __init__(self, edges: Iterable[Edge] = (), source_kind: str = "kg",
                 rows: Iterable[tuple] = ()) -> None:
        """The graph of edges, then of rows (Edge field tuples, in _ROW
        order, which build no Edge); equal edges collapse to the first."""
        distinct = dict.fromkeys(chain(map(_AS_ROW, edges), rows))
        # by field, not zip(*distinct), which would hold an iterator per row
        heads, relations, tails, kinds, quals = (
            tuple(map(itemgetter(f), distinct)) for f in range(5))
        del distinct  # the rows die before the indexes are built
        labels: dict[str, str] = {}  # one normalized str object per label
        raw = {*heads, *relations}
        norm = {label: labels.setdefault(key, key)
                for label, key in zip(raw, map(normalize, raw))}
        if "" in labels:
            bad = next(r for r in zip(heads, relations, tails, kinds, quals)
                       if "" in (norm[r[0]], norm[r[1]]))
            raise EmptyFieldError("edge with empty head or relation: "
                                  f"{Edge(*bad).to_dict()!r}")
        self.columns = dict(zip(_ROW, (heads, relations, tails, kinds, quals)))
        self.source_kind = source_kind
        head_keys = tuple(map(norm.__getitem__, heads))
        self.relation_keys = tuple(map(norm.__getitem__, relations))
        ent, rel = defaultdict(_id_array), defaultdict(_id_array)
        for i, head, relation in zip(count(), head_keys, self.relation_keys):
            ent[head].append(i)
            rel[relation].append(i)
        self.entity_index, self.relation_index = dict(ent), dict(rel)
        self._edge_keys: dict[tuple[str, str], tuple] = {
            # a label's "in" key (value_key) is its normalized label
            ("head", "in"): head_keys, ("relation", "in"): self.relation_keys}
        self._parts: dict[str, tuple] = {}  # "qkey", "qvalue" (column)
        self._tail_index = self._head_index = self._schema = None

    def __len__(self) -> int:
        return len(self.relation_keys)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge as an Edge, in edge order, built on first use."""
        return tuple(map(Edge, *(self.columns[f] for f in _ROW)))

    @cached_property
    def has_qualifier(self) -> bool:
        return any(self.columns["qualifier"])

    def column(self, field: str) -> tuple:
        """The values of field (one of _ROW, "qkey" or "qvalue") in edge
        order; an edge without a qualifier has no part: _MISSING."""
        if field in self.columns:
            return self.columns[field]
        if field not in self._parts:
            part = ("qkey", "qvalue").index(field)
            self._parts.setdefault(field, tuple(
                q[part] if q else _MISSING for q in self.columns["qualifier"]))
        return self._parts[field]

    def edge_keys(self, field: str, test: str) -> tuple:
        """Each edge's key of a field (see column) under test "in"
        (value_key), "=" (_eq_key) or "<" (order key), built once; "="
        reuses "in" if no text looks numeric. A missing qualifier part is
        _MISSING."""
        table = self._edge_keys.get((field, test))
        if table is None:
            if test == "=":
                table = self.edge_keys(field, "in")
                if any(isinstance(k, str) and _NUM_RE.match(k) for k in table):
                    table = tuple(map(_eq_of, table))
            else:
                key = value_key if test == "in" else _order_key
                table = tuple(v if v is _MISSING else key(v)
                              for v in self.column(field))
            table = self._edge_keys.setdefault((field, test), table)
        return table

    def _tail_keys(self) -> dict:
        """Tail "in" key -> edge ids."""
        keys = self.edge_keys("tail", "in")
        if self._tail_index is None:
            index: dict = defaultdict(_id_array)
            for i, key in enumerate(keys):
                index[key].append(i)
            self._tail_index = dict(index)
        return self._tail_index

    def head_ids(self, keys: Iterable[float | str]) -> list[int]:
        """Ids, in edge order, of the edges whose head equals under "="
        (_eq_key, as a literal matches) a value whose value_key is in keys:
        the number 7 and the texts '7' and '7.0' reach the head '07'."""
        index = self._head_keys()
        if index is not self.entity_index:
            keys = set(map(_eq_of, keys))  # '7' and 7 reach the same heads
        return _ids(index, keys)

    def _head_keys(self) -> dict:
        """Head "=" key -> edge ids: entity_index, unless some head looks
        numeric, as its ids then sit under its number."""
        if self._head_index is None:
            numeric = [h for h in self.entity_index if _NUM_RE.match(h)]
            index = dict(self.entity_index) if numeric else self.entity_index
            for head in numeric:
                index[float(head)] = _id_array(sorted(chain(
                    index.pop(head), index.get(float(head), ()))))
            self._head_index = index
        return self._head_index

    def lookup(self, *args: Any, **kwargs: Any) -> list[Edge]:
        """The edges lookup_ids(*args, **kwargs) names, in edge order."""
        return [self.edges[i] for i in self.lookup_ids(*args, **kwargs)]

    def project(self, field: str, **bounds: Any) -> ValueSet:
        """The field (see column) of the edges lookup_ids(**bounds) names,
        keyed by their stored "in" keys: per key, the first value in edge
        order. An edge without a qualifier adds nothing to a qualifier
        projection."""
        keys, values, by_key = (self.edge_keys(field, "in"),
                                self.column(field), {})
        for i in self.lookup_ids(**bounds):
            if keys[i] not in by_key:
                by_key[keys[i]] = values[i]
        by_key.pop(_MISSING, None)
        return ValueSet(by_key)

    def lookup_ids(self, head: Bound = None, relation: Bound = None,
                   tail: Bound = None, tail_cmp: str = "=",
                   qual_key: Bound = None, qual_value: Bound = None,
                   qual_cmp: str = "=", *, head_cmp: str = "=",
                   relation_cmp: str = "=", key_cmp: str = "=") -> list[int]:
        """Ids of the edges matching every bound field, in edge order.

        A bound field is a literal or a set of values, tested as field_test
        says, on stored keys; a literal relation matches by normalized label
        whatever its comparator. A scan tests relation literal, head,
        relation set, tail, qualifier key and qualifier value in that order,
        raising the first failing comparison. Candidates come from the
        smallest index whose dropped edges fail a test without raising, so
        results and errors equal the scan's.
        """
        options: list[Sequence[int]] = []
        rel_ids = None
        if relation is not None and not _is_set(relation):
            rel_norm = normalize(str(relation))
            rel_ids = self.relation_index.get(rel_norm, ())
            options.append(rel_ids)
        if head is not None and head_cmp == "=":
            options.append(self.head_ids(key_map(head)) if _is_set(head)
                           else self._head_keys().get(_eq_key(head), ()))
        if tail is not None and tail_cmp == head_cmp == "=" and (
                rel_ids is not None or relation_cmp == "="):
            index = self._tail_keys()
            if _is_set(tail):
                options.append(_ids(index, key_map(tail)))
            elif self.edge_keys("tail", "=") is self.edge_keys("tail", "in"):
                options.append(index.get(_eq_key(tail), ()))
        ids = min(options, key=len) if options else range(len(self))
        if not ids:
            return []
        set_relation = relation if rel_ids is None else None
        checks = [self.field_test(*test) for test in (
            ("head", head, head_cmp), ("relation", set_relation, relation_cmp),
            ("tail", tail, tail_cmp), ("qkey", qual_key, key_cmp),
            ("qvalue", qual_value, qual_cmp)) if test[1] is not None]
        if rel_ids is not None and ids is not rel_ids:
            checks.insert(0, (self.relation_keys, partial(eq, rel_norm)))
        out = []
        for i in ids:
            for keys, test in checks:
                if not test(keys[i]):
                    break
            else:
                out.append(i)
        return out

    def field_test(self, field: str, bound: Bound, cmp: str
                   ) -> tuple[Sequence, Callable[[Any], bool]]:
        """(a sequence indexed by edge id, a test of its item): whether an
        edge's field (see column) matches bound under cmp, as a scan tests
        it. A literal compares under compare_values, keyed once. A set (an
        earlier step's result) matches by membership in its key_map,
        without numeric coercion except on the head, which it matches as
        head_ids does; a set admits only '=', and a bad comparator raises
        only when an edge is tested. An edge without a qualifier fails a
        qualifier test without raising."""
        values = self.column(field)
        if cmp == "=" and _is_set(bound):
            if field == "head" and self._head_keys() is not self.entity_index:
                return (self.edge_keys(field, "="),
                        set(map(_eq_of, key_map(bound))).__contains__)
            return self.edge_keys(field, "in"), key_map(bound).__contains__
        if cmp == "=":
            return self.edge_keys(field, "="), partial(eq, _eq_key(bound))
        if _is_set(bound):
            def reject(i: int) -> bool:
                if values[i] is _MISSING:
                    return False
                raise ValueError(f"comparison symbol '{cmp}' cannot be "
                                 "applied to a step result")
            return range(len(values)), reject
        order, rk = self.edge_keys(field, "<"), _order_key(bound)
        fast = rk and _ORDERS.get(cmp)  # for keys of one kind
        return range(len(values)), lambda i: (
            (lk := order[i]) is not _MISSING
            and (fast(lk, rk) if fast and lk and lk[0] == rk[0] else
                 _compare_keys(lk, rk, values[i], bound, cmp)))


_ROW = tuple(f.name for f in fields(Edge))
_AS_ROW = attrgetter(*_ROW)
_MISSING = object()


def _id_array(ids: Iterable[int] = ()) -> array:
    """Edge ids, 4 bytes each: no int object is kept per edge."""
    return array("I", ids)


def _is_set(value: Any) -> bool:
    return isinstance(value, (set, frozenset))


def _ids(index: dict, keys: Iterable) -> list[int]:
    """Edge ids under any of keys; distinct keys hold disjoint ids."""
    return sorted(chain.from_iterable(index.get(k, ()) for k in keys))


def ingest_table(
    rows: Sequence[Sequence[str]],
    header: Sequence[str],
    key_column: int | str = 0,
) -> ConditionGraph:
    """Flatten a table into edges: (row key, column name, cell value).

    The key column names each row's entity and produces no edge of its own.
    """
    if not header or any(not h.strip() for h in header):
        raise EmptyHeaderError("header must be non-empty names")
    if isinstance(key_column, str):
        try:
            key_idx = [normalize(h) for h in header].index(normalize(key_column))
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


def ingest_triples(triples: Iterable[Sequence[str]]) -> ConditionGraph:
    """Build a graph from (head, relation, tail) triples; duplicates collapse."""
    return _ingest_facts(triples, 3, "kg")


def ingest_temporal(quads: Iterable[Sequence[str]]) -> ConditionGraph:
    """Build a graph from (head, relation, tail, time) facts.

    The time must be an ISO date or an integer year; it lands in the edge
    qualifier under key "time" and stays comparable across both forms.
    """
    return _ingest_facts(quads, 4, "temporal_kg")


def _ingest_facts(rows: Iterable[Sequence[str]], width: int,
                  source_kind: str) -> ConditionGraph:
    """One edge per (head, relation, tail[, time]) row of width cells."""
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


def schema_summary(cg: ConditionGraph) -> SchemaDescriptor:
    """Relations (sorted) with up to 3 first-seen tail values each.

    Computed once per graph; later calls return the same descriptor.
    """
    if cg._schema is None:
        relations, tails = cg.columns["relation"], cg.columns["tail"]
        samples: dict[str, list[str]] = {}
        for ids in cg.relation_index.values():  # first-seen surface form
            bucket = samples.setdefault(relations[ids[0]], [])
            for i in ids:
                if (text := value_text(tails[i])) not in bucket:
                    bucket.append(text)
                    if len(bucket) == 3:
                        break
        cg._schema = SchemaDescriptor(relations=sorted(samples),
                                      sample_values=samples,
                                      source_kind=cg.source_kind)
    return cg._schema


def _delimiter(path: str, delimiter: str | None) -> str:
    """The delimiter, defaulting from the extension."""
    if delimiter is None:
        delimiter = "\t" if path.endswith((".tsv", ".tab")) else ","
    if len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, not {delimiter!r}")
    return delimiter


def read_delimited(path: str, delimiter: str | None = None) -> list[list[str]]:
    """Read a CSV/TSV file, dropping blank lines; the delimiter defaults
    from the extension."""
    delimiter = _delimiter(path, delimiter)
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh, delimiter=delimiter) if row]


def _load_file(path: str, delimiter: str | None,
               ingest: Callable[..., ConditionGraph],
               header: bool = False) -> ConditionGraph:
    """ingest(rows) of a delimited file, or ingest(rows[1:], rows[0]) if its
    first row is a header. A row error is named by path and the 1-based line
    its row starts on, counting blank lines. Only errors read the file
    again, so a good load pays nothing for the line count."""
    rows = read_delimited(path, delimiter)
    if header and not rows:
        raise EmptyHeaderError(f"{path} is empty")
    try:
        return ingest(rows[1:], rows[0]) if header else ingest(rows)
    except RowError as err:
        starts, line = [], 1  # the line each non-blank row starts on
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=_delimiter(path, delimiter))
            for row in reader:
                if row:
                    starts.append(line)
                line = reader.line_num + 1
        raise type(err)(err.row, err.reason,
                        f"{path}:{starts[err.row + header]}") from None


def load_table_file(path: str, key_column: int | str = 0,
                    delimiter: str | None = None) -> ConditionGraph:
    ingest = partial(ingest_table, key_column=key_column)
    return _load_file(path, delimiter, ingest, header=True)


def load_triples_file(path: str, delimiter: str = "\t") -> ConditionGraph:
    return _load_file(path, delimiter, ingest_triples)


def load_temporal_file(path: str, delimiter: str = "\t") -> ConditionGraph:
    return _load_file(path, delimiter, ingest_temporal)


def dump_graph(cg: ConditionGraph, path: str) -> None:
    """Write one JSON object per line: a meta line, then per edge, from the
    columns, the text of json.dumps(edge.to_dict(), ensure_ascii=False)."""
    def text(field: str) -> Iterable[str]:
        column = cg.columns[field]
        if field == "tail":  # mostly distinct: none is worth keeping
            return map(_json, column)
        memo = {item: _json(_wire(item) if field == "qualifier" else item)
                for item in set(column)}  # each label is encoded once
        return map(memo.__getitem__, column)
    keys = _codec(Edge)[0]  # Edge's JSON keys, in field order
    line = ("{{" + ", ".join(f"{_json(key)}: {{}}" for key in keys)
            + "}}\n").format
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json({"meta": {"source_kind": cg.source_kind}}) + "\n")
        fh.writelines(map(line, *map(text, _ROW)))


def _json(value: Any) -> str:
    """json.dumps(value, ensure_ascii=False), without its per-call cost
    for a str, an int or a finite float."""
    if type(value) is str:
        return encode_basestring(value)
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value, ensure_ascii=False)


def load_graph(path: str) -> ConditionGraph:
    """Read a dump_graph file into columns; a meta line sets the source
    kind. Each line is read and checked as Edge.from_dict reads it."""
    meta, one = {"source_kind": "kg"}, {}.setdefault  # one object per label
    readers = _codec(Edge)[2]

    def build(data: dict[str, Any]) -> tuple | None:
        if "meta" in data:
            check_types(data, {"meta": dict})
            check_types(data["meta"], {"source_kind": str})
            meta.update(data["meta"])
            return None
        # a missing required key raises; qualifier defaults to None
        head, relation, tail, kind, qual = map(
            _read_fields(data, readers).get, _ROW)
        if not (isinstance(tail, str)  # NaN fails every comparison
                or abs(tail) <= sys.float_info.max):
            raise ValueError("field 'tail' must be a string or a number "
                             "within float range")
        return (one(head, head), one(relation, relation), tail,
                one(kind, kind), one(qual, qual))
    rows = filter(None, read_jsonl(path, build))  # frees the list once read
    return ConditionGraph(rows=rows, source_kind=meta["source_kind"])
