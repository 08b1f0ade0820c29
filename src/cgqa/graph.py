"""Condition graph: a uniform edge store for tables, triples, and temporal facts.

Every data source is flattened to (head, relation, tail[, qualifier]) edges.
Tails carry a scalar kind fixed at ingestion — number, date, or text — so the
executor's comparators have stable semantics. Graphs are immutable once built
and safe for concurrent readers.
"""

from __future__ import annotations

import csv
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from operator import attrgetter, eq, ge, gt, le, lt
from typing import Any, Callable, Iterable, Sequence

from .dsl import render_value
from .jsonl import Record, check_types, read_jsonl, write_jsonl

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
    """Trim and case-fold a label. Idempotent."""
    return label.strip().casefold()


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
    if isinstance(value, str) and _NUM_RE.match(value.strip()):
        return float(value)
    return value_key(value)


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


@dataclass(frozen=True)
class Edge(Record):
    """One fact: head --relation--> tail, optionally qualified (e.g. by time)."""

    head: str
    relation: str
    tail: Scalar
    tail_kind: str
    qualifier: tuple[str, str] | None = field(default=None, metadata={
        "encode": lambda q: {"key": q[0], "value": q[1]} if q else None,
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
    """Immutable, indexed edge set.

    entity_index and relation_index map normalized head and relation labels
    to edge ids; relation_keys holds each edge's. Other keys (edge_keys) and
    a tail-key index are built by the first lookup that tests them. Indexes
    and keys only accelerate: lookup results equal a brute-force scan.
    The lazy caches live on the graph and die with it; two threads filling
    one at once store equal values.
    """

    def __init__(self, edges: Iterable[Edge], source_kind: str = "kg") -> None:
        seen: dict[Edge, None] = {}
        heads, relations, labels = [], [], {}  # one str object per label
        for edge in edges:
            head, relation = normalize(edge.head), normalize(edge.relation)
            if head == "" or relation == "":
                raise EmptyFieldError("edge with empty head or relation: "
                                      f"{edge.to_dict()!r}")
            seen.setdefault(edge, None)
            if len(seen) > len(heads):  # a new edge
                heads.append(labels.setdefault(head, head))
                relations.append(labels.setdefault(relation, relation))
        self.edges: tuple[Edge, ...] = tuple(seen)
        self.source_kind = source_kind
        self.relation_keys = tuple(relations)
        ent: dict[str, list[int]] = {}
        rel: dict[str, list[int]] = {}
        for i, (head, relation) in enumerate(zip(heads, relations)):
            ent.setdefault(head, []).append(i)
            rel.setdefault(relation, []).append(i)
        self.entity_index = {k: tuple(v) for k, v in ent.items()}
        self.relation_index = {k: tuple(v) for k, v in rel.items()}
        self._edge_keys: dict[tuple[str, str], tuple] = {
            # a label's "in" key (value_key) is its normalized label
            ("head", "in"): tuple(heads),
            ("relation", "in"): self.relation_keys}
        self._tail_index: dict | None = None
        self._schema: SchemaDescriptor | None = None

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def has_qualifier(self) -> bool:
        return any(edge.qualifier for edge in self.edges)

    def edge_keys(self, field: str, test: str) -> tuple:
        """Each edge's key of a _FIELDS field under test "in" (value_key),
        "=" (_eq_key) or "<" (order key), built once; "=" reuses "in" if no
        text looks numeric. Equal keys share one object; a missing
        qualifier is _MISSING."""
        table = self._edge_keys.get((field, test))
        if table is None:
            get, key, interned = _FIELDS[field], _KEY_OF[test], {}
            if test == "=" and not any(isinstance(v, str) and _NUM_RE.match(
                    v.strip()) for v in map(get, self.edges)):
                return self._edge_keys.setdefault(
                    (field, test), self.edge_keys(field, "in"))
            keys = (v if v is _MISSING else key(v)
                    for v in map(get, self.edges))
            table = self._edge_keys.setdefault(
                (field, test), tuple(interned.setdefault(k, k) for k in keys))
        return table

    def _tail_keys(self) -> dict:
        """Tail "in" key -> edge ids."""
        keys = self.edge_keys("tail", "in")
        if self._tail_index is None:
            index: dict = {}
            for ids in self.relation_index.values():  # share its int objects
                for i in ids:
                    index.setdefault(keys[i], []).append(i)
            self._tail_index = {k: tuple(sorted(v)) for k, v in index.items()}
        return self._tail_index

    def lookup(self, *args: Any, **kwargs: Any) -> list[Edge]:
        """The edges lookup_ids(*args, **kwargs) names, in edge order."""
        return [self.edges[i] for i in self.lookup_ids(*args, **kwargs)]

    def project(self, field: str, **bounds: Any) -> ValueSet:
        """The field (one of _FIELDS) of the edges lookup_ids(**bounds)
        names, keyed by their stored "in" keys: per key, the first value in
        edge order. An edge without a qualifier adds nothing to a qualifier
        projection."""
        keys, get, by_key = self.edge_keys(field, "in"), _FIELDS[field], {}
        for i in self.lookup_ids(**bounds):
            if keys[i] not in by_key:
                by_key[keys[i]] = get(self.edges[i])
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
        if head is not None and head_cmp == "=" and _is_set(head):
            # a number's key is a float, which no entity_index key equals
            options.append(_ids(self.entity_index, key_map(head)))
        elif head is not None and head_cmp == "=" and isinstance(
                _eq_key(head), str):
            options.append(self.entity_index.get(normalize(head), ()))
        if tail is not None and tail_cmp == head_cmp == "=" and (
                rel_ids is not None or relation_cmp == "="):
            index = self._tail_keys()
            if _is_set(tail):
                options.append(_ids(index, key_map(tail)))
            elif self.edge_keys("tail", "=") is self.edge_keys("tail", "in"):
                options.append(index.get(_eq_key(tail), ()))
        ids = min(options, key=len) if options else range(len(self.edges))
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
        edge's field (one of _FIELDS) matches bound under cmp, as a scan
        tests it. A literal compares under compare_values, keyed once. A
        set (an earlier step's result) matches by membership in its key_map,
        without numeric coercion, and admits only '='; a bad comparator
        raises only when an edge is tested. An edge without a qualifier
        fails a qualifier test without raising."""
        edges, get = self.edges, _FIELDS[field]
        if cmp == "=" and _is_set(bound):
            return self.edge_keys(field, "in"), key_map(bound).__contains__
        if cmp == "=":
            return self.edge_keys(field, "="), partial(eq, _eq_key(bound))
        if _is_set(bound):
            def reject(i: int) -> bool:
                if get(edges[i]) is _MISSING:
                    return False
                raise ValueError(f"comparison symbol '{cmp}' cannot be "
                                 "applied to a step result")
            return range(len(edges)), reject
        order, rk = self.edge_keys(field, "<"), _order_key(bound)
        fast = rk and _ORDERS.get(cmp)  # for keys of one kind
        return range(len(edges)), lambda i: (
            (lk := order[i]) is not _MISSING
            and (fast(lk, rk) if fast and lk and lk[0] == rk[0] else
                 _compare_keys(lk, rk, get(edges[i]), bound, cmp)))


_MISSING = object()


def _qualifier(part: int) -> Callable[[Edge], Any]:
    return lambda edge: edge.qualifier[part] if edge.qualifier else _MISSING


_FIELDS = {**{f: attrgetter(f) for f in ("head", "relation", "tail")},
           "qkey": _qualifier(0), "qvalue": _qualifier(1)}
_KEY_OF = {"in": value_key, "=": _eq_key, "<": _order_key}


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
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise RaggedRowError(
                r, f"{len(row)} cells, header has {len(header)}")
        head = str(row[key_idx]).strip()
        for c, cell in enumerate(row):
            if c == key_idx:
                continue
            value, kind = infer_scalar(str(cell))
            edges.append(Edge(head, header[c].strip(), value, kind))
    return ConditionGraph(edges, source_kind="table")


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
        value, kind = infer_scalar(str(row[2]))
        edges.append(Edge(str(row[0]).strip(), str(row[1]).strip(), value,
                          kind, qualifier))
    return ConditionGraph(edges, source_kind)


def schema_summary(cg: ConditionGraph) -> SchemaDescriptor:
    """Relations (sorted) with up to 3 first-seen tail values each.

    Computed once per graph; later calls return the same descriptor.
    """
    if cg._schema is None:
        surfaces: dict[str, str] = {}
        samples: dict[str, list[str]] = {}
        for edge in cg.edges:
            key = normalize(edge.relation)
            surfaces.setdefault(key, edge.relation)
            bucket = samples.setdefault(key, [])
            text = value_text(edge.tail)
            if text not in bucket and len(bucket) < 3:
                bucket.append(text)
        cg._schema = SchemaDescriptor(
            relations=sorted(surfaces.values()),
            sample_values={surfaces[k]: v for k, v in samples.items()},
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
    """Write one JSON object per line: a meta line, then one line per edge."""
    write_jsonl(chain([{"meta": {"source_kind": cg.source_kind}}], cg.edges),
                path)


def load_graph(path: str) -> ConditionGraph:
    """Read a dump_graph file; a meta line sets the source kind."""
    meta = {"source_kind": "kg"}

    def build(data: dict[str, Any]) -> Edge | None:
        if "meta" in data:
            check_types(data, {"meta": dict})
            check_types(data["meta"], {"source_kind": str})
            meta.update(data["meta"])
            return None
        edge = Edge.from_dict(data)
        if not (isinstance(edge.tail, str)  # NaN fails every comparison
                or abs(edge.tail) <= sys.float_info.max):
            raise ValueError("field 'tail' must be a string or a number "
                             "within float range")
        return edge
    edges = read_jsonl(path, build)
    return ConditionGraph(filter(None, edges), source_kind=meta["source_kind"])
