"""Condition graph: a uniform edge store for tables, triples, and temporal facts.

Every data source is flattened to (head, relation, tail[, qualifier]) edges.
Tails carry a scalar kind fixed at ingestion — number, date, or text — so the
executor's comparators have stable semantics. Graphs are immutable once built
and safe for concurrent readers.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

from .jsonl import read_jsonl, write_jsonl

Scalar = str | int | float
Bound = Scalar | set | frozenset | None  # a lookup field; None is unbound

KIND_TEXT = "text"
KIND_NUMERIC = "numeric"
KIND_DATE = "date"

_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_YEAR_RE = re.compile(r"^\d{4}$")


class GraphError(Exception):
    """Base for ingestion and lookup failures."""


class EmptyHeaderError(GraphError):
    pass


class RaggedRowError(GraphError):
    pass


class EmptyFieldError(GraphError):
    pass


class BadTimestampError(GraphError):
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
    """Canonical text form of a scalar (integral floats print as ints)."""
    if isinstance(value, bool):  # guard: bools are ints but never stored
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def value_key(value: Scalar) -> tuple[str, Any]:
    """Identity key used for set membership and deduplication."""
    if isinstance(value, (int, float)):
        return ("n", float(value))
    return ("t", normalize(value))


def compare_values(left: Scalar, right: Scalar, op: str) -> bool:
    """Compare two scalars under =, <, >, <=, >=.

    Numbers compare numerically; date-shaped text compares chronologically
    (bare years count as January 1). Text supports only equality; a non-equal
    comparator against text raises KindMismatchError.
    """
    if op == "=":
        return _equal(left, right)
    lk, rk = _order_key(left), _order_key(right)
    if lk is not None and rk is not None and lk[0] != rk[0]:
        # Year against full date: promote integral numbers to January 1.
        if lk[0] == "d" and rk[0] == "n":
            promoted = time_key(right)
            rk = ("d", promoted) if promoted else rk
        elif lk[0] == "n" and rk[0] == "d":
            promoted = time_key(left)
            lk = ("d", promoted) if promoted else lk
    if lk is None or rk is None or lk[0] != rk[0]:
        raise KindMismatchError(
            f"comparison symbol '{op}' is not supported between "
            f"'{value_text(left)}' and '{value_text(right)}'"
        )
    if op == "<":
        return lk < rk
    if op == ">":
        return lk > rk
    if op == "<=":
        return lk <= rk
    if op == ">=":
        return lk >= rk
    raise KindMismatchError(f"unknown comparison symbol '{op}'")


def _equal(left: Scalar, right: Scalar) -> bool:
    return value_key(_coerce_numeric(left)) == value_key(_coerce_numeric(right))


def _coerce_numeric(value: Scalar) -> Scalar:
    # '20' and 20 must match under equality.
    if isinstance(value, str) and _NUM_RE.match(value.strip()):
        return float(value)
    return value


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
class Edge:
    """One fact: head --relation--> tail, optionally qualified (e.g. by time)."""

    head: str
    relation: str
    tail: Scalar
    tail_kind: str
    qualifier: tuple[str, str] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "head": self.head,
            "relation": self.relation,
            "tail": self.tail,
            "tail_kind": self.tail_kind,
            "qualifier": (
                {"key": self.qualifier[0], "value": self.qualifier[1]}
                if self.qualifier
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Edge":
        qual = data.get("qualifier")
        return cls(
            head=data["head"],
            relation=data["relation"],
            tail=data["tail"],
            tail_kind=data["tail_kind"],
            qualifier=(qual["key"], qual["value"]) if qual else None,
        )


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
    to edge ids; a tail-key index is built by the first lookup that can use
    it. Indexes only accelerate: lookup results equal a brute-force scan.
    The lazy caches (tail index, schema summaries) live on the graph and die
    with it; two threads filling one at once store equal values.
    """

    def __init__(self, edges: Iterable[Edge], source_kind: str = "kg") -> None:
        seen: dict[Edge, None] = {}
        for edge in edges:
            if normalize(edge.head) == "" or normalize(edge.relation) == "":
                raise EmptyFieldError(
                    f"edge with empty head or relation: {edge.to_dict()!r}"
                )
            seen.setdefault(edge, None)
        self.edges: tuple[Edge, ...] = tuple(seen)
        self.source_kind = source_kind
        ent: dict[str, list[int]] = {}
        rel: dict[str, list[int]] = {}
        for i, edge in enumerate(self.edges):
            ent.setdefault(normalize(edge.head), []).append(i)
            rel.setdefault(normalize(edge.relation), []).append(i)
        self.entity_index = {k: tuple(v) for k, v in ent.items()}
        self.relation_index = {k: tuple(v) for k, v in rel.items()}
        self._tail_index: tuple[dict | None, bool] | None = None
        self._schemas: dict[int, SchemaDescriptor] = {}

    def __len__(self) -> int:
        return len(self.edges)

    def head_entities(self) -> list[str]:
        """Distinct head labels, first-seen surface form, insertion order."""
        return [self.edges[ids[0]].head for ids in self.entity_index.values()]

    def _tail_keys(self) -> tuple[dict | None, bool]:
        """(value_key of tail -> edge ids, None if a tail is not a scalar;
        whether some text tail looks numeric), built on first use."""
        if self._tail_index is None:
            index: dict | None = {}
            try:
                # ids from relation_index: both share each id's int object
                for ids in self.relation_index.values():
                    for i in ids:
                        key = value_key(self.edges[i].tail)
                        index.setdefault(key, []).append(i)
                index = {k: tuple(sorted(v)) for k, v in index.items()}
            except AttributeError:  # a malformed dump: always scan
                index = None
            self._tail_index = (index, any(
                isinstance(e.tail, str) and _NUM_RE.match(e.tail.strip())
                for e in self.edges))
        return self._tail_index

    def lookup(self, head: Bound = None, relation: Bound = None,
               tail: Bound = None, tail_cmp: str = "=", qual_key: Bound = None,
               qual_value: Bound = None, qual_cmp: str = "=", *,
               head_cmp: str = "=", relation_cmp: str = "=",
               key_cmp: str = "=") -> list[Edge]:
        """Edges matching every bound field, in stable edge order.

        A bound field is a literal or a set of values, tested as
        value_matcher says; a literal relation matches by normalized label
        whatever its comparator. A scan tests relation literal, head,
        relation set, tail, qualifier key and qualifier value in that order
        and raises the first failing comparison. Candidates come from the
        smallest index (relation, head, tail key) whose dropped edges would
        fail a test without raising, so results and errors equal the scan's.
        """
        options: list[Sequence[int]] = []
        checks: list[tuple[Callable[[Edge], Any], Callable[[Any], bool]]] = []
        rel_ids = None
        if relation is not None and not _is_set(relation):
            rel_norm = normalize(str(relation))
            rel_ids = self.relation_index.get(rel_norm, ())
            options.append(rel_ids)
        if head is not None:
            if head_cmp == "=" and _is_set(head):
                options.append(_ids(self.entity_index, {
                    normalize(v) for v in head if isinstance(v, str)}))
            elif head_cmp == "=" and isinstance(_coerce_numeric(head), str):
                options.append(self.entity_index.get(normalize(head), ()))
            checks.append((_head, value_matcher(head, head_cmp)))
        if relation is not None and _is_set(relation):
            checks.append((_relation, value_matcher(relation, relation_cmp)))
        if tail is not None:
            if tail_cmp == head_cmp == "=" and (rel_ids is not None
                                                or relation_cmp == "="):
                index, numeric_text = self._tail_keys()
                if index is not None and _is_set(tail):
                    options.append(_ids(index, {value_key(v) for v in tail}))
                elif index is not None and not numeric_text:
                    key = value_key(_coerce_numeric(tail))
                    options.append(index.get(key, ()))
            checks.append((_tail, value_matcher(tail, tail_cmp)))
        if qual_key is not None:
            checks.append((_qualifier(0), value_matcher(qual_key, key_cmp)))
        if qual_value is not None:
            checks.append((_qualifier(1), value_matcher(qual_value, qual_cmp)))
        ids = min(options, key=len) if options else range(len(self.edges))
        if rel_ids is not None and ids is not rel_ids:
            checks.insert(0, (_relation, lambda r: normalize(r) == rel_norm))
        out = []
        for i in ids:
            edge = self.edges[i]
            for field, match in checks:
                value = field(edge)
                if value is _MISSING or not match(value):
                    break
            else:
                out.append(edge)
        return out


_MISSING = object()
_head, _relation, _tail = (attrgetter(f) for f in ("head", "relation", "tail"))


def _qualifier(part: int) -> Callable[[Edge], Any]:
    return lambda edge: edge.qualifier[part] if edge.qualifier else _MISSING


def _is_set(value: Any) -> bool:
    return isinstance(value, (set, frozenset))


def _ids(index: dict, keys: Iterable) -> list[int]:
    """Edge ids under any of keys; distinct keys hold disjoint ids."""
    return sorted(chain.from_iterable(index.get(k, ()) for k in keys))


def value_matcher(bound: Bound, cmp: str) -> Callable[[Any], bool]:
    """Test for one edge field bound to a literal or to a set of values.

    A literal compares under compare_values. A set (an earlier step's
    result) matches by value_key membership, without numeric coercion, and
    admits only '='; its keys are computed once here, and a bad comparator
    raises only when a value is tested, as a scan would.
    """
    if _is_set(bound):
        if cmp != "=":
            def reject(value: Any) -> bool:
                raise ValueError(f"comparison symbol '{cmp}' cannot be "
                                 "applied to a step result")
            return reject
        keys = {value_key(v) for v in bound}
        return lambda value: value_key(value) in keys
    if cmp == "=":
        want = value_key(_coerce_numeric(bound))
        return lambda value: value_key(_coerce_numeric(value)) == want
    return lambda value: compare_values(value, bound, cmp)


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
                f"row {r} has {len(row)} cells, header has {len(header)}"
            )
        head = str(row[key_idx]).strip()
        for c, cell in enumerate(row):
            if c == key_idx:
                continue
            value, kind = infer_scalar(str(cell))
            edges.append(Edge(head, header[c].strip(), value, kind))
    return ConditionGraph(edges, source_kind="table")


def ingest_triples(triples: Iterable[Sequence[str]]) -> ConditionGraph:
    """Build a graph from (head, relation, tail) triples; duplicates collapse."""
    edges = []
    for head, relation, tail in triples:
        if not str(head).strip() or not str(relation).strip():
            raise EmptyFieldError(f"triple with empty head or relation: "
                                  f"{(head, relation, tail)!r}")
        value, kind = infer_scalar(str(tail))
        edges.append(Edge(str(head).strip(), str(relation).strip(), value, kind))
    return ConditionGraph(edges, source_kind="kg")


def ingest_temporal(quads: Iterable[Sequence[str]]) -> ConditionGraph:
    """Build a graph from (head, relation, tail, time) facts.

    The time must be an ISO date or an integer year; it lands in the edge
    qualifier under key "time" and stays comparable across both forms.
    """
    edges = []
    for head, relation, tail, when in quads:
        if not str(head).strip() or not str(relation).strip():
            raise EmptyFieldError(f"quad with empty head or relation: "
                                  f"{(head, relation, tail, when)!r}")
        stamp = str(when).strip()
        if time_key(stamp) is None:
            raise BadTimestampError(f"cannot parse time {when!r}")
        value, kind = infer_scalar(str(tail))
        edges.append(
            Edge(str(head).strip(), str(relation).strip(), value, kind,
                 qualifier=("time", stamp))
        )
    return ConditionGraph(edges, source_kind="temporal_kg")


def schema_summary(cg: ConditionGraph, max_samples: int = 3) -> SchemaDescriptor:
    """Relations (sorted) with up to max_samples first-seen tail values each.

    Computed once per graph and max_samples; later calls return the same
    descriptor.
    """
    cached = cg._schemas.get(max_samples)
    if cached is not None:
        return cached
    surfaces: dict[str, str] = {}
    samples: dict[str, list[str]] = {}
    for edge in cg.edges:
        key = normalize(edge.relation)
        surfaces.setdefault(key, edge.relation)
        bucket = samples.setdefault(key, [])
        text = value_text(edge.tail)
        if text not in bucket and len(bucket) < max_samples:
            bucket.append(text)
    return cg._schemas.setdefault(max_samples, SchemaDescriptor(
        relations=sorted(surfaces.values()),
        sample_values={surfaces[k]: v for k, v in samples.items()},
        source_kind=cg.source_kind,
    ))


def read_delimited(path: str, delimiter: str | None = None) -> list[list[str]]:
    """Read a CSV/TSV file; the delimiter defaults from the extension."""
    if delimiter is None:
        delimiter = "\t" if path.endswith((".tsv", ".tab")) else ","
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh, delimiter=delimiter) if row]


def load_table_file(path: str, key_column: int | str = 0,
                    delimiter: str | None = None) -> ConditionGraph:
    rows = read_delimited(path, delimiter)
    if not rows:
        raise EmptyHeaderError(f"{path} is empty")
    return ingest_table(rows[1:], rows[0], key_column=key_column)


def load_triples_file(path: str, delimiter: str = "\t") -> ConditionGraph:
    return ingest_triples(read_delimited(path, delimiter))


def load_temporal_file(path: str, delimiter: str = "\t") -> ConditionGraph:
    return ingest_temporal(read_delimited(path, delimiter))


def dump_graph(cg: ConditionGraph, path: str) -> None:
    """Write one JSON object per line: a meta line, then one line per edge."""
    write_jsonl(chain([{"meta": {"source_kind": cg.source_kind}}], cg.edges),
                path)


def load_graph(path: str) -> ConditionGraph:
    """Read a dump_graph file; a meta line sets the source kind."""
    meta = {"source_kind": "kg"}

    def build(data: dict[str, Any]) -> Edge | None:
        if "meta" in data:
            meta.update(data["meta"])
            return None
        return Edge.from_dict(data)
    edges = read_jsonl(path, build)
    return ConditionGraph(filter(None, edges), source_kind=meta["source_kind"])
