"""Condition graph: a uniform edge store for tables, triples, and temporal facts.

Every data source is flattened to (head, relation, tail[, qualifier]) edges.
A tail's kind inferred at ingestion (number, date or text) is only the dump
field tail_kind: values compare by key alone (value_key, or the order key of
<, >, <=, >=). Graphs are immutable once built and safe for concurrent readers.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, partial
from itertools import chain, compress, repeat
from json.encoder import encode_basestring
from operator import eq, ge, gt, is_not, itemgetter, le, lt
from typing import Any, Callable, Iterable, Sequence, TextIO

from .dsl import read_numeral, render_value
from .jsonl import (Record, _build_lines, _codec, _read_fields, _scan,
                    check_types, open_text)

Scalar = str | int | float
Bound = Scalar | set | frozenset | None  # a lookup field; None is unbound

KIND_TEXT = "text"
KIND_NUMERIC = "numeric"
KIND_DATE = "date"

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")


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
    """Infer (typed value, kind) for a cell: read_numeral's number, so
    numbers win over bare years; one that overflows ('1e999') stays text."""
    cell = text.strip()
    if (value := read_numeral(cell)) is not None and math.isfinite(value):
        return value, KIND_NUMERIC
    return cell, KIND_DATE if _DATE_RE.match(cell) else KIND_TEXT


def time_key(value: Scalar) -> tuple[int, int, int] | None:
    """(year, month, day) of the value's order key on the date axis."""
    return (key := _order_key(value)) and (date := _as_date(key)) and date[1]


def value_text(value: Scalar) -> str:
    """Canonical text form of a scalar: integral floats print as ints, other
    floats in positional digits, as the query language writes them."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else render_value(value)
    return str(value)


def value_key(value: Scalar) -> float | str:
    """The one equality key of a value, for matching, set operations and
    deduplication: the float of a number, or of a numeral (read_numeral)
    within float range ('07', '7.0', '1e1', '.5', '٧'; '-0' is -0.0), else
    the normalized text: a numeral that overflows ('1e999') stays text, as
    infer_scalar keeps it, and equals no number."""
    if isinstance(value, (int, float)):
        return float(value)
    text = normalize(value)
    if (first := text[:1]) in "+-." or first.isdecimal():  # a numeral's start
        number = read_numeral(text)
        if number is not None and math.isfinite(number):
            return -0.0 if first == "-" and not number else float(number)
    return text


class ValueSet(frozenset):
    """A step result: a frozenset of one value per value_key (so 7 and '07'
    are one) that holds by_key (key -> value), so later steps, bounds and
    sort_values read the keys instead of computing them again."""

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
    """Stable rendering order by value_key: numbers and numerals first by
    value, then text. A ValueSet sorts by its held keys; other values keep
    ties in iteration order."""
    if isinstance(values, ValueSet):
        return [values.by_key[k] for k in sorted_keys(values.by_key)]
    return sorted(values, key=lambda v: (isinstance(k := value_key(v), str),
                                         k))


def compare_values(left: Scalar, right: Scalar, op: str) -> bool:
    """Compare two scalars under =, <, >, <=, >=.

    '=' compares value_keys, the others order keys (_order_key): a number
    against a date counts as January 1 of its year if it is whole (_as_date).
    Other text supports only equality: another comparator raises
    KindMismatchError.
    """
    if op == "=":
        return value_key(left) == value_key(right)
    return _compare_keys(_order_key(left), _order_key(right), left, right, op)


def _compare_keys(lk: tuple[str, Any] | None, rk: tuple[str, Any] | None,
                  left: Scalar, right: Scalar, op: str) -> bool:
    """compare_values for a non-equal op, given both values' order keys."""
    if lk and rk and lk[0] != rk[0]:  # a number against a date
        lk, rk = _as_date(lk), _as_date(rk)
    if not (lk and rk and lk[0] == rk[0]):
        raise KindMismatchError(
            f"comparison symbol '{op}' is not supported between "
            f"'{value_text(left)}' and '{value_text(right)}'"
        )
    if op not in _ORDERS:
        raise KindMismatchError(f"unknown comparison symbol '{op}'")
    return _ORDERS[op](lk, rk)


_ORDERS = {"<": lt, ">": gt, "<=": le, ">=": ge}


def _order_key(value: Scalar) -> tuple[str, Any] | None:
    """The one order rule: ("n", float) for a number or numeral (+-inf if
    no float holds it), ("d", (y, m, d)) for an ISO date, else None."""
    if isinstance(value, (int, float)):
        return ("n", float(value))
    if m := _DATE_RE.match(text := value.strip()):  # never a numeral
        return ("d", (int(m[1]), int(m[2]), int(m[3])))
    if (number := read_numeral(text)) is not None:
        return ("n", float(number))
    return None


def _as_date(key: tuple[str, Any]) -> tuple[str, Any] | None:
    """The key on the date axis: a whole number is January 1 of its year."""
    if key[0] == "d":
        return key
    return ("d", (int(key[1]), 1, 1)) if key[1].is_integer() else None


def order_keys(values: Iterable[Scalar]) -> list[tuple[str, Any]] | None:
    """Each value's order key on one axis, dates if any value is a date;
    None if a value has no order key or cannot join the axis."""
    keys = []
    for key in map(_order_key, values):
        if key is None:  # a set of text mostly stops at its first value
            return None
        keys.append(key)
    if any(k[0] == "d" for k in keys):
        keys = list(map(_as_date, keys))
    return None if None in keys else keys


def _wire(qualifier: tuple[str, str] | None) -> dict[str, str] | None:
    """A qualifier's JSON form."""
    return {"key": qualifier[0], "value": qualifier[1]} if qualifier else None


@dataclass(frozen=True)
class Edge(Record):
    """One fact: head --relation--> tail, optionally qualified (e.g. by time);
    the record codec of a dump line. A graph holds the fields as columns."""

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

    columns maps each Edge field (_ROW) to its values in edge order, and
    lookup_ids names edges by id, an edge's position in the columns. The
    first lookup that reads a key table (edge_keys) or a value_key index
    (index) builds it; load_graph builds the head and relation indexes,
    entity_index and relation_index, and with them relation_keys. Only a
    tail or a qualifier value takes a comparator other than '='; the first
    range answered from a bucket's order index (_bisect) builds it.
    Indexes and keys only accelerate: results equal a brute-force scan.
    The lazy caches live on the graph and die with it; two threads filling
    one at once store equal values.
    """

    def __init__(self, rows: Iterable[tuple] = (),
                 source_kind: str = "kg") -> None:
        """The graph of rows (Edge field tuples, in _ROW order); equal rows
        collapse to the first."""
        distinct = dict.fromkeys(rows)
        # by field, not zip(*distinct), which would hold an iterator per row
        columns = [tuple(map(itemgetter(f), distinct)) for f in range(5)]
        del distinct  # the rows die before any key table is built
        if blank := {label for label in {*columns[0], *columns[1]} if
                     isinstance(label, str) and not label.strip()}:
            bad = next(row for row in zip(*columns)  # value_key is ""
                       if row[0] in blank or row[1] in blank)
            raise EmptyFieldError("edge with empty head or relation: "
                                  f"{Edge(*bad).to_dict()!r}")
        self.columns, self.source_kind = dict(zip(_ROW, columns)), source_kind
        self._edge_keys: dict[tuple[str, str], tuple] = {}
        self._indexes: dict[str, dict] = {}
        self._parts: dict[str, tuple] = {}  # "qkey", "qvalue" (column)
        self._orders: dict[tuple, tuple | None] = {}  # see _bisect
        self._schema = None

    def __len__(self) -> int:
        return len(self.columns["relation"])

    entity_index = property(lambda self: self.index("head"))
    relation_index = property(lambda self: self.index("relation"))
    relation_keys = property(lambda self: self.edge_keys("relation", "in"))

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
        (value_key) or "<" (order key), built once, keyed once per distinct
        value. A missing qualifier part is _MISSING."""
        table = self._edge_keys.get((field, test))
        if table is None:
            keys = _Keys({"in": value_key, "<": _order_key}[test])
            table = self._edge_keys.setdefault((field, test), tuple(
                map(keys.__getitem__, self.column(field))))
        return table

    def index(self, field: str) -> dict:
        """edge_keys(field, "in") key -> array of edge ids, built once."""
        index = self._indexes.get(field)
        if index is None:
            ids: dict = defaultdict(_id_array)
            for i, key in enumerate(self.edge_keys(field, "in")):
                ids[key].append(i)
            index = self._indexes.setdefault(field, dict(ids))
        return index

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
                   qual_cmp: str = "=") -> list[int]:
        """Ids of the edges matching every bound field, in edge order.

        A bound field is a literal or a set, tested as field_test says on
        stored keys; head, relation and qualifier key match by value_key.
        A scan tests head, relation, tail, qualifier key and qualifier
        value in that order, raising the first failing comparison.
        Candidates come from the smallest index that an '=' bound of
        relation, head or tail names (ties in that order), else every edge.
        The edges it drops fail an equality test, which never raises; the
        one comparator of a literal over one literal's bucket (or every
        edge) is answered by _bisect only where no comparison can raise.
        So results and errors equal the scan's.
        """
        keyed = {}  # field -> (its test, its index's ids, literal's key)
        for field, bound in (("relation", relation), ("head", head),
                             ("tail", tail if tail_cmp == "=" else None)):
            if bound is None:
                continue
            keys, index = self.edge_keys(field, "in"), self.index(field)
            if _is_set(bound):
                wanted = key_map(bound)  # distinct keys hold disjoint ids
                keyed[field] = ((keys, wanted.__contains__), sorted(
                    chain.from_iterable(map(index.get, wanted, repeat(())))),
                    None)
            else:
                key = value_key(bound)
                keyed[field] = ((keys, partial(eq, key)), index.get(key, ()),
                                key)
        source = min(keyed, key=lambda f: len(keyed[f][1]), default=None)
        _, ids, key = keyed.get(source, (None, range(len(self)), None))
        if not ids:
            return []
        two_ranges = None not in (tail, qual_value) and "=" not in (
            tail_cmp, qual_cmp)
        checks = []
        for field, bound, cmp in (
                ("head", head, "="), ("relation", relation, "="),
                ("tail", tail, tail_cmp), ("qkey", qual_key, "="),
                ("qvalue", qual_value, qual_cmp)):
            if bound is None or field == source:  # the source all match
                continue
            if cmp == "=" or _is_set(bound) or two_ranges:
                checks.append(keyed[field][0] if field in keyed
                              else self.field_test(field, bound, cmp))
                continue
            rk = _order_key(bound)  # the one comparator, on a literal
            hits = self._bisect(field, source, key, ids, cmp, rk)
            if hits is None:
                checks.append(self._order_test(field, bound, cmp, rk))
            else:
                ids = hits
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
        earlier step's result) matches by membership in its key_map; it
        admits only '=', and a bad comparator raises only when an edge is
        tested. An edge without a qualifier fails a qualifier test without
        raising."""
        values = self.column(field)
        if cmp == "=":
            keys = self.edge_keys(field, "in")
            if _is_set(bound):
                return keys, key_map(bound).__contains__
            return keys, partial(eq, value_key(bound))
        if _is_set(bound):
            def reject(i: int) -> bool:
                if values[i] is _MISSING:
                    return False
                raise ValueError(f"comparison symbol '{cmp}' cannot be "
                                 "applied to a step result")
            return range(len(values)), reject
        return self._order_test(field, bound, cmp, _order_key(bound))

    def _order_test(self, field: str, bound: Scalar, cmp: str, rk: Any
                    ) -> tuple[Sequence, Callable[[Any], bool]]:
        """field_test of a literal under a comparator; rk: its order key."""
        values, order = self.column(field), self.edge_keys(field, "<")
        fast = rk and _ORDERS.get(cmp)  # for keys of one kind
        return range(len(values)), lambda i: (
            (lk := order[i]) is not _MISSING
            and (fast(lk, rk) if fast and lk and lk[0] == rk[0] else
                 _compare_keys(lk, rk, values[i], bound, cmp)))

    def _bisect(self, field: str, source: str | None, key: Any,
                ids: Sequence[int], cmp: str, rk: Any) -> list[int] | None:
        """Of ids (source's index bucket under a literal's key, or every
        edge), those whose field passes cmp against order key rk, in edge
        order, by bisecting the bucket's order index; None (scan them)
        unless their keys all lie on rk's axis, number or date, so none can
        raise. The index, built once from the bucket's own edges, holds its
        ids that have field sorted by order key; None for text or mixed
        axes. A set's ids (key None) have no index."""
        if source and key is None or not (
                rk and cmp in _ORDERS and rk[1] == rk[1]):  # NaN: no order
            return None
        index = self._orders.get(entry := (field, source, key), _MISSING)
        if index is _MISSING:
            values, keys = self.column(field), _Keys(_order_key)
            pairs = [(keys[values[i]], i) for i in ids
                     if values[i] is not _MISSING]
            axes = {k[0] if k and k[1] == k[1] else None for k, _ in pairs}
            index = None
            if axes in ({"n"}, {"d"}):
                pairs.sort()
                index = (axes.pop(), [k[1] for k, _ in pairs],
                         _id_array(map(itemgetter(1), pairs)))
            index = self._orders.setdefault(entry, index)
        if index is None or index[0] != rk[0]:
            return None
        _, keys, order = index
        cut = (bisect_left if cmp in ("<", ">=") else bisect_right)(keys, rk[1])
        return sorted(order[:cut] if cmp[0] == "<" else order[cut:])


_ROW = tuple(f.name for f in fields(Edge))
_MISSING = object()


def _id_array(ids: Iterable[int] = ()) -> array:
    """Edge ids, 4 bytes each: no int object is kept per edge."""
    return array("I", ids)


class _Keys(dict):
    """value -> key(value), computed once per distinct value; _MISSING ->
    _MISSING. Equal values (1 and 1.0, 0.0 and -0.0) share an entry, which
    is sound only because equal values have equal keys. Each key maps to
    itself as well (a key is its own key), so equal keys share one object."""

    def __init__(self, key: Callable[[Any], Any]) -> None:
        super().__init__({_MISSING: _MISSING})
        self.key = key

    def __missing__(self, value: Any) -> Any:
        key = self.key(value)
        key = self[value] = self.setdefault(key, key)
        return key


def _is_set(value: Any) -> bool:
    return isinstance(value, (set, frozenset))


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
    edges, scalars = [], lru_cache(_MEMO)(infer_scalar)  # see _MEMO
    names = [h.strip() for h in header]
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise RaggedRowError(
                r, f"{len(row)} cells, header has {len(header)}")
        head = str(row[key_idx]).strip()
        for c, cell in enumerate(row):
            if c != key_idx:
                edges.append((head, names[c], *scalars(str(cell)), None))
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
    edges, scalars = [], lru_cache(_MEMO)(infer_scalar)  # see _MEMO
    times = lru_cache(_MEMO)(lambda text: None if time_key(
        time := text.strip()) is None else ("time", time))  # its qualifier
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowError(r, f"{len(row)} cells, not {width}")
        qualifier = None
        if width == 4 and (qualifier := times(str(row[3]))) is None:
            raise BadTimestampError(r, f"cannot parse time {row[3]!r}")
        edges.append((str(row[0]).strip(), str(row[1]).strip(),
                      *scalars(str(row[2])), qualifier))
    return ConditionGraph(rows=edges, source_kind=source_kind)


# An ingest infers each cell text, and checks each time, once while a memo
# of at most _MEMO texts holds it (so memory stays flat), keyed by the text,
# never the cell: 1, 1.0 and True are equal keys but infer as 1, 1.0, 'True'.
_MEMO = 1 << 11


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


def _load_file(path: str, delimiter: str | None,
               ingest: Callable[..., ConditionGraph],
               header: bool = False) -> ConditionGraph:
    """ingest(rows) of a delimited file's non-blank rows, read as ingest
    asks for them, or ingest(rows, first row) if that row is a header. A
    row error is named by path and the 1-based line its row starts on,
    counting blank lines; so is a csv error (open_text names a decoding
    error)."""
    delimiter = _delimiter(path, delimiter)
    line = 1  # where the row being read starts

    def rows(reader: Any) -> Iterable[list[str]]:
        nonlocal line
        for row in reader:
            if row:
                yield row
            line = reader.line_num + 1

    with open_text(path, newline="") as fh:
        data = rows(csv.reader(fh, delimiter=delimiter))
        try:
            if header and (names := next(data, None)) is None:
                raise EmptyHeaderError(f"{path} is empty")
            return ingest(data, names) if header else ingest(data)
        except RowError as err:
            raise type(err)(err.row, err.reason, f"{path}:{line}") from None
        except csv.Error as err:
            raise GraphError(f"{path}:{line}: {err}") from None


def load_table_file(path: str, key_column: int | str = 0,
                    delimiter: str | None = None) -> ConditionGraph:
    ingest = partial(ingest_table, key_column=key_column)
    return _load_file(path, delimiter, ingest, header=True)


def load_triples_file(path: str, delimiter: str = "\t") -> ConditionGraph:
    return _load_file(path, delimiter, ingest_triples)


def load_temporal_file(path: str, delimiter: str = "\t") -> ConditionGraph:
    return _load_file(path, delimiter, ingest_temporal)


def dump_graph(cg: ConditionGraph, path: str) -> None:
    """Write one JSON object per line: a meta line, then per edge the text
    of json.dumps(edge.to_dict(), ensure_ascii=False), joined from each
    column's JSON between constant separators. The lines go to a new file
    beside path that replaces path only once all are written; a failed
    dump leaves path as it was."""
    def text(field: str) -> Iterable[str]:
        column = cg.columns[field]
        if field == "tail":  # mostly distinct: none is worth keeping
            return map(_json, column)
        # a qualifier's text as _json(_wire(q)) writes it, without json.dumps
        encode = _json if field != "qualifier" else lambda q: q and (
            f'{{"key": {_json(q[0])}, "value": {_json(q[1])}}}') or "null"
        memo = {item: encode(item) for item in set(column)}  # once a label
        return map(memo.__getitem__, column)
    seps = [("{" if i == 0 else ", ") + _json(key) + ": "
            for i, key in enumerate(_codec(Edge)[0])]  # Edge's JSON keys
    parts = chain.from_iterable(zip(map(repeat, seps), map(text, _ROW)))
    folder, name = os.path.split(path)
    temp = os.path.join(folder, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as fh:
            fh.write(_json({"meta": {"source_kind": cg.source_kind}}) + "\n")
            fh.writelines(map("".join, zip(*parts, repeat("}\n"))))
        os.replace(temp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            # named as open(path) would name it: an OSError of its errno
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _json(value: Any) -> str:
    """json.dumps(value, ensure_ascii=False, allow_nan=False), without its
    per-call cost for a str, an int or a finite float."""
    if type(value) is str:
        return encode_basestring(value)
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value, ensure_ascii=False, allow_nan=False)


def load_graph(path: str) -> ConditionGraph:
    """Read a dump_graph file into columns; a meta line, first and holding
    nothing but "meta", sets the source kind. The file is read once, a
    chunk of lines at a time: by column (_bulk_rows) if dump_graph could
    have written it, else line by line (_edge_row), which alone names a bad
    line. The graph holds its head and relation indexes."""
    meta, one, line, rows = {}, {}.setdefault, 1, []  # one object per label
    with open_text(path) as fh:
        for lines, whole in _chunks(fh):
            try:
                rows += _bulk_rows(lines, whole, meta, one)
            except _NotADump:
                rows += filter(None, _build_lines(
                    lines, partial(_edge_row, meta, one), path, line))
            line += len(lines)
    rows = iter(rows)  # so the list is freed once read
    cg = ConditionGraph(rows=rows, source_kind=meta.get("source_kind", "kg"))
    cg.index("head")
    cg.index("relation")
    return cg


class _NotADump(Exception):
    """A chunk of lines that _bulk_rows does not take."""


_CHUNK = 1 << 14  # characters of whole lines that load_graph holds at once


def _chunks(fh: TextIO) -> Iterable[tuple[list[str], bool]]:
    """Chunks of fh's lines, _CHUNK characters of whole lines each, with
    whether each is whole: the lines read before a decode error are not."""
    lines, size = [], 0
    try:
        for text in fh:
            lines.append(text)
            size += len(text)
            if size >= _CHUNK:
                yield lines, True
                lines, size = [], 0
    except UnicodeDecodeError:
        yield lines, False
        raise
    if lines:
        yield lines, True


def _edge_row(meta: dict, one: Callable, data: dict) -> tuple | None:
    """The row of a line's object, checked as Edge.from_dict reads it, each
    label interned by one; or None for a meta line, which must be alone on
    the first line read (while meta is {}) and sets meta."""
    if "meta" in data:
        check_types(data, {"meta": dict})
        check_types(data["meta"], {"source_kind": str})
        if meta or len(data) > 1:
            raise ValueError('"meta" must be alone on the first line')
        meta["source_kind"] = data["meta"].get("source_kind", "kg")
        return None
    meta.setdefault("source_kind", "kg")  # no later line is the first
    # a missing required key raises; qualifier defaults to None
    head, relation, tail, kind, qual = map(
        _read_fields(data, _codec(Edge)[2]).get, _ROW)
    if not (isinstance(tail, str)  # NaN fails every comparison
            or abs(tail) <= sys.float_info.max):
        raise ValueError("field 'tail' must be a string or a number "
                         "within float range")
    return (one(head, head), one(relation, relation), tail,
            one(kind, kind), one(qual, qual))


def _bulk_rows(lines: list[str], whole: bool, meta: dict, one: Callable
               ) -> Iterable[tuple]:
    """The rows of a whole chunk of lines as dump_graph writes them, checked
    by column as _edge_row checks them by line; a meta line first in the
    file (while meta is {}) sets meta. Any other chunk raises _NotADump."""
    readers, kind = _codec(Edge)[2], meta.get("source_kind", "kg")
    try:  # bad JSON, a line that is not an object, a missing key
        found = list(map(_scan, lines, repeat(0)))
        objects = list(map(itemgetter(0), found))
        if not meta and objects[0].keys() == {"meta"}:
            kind = objects.pop(0)["meta"].get("source_kind", kind)
        columns = [list(map(itemgetter(key), objects)) if required else
                   list(map(dict.get, objects, repeat(key)))
                   for key, _, required, _ in readers]
        heads, relations, tails, kinds, quals = columns
        quals = _qualifiers(quals, one)
    except (AttributeError, LookupError, TypeError, ValueError,
            RecursionError):
        raise _NotADump from None
    # scan_once ends the map at a line that starts with no value. No value
    # takes in its line's "\n": the sums are equal if each fills its line.
    if not whole or len(found) < len(lines) or sum(map(len, lines)) - sum(
            map(itemgetter(1), found)) != len(lines) - (lines[-1][-1] != "\n"):
        raise _NotADump
    typed = all(spec[0].issuperset(map(type, column))
                for (*_, spec), column in zip(readers, columns))
    numbers = compress(tails, map(is_not, map(type, tails), repeat(str)))
    if not typed or type(kind) is not str or any(map(
            dict.__contains__, objects, repeat("meta"))) or not all(map(
            le, map(abs, numbers), repeat(sys.float_info.max))):
        raise _NotADump  # NaN fails every comparison
    meta["source_kind"] = kind  # no later line is the first
    return zip(map(one, heads, heads), map(one, relations, relations), tails,
               map(one, kinds, kinds), quals)


def _qualifiers(quals: list[dict | None], one: Callable) -> Iterable:
    """Each qualifier object of a column read as Edge reads it: null and {}
    as None, else its (key, value) pair, interned by one; a missing key
    raises KeyError, and a value that is not a string _NotADump."""
    objects = list(filter(None, quals))
    if not objects:
        return repeat(None, len(quals))
    pairs = list(zip(map(itemgetter("key"), objects),
                     map(itemgetter("value"), objects)))
    if not {str}.issuperset(map(type, chain.from_iterable(
            map(dict.values, objects)))):
        raise _NotADump
    pairs = list(map(one, pairs, pairs))
    if len(pairs) == len(quals):
        return pairs
    ordered = iter(pairs)
    return [next(ordered) if q else None for q in quals]
