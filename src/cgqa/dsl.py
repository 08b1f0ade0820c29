"""Parser and validator for the function-step query language.

A query is a short program, one atomic function call per line:

    query1 = get_information(relation='Colleges', tail_entity='Utah')
    query2 = count(set=output_of_query1)

Values are single-quoted strings, bare numerals, or references to earlier
steps spelled output_of_queryN. Function names and parameters are extracted
with regular expressions and checked against a registry of signatures; the
first violation in reading order is reported. Structural failures (nested
calls, unextractable values) are caught before any signature checks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache, partial
from operator import itemgetter
from typing import Any, Callable, NamedTuple

from .errors import ErrorKind, QueryError

_STEP_RE = re.compile(r"^query(\d+)\s*=\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$")
_NAME_CMP = r"([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|=|<|>)\s*"
_ARG_RE = re.compile(rf"^{_NAME_CMP}(.*)$", re.S)
_CALL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\(.*\)$", re.S)
# A value: a quoted string, a numeral or a step reference (see _literal).
_VALUE = r"'([^'\\]*(?:\\.[^'\\]*)*)'|(-?\d+(?:\.\d+)?)|output_of_query(\d+)"
# One well-formed argument after any blanks and empty commas, up to its comma
# or the list's end.
_ARG_SCAN_RE = re.compile(rf"[\s,]*{_NAME_CMP}(?:{_VALUE})\s*(?:,|\Z)", re.S)
# Escapes inside a quoted string: the quote, the backslash, and every
# character str.splitlines breaks on, so a label never splits its step.
_ESCAPES = {"'": "'", "\\": "\\", "n": "\n", "r": "\r", "v": "\x0b",
            "f": "\x0c", "x1c": "\x1c", "x1d": "\x1d", "x1e": "\x1e",
            "x85": "\x85", "u2028": "\u2028", "u2029": "\u2029"}
_ESCAPE_RE = re.compile(r"\\(x1[cde]|x85|u202[89]|['\\nrvf])")
_BREAK_ESCAPES = str.maketrans({c: "\\" + e for e, c in _ESCAPES.items()
                                if c not in "'\\"})
# A quoted string (to the end if it is not closed), or else one bracket or
# comma, or a run of other characters.
_PIECE_RE = re.compile(r"'[^'\\]*(?:\\.[^'\\]*)*'?|[^',()[\]]+|.", re.S)
# A numeral; its digits match one way only, so a failed match takes linear time
_NUM_RE = re.compile(r"^[+-]?(\d+(?:\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


# Plan nodes are named tuples: immutable, hashable, and cheap to build; a
# node also compares equal to the plain tuple of its fields.
class StepRef(NamedTuple):
    """Reference to the result of an earlier step."""

    index: int


Literal = str | int | float | StepRef


class Arg(NamedTuple):
    name: str
    comparator: str
    value: Literal


class QueryStep(NamedTuple):
    index: int
    function: str
    args: tuple[Arg, ...]


@dataclass
class QueryPlan:
    steps: list[QueryStep]


@dataclass(frozen=True)
class FunctionSignature:
    """What a registry function accepts.

    exclusive_assign names a parameter group that must not all be bound with
    '=' in one call; comparable lists the parameters that may carry a
    non-equality comparator.
    """

    params: tuple[str, ...]
    required: frozenset[str] = frozenset()
    comparable: frozenset[str] = frozenset()
    min_bound: int = 0
    exclusive_assign: tuple[str, ...] = ()


@dataclass
class FunctionRegistry:
    entries: dict[str, FunctionSignature]

    def names(self) -> list[str]:
        return list(self.entries)


_AGG = FunctionSignature(params=("set",), required=frozenset({"set"}))
_TWO = FunctionSignature(params=("set1", "set2"),
                         required=frozenset({"set1", "set2"}))
# The closed set of eleven query functions.
DEFAULT_REGISTRY = FunctionRegistry(entries={
    "get_information": FunctionSignature(
        params=("head_entity", "relation", "tail_entity", "key", "value"),
        comparable=frozenset({"tail_entity", "value"}),
        min_bound=1,
        exclusive_assign=("head_entity", "relation", "tail_entity"),
    ),
    "min": _AGG,
    "mean": _AGG,
    "max": _AGG,
    "count": _AGG,
    "sum": _AGG,
    "keep": FunctionSignature(
        params=("set", "key", "value"),
        required=frozenset({"set", "key", "value"}),
        comparable=frozenset({"value"}),
    ),
    "set_intersection": _TWO,
    "set_union": _TWO,
    "set_negation": _AGG,
    "set_difference": _TWO,
})


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m.group(1)]


def read_numeral(text: str) -> int | float | None:
    """The number a numeral (\\d: any Unicode decimal digit) names, or None:
    an int for bare digits that a float holds, else the float, +-inf if no
    float holds it. The one number rule of ingest, keys and plan literals."""
    if not (m := _NUM_RE.match(text)):
        return None
    if not math.isfinite(number := float(text)) or m[2] or "." in m[1]:
        return number
    # a float below 2**53 holds its integer; int(text) fails past 4300 digits
    return int(number) if abs(number) < 2 ** 53 else int(Decimal(text))


def _literal(text: str | None, number: str | None, ref: str | None) -> Literal:
    """The value of a _VALUE match, from its groups."""
    if text is not None:
        return _ESCAPE_RE.sub(_unescape, text) if "\\" in text else text
    if number is not None:
        value = read_numeral(number)  # no float holds it: text, as in ingest
        return value if math.isfinite(value) else number
    if not isinstance(index := read_numeral(ref), int):  # past any step
        raise QueryError(ErrorKind.NON_STANDARD_EXPRESSION,
                         text=f"output_of_query{ref}", what="step reference")
    return StepRef(index)


def parse_plan(text: str) -> QueryPlan:
    """Parse query text into steps, or raise the first structural error.

    Well-formed arguments are read by _ARG_SCAN_RE; the first argument it
    does not take, if any, is read by _raise_bad_arg, which names its error.

    Raises QueryError of kind NON_ATOMIC_OPERATION (nested call) or
    NON_STANDARD_EXPRESSION (anything the grammar cannot extract).
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise QueryError(
            ErrorKind.NON_STANDARD_EXPRESSION, text="", what="query"
        )
    steps: list[QueryStep] = []
    for pos, line in enumerate(lines, start=1):
        m = _STEP_RE.match(line)
        if not m or m[1] != str(pos) and read_numeral(m[1]) != pos:
            raise QueryError(
                ErrorKind.NON_STANDARD_EXPRESSION, text=line, what="query step"
            )
        function, arglist = m.group(2), m.group(3)
        args, at = [], 0
        while arg := _ARG_SCAN_RE.match(arglist, at):
            name, comparator, *value = arg.groups()
            args.append(Arg(name, comparator, _literal(*value)))
            at = arg.end()
        if at < len(arglist):
            _raise_bad_arg(arglist[at:], function)
        steps.append(QueryStep(pos, function, tuple(args)))
    return QueryPlan(steps=steps)


def _raise_bad_arg(text: str, function: str) -> None:
    """Raise the error of the first argument in text, the rest of a list
    from where _ARG_SCAN_RE stopped: the text up to its first comma outside
    quotes and brackets. _ARG_SCAN_RE takes every argument that reads as a
    value, so that argument is bad; only blanks and commas pass."""
    depth, token = 0, ""
    for piece in _PIECE_RE.findall(text):
        if piece == "," and depth == 0:
            if token.strip():
                break
            token = ""
            continue
        depth += (piece in "([") - (piece in ")]")
        token += piece
    if not (token := token.strip()):
        return
    if not (m := _ARG_RE.match(token)):
        raise QueryError(ErrorKind.NON_STANDARD_EXPRESSION, text=token)
    raw = m.group(3).strip()
    if call := _CALL_RE.match(raw):
        raise QueryError(ErrorKind.NON_ATOMIC_OPERATION, outer=function,
                         inner=call.group(1))
    raise QueryError(ErrorKind.NON_STANDARD_EXPRESSION, text=raw)


def validate_plan(plan: QueryPlan) -> QueryPlan:
    """Check every step against DEFAULT_REGISTRY; raise the first violation.

    Per step, in order: function defined, parameter names legal, parameter
    combination legal, comparators legal, step references resolve backwards.
    The first four depend only on the step's shape, and are checked once
    per shape (see _shape_fault).
    """
    for step in plan.steps:
        fault = _shape_fault(step.function, tuple(map(_SHAPE, step.args)))
        if fault is not None:
            raise fault()
        for _, _, value in step.args:
            if isinstance(value, StepRef) and not (
                1 <= value.index < step.index
            ):
                raise QueryError(ErrorKind.NON_STANDARD_EXPRESSION,
                                 text=f"output_of_query{value.index}",
                                 what="step reference")
    return plan


_SHAPE = itemgetter(0, 1)  # an argument's (name, comparator)
# The first violation of each step shape is found once while a memo of at
# most _SHAPES shapes holds it. That is sound only because DEFAULT_REGISTRY
# is never mutated.
_SHAPES = 1 << 10


@lru_cache(_SHAPES)
def _shape_fault(function: str, shape: tuple[tuple[str, str], ...]
                 ) -> Callable[[], QueryError] | None:
    """What builds the first violation of a step of function whose
    arguments have these (name, comparator) pairs, or None."""
    sig = DEFAULT_REGISTRY.entries.get(function)
    if sig is None:
        return _fault(ErrorKind.UNDEFINED_FUNCTION, function=function,
                      registry=DEFAULT_REGISTRY.names())
    names = [name for name, _ in shape]
    for name in names:
        if name not in sig.params:
            return _fault(ErrorKind.ILLEGAL_PARAMETER, function=function,
                          parameter=name, allowed=list(sig.params))
    inconsistent = partial(_fault, ErrorKind.INCONSISTENT_PARAMETERS,
                           function=function)
    if dupes := sorted({n for n in names if names.count(n) > 1}):
        return inconsistent(parameters=dupes, reason="duplicate")
    if missing := sorted(sig.required - set(names)):
        return inconsistent(parameters=missing, reason="missing")
    if len(names) < sig.min_bound:
        return inconsistent(parameters=[], reason="unbound")
    assigned = {name for name, comparator in shape if comparator == "="}
    if sig.exclusive_assign and all(p in assigned
                                    for p in sig.exclusive_assign):
        return inconsistent(parameters=list(sig.exclusive_assign),
                            reason="simultaneous")
    for name, comparator in shape:
        if comparator != "=" and name not in sig.comparable:
            return _fault(ErrorKind.ILLEGAL_COMPARATOR, function=function,
                          parameter=name, comparator=comparator)
    return None


def _fault(kind: ErrorKind, **detail: Any) -> Callable[[], QueryError]:
    """What builds QueryError(kind, **detail) afresh, each error with its
    own copy of every list in detail."""
    return lambda: QueryError(kind, **{
        key: list(value) if isinstance(value, list) else value
        for key, value in detail.items()})


def render_value(value: Literal) -> str:
    if isinstance(value, StepRef):
        return f"output_of_query{value.index}"
    if isinstance(value, str):
        text = value.replace("\\", "\\\\").replace("'", "\\'")
        if not text.isprintable():  # it may hold a line break
            text = text.translate(_BREAK_ESCAPES)
        return f"'{text}'"
    if isinstance(value, float):  # positional: the grammar reads no exponent
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else f"{text}.0"
    return str(value)


def render_step(step: QueryStep) -> str:
    args = ", ".join(
        f"{a.name}{a.comparator}{render_value(a.value)}" for a in step.args
    )
    return f"query{step.index} = {step.function}({args})"


def render_plan(plan: QueryPlan) -> str:
    """Canonical text: one step per line, one space after each comma."""
    return "\n".join(render_step(s) for s in plan.steps)


def canonical_plan_text(text: str, parses: dict[str, QueryPlan | None]) -> str:
    """Reprint plan text canonically; unparseable text comes back stripped.
    A text in parses is not parsed again: it maps to its plan, or to None
    if it did not parse."""
    try:
        plan = parses[text] if text in parses else parse_plan(text)
    except QueryError:
        plan = None
    return text.strip() if plan is None else render_plan(plan)
