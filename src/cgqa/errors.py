"""Typed query errors and their feedback messages.

Every failure a query can hit — in parsing, validation, or execution — is
one of eight kinds, split into two categories. Parsing errors are caught
before execution; execution errors surface while a plan runs. One table of
templates renders each kind's message, which is fed back to the model
during correction, so the wording here is frozen by golden tests.
"""

from __future__ import annotations

import enum
from typing import Any, Mapping

from .jsonl import check_types


class ErrorKind(enum.Enum):
    UNDEFINED_FUNCTION = "undefined_function"
    ILLEGAL_PARAMETER = "illegal_parameter"
    INCONSISTENT_PARAMETERS = "inconsistent_parameters"
    ILLEGAL_COMPARATOR = "illegal_comparator"
    NON_ATOMIC_OPERATION = "non_atomic_operation"
    NON_STANDARD_EXPRESSION = "non_standard_expression"
    RUNTIME_EXCEPTION = "runtime_exception"
    EMPTY_MID_STEP_RESULT = "empty_mid_step_result"

    @property
    def category(self) -> str:
        return "execution" if self in EXECUTION_KINDS else "parsing"


EXECUTION_KINDS = frozenset(
    {ErrorKind.RUNTIME_EXCEPTION, ErrorKind.EMPTY_MID_STEP_RESULT}
)


class QueryError(Exception):
    """A classified query failure, carrying a kind-specific detail payload.

    The detail mapping is total for its kind: rendering never needs a field
    that is absent. Raised by the parser, validator, and executor; stored as
    a value inside outcomes and traces. The message is rendered once, into
    ``args[0]``, since nothing writes ``detail`` after construction.
    """

    def __init__(self, kind: ErrorKind, **detail: Any) -> None:
        self.kind = kind
        self.detail: dict[str, Any] = dict(detail)
        super().__init__(render_message(self))

    @property
    def category(self) -> str:
        return self.kind.category

    @property
    def message(self) -> str:
        return self.args[0]

    def detached(self) -> "QueryError":
        """A copy with no traceback, cause or context, for storing as a value.

        A caught error's traceback pins every frame that raised it, and each
        frame its callers, in a reference cycle that only a full collection
        frees. The copy keeps the rendered message, so it is not rendered
        again.
        """
        copy = QueryError.__new__(QueryError, *self.args)
        copy.kind, copy.detail = self.kind, dict(self.detail)
        return copy

    def to_dict(self) -> dict[str, Any]:
        return {
            "category": self.category,
            "kind": self.kind.value,
            "detail": self.detail,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryError":
        """A bad or missing detail key fails as "field 'detail' ..."."""
        check_types(data, {"kind": str, "detail": dict})
        kind, detail = ErrorKind(data["kind"]), data.get("detail", {})
        check_types(detail, _DETAIL_TYPES, "field 'detail' key")
        try:
            return cls(kind, **detail)
        except KeyError as exc:  # a template read a key detail lacks
            raise TypeError(f"field 'detail' has no key {exc}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryError({self.kind.value}, {self.detail!r})"


# The JSON type of every detail key that rendering a message reads.
_DETAIL_TYPES = {"registry": list[str], "allowed": list[str],
                 "parameters": list[str], "step": int, **dict.fromkeys((
                     "function", "parameter", "reason", "comparator", "outer",
                     "inner", "text", "what", "fault"), str)}


# The list a kind's detail must carry, and how one of its names is shown.
_LISTS = {ErrorKind.UNDEFINED_FUNCTION: ("registry", "{}"),
          ErrorKind.ILLEGAL_PARAMETER: ("allowed", "'{}'"),
          ErrorKind.INCONSISTENT_PARAMETERS: ("parameters", "'{}'")}

# One table, one template per kind and one per reason of an inconsistent-
# parameters error (an unknown reason reads as "simultaneous").
_TEMPLATES: dict[ErrorKind | str, str] = {
    ErrorKind.UNDEFINED_FUNCTION:
        "The function '{function}' is not defined! "
        "Please call one of: [{registry}].",
    ErrorKind.ILLEGAL_PARAMETER:
        "For function '{function}', parameter name '{parameter}' is illegal, "
        "the parameter name must be in [{allowed}].",
    "missing":
        "For function '{function}', the parameter combination is incomplete: "
        "required parameters [{parameters}] are missing.",
    "duplicate":
        "For function '{function}', it is not allowed to pass the parameters "
        "[{parameters}] more than once.",
    "unbound": "For function '{function}', at least one parameter must be given.",
    "simultaneous":
        "For function '{function}', it is not allowed to assign values to "
        "parameters [{parameters}] at the same time.",
    ErrorKind.ILLEGAL_COMPARATOR:
        "In function '{function}', comparison symbol '{comparator}' for "
        "'{parameter}' is illegal, and non-equal comparators are only allowed "
        "for parameters 'tail_entity' and 'value'.",
    ErrorKind.NON_ATOMIC_OPERATION:
        "The query is not an atomic operation: functions '{outer}' and "
        "'{inner}' are nested. Please make sure that each step is atomic.",
    ErrorKind.NON_STANDARD_EXPRESSION:
        "Parsing the {what} '{text}' failed. "
        "Please ensure that the format of the query is correct",
    ErrorKind.RUNTIME_EXCEPTION:
        "Exception from executor in function '{function}': {fault}",
    ErrorKind.EMPTY_MID_STEP_RESULT:
        "For query{step}, the execution result=set(), that is "
        "output_of_query{step} is empty, which may affect subsequent query "
        "execution and final result. Please verify the correctness of entity "
        "or relation.",
}


def render_message(err: QueryError) -> str:
    """Render the feedback message for an error. Pure in (kind, detail)."""
    detail, key = err.detail, err.kind
    fields = {"what": "passed parameter value", **detail}
    if key in _LISTS:
        name, form = _LISTS[key]
        fields[name] = ", ".join(map(form.format, detail[name]))
    if key is ErrorKind.INCONSISTENT_PARAMETERS:
        reason = detail.get("reason")
        key = reason if reason in _TEMPLATES else "simultaneous"
    return _TEMPLATES[key].format_map(fields)


def classify_fault(function: str, exc: BaseException) -> QueryError:
    """Wrap a trapped evaluation fault as a runtime-exception error."""
    fault = str(exc) or type(exc).__name__
    return QueryError(ErrorKind.RUNTIME_EXCEPTION, function=function, fault=fault)
