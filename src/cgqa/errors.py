"""Typed query errors and their feedback messages.

Every failure a query can hit — in parsing, validation, or execution — is
one of eight kinds, split into two categories. Parsing errors are caught
before execution; execution errors surface while a plan runs. Each kind
renders to a deterministic message that is fed back to the model during
correction, so the wording here is frozen by golden tests.
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


PARSING_KINDS = frozenset(
    {
        ErrorKind.UNDEFINED_FUNCTION,
        ErrorKind.ILLEGAL_PARAMETER,
        ErrorKind.INCONSISTENT_PARAMETERS,
        ErrorKind.ILLEGAL_COMPARATOR,
        ErrorKind.NON_ATOMIC_OPERATION,
        ErrorKind.NON_STANDARD_EXPRESSION,
    }
)
EXECUTION_KINDS = frozenset(
    {ErrorKind.RUNTIME_EXCEPTION, ErrorKind.EMPTY_MID_STEP_RESULT}
)


class QueryError(Exception):
    """A classified query failure, carrying a kind-specific detail payload.

    The detail mapping is total for its kind: rendering never needs a field
    that is absent. Raised by the parser, validator, and executor; stored as
    a value inside outcomes and traces.
    """

    def __init__(self, kind: ErrorKind, **detail: Any) -> None:
        self.kind = kind
        self.detail: dict[str, Any] = dict(detail)
        super().__init__(self.message)

    @property
    def category(self) -> str:
        return self.kind.category

    @property
    def message(self) -> str:
        return render_message(self)

    def detached(self) -> "QueryError":
        """A copy with no traceback, cause or context, for storing as a value.

        A caught error's traceback pins every frame that raised it, and each
        frame its callers, in a reference cycle that only a full collection
        frees.
        """
        return QueryError(self.kind, **self.detail)

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


# The JSON type of every detail key that a message template reads.
_DETAIL_TYPES = {"registry": list[str], "allowed": list[str],
                 "parameters": list[str], "step": int, **dict.fromkeys((
                     "function", "parameter", "reason", "comparator", "outer",
                     "inner", "text", "what", "fault"), str)}


def _render_undefined_function(d: Mapping[str, Any]) -> str:
    names = ", ".join(d["registry"])
    return (
        f"The function '{d['function']}' is not defined! "
        f"Please call one of: [{names}]."
    )


def _render_illegal_parameter(d: Mapping[str, Any]) -> str:
    allowed = ", ".join(f"'{p}'" for p in d["allowed"])
    return (
        f"For function '{d['function']}', parameter name '{d['parameter']}' "
        f"is illegal, the parameter name must be in [{allowed}]."
    )


def _render_inconsistent_parameters(d: Mapping[str, Any]) -> str:
    fn = d["function"]
    reason = d.get("reason", "simultaneous")
    params = ", ".join(f"'{p}'" for p in d["parameters"])
    if reason == "missing":
        return (
            f"For function '{fn}', the parameter combination is incomplete: "
            f"required parameters [{params}] are missing."
        )
    if reason == "duplicate":
        return (
            f"For function '{fn}', it is not allowed to pass the parameters "
            f"[{params}] more than once."
        )
    if reason == "unbound":
        return (
            f"For function '{fn}', at least one parameter must be given."
        )
    return (
        f"For function '{fn}', it is not allowed to assign values to "
        f"parameters [{params}] at the same time."
    )


def _render_illegal_comparator(d: Mapping[str, Any]) -> str:
    return (
        f"In function '{d['function']}', comparison symbol '{d['comparator']}' "
        f"for '{d['parameter']}' is illegal, and non-equal comparators are "
        f"only allowed for parameters 'tail_entity' and 'value'."
    )


def _render_non_atomic_operation(d: Mapping[str, Any]) -> str:
    return (
        f"The query is not an atomic operation: functions '{d['outer']}' and "
        f"'{d['inner']}' are nested. Please make sure that each step is atomic."
    )


def _render_non_standard_expression(d: Mapping[str, Any]) -> str:
    what = d.get("what", "passed parameter value")
    return (
        f"Parsing the {what} '{d['text']}' failed. "
        f"Please ensure that the format of the query is correct"
    )


def _render_runtime_exception(d: Mapping[str, Any]) -> str:
    return f"Exception from executor in function '{d['function']}': {d['fault']}"


def _render_empty_mid_step_result(d: Mapping[str, Any]) -> str:
    i = d["step"]
    return (
        f"For query{i}, the execution result=set(), that is output_of_query{i} "
        f"is empty, which may affect subsequent query execution and final "
        f"result. Please verify the correctness of entity or relation."
    )


# One table, one template per kind; keeps the taxonomy auditable.
_TEMPLATES = {
    ErrorKind.UNDEFINED_FUNCTION: _render_undefined_function,
    ErrorKind.ILLEGAL_PARAMETER: _render_illegal_parameter,
    ErrorKind.INCONSISTENT_PARAMETERS: _render_inconsistent_parameters,
    ErrorKind.ILLEGAL_COMPARATOR: _render_illegal_comparator,
    ErrorKind.NON_ATOMIC_OPERATION: _render_non_atomic_operation,
    ErrorKind.NON_STANDARD_EXPRESSION: _render_non_standard_expression,
    ErrorKind.RUNTIME_EXCEPTION: _render_runtime_exception,
    ErrorKind.EMPTY_MID_STEP_RESULT: _render_empty_mid_step_result,
}


def render_message(err: QueryError) -> str:
    """Render the feedback message for an error. Pure in (kind, detail)."""
    return _TEMPLATES[err.kind](err.detail)


def classify_fault(function: str, exc: BaseException) -> QueryError:
    """Wrap a trapped evaluation fault as a runtime-exception error."""
    fault = str(exc) or type(exc).__name__
    return QueryError(ErrorKind.RUNTIME_EXCEPTION, function=function, fault=fault)
