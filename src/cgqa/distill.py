"""Turn correction traces into training data and compute its losses.

Two record families come out of solved traces:

  * supervised records — one query-generation record (prompt -> final plan)
    plus one correction record per round (correction prompt -> analysis and
    the final plan, never the round's own intermediate plan);
  * preference pairs — for student-authored traces, the final plan is
    preferred over every earlier failed attempt, all conditioned on the
    query-generation prompt.

Losses are sums of target token log-probabilities under an abstract scorer,
negated; the preference loss is the negated sum of score gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Protocol, Sequence

from .correction import (
    SOLVED_STATUSES,
    CorrectionTrace,
    Demonstration,
    correction_prompt_text,
    query_prompt_text,
)
from .dsl import canonical_plan_text
from .jsonl import read_json, read_jsonl, write_jsonl  # noqa: F401, re-export

KIND_QUERY_GEN = "query_gen"
KIND_CORRECTION = "correction"

TARGET_SEPARATOR = "\n\n"  # between analysis text and the plan block


class IneligibleTraceError(Exception):
    """Raised for traces that did not end in a gold-matched solution."""


class ScorerFailure(ValueError):
    """A scorer table that is malformed or has no entry for a target."""


@dataclass
class SftRecord:
    kind: str  # "query_gen" | "correction"
    input_text: str
    target_text: str
    round_index: int | None
    trace_id: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "input": self.input_text,
            "target": self.target_text,
            "round": self.round_index,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SftRecord":
        return cls(
            kind=data["kind"],
            input_text=data["input"],
            target_text=data["target"],
            round_index=data["round"],
            trace_id=data["trace_id"],
        )


@dataclass
class PreferencePair:
    input_text: str
    preferred: str
    dispreferred: str
    round_index: int
    trace_id: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "prompt": self.input_text,
            "chosen": self.preferred,
            "rejected": self.dispreferred,
            "round": self.round_index,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PreferencePair":
        return cls(
            input_text=data["prompt"],
            preferred=data["chosen"],
            dispreferred=data["rejected"],
            round_index=data["round"],
            trace_id=data["trace_id"],
        )


class TokenScorer(Protocol):
    """Anything that scores a target's tokens given a context."""

    def token_logprobs(self, context: str, target: str) -> Sequence[float]:
        ...


class TableTokenScorer:
    """Table-driven scorer for tests and offline loss checks.

    Entries map a target (optionally a context too) to a fixed log-prob
    list; unlisted targets fall back to default_logprob per whitespace
    token when configured, else raise ScorerFailure.
    """

    def __init__(
        self,
        entries: Iterable[dict[str, Any]] = (),
        default_logprob: float | None = None,
    ) -> None:
        self._by_pair: dict[tuple[str, str], list[float]] = {}
        self._by_target: dict[str, list[float]] = {}
        self.default_logprob = default_logprob
        for entry in entries:
            logprobs = [float(x) for x in entry["logprobs"]]
            if any(lp > 0 for lp in logprobs):
                raise ScorerFailure(
                    f"log-probabilities must be <= 0: {logprobs!r}"
                )
            if "context" in entry and entry["context"] is not None:
                self._by_pair[(entry["context"], entry["target"])] = logprobs
            else:
                self._by_target[entry["target"]] = logprobs

    @classmethod
    def from_file(cls, path: str) -> "TableTokenScorer":
        return read_json(path, lambda data: cls(
            data.get("entries", ()), data.get("default_logprob")))

    def token_logprobs(self, context: str, target: str) -> list[float]:
        if (context, target) in self._by_pair:
            return list(self._by_pair[(context, target)])
        if target in self._by_target:
            return list(self._by_target[target])
        if self.default_logprob is not None:
            return [self.default_logprob] * len(target.split())
        raise ScorerFailure(f"no score table entry for target {target[:60]!r}")


def _require_solved(trace: CorrectionTrace) -> None:
    if trace.status not in SOLVED_STATUSES or trace.final_plan_text is None:
        raise IneligibleTraceError(
            f"trace {trace.trace_id} has status {trace.status}; only solved "
            f"traces produce records"
        )


def _attempt_before_round(trace: CorrectionTrace, i: int) -> str:
    """The wrong plan that round i corrected (attempt i-1)."""
    if i == 1:
        return trace.initial_plan_text
    return trace.rounds[i - 2].updated_plan_text


def _concat_target(analysis: str, plan_text: str) -> str:
    parts = [p for p in (analysis.strip(), plan_text.strip()) if p]
    return TARGET_SEPARATOR.join(parts)


def teacher_records(
    trace: CorrectionTrace,
    demos_query: Sequence[Demonstration] = (),
    demos_correction: Sequence[Demonstration] = (),
) -> list[SftRecord]:
    """Supervised records from one solved trace.

    Every correction record targets the trace's final plan, not that round's
    intermediate attempt, prefixed by the round's analysis.
    """
    _require_solved(trace)
    final_plan = trace.final_plan_text
    assert final_plan is not None
    records = [
        SftRecord(
            kind=KIND_QUERY_GEN,
            input_text=query_prompt_text(
                trace.question_text, trace.schema_text, demos_query
            ),
            target_text=final_plan,
            round_index=None,
            trace_id=trace.trace_id,
        )
    ]
    for rnd in trace.rounds:
        records.append(
            SftRecord(
                kind=KIND_CORRECTION,
                input_text=correction_prompt_text(
                    trace.question_text,
                    trace.schema_text,
                    _attempt_before_round(trace, rnd.index),
                    rnd.error_in.message,
                    demos_correction,
                ),
                target_text=_concat_target(rnd.analysis, final_plan),
                round_index=rnd.index,
                trace_id=trace.trace_id,
            )
        )
    return records


def self_records(
    trace: CorrectionTrace, demos_query: Sequence[Demonstration] = ()
) -> list[PreferencePair]:
    """Preference pairs from a solved student trace: final plan over each
    earlier failed attempt. Direct solutions yield no pairs."""
    _require_solved(trace)
    if trace.author != "student":
        raise IneligibleTraceError(
            f"trace {trace.trace_id} was authored by {trace.author!r}; "
            f"preference pairs come from student traces"
        )
    final_plan = trace.final_plan_text
    assert final_plan is not None
    prompt = query_prompt_text(trace.question_text, trace.schema_text,
                               demos_query)
    pairs = []
    for rnd in trace.rounds:
        attempt = _attempt_before_round(trace, rnd.index)
        if canonical_plan_text(attempt) == canonical_plan_text(final_plan):
            continue
        pairs.append(
            PreferencePair(
                input_text=prompt,
                preferred=final_plan,
                dispreferred=attempt,
                round_index=rnd.index,
                trace_id=trace.trace_id,
            )
        )
    return pairs


def score_sequence(context: str, target: str, scorer: TokenScorer) -> float:
    """Sum of target token log-probabilities given the context."""
    if not target:
        return 0.0
    logprobs = scorer.token_logprobs(context, target)
    return float(sum(logprobs))


def query_generation_loss(
    records: Sequence[SftRecord], scorer: TokenScorer, per_token: bool = False
) -> float:
    """Negated log-likelihood of query-generation targets (token sum)."""
    return _nll(records, scorer, KIND_QUERY_GEN, per_token)


def correction_loss(
    records: Sequence[SftRecord], scorer: TokenScorer, per_token: bool = False
) -> float:
    """Negated log-likelihood of correction targets (token sum)."""
    return _nll(records, scorer, KIND_CORRECTION, per_token)


def _nll(
    records: Sequence[SftRecord],
    scorer: TokenScorer,
    expected_kind: str,
    per_token: bool,
) -> float:
    total = 0.0
    tokens = 0
    for record in records:
        if record.kind != expected_kind:
            raise ScorerFailure(
                f"expected only {expected_kind} records, got {record.kind}"
            )
        logprobs = scorer.token_logprobs(record.input_text, record.target_text)
        total -= sum(logprobs)
        tokens += len(logprobs)
    if per_token:
        return total / tokens if tokens else 0.0
    return total


def stage1_loss(lq: float, lc: float) -> float:
    return lq + lc


def preference_loss(pairs: Sequence[PreferencePair], scorer: TokenScorer) -> float:
    """Negated sum of (score(preferred) - score(dispreferred)) over pairs."""
    total = 0.0
    for pair in pairs:
        s_pref = score_sequence(pair.input_text, pair.preferred, scorer)
        s_disp = score_sequence(pair.input_text, pair.dispreferred, scorer)
        total -= s_pref - s_disp
    return total


def read_sft_jsonl(path: str) -> list[SftRecord]:
    return read_jsonl(path, SftRecord.from_dict)


def read_preference_jsonl(path: str) -> list[PreferencePair]:
    return read_jsonl(path, PreferencePair.from_dict)
