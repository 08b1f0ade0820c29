"""Dataset evaluation and error statistics.

Evaluation runs every question through the correction loop (or single-pass
when correction is disabled, i.e. a round cap of zero) and scores the final
answers: denotation accuracy compares whole answer sets, hits@1 checks the
top-ranked value. Error statistics tally, per error kind, how many initial
queries failed and how many of those were never repaired.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .correction import (
    STATUS_FAILED_GOLD_MISMATCH,
    STATUS_FAILED_MCT,
    STATUS_SOLVED_AFTER_N,
    STATUS_SOLVED_DIRECT,
    CorrectionTrace,
    Demonstration,
    Question,
    retrieve_demos,
    run_correction,
)
from .errors import ErrorKind
from .graph import ConditionGraph, schema_summary
from .jsonl import read_jsonl

METRIC_DENOTATION = "denotation_accuracy"
METRIC_HITS1 = "hits_at_1"


class MissingGoldError(Exception):
    pass


class GraphNotFoundError(Exception):
    pass


@dataclass
class EvalReport:
    """Aggregate outcome counts and the headline metric (in percent).

    alignment_miss counts questions that executed cleanly but missed the
    gold answer; those are exactly the failed_gold_mismatch outcomes and are
    reported but never corrected.
    """

    metric: str
    value: float | None
    total: int
    solved_direct: int
    solved_after_n: dict[int, int]
    failed_mct: int
    failed_gold_mismatch: int
    alignment_miss: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "value": round(self.value, 6) if self.value is not None else "n/a",
            "total": self.total,
            "solved_direct": self.solved_direct,
            "solved_after_n": {
                str(k): v for k, v in sorted(self.solved_after_n.items())
            },
            "failed_mct": self.failed_mct,
            "failed_gold_mismatch": self.failed_gold_mismatch,
            "alignment_miss": self.alignment_miss,
        }


@dataclass
class ErrorStats:
    """Per-kind before/after correction counts.

    before tallies the error kinds of initial queries; after counts, against
    that same initial kind, the traces that still end in an error.
    """

    per_kind: dict[str, dict[str, float]]
    parsing: dict[str, float]
    execution: dict[str, float]
    overall: dict[str, float]

    def to_dict(self) -> dict[str, Any]:
        return {
            "per_kind": self.per_kind,
            "parsing": self.parsing,
            "execution": self.execution,
            "overall": self.overall,
        }


@dataclass
class PipelineConfig:
    """Knobs shared by evaluation and batch correction."""

    mct: int = 3
    sc_n: int = 5
    demos_query: int = 8
    demos_correction: int = 8
    retrieves: int = 15
    strict_empty: bool = False
    metric: str = METRIC_DENOTATION
    author: str = "teacher"
    demo_pool: Sequence[Demonstration] = field(default_factory=tuple)
    jobs: int = 1
    full_history: bool = False
    _correction_pool: tuple = field(default=(None, ()), init=False,
                                    repr=False, compare=False)

    def correction_pool(self) -> tuple[Demonstration, ...]:
        """The correction demonstrations of demo_pool, filtered once per
        pool object."""
        pool, picked = self._correction_pool
        if pool is not self.demo_pool:
            pool = self.demo_pool
            picked = tuple(d for d in pool if d.is_correction)
            self._correction_pool = (pool, picked)
        return picked


def run_question(
    question: Question,
    cg: ConditionGraph,
    client,
    config: PipelineConfig,
) -> CorrectionTrace:
    """Resolve demonstrations and run the loop for one question."""
    demos_q = retrieve_demos(
        question.text, config.demo_pool, config.retrieves, config.demos_query
    )
    demos_c = retrieve_demos(
        question.text, config.correction_pool(), config.retrieves,
        config.demos_correction,
    )
    match_mode = "hits1" if config.metric == METRIC_HITS1 else "denotation"
    return run_correction(
        question,
        schema_summary(cg),
        cg,
        client,
        mct=config.mct,
        demos_query=demos_q,
        demos_correction=demos_c,
        sc_n=config.sc_n,
        strict_empty=config.strict_empty,
        author=config.author,
        match_mode=match_mode,
        full_history=config.full_history,
    )


def evaluate(
    questions: Sequence[Question],
    resolve_graph: Callable[[str], ConditionGraph],
    client,
    config: PipelineConfig | None = None,
) -> tuple[EvalReport, list[CorrectionTrace]]:
    """Run all questions and assemble the report; traces come back too.

    Questions run in dataset order (optionally across config.jobs workers,
    results kept in order); every question must carry a gold answer and a
    resolvable graph reference.
    """
    config = config or PipelineConfig()
    for q in questions:
        if q.gold_answer is None:
            raise MissingGoldError(f"question {q.id} has no gold answer")

    def _resolve(ref: str | None) -> ConditionGraph:
        try:
            return resolve_graph(ref or "")
        except GraphNotFoundError:
            raise
        except Exception as exc:
            raise GraphNotFoundError(str(exc)) from exc

    def _one(q: Question) -> CorrectionTrace:
        return run_question(q, _resolve(q.graph_ref), client, config)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            traces = list(pool.map(_one, questions))
    else:
        traces = [_one(q) for q in questions]

    counts = {
        STATUS_SOLVED_DIRECT: 0,
        STATUS_FAILED_MCT: 0,
        STATUS_FAILED_GOLD_MISMATCH: 0,
    }
    after_n: dict[int, int] = {}
    for trace in traces:
        if trace.status == STATUS_SOLVED_AFTER_N:
            after_n[trace.n] = after_n.get(trace.n, 0) + 1
        else:
            counts[trace.status] += 1
    correct = counts[STATUS_SOLVED_DIRECT] + sum(after_n.values())
    total = len(traces)
    report = EvalReport(
        metric=config.metric,
        value=(100.0 * correct / total) if total else None,
        total=total,
        solved_direct=counts[STATUS_SOLVED_DIRECT],
        solved_after_n=after_n,
        failed_mct=counts[STATUS_FAILED_MCT],
        failed_gold_mismatch=counts[STATUS_FAILED_GOLD_MISMATCH],
        alignment_miss=counts[STATUS_FAILED_GOLD_MISMATCH],
    )
    return report, traces


def _pct(before: int, after: int) -> float:
    return round(100.0 * (before - after) / before, 6) if before else 0.0


def error_stats(traces: Iterable[CorrectionTrace]) -> ErrorStats:
    """Tally initial error kinds and how many survived the loop."""
    before: dict[str, int] = {k.value: 0 for k in ErrorKind}
    after: dict[str, int] = {k.value: 0 for k in ErrorKind}
    for trace in traces:
        err = trace.initial_outcome.error
        if err is None:
            continue
        before[err.kind.value] += 1
        if trace.terminal_outcome().error is not None:
            after[err.kind.value] += 1

    per_kind = {
        kind: {
            "before": before[kind],
            "after": after[kind],
            "corrected_pct": _pct(before[kind], after[kind]),
        }
        for kind in sorted(before)
        if before[kind]
    }

    def _bucket(kinds: Iterable[ErrorKind]) -> dict[str, float]:
        kinds = list(kinds)
        b = sum(before[k.value] for k in kinds)
        a = sum(after[k.value] for k in kinds)
        return {"before": b, "after": a, "corrected_pct": _pct(b, a)}

    parsing = _bucket(k for k in ErrorKind if k.category == "parsing")
    execution = _bucket(k for k in ErrorKind if k.category == "execution")
    overall = _bucket(iter(ErrorKind))
    return ErrorStats(per_kind, parsing, execution, overall)


def load_questions(path: str) -> list[Question]:
    """Read a dataset: JSONL of {id, question, gold, graph_ref}."""
    return read_jsonl(path, lambda data: Question(
        id=str(data["id"]),
        text=data["question"],
        gold_answer=data.get("gold"),
        graph_ref=data.get("graph_ref"),
    ))
