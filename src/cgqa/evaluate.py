"""Dataset evaluation and error statistics.

Evaluation runs every question through the correction loop (or single-pass
when correction is disabled, i.e. a round cap of zero) and scores the final
answers: denotation accuracy compares whole answer sets, hits@1 checks the
top-ranked value. Error statistics tally, per error kind, how many initial
queries failed and how many of those were never repaired.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .correction import (
    METRIC_HITS1,  # noqa: F401, re-export
    METRICS,
    STATUS_FAILED_GOLD_MISMATCH,
    STATUS_FAILED_MCT,
    STATUS_SOLVED_AFTER_N,
    STATUS_SOLVED_DIRECT,
    CorrectionTrace,
    PipelineConfig,
    Question,
    retrieve_demos,
    run_correction,
)
from .errors import ErrorKind
from .graph import ConditionGraph, schema_summary
from .jsonl import Record, read_jsonl


class MissingGoldError(ValueError):
    pass


class GraphNotFoundError(ValueError):
    pass


@dataclass
class EvalReport(Record):
    """Aggregate outcome counts and the headline metric (in percent).

    alignment_miss counts questions that executed cleanly but missed the
    gold answer; those are exactly the failed_gold_mismatch outcomes and are
    reported but never corrected.
    """

    metric: str
    value: float | None = field(metadata={
        "encode": lambda v: "n/a" if v is None else round(v, 6),
        "decode": (float | str, lambda v: None if v == "n/a" else v)})
    total: int
    solved_direct: int
    solved_after_n: dict[int, int] = field(metadata={
        "encode": lambda d: {str(k): v for k, v in sorted(d.items())},
        "decode": (dict[str, int], lambda d: {int(k): v for k, v in d.items()})})
    failed_mct: int
    failed_gold_mismatch: int
    alignment_miss: int


@dataclass
class ErrorStats(Record):
    """Per-kind before/after correction counts.

    before tallies the error kinds of initial queries; after counts, against
    that same initial kind, the traces that still end in an error.
    """

    per_kind: dict[str, dict[str, float]]
    parsing: dict[str, float]
    execution: dict[str, float]
    overall: dict[str, float]


def run_question(
    question: Question,
    cg: ConditionGraph,
    client,
    config: PipelineConfig,
) -> CorrectionTrace:
    """Resolve demonstrations and run the loop for one question; the
    correction demonstrations come from the same ranking, masked."""
    index = config.demo_index()
    ranking = index.rank(question.text)
    demos_q = retrieve_demos(question.text, index, config.retrieves,
                             config.demos, ranking)
    demos_c = retrieve_demos(question.text, index, config.retrieves,
                             config.demos,
                             [m & index.corrections for m in ranking])
    return run_correction(question, schema_summary(cg), cg, client, config,
                          demos_q, demos_c)


def run_questions(
    questions: Sequence[Question],
    resolve_graph: Callable[[str], ConditionGraph],
    client,
    config: PipelineConfig,
) -> list[CorrectionTrace]:
    """Run every question, config.jobs at a time; the traces come back in
    dataset order. Questions finish in any order, so jobs above 1 refuse a
    client that replies by request order (keyless scripted replies). Only
    questions with one text can send the same request and share its keyed
    replies, so each waits for the last earlier question with its text."""
    if config.jobs > 1 and getattr(client, "replays_in_order", False):
        raise ValueError(f"--jobs {config.jobs} needs keyed script replies: "
                         "a keyless reply goes to whichever question asks "
                         "first")

    def _one(q: Question, earlier: Future | None = None) -> CorrectionTrace:
        if earlier is not None:
            wait([earlier])
        try:
            cg = resolve_graph(q.graph_ref or "")
        except GraphNotFoundError:
            raise
        except (LookupError, OSError, ValueError) as exc:  # a bad ref or dump
            raise GraphNotFoundError(str(exc)) from exc
        return run_question(q, cg, client, config)

    if config.jobs == 1:
        return [_one(q) for q in questions]
    pool = ThreadPoolExecutor(max_workers=config.jobs)
    futures: list[Future] = []
    latest: dict[str, Future] = {}  # question text -> its last question
    try:
        # Workers start questions in submission order, so an earlier future
        # has started before a later one waits on it: no deadlock.
        for q in questions:
            futures.append(pool.submit(_one, q, latest.get(q.text)))
            latest[q.text] = futures[-1]
        return [f.result() for f in futures]
    finally:  # after a failure, questions not yet started never start
        pool.shutdown(cancel_futures=True)


def evaluate(
    questions: Sequence[Question],
    resolve_graph: Callable[[str], ConditionGraph],
    client,
    config: PipelineConfig | None = None,
) -> tuple[EvalReport, list[CorrectionTrace]]:
    """Run all questions (see run_questions) and assemble the report; the
    traces come back too. Every question must carry a gold answer."""
    config = config or PipelineConfig()
    for q in questions:
        if q.gold_answer is None:
            raise MissingGoldError(f"question {q.id} has no gold answer")
    traces = run_questions(questions, resolve_graph, client, config)

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
        metric=METRICS[config.metric],
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
    return read_jsonl(path, Question.from_dict)
