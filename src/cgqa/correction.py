"""Multi-round query correction driven by typed error feedback.

The loop: generate an initial plan (with self-consistency voting), run it,
and while it fails, feed the rendered error message back to the model and
run the corrected plan, up to a round cap. Every attempt and analysis is
recorded in a trace, which downstream modules turn into training data and
reports.
"""

from __future__ import annotations

import heapq
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from .dsl import DEFAULT_REGISTRY, FunctionRegistry, parse_plan, validate_plan
from .errors import ErrorKind, QueryError
from .executor import ExecutionOutcome, execute_plan, sort_values
from .graph import ConditionGraph, SchemaDescriptor, Scalar
from .llm import ChatMessage, flatten_messages

_STEP_LINE_RE = re.compile(r"^\s*query\d+\s*=")
_PUNCT_RE = re.compile(r"[^\w\s.-]|_")
_NUMERIC_RE = re.compile(r"^-?\d+(\.\d+)?$")
_WORD_RE = re.compile(r"\w+")


@dataclass
class Question:
    id: str
    text: str
    gold_answer: list[Any] | None = None
    graph_ref: str | None = None


@dataclass
class Demonstration:
    """Worked example embedded in prompts.

    Plain demonstrations carry a question/schema/plan triple; correction
    demonstrations additionally carry the wrong plan, the error message it
    produced, and the analysis that led to the fix.
    """

    question: str
    schema_text: str
    plan_text: str
    wrong_plan_text: str | None = None
    error_message: str | None = None
    analysis: str | None = None

    @property
    def is_correction(self) -> bool:
        return self.wrong_plan_text is not None

    @cached_property
    def question_words(self) -> frozenset[str]:
        """Word set of the question, computed once per demonstration:
        retrieval compares every pool question with each new question."""
        return _word_set(self.question)


@dataclass
class CorrectionRound:
    index: int
    error_in: QueryError
    analysis: str
    updated_plan_text: str
    outcome_after: ExecutionOutcome

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "error_in": self.error_in.to_dict(),
            "analysis": self.analysis,
            "updated_plan_text": self.updated_plan_text,
            "outcome_after": self.outcome_after.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorrectionRound":
        return cls(
            index=data["index"],
            error_in=QueryError.from_dict(data["error_in"]),
            analysis=data["analysis"],
            updated_plan_text=data["updated_plan_text"],
            outcome_after=ExecutionOutcome.from_dict(data["outcome_after"]),
        )


STATUS_SOLVED_DIRECT = "solved_direct"
STATUS_SOLVED_AFTER_N = "solved_after_n"
STATUS_FAILED_MCT = "failed_mct"
STATUS_FAILED_GOLD_MISMATCH = "failed_gold_mismatch"

SOLVED_STATUSES = (STATUS_SOLVED_DIRECT, STATUS_SOLVED_AFTER_N)


@dataclass
class CorrectionTrace:
    """Full record of one question's trip through the loop."""

    question_id: str
    question_text: str
    schema_text: str
    author: str  # "teacher" | "student"
    initial_plan_text: str
    initial_outcome: ExecutionOutcome
    rounds: list[CorrectionRound]
    status: str
    n: int
    final_plan_text: str | None
    gold_answer: list[Any] | None = None

    @property
    def trace_id(self) -> str:
        return f"{self.question_id}/{self.author}"

    def terminal_outcome(self) -> ExecutionOutcome:
        return self.rounds[-1].outcome_after if self.rounds else self.initial_outcome

    def to_dict(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "question_text": self.question_text,
            "schema_text": self.schema_text,
            "author": self.author,
            "initial_plan_text": self.initial_plan_text,
            "initial_outcome": self.initial_outcome.to_dict(),
            "rounds": [r.to_dict() for r in self.rounds],
            "status": self.status,
            "n": self.n,
            "final_plan_text": self.final_plan_text,
            "gold_answer": self.gold_answer,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorrectionTrace":
        return cls(
            question_id=data["question_id"],
            question_text=data["question_text"],
            schema_text=data["schema_text"],
            author=data["author"],
            initial_plan_text=data["initial_plan_text"],
            initial_outcome=ExecutionOutcome.from_dict(data["initial_outcome"]),
            rounds=[CorrectionRound.from_dict(r) for r in data["rounds"]],
            status=data["status"],
            n=data["n"],
            final_plan_text=data["final_plan_text"],
            gold_answer=data.get("gold_answer"),
        )


def _word_set(text: str) -> frozenset[str]:
    # Questions share most words; interning stores each word once.
    return frozenset(map(sys.intern, _WORD_RE.findall(text.casefold())))


def token_set_jaccard(a: str, b: str) -> float:
    """Default demonstration similarity: Jaccard over casefolded word sets."""
    return _jaccard(_word_set(a), _word_set(b))


def _jaccard(ta: frozenset[str], tb: frozenset[str]) -> float:
    if not ta and not tb:
        return 1.0
    if not ta or not tb:
        return 0.0
    common = len(ta & tb)
    return common / (len(ta) + len(tb) - common)


def retrieve_demos(
    question_text: str,
    pool: Sequence[Demonstration],
    k_retrieve: int = 15,
    k_use: int = 8,
) -> list[Demonstration]:
    """Top demonstrations by token_set_jaccard; ties keep pool order."""
    words = _word_set(question_text)
    top = heapq.nsmallest(max(k_retrieve, 0), (
        (-_jaccard(words, d.question_words), i) for i, d in enumerate(pool)
    ))
    picked: list[Demonstration] = []
    seen: set[tuple[str, str]] = set()
    for _, i in top:
        demo = pool[i]
        ident = (demo.question, demo.plan_text)
        if ident in seen:
            continue
        seen.add(ident)
        picked.append(demo)
        if len(picked) == max(k_use, 0):
            break
    return picked


def render_schema(schema: SchemaDescriptor) -> str:
    """Deterministic schema block shown to the model (see
    SchemaDescriptor.text), rendered once per descriptor."""
    return schema.text


def _system_text(registry: FunctionRegistry) -> str:
    names = ", ".join(registry.names())
    return (
        "You answer questions over structured data by writing a short query "
        "plan, one atomic function call per line, in the form "
        "queryN = function(parameter=value, ...).\n"
        f"Available functions: {names}.\n"
        "Reference an earlier step's result as output_of_queryN. String "
        "values use single quotes; numbers are written bare. Comparators "
        "<, >, <=, >= are allowed only on parameters 'tail_entity' and "
        "'value'. The final step's result is the answer."
    )


def _demo_block(demos: Sequence[Demonstration]) -> str:
    if not demos:
        return "(none)"
    parts = []
    for i, demo in enumerate(demos, start=1):
        if demo.is_correction:
            parts.append(
                f"[Demonstration {i}]\n"
                f"Schema:\n{demo.schema_text}\n"
                f"Question: {demo.question}\n"
                f"Wrong query:\n{demo.wrong_plan_text}\n"
                f"Error message: {demo.error_message}\n"
                f"Analysis: {demo.analysis}\n"
                f"Corrected query:\n{demo.plan_text}"
            )
        else:
            parts.append(
                f"[Demonstration {i}]\n"
                f"Schema:\n{demo.schema_text}\n"
                f"Question: {demo.question}\n"
                f"Query:\n{demo.plan_text}"
            )
    return "\n\n".join(parts)


def build_query_prompt(
    question_text: str,
    schema_text: str,
    demos: Sequence[Demonstration] = (),
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> list[ChatMessage]:
    """Prompt asking for an initial query plan."""
    user = (
        f"Schema:\n{schema_text}\n\n"
        f"Demonstrations:\n{_demo_block(demos)}\n\n"
        f"Question: {question_text}\n"
        "Write the query plan only."
    )
    return [
        ChatMessage("system", _system_text(registry)),
        ChatMessage("user", user),
    ]


def build_correction_prompt(
    question_text: str,
    schema_text: str,
    wrong_plan_text: str,
    error_message: str,
    demos: Sequence[Demonstration] = (),
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    history: Sequence[tuple[str, str]] = (),
) -> list[ChatMessage]:
    """Prompt carrying the latest wrong plan and its error message.

    By default earlier rounds are left out; pass history as (plan, message)
    pairs to show them too.
    """
    past = ""
    if history:
        blocks = [
            f"Earlier attempt {i}:\n{plan}\nError message: {message}"
            for i, (plan, message) in enumerate(history, start=1)
        ]
        past = "\n\n".join(blocks) + "\n\n"
    user = (
        f"Schema:\n{schema_text}\n\n"
        f"Demonstrations:\n{_demo_block(demos)}\n\n"
        f"Question: {question_text}\n\n"
        f"{past}"
        f"Wrong query:\n{wrong_plan_text}\n\n"
        f"Error message: {error_message}\n\n"
        "First explain what went wrong, then write the corrected full "
        "query plan (queryN = ... lines)."
    )
    return [
        ChatMessage("system", _system_text(registry)),
        ChatMessage("user", user),
    ]


def query_prompt_text(
    question_text: str,
    schema_text: str,
    demos: Sequence[Demonstration] = (),
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> str:
    return flatten_messages(
        build_query_prompt(question_text, schema_text, demos, registry),
        add_assistant_cue=True,
    )


def correction_prompt_text(
    question_text: str,
    schema_text: str,
    wrong_plan_text: str,
    error_message: str,
    demos: Sequence[Demonstration] = (),
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> str:
    return flatten_messages(
        build_correction_prompt(
            question_text, schema_text, wrong_plan_text, error_message, demos,
            registry,
        ),
        add_assistant_cue=True,
    )


def extract_plan(completion: str) -> tuple[str, str | None]:
    """Split a completion into (analysis text, plan block).

    The plan block is the first contiguous run of queryN = ... lines; code
    fences are ignored. Returns (analysis, None) when no step line exists.
    """
    lines = [
        ln for ln in completion.splitlines() if not ln.strip().startswith("```")
    ]
    start = None
    for i, ln in enumerate(lines):
        if _STEP_LINE_RE.match(ln):
            start = i
            break
    if start is None:
        return completion.strip(), None
    end = start
    while end < len(lines) and _STEP_LINE_RE.match(lines[end]):
        end += 1
    analysis = "\n".join(lines[:start]).strip()
    plan = "\n".join(ln.strip() for ln in lines[start:end])
    return analysis, plan


def assess(
    plan_text: str,
    cg: ConditionGraph,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    strict_empty: bool = False,
) -> ExecutionOutcome:
    """Parse, validate, and execute plan text; failures become outcomes."""
    try:
        plan = validate_plan(parse_plan(plan_text), registry)
    except QueryError as err:
        return ExecutionOutcome("exec_error", [], None, err.detached())
    return execute_plan(plan, cg, strict_empty=strict_empty)


def _vote_key(outcome: ExecutionOutcome) -> tuple:
    if outcome.error is not None:
        return ("error",)
    return ("answer", tuple(_norm_values(outcome.answer or frozenset())))


def generate_initial(
    question_text: str,
    schema_text: str,
    cg: ConditionGraph,
    client,
    demos: Sequence[Demonstration] = (),
    sc_n: int = 5,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    strict_empty: bool = False,
) -> str:
    """Sample sc_n plans and majority-vote their executed answers.

    A client with a sample(messages, n) method gets all sc_n requests at
    once; any other client is asked complete() sc_n times in a row. All
    failing samples share one bucket; ties go to the earliest sample.
    Returns the plan text of the first sample in the winning bucket.
    """
    if sc_n < 1:
        raise ValueError("sc_n must be >= 1")
    prompt = build_query_prompt(question_text, schema_text, demos, registry)
    sample = getattr(client, "sample", None)
    if sample is not None:
        completions = sample(prompt, sc_n)
    else:
        completions = [client.complete(prompt) for _ in range(sc_n)]
    candidates: list[str] = []
    buckets: dict[tuple, list[int]] = {}
    for i, completion in enumerate(completions):
        _, plan_text = extract_plan(completion)
        plan_text = plan_text if plan_text is not None else completion.strip()
        candidates.append(plan_text)
        outcome = assess(plan_text, cg, registry, strict_empty)
        buckets.setdefault(_vote_key(outcome), []).append(i)
    best = max(buckets.values(), key=lambda idxs: (len(idxs), -idxs[0]))
    return candidates[best[0]]


def run_correction(
    question: Question,
    schema: SchemaDescriptor,
    cg: ConditionGraph,
    client,
    mct: int = 3,
    demos_query: Sequence[Demonstration] = (),
    demos_correction: Sequence[Demonstration] = (),
    sc_n: int = 5,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    strict_empty: bool = False,
    author: str = "teacher",
    match_mode: str = "denotation",
    full_history: bool = False,
) -> CorrectionTrace:
    """Run the full loop for one question and record the trace.

    mct caps the number of correction rounds; mct=0 is single-pass
    inference. A clean outcome stops the loop immediately; the gold answer,
    when present, only decides between solved and failed_gold_mismatch.
    full_history shows every earlier attempt in correction prompts instead
    of just the latest one.
    """
    if mct < 0:
        raise ValueError("mct must be >= 0")
    schema_text = render_schema(schema)
    initial_plan = generate_initial(
        question.text, schema_text, cg, client, demos_query, sc_n, registry,
        strict_empty,
    )
    initial_outcome = assess(initial_plan, cg, registry, strict_empty)

    rounds: list[CorrectionRound] = []
    history: list[tuple[str, str]] = []
    current_plan, current_outcome = initial_plan, initial_outcome
    while current_outcome.error is not None and len(rounds) < mct:
        prompt = build_correction_prompt(
            question.text,
            schema_text,
            current_plan,
            current_outcome.error.message,
            demos_correction,
            registry,
            history=tuple(history) if full_history else (),
        )
        history.append((current_plan, current_outcome.error.message))
        completion = client.complete(prompt)
        analysis, new_plan = extract_plan(completion)
        if new_plan is None:
            new_plan = completion.strip()
            outcome_after = ExecutionOutcome(
                "exec_error",
                [],
                None,
                QueryError(
                    ErrorKind.NON_STANDARD_EXPRESSION,
                    text=new_plan[:80],
                    what="correction reply",
                ),
            )
        else:
            outcome_after = assess(new_plan, cg, registry, strict_empty)
        rounds.append(
            CorrectionRound(
                index=len(rounds) + 1,
                error_in=current_outcome.error,
                analysis=analysis,
                updated_plan_text=new_plan,
                outcome_after=outcome_after,
            )
        )
        current_plan, current_outcome = new_plan, outcome_after

    if current_outcome.error is None:
        matched = question.gold_answer is None or answers_match(
            current_outcome.answer or frozenset(),
            question.gold_answer,
            mode=match_mode,
        )
        if not matched:
            status, final_plan = STATUS_FAILED_GOLD_MISMATCH, None
        elif rounds:
            status, final_plan = STATUS_SOLVED_AFTER_N, current_plan
        else:
            status, final_plan = STATUS_SOLVED_DIRECT, current_plan
    else:
        status, final_plan = STATUS_FAILED_MCT, None

    return CorrectionTrace(
        question_id=question.id,
        question_text=question.text,
        schema_text=schema_text,
        author=author,
        initial_plan_text=initial_plan,
        initial_outcome=initial_outcome,
        rounds=rounds,
        status=status,
        n=len(rounds),
        final_plan_text=final_plan,
        gold_answer=question.gold_answer,
    )


def normalize_answer_value(value: Any) -> tuple[str, Any]:
    """Normalize one answer value: numeric parse first, else cleaned text."""
    if isinstance(value, bool):
        return ("t", str(value).casefold())
    if isinstance(value, (int, float)):
        return ("n", float(value))
    text = str(value).strip()
    if _NUMERIC_RE.match(text):
        return ("n", float(text))
    cleaned = _PUNCT_RE.sub(" ", text.casefold())
    return ("t", " ".join(cleaned.split()))


def _norm_sort_key(kv: tuple[str, Any]) -> tuple[str, float, str]:
    if kv[0] == "n":
        return ("n", kv[1], "")
    return ("t", 0.0, kv[1])


def _norm_values(values: Iterable[Any]) -> list[tuple[str, Any]]:
    return sorted({normalize_answer_value(v) for v in values}, key=_norm_sort_key)


def answers_match(
    answer: Iterable[Scalar], gold: Iterable[Any], mode: str = "denotation"
) -> bool:
    """Compare an executed answer against gold.

    denotation: normalized set equality, numerics within 1e-9.
    hits1: the lexicographically first answer value appears in the gold set.
    """
    got = _norm_values(answer)
    want = _norm_values(gold)
    if mode == "hits1":
        ranked = sort_values(list(answer))
        if not ranked:
            return False
        top = normalize_answer_value(ranked[0])
        return any(_value_eq(top, w) for w in want)
    if len(got) != len(want):
        return False
    return all(_value_eq(g, w) for g, w in zip(got, want))


def _value_eq(a: tuple[str, Any], b: tuple[str, Any]) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "n":
        return abs(a[1] - b[1]) <= 1e-9
    return a[1] == b[1]
