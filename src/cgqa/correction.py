"""Multi-round query correction driven by typed error feedback.

The loop: generate an initial plan (with self-consistency voting), run it,
and while it fails, feed the rendered error message back to the model and
run the corrected plan, up to a round cap. Every attempt and analysis is
recorded in a trace, which downstream modules turn into training data and
reports.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring
from typing import Any, Iterable, Sequence

from .dsl import DEFAULT_REGISTRY, QueryPlan, parse_plan, validate_plan
from .errors import ErrorKind, QueryError
from .executor import ExecutionOutcome, execute_plan
from .graph import (ConditionGraph, SchemaDescriptor, Scalar, sort_values,
                    value_key)
from .jsonl import Record
from .llm import ChatMessage

_STEP_LINE_RE = re.compile(r"^\s*query\d+\s*=")
_PUNCT_RE = re.compile(r"[^\w\s.-]|_")
_WORD_RE = re.compile(r"\w+")


Gold = list[str | float | bool]  # normalize_answer_value takes booleans too


def _finite_gold(gold: Gold | None) -> Gold | None:
    """gold, if each of its numbers is finite as a float."""
    for v in gold or ():  # NaN fails every comparison
        if type(v) in (int, float) and not abs(v) <= sys.float_info.max:
            raise ValueError(f"field 'gold' items must be finite, not {v!r}")
    return gold


@dataclass
class Question(Record):
    id: str = field(metadata={"decode": (str | int, str)})
    text: str = field(metadata={"key": "question"})
    gold_answer: Gold | None = field(default=None, metadata={
        "key": "gold", "decode": (Gold | None, _finite_gold)})
    graph_ref: str | None = None


@dataclass
class Demonstration(Record):
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
        """Word set of the question, computed once per demonstration and
        shared by every DemoIndex built over a pool that holds it."""
        return _word_set(self.question)

    @cached_property
    def body(self) -> str:
        """The demonstration as a prompt shows it below its numbered
        header, rendered once; body_json is its JSON-escaped form. The two
        keep about twice the demonstration's text per demonstration shown."""
        fix = (f"Wrong query:\n{self.wrong_plan_text}\n"
               f"Error message: {self.error_message}\n"
               f"Analysis: {self.analysis}\nCorrected query"
               if self.is_correction else "Query")
        return (f"Schema:\n{self.schema_text}\nQuestion: {self.question}\n"
                f"{fix}:\n{self.plan_text}")

    @cached_property
    def body_json(self) -> str:
        return encode_basestring(self.body)[1:-1]


@dataclass
class CorrectionRound(Record):
    index: int
    error_in: QueryError
    analysis: str
    updated_plan_text: str
    outcome_after: ExecutionOutcome


STATUS_SOLVED_DIRECT = "solved_direct"
STATUS_SOLVED_AFTER_N = "solved_after_n"
STATUS_FAILED_MCT = "failed_mct"
STATUS_FAILED_GOLD_MISMATCH = "failed_gold_mismatch"

SOLVED_STATUSES = (STATUS_SOLVED_DIRECT, STATUS_SOLVED_AFTER_N)

METRIC_DENOTATION = "denotation"
METRIC_HITS1 = "hits1"
# Each metric that answers_match scores by, and its name in a report.
METRICS = {METRIC_DENOTATION: "denotation_accuracy", METRIC_HITS1: "hits_at_1"}
AUTHORS = ("teacher", "student")


def _check_choice(name: str, value: str, choices: Iterable[str]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}, "
                         f"not {value!r}")


@dataclass
class CorrectionTrace(Record):
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
    gold_answer: Gold | None = None
    # Each assessed plan text's parse, or None if it did not parse: in
    # memory only, for self_records; a trace read from a file has none.
    parses: dict[str, QueryPlan | None] = field(
        default_factory=dict, compare=False, repr=False)

    @property
    def trace_id(self) -> str:
        return f"{self.question_id}/{self.author}"

    def terminal_outcome(self) -> ExecutionOutcome:
        return self.rounds[-1].outcome_after if self.rounds else self.initial_outcome


def _word_set(text: str) -> frozenset[str]:
    # Questions share most words; interning stores each word once.
    return frozenset(map(sys.intern, _WORD_RE.findall(text.casefold())))


_NO_WORDS = frozenset({""})


class DemoIndex:
    """Word -> bitmask of the pool positions whose question holds it, and
    question word count -> bitmask of the positions with that count, so
    retrieval scores the whole pool with a few int operations per word;
    corrections masks the correction demonstrations' positions.
    Two texts without words have Jaccard 1 and match nothing else, so both
    sides stand for an empty word set by the word "", which no word equals.
    """

    def __init__(self, pool: Sequence[Demonstration]) -> None:
        self.pool = tuple(pool)
        self.everyone = (1 << len(self.pool)) - 1
        self.masks, self.by_size = {}, {}  # word, word count -> positions
        self.corrections = sum(1 << i for i, demo in enumerate(self.pool)
                               if demo.is_correction)
        for i, demo in enumerate(self.pool):
            words = demo.question_words or _NO_WORDS
            self.by_size[len(words)] = self.by_size.get(len(words), 0) | 1 << i
            for word in words:
                self.masks[word] = self.masks.get(word, 0) | 1 << i

    def rank(self, question_text: str) -> list[int]:
        """Bitmasks of pool positions, best first: one per Jaccard score
        above zero, highest first, then the positions sharing no word.
        Ranking a sub-pool orders its positions as masking this does."""
        words = _word_set(question_text) or _NO_WORDS
        planes = [0] * len(words).bit_length()  # plane j: bit j of counts
        for carry in map(self.masks.get, words & self.masks.keys()):
            for j, plane in enumerate(planes):  # ripple-carry add
                planes[j], carry = plane ^ carry, plane & carry
        by_count = {0: self.everyone}  # shared-word count -> positions
        for j, plane in enumerate(planes):
            by_count = {c | bit: m for c, at_c in by_count.items() for bit, m
                        in ((0, at_c & ~plane), (1 << j, at_c & plane)) if m}
        rest, n, groups = by_count.pop(0, 0), len(words), {}  # score -> pos
        for c, at_c in by_count.items():
            for s, sized in self.by_size.items():
                if m := at_c & sized:  # equal floats tie, whatever c and s
                    score = -c / (n + s - c)
                    groups[score] = groups.get(score, 0) | m
        return [groups[score] for score in sorted(groups)] + [rest]


def retrieve_demos(
    question_text: str,
    pool: Sequence[Demonstration] | DemoIndex,
    k_retrieve: int = 15,
    k_use: int = 8,
    ranking: Iterable[int] | None = None,
) -> list[Demonstration]:
    """The k_use first distinct (question, plan) pairs among the k_retrieve
    demonstrations most similar by Jaccard over casefolded word sets (see
    DemoIndex); ties keep pool order.
    A plain sequence is indexed for this call only. ranking, when given, is
    the index's rank(question_text), whose masks may leave positions out:
    then only the positions left are retrieved from."""
    index = pool if isinstance(pool, DemoIndex) else DemoIndex(pool)
    picked: list[Demonstration] = []
    seen: set[tuple[str, str]] = set()
    left = k_retrieve
    for m in index.rank(question_text) if ranking is None else ranking:
        while m and left > 0 and len(picked) < k_use:
            demo = index.pool[(m & -m).bit_length() - 1]
            m &= m - 1  # drop the lowest position
            left -= 1
            ident = (demo.question, demo.plan_text)
            if ident not in seen:
                seen.add(ident)
                picked.append(demo)
    return picked


@dataclass
class PipelineConfig:
    """The settings of the loop and its runs, each defaulted and range-checked
    here alone: the loop reads them, the CLI's flags default to them."""

    mct: int = 3  # correction rounds; 0 is single-pass inference
    sc_n: int = 5  # self-consistency samples voted over
    demos: int = 8
    retrieves: int = 15
    strict_empty: bool = False
    metric: str = METRIC_DENOTATION
    author: str = "teacher"
    demo_pool: Sequence[Demonstration] = field(default_factory=tuple)
    jobs: int = 1
    full_history: bool = False  # every earlier attempt in correction prompts
    _index: tuple = field(default=(None, None), init=False, repr=False,
                          compare=False)

    def __post_init__(self) -> None:
        for name, low in (("jobs", 1), ("demos", 0), ("retrieves", 0),
                          ("sc_n", 1), ("mct", 0)):
            value = getattr(self, name)  # named below as its CLI flag
            flag = "self-consistency" if name == "sc_n" else name
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{flag} must be an integer, not {value!r}")
            if value < low:
                raise ValueError(f"{flag} must be >= {low}")
        _check_choice("metric", self.metric, METRICS)
        _check_choice("author", self.author, AUTHORS)

    def demo_index(self) -> DemoIndex:
        """Word index of demo_pool, built once per pool object."""
        pool, index = self._index
        if pool is not self.demo_pool:
            index = DemoIndex(self.demo_pool)
            self._index = (self.demo_pool, index)
        return index


def render_schema(schema: SchemaDescriptor) -> str:
    """Deterministic schema block shown to the model (see
    SchemaDescriptor.text), rendered once per descriptor."""
    return schema.text


_SYSTEM_TEXT = (
    "You answer questions over structured data by writing a short query "
    "plan, one atomic function call per line, in the form "
    "queryN = function(parameter=value, ...).\n"
    f"Available functions: {', '.join(DEFAULT_REGISTRY.names())}.\n"
    "Reference an earlier step's result as output_of_queryN. String "
    "values use single quotes; numbers are written bare. Comparators "
    "<, >, <=, >= are allowed only on parameters 'tail_entity' and "
    "'value'. The final step's result is the answer."
)


_SYSTEM = ChatMessage("system", _SYSTEM_TEXT, encode_basestring(_SYSTEM_TEXT))


class _Demos(tuple):
    """Demonstrations whose prompt block is rendered on first use and then
    kept, so that one question's correction prompts share it."""

    @cached_property
    def block(self) -> tuple[str, str]:
        """The demonstrations block of a prompt and its JSON-escaped form."""
        if not self:
            return "(none)", "(none)"
        return ("\n\n".join([f"[Demonstration {i}]\n{demo.body}"
                             for i, demo in enumerate(self, start=1)]),
                "\\n\\n".join([f"[Demonstration {i}]\\n{demo.body_json}"
                               for i, demo in enumerate(self, start=1)]))


def _demo_block(demos: Sequence[Demonstration]) -> tuple[str, str]:
    return (demos if isinstance(demos, _Demos) else _Demos(demos)).block


def _user_message(head: str, block: tuple[str, str], tail: str) -> ChatMessage:
    """The user message head + block + tail; its content_json reuses the
    block's escaped form instead of escaping the block again."""
    text, escaped = block
    return ChatMessage("user", head + text + tail,
                       encode_basestring(head)[:-1] + escaped
                       + encode_basestring(tail)[1:])


def build_query_prompt(
    question_text: str,
    schema_text: str,
    demos: Sequence[Demonstration] = (),
) -> list[ChatMessage]:
    """Prompt asking for an initial query plan."""
    return [_SYSTEM, _user_message(
        f"Schema:\n{schema_text}\n\nDemonstrations:\n", _demo_block(demos),
        f"\n\nQuestion: {question_text}\nWrite the query plan only.")]


def build_correction_prompt(
    question_text: str,
    schema_text: str,
    wrong_plan_text: str,
    error_message: str,
    demos: Sequence[Demonstration] = (),
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
    return [_SYSTEM, _user_message(
        f"Schema:\n{schema_text}\n\nDemonstrations:\n", _demo_block(demos),
        f"\n\nQuestion: {question_text}\n\n"
        f"{past}"
        f"Wrong query:\n{wrong_plan_text}\n\n"
        f"Error message: {error_message}\n\n"
        "First explain what went wrong, then write the corrected full "
        "query plan (queryN = ... lines).")]


def extract_plan(completion: str) -> tuple[str, str | None]:
    """Split a completion into (analysis text, plan block).

    The plan block is the first contiguous run of queryN = ... lines; code
    fences are ignored. Returns (analysis, None) when no step line exists.
    """
    lines = completion.splitlines()
    if "```" in completion:
        lines = [ln for ln in lines if not ln.strip().startswith("```")]
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
    plan_text: str, cg: ConditionGraph, strict_empty: bool = False,
    parses: dict[str, QueryPlan | None] | None = None,
) -> ExecutionOutcome:
    """Parse, validate, and execute plan text; failures become outcomes.
    parses, if given, keeps the text's parse, valid or not, or None."""
    plan = None
    try:
        validate_plan(plan := parse_plan(plan_text))
    except QueryError as err:
        return ExecutionOutcome("exec_error", [], None, err.detached())
    finally:
        if parses is not None:
            parses[plan_text] = plan
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
    config: PipelineConfig,
    demos: Sequence[Demonstration] = (),
    parses: dict[str, QueryPlan | None] | None = None,
) -> tuple[str, ExecutionOutcome]:
    """Sample config.sc_n plans and majority-vote their executed answers.

    A client with a sample(messages, n) method gets all sc_n requests at
    once; any other client is asked complete() sc_n times in a row. Each
    distinct completion is split once, and each distinct plan text assessed
    and keyed once, in order of its first sample. Assessing stops once the
    leading bucket outgrows the runner-up by more than the samples left,
    since no later plan can then change the winner. All failing samples
    share one bucket; ties go to the earliest sample. Returns the plan text
    of the first sample in the winning bucket and its outcome. parses, if
    given, keeps each assessed text's parse, as assess does.
    """
    prompt = build_query_prompt(question_text, schema_text, demos)
    sample = getattr(client, "sample", None)
    if sample is not None:
        completions = sample(prompt, config.sc_n)
    else:
        completions = [client.complete(prompt) for _ in range(config.sc_n)]
    plans: dict[str, str] = {}  # completion -> plan text
    samples: dict[str, list[int]] = {}  # plan text -> its sample indices
    for i, completion in enumerate(completions):
        if completion not in plans:
            _, plan_text = extract_plan(completion)
            plans[completion] = (plan_text if plan_text is not None
                                 else completion.strip())
        samples.setdefault(plans[completion], []).append(i)
    outcomes: dict[str, ExecutionOutcome] = {}
    buckets: dict[tuple, list[int]] = {}  # sample indices, earliest first
    lead = runner = 0  # the two largest bucket sizes
    left = len(completions)  # samples whose plan is not assessed yet
    for plan_text, idxs in samples.items():
        if lead > runner + left:
            break  # the rest can neither tie the lead nor move a first index
        outcome = outcomes[plan_text] = assess(plan_text, cg,
                                               config.strict_empty, parses)
        buckets.setdefault(_vote_key(outcome), []).extend(idxs)
        left -= len(idxs)
        runner, lead = sorted([0, 0, *map(len, buckets.values())])[-2:]
    best = max(buckets.values(), key=lambda idxs: (len(idxs), -idxs[0]))
    winner = plans[completions[best[0]]]
    return winner, outcomes[winner]


def run_correction(
    question: Question,
    schema: SchemaDescriptor,
    cg: ConditionGraph,
    client,
    config: PipelineConfig,
    demos_query: Sequence[Demonstration] = (),
    demos_correction: Sequence[Demonstration] = (),
) -> CorrectionTrace:
    """Run the full loop for one question as config sets it; record a trace.

    config.mct caps the number of correction rounds. A clean outcome stops
    the loop immediately; the gold answer, when present, only decides
    between solved and failed_gold_mismatch, scored by config.metric.
    """
    schema_text = render_schema(schema)
    demos_correction = _Demos(demos_correction)  # rendered once, if at all
    parses: dict[str, QueryPlan | None] = {}
    initial_plan, initial_outcome = generate_initial(
        question.text, schema_text, cg, client, config, demos_query, parses)

    rounds: list[CorrectionRound] = []
    history: list[tuple[str, str]] = []
    current_plan, current_outcome = initial_plan, initial_outcome
    while current_outcome.error is not None and len(rounds) < config.mct:
        prompt = build_correction_prompt(
            question.text,
            schema_text,
            current_plan,
            current_outcome.error.message,
            demos_correction,
            history=tuple(history) if config.full_history else (),
        )
        history.append((current_plan, current_outcome.error.message))
        completion = client.complete(prompt)
        analysis, new_plan = extract_plan(completion)
        if new_plan is None:
            new_plan = completion.strip()
            parses[new_plan] = None  # no step line, so it does not parse
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
            outcome_after = assess(new_plan, cg, config.strict_empty, parses)
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
            mode=config.metric,
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
        author=config.author,
        initial_plan_text=initial_plan,
        initial_outcome=initial_outcome,
        rounds=rounds,
        status=status,
        n=len(rounds),
        final_plan_text=final_plan,
        gold_answer=question.gold_answer,
        parses=parses,
    )


def normalize_answer_value(value: Scalar | bool) -> tuple[str, Any]:
    """Normalize one answer value: its value_key, a number or the folded
    text, with a text key's punctuation cleaned."""
    if isinstance(value, bool):
        return ("t", str(value).casefold())
    folded = value_key(value)
    if isinstance(folded, float):
        return ("n", folded)
    if folded.isalnum():  # \w is the alphanumerics and "_": nothing to clean
        return ("t", folded)
    return ("t", " ".join(_PUNCT_RE.sub(" ", folded).split()))


def _norm_values(values: Iterable[Any]) -> list[tuple[str, Any]]:
    """Distinct normalized values: ("n", float)s by value, then ("t", str)s."""
    return sorted({normalize_answer_value(v) for v in values})


def answers_match(
    answer: Iterable[Scalar], gold: Iterable[Any], mode: str = METRIC_DENOTATION
) -> bool:
    """Compare an executed answer against gold by one of METRICS.

    denotation: normalized set equality, numerics within 1e-9.
    hits1: the lexicographically first answer value appears in the gold set.
    """
    _check_choice("mode", mode, METRICS)
    got = _norm_values(answer)
    want = _norm_values(gold)
    if mode == METRIC_HITS1:
        ranked = sort_values(answer)
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
