"""Structured-data QA over condition graphs.

Parses and executes a function-step query language over a uniform edge
store, classifies every query failure into a typed error with a rendered
feedback message, drives a multi-round LLM correction loop, and converts
the resulting traces into supervised and preference training data with
verifiable losses.
"""

from .correction import (
    CorrectionRound,
    CorrectionTrace,
    Demonstration,
    Question,
    answers_match,
    build_correction_prompt,
    build_query_prompt,
    extract_plan,
    generate_initial,
    retrieve_demos,
    run_correction,
)
from .distill import (
    PreferencePair,
    SftRecord,
    TableTokenScorer,
    correction_loss,
    preference_loss,
    query_generation_loss,
    score_sequence,
    self_records,
    stage1_loss,
    teacher_records,
)
from .dsl import (
    DEFAULT_REGISTRY,
    FunctionRegistry,
    QueryPlan,
    QueryStep,
    parse_plan,
    render_plan,
    validate_plan,
)
from .errors import ErrorKind, QueryError, render_message
from .evaluate import EvalReport, ErrorStats, error_stats, evaluate
from .executor import ExecutionOutcome, StepResult, execute_plan, execute_step
from .graph import (
    ConditionGraph,
    Edge,
    SchemaDescriptor,
    ingest_table,
    ingest_temporal,
    ingest_triples,
    schema_summary,
)
from .llm import ChatMessage, ClientConfig, ScriptedChatClient

__version__ = "0.1.0"
