"""Spans around cgqa's layer boundaries, recorded from outside the library.

A traced run swaps the module attributes the pipeline calls through for
timing wrappers, and wraps the chat client in a proxy. Each span records
its layer, function name, start and end (perf_counter_ns), the span that
caused it, the question it belongs to, and a few per-call counts. Spans are
kept in memory and summarised (or written out) when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from typing import Any, Callable

from cgqa.correction import extract_plan
from cgqa.errors import QueryError

# The package re-exports a function named evaluate, which shadows the
# submodule attribute; look the modules up by name instead.
_correction = importlib.import_module("cgqa.correction")
_evaluate = importlib.import_module("cgqa.evaluate")
_executor = importlib.import_module("cgqa.executor")

LAYERS = ("graph", "executor", "dsl", "correction", "llm", "distill",
          "evaluate")
FUNCTIONS = ("get_information", "min", "mean", "max", "count", "sum", "keep",
             "set_intersection", "set_union", "set_negation",
             "set_difference")

# (module, attribute, layer): every call the pipeline makes through these
# names becomes a span.
PATCH_POINTS = (
    (_evaluate, "schema_summary", "graph"),
    (_evaluate, "retrieve_demos", "correction"),
    (_evaluate, "run_correction", "correction"),
    (_correction, "parse_plan", "dsl"),
    (_correction, "validate_plan", "dsl"),
    (_correction, "execute_plan", "executor"),
    (_correction, "build_query_prompt", "correction"),
    (_correction, "build_correction_prompt", "correction"),
    (_executor, "execute_step", "executor"),
)

# Span fields, by position; a span's info fields follow QID. Spans hold
# only numbers, strings and None, so the garbage collector stops scanning
# them and a long traced run does not slow down as spans accumulate.
ID, PARENT, ROOT, LAYER, NAME, START, END, QID, INFO = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.root, st.qid, st.query_prompt = [], 0, None, None
        return st

    def call(self, layer: str, name: str, fn: Callable, *args,
             qid: str | None = None, info: Callable | None = None, **kwargs):
        """Run fn(*args, **kwargs) inside a span. A call with no open parent
        span starts a new root; qid labels that root's question."""
        st = self._state()
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else 0
        if not parent:
            st.root, st.qid = sid, qid
        st.stack.append(sid)
        result, error = None, None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter_ns()
            st.stack.pop()
            extra = info(args, result, error) if info else ()
            self.spans.append((sid, parent, st.root, layer, name, start, end,
                               st.qid) + extra)

    def wrap(self, layer: str, name: str, fn: Callable,
             info: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, info=info, **kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route the pipeline's calls through timing wrappers; restore the
        original attributes on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCH_POINTS]
        try:
            for mod, attr, layer in PATCH_POINTS:
                setattr(mod, attr, self.wrap(layer, attr, getattr(mod, attr),
                                             _INFO.get(attr)))
            query_prompt = _correction.build_query_prompt

            def remember(*args, **kwargs):
                # The proxy recognises self-consistency samples by the
                # identity of the prompt object generate_initial sends.
                prompt = query_prompt(*args, **kwargs)
                self._state().query_prompt = prompt
                return prompt
            _correction.build_query_prompt = remember
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def _step_info(args, result, error):
    """(function name, result size)"""
    return (args[0].function, len(result.values) if error is None else 0)


def _dsl_info(args, result, error):
    """(rejected,)"""
    return (isinstance(error, QueryError),)


_INFO = {"execute_step": _step_info, "parse_plan": _dsl_info,
         "validate_plan": _dsl_info}


class TracedClient:
    """Chat client proxy: one llm span per complete() call."""

    def __init__(self, client, tracer: Tracer) -> None:
        self.client = client
        self.tracer = tracer

    def complete(self, messages):
        tracer = self.tracer
        sample = messages is tracer._state().query_prompt

        def info(args, reply, error):
            """(prompt bytes, failed, plan of a self-consistency sample)"""
            return (sum(len(m.content.encode("utf-8")) for m in messages),
                    error is not None,
                    extract_plan(reply)[1] if sample and reply else None)
        return tracer.call("llm", "complete", self.client.complete, messages,
                           info=info)


def summarize(spans: list[tuple], questions: int,
              server_requests: int | None) -> dict[str, Any]:
    """Per-layer self times and counts from the spans of one traced phase.

    Times are seconds per question unless a name says otherwise; a layer's
    self time is its spans' durations minus the time their child spans
    cover. server_requests is what the model server counted over the phase,
    or None for the scripted client, which answers in process (requests and
    retries are then reported as 0).
    """
    child: dict[int, int] = {}
    for s in spans:
        if s[PARENT]:
            child[s[PARENT]] = child.get(s[PARENT], 0) + s[END] - s[START]
    roots = {s[ID]: s for s in spans if not s[PARENT]}
    question_roots = {i for i, s in roots.items() if s[NAME] == "run_question"}
    layer_self = dict.fromkeys(LAYERS, 0)
    total: dict[str, int] = {}
    count: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    step_ns = dict.fromkeys(FUNCTIONS, 0)
    step_n = dict.fromkeys(FUNCTIONS, 0)
    values = rejected = prompt_bytes = failed = calls = 0
    samples: dict[int, set] = {}
    for s in spans:
        dur = s[END] - s[START]
        own = dur - child.get(s[ID], 0)
        layer_self[s[LAYER]] += own
        name = s[NAME]
        if name.startswith("build_") and s[ROOT] not in question_roots:
            name += "@distill"
        total[name] = total.get(name, 0) + dur
        count[name] = count.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        info = s[INFO:]
        if name == "execute_step":
            fn, size = info
            step_ns[fn] += dur
            step_n[fn] += 1
            values += size
        elif name in ("parse_plan", "validate_plan"):
            rejected += info[0]
        elif name == "complete":
            size, fail, sample = info
            calls += 1
            prompt_bytes += size
            failed += fail
            if sample is not None:
                samples.setdefault(s[ROOT], set()).add(sample)
    root_ns = sum(s[END] - s[START] for s in roots.values()) or 1
    q = max(questions, 1)

    def per_q(*names: str) -> float:
        return sum(total.get(n, 0) for n in names) / 1e9 / q

    m: dict[str, Any] = {
        "graph.schema_summary_s": per_q("schema_summary"),
        "graph.schema_summary_calls": count.get("schema_summary", 0) / q,
        "executor.plan_s": per_q("execute_plan"),
        "executor.plans_per_question": count.get("execute_plan", 0) / q,
        "executor.steps": count.get("execute_step", 0) / q,
        "executor.result_values": values / max(count.get("execute_step", 0), 1),
    }
    for fn in FUNCTIONS:
        m[f"executor.step_s.{fn}"] = step_ns[fn] / 1e9 / max(step_n[fn], 1)
    parses = count.get("parse_plan", 0)
    m.update({
        "dsl.parse_validate_s": per_q("parse_plan", "validate_plan"),
        "dsl.plans": parses / q,
        "dsl.rejected_frac": rejected / max(parses, 1),
        "correction.run_s": per_q("run_correction"),
        "correction.self_s": self_ns.get("run_correction", 0) / 1e9 / q,
        "correction.retrieve_s": per_q("retrieve_demos"),
        "correction.prompt_s": per_q("build_query_prompt",
                                     "build_correction_prompt"),
        "correction.sc_distinct_frac":
            sum(len(v) > 1 for v in samples.values()) / q,
        "llm.calls_per_question": calls / q,
        "llm.complete_s": per_q("complete"),
        "llm.prompt_kb": prompt_bytes / 1024 / max(calls, 1),
        "llm.failed": failed,
        "llm.server_requests": server_requests or 0,
        "llm.retries": (server_requests - calls
                        if server_requests is not None else 0),
        "distill.records_s": per_q("teacher_records", "self_records"),
        "distill.write_s": per_q("write_jsonl"),
        "evaluate.run_question_s": self_ns.get("run_question", 0) / 1e9 / q,
        "evaluate.error_stats_s": per_q("error_stats"),
    })
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / root_ns
    return m
