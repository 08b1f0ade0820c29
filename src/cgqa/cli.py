"""Command-line interface tying the pipeline together.

Subcommands:
  ingest       table/kg/temporal file -> graph dump (JSONL)
  ask          answer one question, printing the full trace
  correct      batch correction over a dataset -> trace JSONL
  gen-sft      traces -> supervised records + preference pairs (JSONL)
  score-loss   records + scorer table -> the four loss values (JSON)
  eval         dataset -> evaluation report (JSON)
  error-stats  traces -> before/after error statistics (JSON)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from typing import Any, Sequence

from .correction import (AUTHORS, METRICS, CorrectionTrace, Demonstration,
                         PipelineConfig, Question)
from .dsl import parse_plan, validate_plan
from .errors import QueryError
from .distill import (
    IneligibleTraceError,
    PreferencePair,
    SftRecord,
    TableTokenScorer,
    correction_loss,
    preference_loss,
    query_generation_loss,
    self_records,
    stage1_loss,
    teacher_records,
)
from .evaluate import (
    GraphNotFoundError,
    error_stats,
    evaluate,
    load_questions,
    run_question,
    run_questions,
)
from .graph import (
    ConditionGraph,
    dump_graph,
    load_graph,
    load_table_file,
    load_temporal_file,
    load_triples_file,
)
from .jsonl import read_json, read_jsonl, write_jsonl
from .llm import ChatError, ClientConfig, make_client


def _emit(data: Any, out: str | None) -> None:
    text = json.dumps(data, ensure_ascii=False, indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _client_config(args: argparse.Namespace) -> ClientConfig:
    config = (read_json(args.config, ClientConfig.read) if args.config
              else ClientConfig())
    if args.backend:
        config.backend = args.backend
    if getattr(args, "script", None):
        config.script_path = args.script
    return config


def _demonstration(data: dict[str, Any]) -> Demonstration:
    demo = Demonstration.from_dict(data, strict=True)
    try:
        validate_plan(parse_plan(demo.plan_text))
    except QueryError as err:
        raise ValueError(f"demonstration plan does not validate: {err.message}")
    return demo


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    pool = read_jsonl(args.demo_pool, _demonstration) if args.demo_pool else []
    return PipelineConfig(
        mct=0 if getattr(args, "no_correction", False) else args.mct,
        sc_n=args.self_consistency,
        demos=args.demos,
        retrieves=args.retrieves,
        strict_empty=args.strict_empty,
        metric=args.metric,
        author=args.author,
        demo_pool=tuple(pool),
        jobs=getattr(args, "jobs", PipelineConfig.jobs),
        full_history=args.full_history,
    )


def _graph_resolver(graphs_dir: str):
    cache: dict[str, ConditionGraph] = {}
    lock = threading.Lock()  # --jobs threads share one load of each graph

    def resolve(ref: str) -> ConditionGraph:
        with lock:
            if ref not in cache:
                path = os.path.join(graphs_dir, ref)
                if not os.path.exists(path):
                    raise GraphNotFoundError(f"graph dump not found: {path}")
                cache[ref] = load_graph(path)
            return cache[ref]

    return resolve


def _add_loop_flags(p: argparse.ArgumentParser, batch: bool) -> None:
    p.add_argument("--mct", type=int, default=PipelineConfig.mct,
                   help="max correction rounds (0 disables correction)")
    p.add_argument("--demos", type=int, default=PipelineConfig.demos,
                   help="demonstrations used per prompt")
    p.add_argument("--retrieves", type=int, default=PipelineConfig.retrieves,
                   help="candidate demonstrations retrieved before picking")
    p.add_argument("--self-consistency", type=int, default=PipelineConfig.sc_n,
                   help="initial-generation samples to vote over")
    p.add_argument("--strict-empty", action="store_true",
                   help="treat an empty final result as an error too")
    p.add_argument("--full-history", action="store_true",
                   help="show every earlier attempt in correction prompts")
    p.add_argument("--backend", choices=["http", "scripted"],
                   help="chat backend (overrides --config)")
    p.add_argument("--config", help="client config JSON file")
    p.add_argument("--script", help="scripted-backend reply file (JSONL)")
    p.add_argument("--demo-pool", help="demonstration pool (JSONL)")
    p.add_argument("--metric", choices=list(METRICS),
                   default=PipelineConfig.metric)
    p.add_argument("--author", choices=AUTHORS,
                   default=PipelineConfig.author,
                   help="which model role produced the initial queries")
    if batch:
        p.add_argument("--jobs", type=int, default=PipelineConfig.jobs,
                       help="questions run concurrently (scripted replies "
                            "must then be keyed)")


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.kind == "table":
        cg = load_table_file(args.input, key_column=args.key_column,
                             delimiter=args.delimiter)
    else:
        load = load_triples_file if args.kind == "kg" else load_temporal_file
        cg = load(args.input, "\t" if args.delimiter is None
                  else args.delimiter)
    dump_graph(cg, args.out)
    print(f"wrote {len(cg)} edges to {args.out}")
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    try:
        gold = json.loads(args.gold) if args.gold else None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"--gold {args.gold!r} is not JSON: {exc.msg}") from None
    # read as a dataset line is, so --gold is type-checked like its gold
    question = Question.from_dict({
        "id": "ask", "question": args.question, "graph_ref": args.graph,
        "gold": gold})
    cg = load_graph(args.graph)
    client = make_client(args.client_config)
    config = _pipeline_config(args)
    trace = run_question(question, cg, client, config)
    _emit(trace.to_dict(), args.out)
    return 0


def _cmd_correct(args: argparse.Namespace) -> int:
    questions = load_questions(args.dataset)
    resolve = _graph_resolver(args.graphs)
    client = make_client(args.client_config)
    traces = run_questions(questions, resolve, client, _pipeline_config(args))
    count = write_jsonl(traces, args.out)
    print(f"wrote {count} traces to {args.out}")
    return 0


def _cmd_gen_sft(args: argparse.Namespace) -> int:
    traces = read_jsonl(args.traces, CorrectionTrace.from_dict)
    sft = []
    pairs = []
    for trace in traces:
        try:
            sft.extend(teacher_records(trace))
        except IneligibleTraceError:
            continue
        if trace.author == "student":
            pairs.extend(self_records(trace))
    n_sft = write_jsonl(sft, args.sft_out)
    n_pairs = write_jsonl(pairs, args.pref_out)
    print(f"wrote {n_sft} records to {args.sft_out}, "
          f"{n_pairs} pairs to {args.pref_out}")
    return 0


def _cmd_score_loss(args: argparse.Namespace) -> int:
    scorer = TableTokenScorer.from_file(args.scorer)
    records = read_jsonl(args.sft, SftRecord.from_dict) if args.sft else []
    pairs = read_jsonl(args.pref, PreferencePair.from_dict) if args.pref else []
    lq = query_generation_loss(
        [r for r in records if r.kind == "query_gen"], scorer
    )
    lc = correction_loss([r for r in records if r.kind == "correction"], scorer)
    result = {
        "query_generation_loss": lq,
        "correction_loss": lc,
        "stage1_loss": stage1_loss(lq, lc),
        "preference_loss": preference_loss(pairs, scorer),
    }
    _emit(result, args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    questions = load_questions(args.dataset)
    resolve = _graph_resolver(args.graphs)
    client = make_client(args.client_config)
    report, traces = evaluate(questions, resolve, client,
                              _pipeline_config(args))
    if args.traces_out:
        write_jsonl(traces, args.traces_out)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_error_stats(args: argparse.Namespace) -> int:
    stats = error_stats(read_jsonl(args.traces, CorrectionTrace.from_dict))
    _emit(stats.to_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgqa",
        description="Structured-data QA over condition graphs with "
                    "error-guided correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert structured data to a graph dump")
    p.add_argument("input")
    p.add_argument("--kind", choices=["table", "kg", "temporal"],
                   required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--key-column", default=0,
                   type=lambda v: int(v) if v.removeprefix("-").isdecimal()
                   else v, help="table row-key column (index or name)")
    p.add_argument("--delimiter", default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("ask", help="answer a single question")
    p.add_argument("question")
    p.add_argument("--graph", required=True, help="graph dump (JSONL)")
    p.add_argument("--gold", help="gold answer as a JSON list")
    p.add_argument("--no-correction", action="store_true")
    p.add_argument("--out")
    _add_loop_flags(p, batch=False)
    p.set_defaults(func=_cmd_ask)

    p = sub.add_parser("correct", help="run the loop over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--graphs", required=True, help="directory of graph dumps")
    p.add_argument("--out", required=True, help="trace JSONL output")
    _add_loop_flags(p, batch=True)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("gen-sft", help="traces -> training data")
    p.add_argument("--traces", required=True)
    p.add_argument("--sft-out", required=True)
    p.add_argument("--pref-out", required=True)
    p.set_defaults(func=_cmd_gen_sft)

    p = sub.add_parser("score-loss", help="compute losses from records")
    p.add_argument("--sft", help="supervised records JSONL")
    p.add_argument("--pref", help="preference pairs JSONL")
    p.add_argument("--scorer", required=True, help="scorer table JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_score_loss)

    p = sub.add_parser("eval", help="evaluate a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--no-correction", action="store_true",
                   help="single-pass inference")
    p.add_argument("--traces-out", help="also write traces (JSONL)")
    p.add_argument("--out")
    _add_loop_flags(p, batch=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("error-stats", help="summarize errors in traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_error_stats)

    return parser


def _sampling_warning(args: argparse.Namespace) -> str | None:
    """Self-consistency samples from an HTTP model at temperature 0 mostly
    repeat one reply, so the extra requests buy no vote."""
    n = getattr(args, "self_consistency", 1)
    if n <= 1:
        return None
    config = args.client_config
    if config.backend != "http" or config.temperature != 0:
        return None
    return (f"warning: --self-consistency {n} at temperature 0 sends {n} "
            "identical requests per question; set a temperature above 0 in "
            "--config, or use --self-consistency 1")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand. A failure prints only its one-line error; a
    finished run that wasted model calls adds one warning line, judged
    before the command starts. --config is read once, here."""
    args = build_parser().parse_args(argv)
    try:
        if "backend" in args:  # a command that talks to a model
            args.client_config = _client_config(args)
        warning = _sampling_warning(args)
        code = args.func(args)
    except (OSError, ValueError, ChatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if warning:
        print(warning, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
