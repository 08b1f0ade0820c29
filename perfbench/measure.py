"""Measuring process for one benchmark run: set-up, then timed phases.

run.py starts this script in a fresh interpreter so that its peak RSS is the
workload's own. It reads job.json (written by run.py), drives cgqa's library
exactly as `cgqa ingest` -> `correct` -> `gen-sft` -> `error-stats` do, and
writes result.json plus each phase's output files for run.py to check.

    python3 perfbench/measure.py <job.json>
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cgqa.correction import Demonstration  # noqa: E402
from cgqa.distill import (  # noqa: E402
    IneligibleTraceError,
    self_records,
    teacher_records,
    write_jsonl,
)
from cgqa.evaluate import (  # noqa: E402
    PipelineConfig,
    error_stats,
    load_questions,
    run_question,
)
from cgqa.graph import (  # noqa: E402
    dump_graph,
    load_graph,
    load_table_file,
    load_temporal_file,
    load_triples_file,
)
from cgqa.llm import ClientConfig, HttpChatClient, ScriptedChatClient  # noqa: E402

import tracing  # noqa: E402

LOADERS = {"table": load_table_file, "kg": load_triples_file,
           "temporal": load_temporal_file}


def setup(sources: list[dict], out_dir: Path, reps: int):
    """Ingest every source, dump it, load every dump; reps times over.

    Returns the last loaded graphs and the per-repetition timings.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    times: dict[str, list[float]] = {"setup": [], "ingest": [], "dump": [],
                                     "load": []}
    graphs: dict = {}
    for _ in range(reps):
        graphs = {}
        ingest = dump = 0.0
        t_start = time.perf_counter()
        for src in sources:
            t0 = time.perf_counter()
            cg = LOADERS[src["kind"]](src["path"])
            t1 = time.perf_counter()
            dump_graph(cg, str(out_dir / src["ref"]))
            dump += time.perf_counter() - t1
            ingest += t1 - t0
            del cg
        t_load = time.perf_counter()
        for src in sources:
            graphs[src["ref"]] = load_graph(str(out_dir / src["ref"]))
        t_end = time.perf_counter()
        times["setup"].append(t_end - t_start)
        times["ingest"].append(ingest)
        times["dump"].append(dump)
        times["load"].append(t_end - t_load)
    return graphs, times


def _untraced(layer, name, fn, *args, qid=None, info=None, **kwargs):
    return fn(*args, **kwargs)


def run_phase(label: str, questions, graphs, new_client, config, seconds: float,
              jobs: int, out_dir: Path,
              tracer: tracing.Tracer | None = None) -> dict:
    """Closed loop of whole passes over the dataset until the time is up;
    the pass under way is finished, so a phase runs at least one. Each pass
    is one `correct` -> `gen-sft` -> `error-stats` run: jobs workers each
    take the next question until the dataset is done, then the traces are
    written and turned into training records and error statistics. Scripted
    replies are consumed, so every pass gets a fresh client."""
    call = tracer.call if tracer else _untraced
    start = time.perf_counter()
    passes: list[dict] = []
    while not passes or time.perf_counter() < start + seconds:
        client = new_client()
        if tracer:
            client = tracing.TracedClient(client, tracer)
        lock = threading.Lock()
        cursor = [0]
        done: list[tuple] = []

        def worker() -> None:
            while True:
                with lock:
                    i = cursor[0]
                    if i == len(questions):
                        return
                    cursor[0] = i + 1
                q = questions[i]
                t0 = time.perf_counter()
                try:
                    trace = call("evaluate", "run_question", run_question, q,
                                 graphs[q.graph_ref], client, config, qid=q.id)
                    error = None
                except Exception as exc:  # counted as a failed question
                    trace, error = None, f"{type(exc).__name__}: {exc}"
                done.append((i, q.id, time.perf_counter() - t0, trace, error))

        t_pass = time.perf_counter()
        threads = [threading.Thread(target=worker) for _ in range(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done.sort(key=lambda d: d[0])
        result = finish_pass(f"{label}-{len(passes)}", done, call, out_dir)
        result["wall_s"] = time.perf_counter() - t_pass
        passes.append(result)
    return {"label": label, "wall_s": time.perf_counter() - start,
            "passes": passes}


def finish_pass(name: str, done: list[tuple], call, out_dir: Path) -> dict:
    """Write one pass's traces, derive its records, pairs and error stats."""
    traces = [d[3] for d in done if d[3] is not None]
    files = {k: str(out_dir / f"{name}-{k}") for k in
             ("traces.jsonl", "sft.jsonl", "pref.jsonl", "stats.json")}
    call("distill", "write_jsonl", write_jsonl, traces, files["traces.jsonl"])
    sft, pairs = [], []
    for trace in traces:
        try:
            sft.extend(call("distill", "teacher_records", teacher_records,
                            trace))
        except IneligibleTraceError:
            continue
        if trace.author == "student":
            pairs.extend(call("distill", "self_records", self_records, trace))
    n_sft = call("distill", "write_jsonl", write_jsonl, sft, files["sft.jsonl"])
    n_pairs = call("distill", "write_jsonl", write_jsonl, pairs,
                   files["pref.jsonl"])
    stats = call("evaluate", "error_stats", error_stats, traces)
    with open(files["stats.json"], "w", encoding="utf-8") as fh:
        json.dump(stats.to_dict(), fh, indent=2)
    return {
        "files": files, "qids": [d[1] for d in done],
        "latency_s": [d[2] for d in done],
        "errors": {str(pos): [d[1], d[4]] for pos, d in enumerate(done)
                   if d[4]},
        "sft": n_sft, "pairs": n_pairs,
        "initial": sum(t.initial_outcome.error is not None for t in traces),
        "unrepaired": sum(t.terminal_outcome().error is not None
                          for t in traces),
        "rounds": sum(t.n for t in traces),
        "solved": sum(t.status.startswith("solved") for t in traces),
    }


def _server_requests(stats_url: str) -> int:
    with urllib.request.urlopen(stats_url, timeout=10) as resp:
        return json.loads(resp.read())["requests"]


def per_layer(tracer: tracing.Tracer, plain: dict, traced: dict,
              times: dict, edges: int, server: int | None) -> dict:
    q = max(sum(len(p["qids"]) for p in traced["passes"]), 1)
    m = tracing.summarize(tracer.spans, q, server)
    med = {k: statistics.median(v) for k, v in times.items()}
    total = {k: sum(p[k] for p in traced["passes"]) for k in
             ("initial", "unrepaired", "rounds", "solved", "sft", "pairs")}
    plain_qps = sum(len(p["qids"]) for p in plain["passes"]) / plain["wall_s"]
    traced_qps = q / traced["wall_s"]
    m.update({
        "graph.ingest_s": med["ingest"],
        "graph.dump_s": med["dump"],
        "graph.load_s": med["load"],
        "graph.load_edges_per_s": edges / med["load"],
        "errors.initial": total["initial"] / q,
        "errors.unrepaired": total["unrepaired"] / q,
        "errors.corrected_frac": (1 - total["unrepaired"] / total["initial"]
                                  if total["initial"] else 1.0),
        "correction.rounds_per_question": total["rounds"] / q,
        "correction.solved_frac": total["solved"] / q,
        "distill.records": total["sft"] / q,
        "distill.pairs": total["pairs"] / q,
        "trace.untraced_questions_per_s": plain_qps,
        "trace.questions_per_s": traced_qps,
        "trace.overhead_frac": 1 - traced_qps / plain_qps,
    })
    return m


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    work = Path(job["work"])
    questions = load_questions(job["dataset"])
    with open(job["demos"], encoding="utf-8") as fh:
        demos = tuple(Demonstration(**json.loads(ln)) for ln in fh if ln.strip())
    with open(job["replies"], encoding="utf-8") as fh:
        entries = [json.loads(ln) for ln in fh if ln.strip()]
    cfg = job["config"]
    config = PipelineConfig(mct=cfg["mct"], sc_n=cfg["sc_n"],
                            author=cfg["author"], demo_pool=demos)

    graphs, times = setup(job["sources"], work / "graphs", job["setup_reps"])
    edges = {ref: len(cg) for ref, cg in graphs.items()}

    if job["endpoint"]:
        shared = HttpChatClient(ClientConfig(
            backend="http", endpoint=job["endpoint"], model="stub"))

        def new_client():
            return shared
    else:
        def new_client():
            return ScriptedChatClient(entries)

    def phase(label, seconds, tracer=None):
        return run_phase(label, questions, graphs, new_client, config, seconds,
                         cfg["jobs"], work, tracer)

    seconds = job["seconds"]
    if job["trace"]:
        # Same code, same process: first untraced, then traced, so the
        # difference between the two rates is the tracing overhead.
        plain = phase("plain", seconds / 2)
        before = _server_requests(job["stats"]) if job["stats"] else None
        tracer = tracing.Tracer()
        with tracer.patched():
            traced = phase("traced", seconds / 2, tracer)
        server = (_server_requests(job["stats"]) - before
                  if before is not None else None)
        phases = [plain, traced]
        layers = per_layer(tracer, plain, traced, times,
                           sum(edges.values()), server)
        with open(job["spans"], "w", encoding="utf-8") as fh:
            fields = ("id", "parent", "root", "layer", "name", "start_ns",
                      "end_ns", "qid")
            for s in tracer.spans:
                span = dict(zip(fields, s))
                span["info"] = s[len(fields):]
                fh.write(json.dumps(span) + "\n")
    else:
        phases = [phase("main", seconds)]
        layers = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup": times, "edges": edges, "phases": phases,
              "peak_rss_mb": peak_rss_mb, "per_layer": layers}
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
