"""cgqa benchmark: run one workload at one seed and check its outputs.

    python3 perfbench/run.py --workload large-graph --seed 1 --seconds 10 \
        --trace 0 [--smoke]

Run from the root of a checkout. The inputs are generated from the seed,
cgqa runs in a fresh child process (so its peak RSS is its own), and every
trace, the error statistics and the gen-sft counts are checked against the
generator's expectations. With --trace 0 the end-to-end metrics are
reported, with --trace 1 the per-layer metrics of a traced run. Metric
names and units come from BENCHMARK.json. The last stdout line is one JSON
object; the exit status is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170      # the whole run, set-up and checks included
STUB_DELAY_MS = 20
SETUP_REPS = 7


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["large-graph", "many-rounds", "slow-model"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest inputs, one set-up repetition")
    return p.parse_args(argv)


# ------------------------------------------------------------- checking


def _answer_keys(values, vkey) -> set:
    return {vkey(v) for v in values}


def check(w, result: dict) -> tuple[int, int, list[str]]:
    """Check every pass of every phase and the loaded graph sizes; return
    (questions attempted, questions failed, problems)."""
    import gen

    attempted = failed = 0
    problems = []
    for phase in result["phases"]:
        for done in phase["passes"]:
            f, p = check_pass(done, w.expect, gen.vkey, gen.KIND_ORDER,
                              gen.EXECUTION_KINDS)
            attempted += len(done["qids"])
            failed += f
            problems += p
    for g in w.graphs:
        if result["edges"].get(g.ref) != g.edges:
            problems.append(f"{g.ref}: loaded {result['edges'].get(g.ref)} "
                            f"edges, generated {g.edges}")
    return attempted, failed, problems


def check_pass(done: dict, expect: dict, vkey, kinds: list[str],
               execution_kinds) -> tuple[int, list[str]]:
    """Compare one pass's outputs with the expectations; return the number
    of failed questions and a list of problems."""
    problems = []
    failed = set()
    for pos, (qid, error) in done["errors"].items():
        failed.add(int(pos))
        problems.append(f"{qid}: raised {error}")
    returned = [i for i in range(len(done["qids"])) if i not in failed]
    with open(done["files"]["traces.jsonl"], encoding="utf-8") as fh:
        traces = [json.loads(ln) for ln in fh if ln.strip()]
    if len(traces) != len(returned):
        problems.append(f"{len(traces)} traces for {len(returned)} "
                        "questions that returned")
        return len(done["qids"]), problems
    before = dict.fromkeys(kinds, 0)
    after = dict.fromkeys(kinds, 0)
    want_sft = want_pairs = 0
    for pos, trace in zip(returned, traces):
        qid = done["qids"][pos]
        exp = expect[qid]
        terminal = (trace["rounds"][-1]["outcome_after"] if trace["rounds"]
                    else trace["initial_outcome"])
        err = trace["initial_outcome"]["error"]
        got = {
            "question": trace["question_id"],
            "status": trace["status"],
            "n": trace["n"],
            "initial_kind": err["kind"] if err else None,
            "answer": (None if terminal["answer"] is None
                       else _answer_keys(terminal["answer"], vkey)),
        }
        want = {
            "question": qid, "status": exp["status"], "n": exp["n"],
            "initial_kind": exp["initial_kind"],
            "answer": (None if exp["answer"] is None
                       else _answer_keys(exp["answer"], vkey)),
        }
        if got != want:
            failed.add(pos)
            diff = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
            problems.append(f"{qid}: got/expected {diff}")
        if exp["initial_kind"]:
            before[exp["initial_kind"]] += 1
            after[exp["initial_kind"]] += exp["status"] == "failed_mct"
        want_sft += exp["records"]
        want_pairs += exp["pairs"]

    for name, want, got in (("sft records", want_sft, done["sft"]),
                            ("preference pairs", want_pairs, done["pairs"])):
        if want != got:
            problems.append(f"gen-sft wrote {got} {name}, expected {want}")
    with open(done["files"]["stats.json"], encoding="utf-8") as fh:
        stats = json.load(fh)
    if stats != expected_error_stats(before, after, execution_kinds):
        problems.append(f"error-stats table differs from expectation: {stats}")
    return len(failed), problems


def _pct(b: int, a: int) -> float:
    return round(100.0 * (b - a) / b, 6) if b else 0.0


def expected_error_stats(before: dict, after: dict, execution_kinds) -> dict:
    def bucket(kinds) -> dict:
        b = sum(before[k] for k in kinds)
        a = sum(after[k] for k in kinds)
        return {"before": b, "after": a, "corrected_pct": _pct(b, a)}
    return {
        "per_kind": {k: {"before": before[k], "after": after[k],
                         "corrected_pct": _pct(before[k], after[k])}
                     for k in sorted(before) if before[k]},
        "parsing": bucket([k for k in before if k not in execution_kinds]),
        "execution": bucket([k for k in before if k in execution_kinds]),
        "overall": bucket(list(before)),
    }


# -------------------------------------------------------------- running


def start_stub(replies: str) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub_server.py"), replies,
         str(STUB_DELAY_MS)],
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        stop(proc)
        raise RuntimeError("stub server did not start")
    return proc, int(line.split()[1])


def stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout:
        proc.stdout.close()


def measure(args, w, layout: dict, work: Path, deadline: float) -> dict:
    stub = None
    job = {
        "work": str(work), **layout, "config": w.config,
        "seconds": args.seconds, "trace": args.trace,
        "setup_reps": 1 if args.smoke else SETUP_REPS,
        "endpoint": None, "stats": None,
        "spans": str(WORK / f"spans-{args.workload}-{args.seed}.jsonl"),
    }
    try:
        if args.workload == "slow-model":
            stub, port = start_stub(layout["replies"])
            base = f"http://127.0.0.1:{port}"
            job.update(endpoint=f"{base}/v1/chat/completions",
                       stats=f"{base}/stats")
        (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "measure.py"),
                        str(work / "job.json")], check=True,
                       timeout=max(deadline - time.monotonic(), 1))
    finally:
        if stub is not None:
            stop(stub)
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def load_metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(result: dict, failed: int, units: dict
               ) -> tuple[dict, list[str]]:
    (phase,) = result["phases"]
    lat = [x for p in phase["passes"] for x in p["latency_s"]]
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[8] if n >= 2 else lat[0]
    setup = result["setup"]["setup"]
    values = {
        "questions_per_s": n / phase["wall_s"],
        "question_p50_ms": statistics.median(lat) * 1000,
        "question_p90_ms": p90 * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "question_ok_frac": 1 - failed / n,
    }
    beyond = sum(1 for x in lat if x > p90)
    notes = {
        "questions_per_s": f"{n} questions in {phase['wall_s']:.2f} s, "
                           f"{len(phase['passes'])} passes",
        "question_p50_ms": f"n={n}",
        "question_p90_ms": f"n={n}, {beyond} beyond",
        "setup_s": f"median of {len(setup)}",
        "peak_rss_mb": "measuring process, n=1",
        "question_ok_frac": f"{n - failed} of {n}",
    }
    lines = [f"{k:<34} {v:>14.6g} {units[k]:<6} ({notes[k]})"
             for k, v in values.items()]
    lines.insert(-1, f"{'question_fail_frac':<34} {failed / n:>14.6g} "
                     f"{'ratio':<6} ({failed} of {n})")
    return values, lines


def run(args) -> int:
    import gen  # needs cgqa on the path

    started = time.monotonic()
    e2e_units, layer_units = load_metric_units()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        w = gen.generate(args.workload, args.seed, args.smoke)
        layout = gen.write_inputs(w, work / "inputs")
        result = measure(args, w, layout, work, started + TIME_LIMIT_S)
        attempted, failed, problems = check(w, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    if args.trace:
        values, units = result["per_layer"], layer_units
        lines = [f"{k:<34} {values[k]:>14.6g} {units[k]}"
                 for k in units if k in values]
    else:
        units = e2e_units
        values, lines = end_to_end(result, failed, units)
    missing = [name for name in units if name not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cgqa" / "__init__.py").is_file():
        print(f"error: cgqa sources not found under {SRC}; run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json not found at the checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
