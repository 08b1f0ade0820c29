"""Smoke tests for the benchmark itself (smallest inputs, one set-up pass).

    python3 -m pytest perfbench -q

They check that every workload runs and passes its correctness gate, that
the gate catches a wrong reply, and that inputs are a function of the seed.
No timing is asserted.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_same_seed_same_inputs(tmp_path):
    a = gen.write_inputs(gen.generate("many-rounds", 3, smoke=True), tmp_path / "a")
    b = gen.write_inputs(gen.generate("many-rounds", 3, smoke=True), tmp_path / "b")
    c = gen.write_inputs(gen.generate("many-rounds", 4, smoke=True), tmp_path / "c")
    files = [Path(s["path"]) for s in a["sources"]] + [
        Path(a[k]) for k in ("dataset", "replies", "demos")]
    for f in files:
        twin = tmp_path / "b" / f.relative_to(tmp_path / "a")
        assert f.read_bytes() == twin.read_bytes()
    assert Path(a["replies"]).read_bytes() != Path(c["replies"]).read_bytes()


def test_gate_counts_a_wrong_reply(tmp_path, monkeypatch):
    w = gen.generate("many-rounds", 5, smoke=True)
    # The first question is solved directly; serve a valid plan that finds
    # nothing instead, so its answer misses the gold one.
    assert w.expect[w.dataset[0]["id"]]["status"] == "solved_direct"
    key = w.replies[0]["key"]
    for entry in w.replies:
        if entry["key"] == key:
            entry["reply"] = "query1 = get_information(relation='Nothingx')"
    monkeypatch.setattr(run, "WORK", tmp_path)
    layout = gen.write_inputs(w, tmp_path / "inputs")
    args = argparse.Namespace(workload="many-rounds", seed=5, seconds=0.1,
                              trace=0, smoke=True)
    result = run.measure(args, w, layout, tmp_path, time.monotonic() + 160)
    attempted, failed, problems = run.check(w, result)
    assert attempted >= 1 and failed >= 1 and problems
