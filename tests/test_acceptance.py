"""Acceptance suite: the eight exit criteria, one test each.

Every test prints a single `[acceptance] criterion N PASS/FAIL` line; run
with `pytest tests/test_acceptance.py -v -s` to see them inline. All
criteria run offline: the chat model is scripted and the token scorer is
table-driven.
"""

from __future__ import annotations

import filecmp
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from cgqa.cli import main
from cgqa.correction import PipelineConfig, Question, run_correction
from cgqa.distill import (
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
    write_jsonl,
)
from cgqa.dsl import parse_plan, validate_plan
from cgqa.errors import QueryError
from cgqa.executor import execute_plan
from cgqa.graph import schema_summary
from cgqa.llm import ScriptedChatClient

import mini_suite
from genplans import MUTATORS, gen_plan, gen_plan_text
from oracle import random_case, run_reference, summarize_outcome
from test_errors import canonical_cases, golden

GOOD_PLAN = (
    "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
    "query2 = count(set=output_of_query1)"
)
WRONG_A = "query1 = subtract(set1='a', set2='b')"
WRONG_B = "query1 = tally(set=output_of_query1)"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {description}",
              flush=True)
        raise
    print(f"[acceptance] criterion {number} PASS: {description}", flush=True)


def ordered_client(*replies: str) -> ScriptedChatClient:
    return ScriptedChatClient([{"reply": r} for r in replies])


def loop(toy_graph, replies, mct=3, gold=(1,), author="teacher"):
    question = Question(id="q", text="How many people studied in Utah?",
                        gold_answer=list(gold))
    return run_correction(
        question, schema_summary(toy_graph), toy_graph,
        ordered_client(*replies),
        PipelineConfig(mct=mct, sc_n=1, author=author),
    )


def test_criterion_1_error_message_fidelity(toy_graph):
    with criterion(1, "all 8 error kinds classify and render byte-exact"):
        from cgqa.graph import ingest_table

        mixed = ingest_table([["Alice", "20"], ["Bob", "x"]], ["Name", "Age"])
        start = time.perf_counter()
        from cgqa.correction import assess

        for plan_text, cg, kind in canonical_cases(toy_graph, mixed):
            err = assess(plan_text, cg).error
            assert err is not None and err.kind is kind
            assert err.message == golden(kind.value)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_parser_soundness():
    with criterion(2, "1000 clean plans validate; 6x200 mutations hit their "
                      "exact kind"):
        start = time.perf_counter()
        rng = random.Random(20240501)
        for _ in range(1000):
            validate_plan(parse_plan(gen_plan_text(rng)))
        misclassified = 0
        for mutator, kind in MUTATORS:
            for _ in range(200):
                plan = gen_plan(rng)
                mutated = mutator(plan, rng)
                try:
                    validate_plan(parse_plan(mutated))
                    misclassified += 1
                except QueryError as err:
                    if err.kind is not kind:
                        misclassified += 1
        assert misclassified == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_3_executor_matches_brute_force():
    with criterion(3, "500 random plans match the reference evaluator; "
                      "set-algebra and aggregate identities hold"):
        rng = random.Random(987654)
        for _ in range(500):
            cg, tuples, plan = random_case(rng)
            validate_plan(plan)
            got = summarize_outcome(execute_plan(plan, cg))
            want = run_reference(plan, tuples)
            assert got == want, f"{plan}\n{got}\n{want}"

        # mean(X) * count(X) == sum(X) on random numeric sets
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 500:
            attempts += 1
            cg, _, _ = random_case(rng)
            base = "query1 = get_information(relation='age')\n"
            plans = {
                fn: validate_plan(parse_plan(
                    base + f"query2 = {fn}(set=output_of_query1)"
                ))
                for fn in ("mean", "count", "sum")
            }
            outs = {fn: execute_plan(p, cg) for fn, p in plans.items()}
            if any(o.error is not None for o in outs.values()):
                continue
            (mean,) = outs["mean"].answer
            (count,) = outs["count"].answer
            (total,) = outs["sum"].answer
            assert abs(mean * count - total) <= 1e-9
            checked += 1
        assert checked == 50

        # set-algebra identities on random graphs
        def run_text(text, cg):
            return execute_plan(validate_plan(parse_plan(text)), cg)

        laws_checked = 0
        attempts = 0
        while laws_checked < 50 and attempts < 500:
            attempts += 1
            cg, _, _ = random_case(rng)
            base = (
                "query1 = get_information(relation='age')\n"
                "query2 = get_information(relation='city')\n"
            )
            ab = run_text(base + "query3 = set_intersection("
                                 "set1=output_of_query1, "
                                 "set2=output_of_query2)", cg)
            ba = run_text(base + "query3 = set_intersection("
                                 "set1=output_of_query2, "
                                 "set2=output_of_query1)", cg)
            uab = run_text(base + "query3 = set_union(set1=output_of_query1, "
                                  "set2=output_of_query2)", cg)
            uba = run_text(base + "query3 = set_union(set1=output_of_query2, "
                                  "set2=output_of_query1)", cg)
            diff = run_text(base + "query3 = set_difference("
                                   "set1=output_of_query1, "
                                   "set2=output_of_query1)", cg)
            head_subset = (
                "query1 = get_information(relation='age', tail_entity>=0)"
            )
            subset = run_text(head_subset, cg)
            double_neg = run_text(
                head_subset + "\n"
                "query2 = set_negation(set=output_of_query1)\n"
                "query3 = set_negation(set=output_of_query2)", cg,
            )
            outs = (ab, ba, uab, uba, diff, subset, double_neg)
            if any(o.error is not None for o in outs):
                continue
            assert ab.answer == ba.answer
            assert uab.answer == uba.answer
            assert diff.answer == frozenset()
            # double negation restores any subset of the head universe
            assert double_neg.answer == subset.answer
            laws_checked += 1
        assert laws_checked == 50


def test_criterion_4_loop_contract(toy_graph):
    with criterion(4, "loop fixtures: direct, n=1, n=2, failed at mct=3, "
                      "chained errors"):
        direct = loop(toy_graph, [GOOD_PLAN])
        assert direct.status == "solved_direct" and direct.n == 0
        assert direct.rounds == []

        one = loop(toy_graph, [WRONG_A, "use count.\n\n" + GOOD_PLAN])
        assert one.status == "solved_after_n" and one.n == 1

        two = loop(toy_graph, [
            WRONG_A,
            "try tally.\n\n" + WRONG_B,
            "count is the one.\n\n" + GOOD_PLAN,
        ])
        assert two.status == "solved_after_n" and two.n == 2

        failed = loop(toy_graph, [WRONG_A] + ["no.\n\n" + WRONG_A] * 3, mct=3)
        assert failed.status == "failed_mct" and len(failed.rounds) == 3

        for trace in (direct, one, two, failed):
            prev = trace.initial_outcome.error
            for rnd in trace.rounds:
                assert rnd.error_in.to_dict() == prev.to_dict()
                prev = rnd.outcome_after.error
            assert trace.n <= 3


def test_criterion_5_distillation_record_law(toy_graph):
    with criterion(5, "2-round trace -> 1+2 records sharing the final plan; "
                      "failed traces -> none"):
        two = loop(toy_graph, [
            WRONG_A,
            "try tally.\n\n" + WRONG_B,
            "count is the one.\n\n" + GOOD_PLAN,
        ])
        records = teacher_records(two)
        assert [r.kind for r in records] == ["query_gen", "correction",
                                             "correction"]
        final = two.final_plan_text
        assert records[0].target_text == final
        for record in records[1:]:
            assert record.target_text.endswith("\n\n" + final)
            # the plan suffix is the final plan, never the round's own attempt
            assert WRONG_B not in record.target_text.removesuffix(final)
        failed = loop(toy_graph, [WRONG_A] + ["no.\n\n" + WRONG_A] * 3)
        with pytest.raises(IneligibleTraceError):
            teacher_records(failed)
        with pytest.raises(IneligibleTraceError):
            self_records(failed)


def test_criterion_6_loss_arithmetic():
    with criterion(6, "loss values match hand arithmetic within 1e-9"):
        scorer = TableTokenScorer([
            {"target": "plan", "logprobs": [-0.1, -0.2, -0.3]},
            {"target": "analysis plan", "logprobs": [-0.5, -0.5]},
            {"target": "cor", "logprobs": [-1.0]},
            {"target": "err", "logprobs": [-2.5]},
            {"target": "e2", "logprobs": [-2.0]},
            {"target": "e3", "logprobs": [-1.5]},
        ])
        q_record = SftRecord("query_gen", "in", "plan", None, "t")
        c_record = SftRecord("correction", "in", "analysis plan", 1, "t")

        lq = query_generation_loss([q_record], scorer)
        assert lq == pytest.approx(0.6, abs=1e-9)
        assert query_generation_loss([q_record, q_record],
                                     scorer) == pytest.approx(1.2, abs=1e-9)
        lc = correction_loss([c_record], scorer)
        assert lc == pytest.approx(1.0, abs=1e-9)
        assert stage1_loss(lq, lc) == lq + lc

        pair = PreferencePair("in", "cor", "err", 1, "t")
        assert preference_loss([pair], scorer) == pytest.approx(-1.5, abs=1e-9)

        # five hand-computed fixtures
        fixtures = [
            (query_generation_loss([q_record], scorer), 0.6),
            (query_generation_loss([q_record] * 3, scorer), 1.8),
            (correction_loss([c_record, c_record], scorer), 2.0),
            (preference_loss([pair, PreferencePair("in", "cor", "e2", 2, "t")],
                             scorer), -2.5),
            (preference_loss([PreferencePair("in", "cor", "e3", 1, "t")],
                             scorer), -0.5),
        ]
        for got, want in fixtures:
            assert got == pytest.approx(want, abs=1e-9)


def _run_pipeline(base: Path) -> list[Path]:
    """Ingest, correct, distill, evaluate, and summarize the bundled suite;
    returns every file whose bytes must be reproducible."""
    paths = mini_suite.write_all(str(base))
    for kind, src, out in (
        ("table", paths["people_csv"], "people.jsonl"),
        ("kg", paths["movies_tsv"], "movies.jsonl"),
        ("temporal", paths["terms_tsv"], "terms.jsonl"),
    ):
        assert main(["ingest", src, "--kind", kind,
                     "--out", os.path.join(paths["graphs_dir"], out)]) == 0
    traces = base / "traces.jsonl"
    assert main([
        "correct", "--dataset", paths["dataset"], "--graphs",
        paths["graphs_dir"], "--out", str(traces),
        "--backend", "scripted", "--script", paths["script_with"],
        "--self-consistency", "1", "--mct", "3", "--author", "student",
    ]) == 0
    sft = base / "sft.jsonl"
    pref = base / "pref.jsonl"
    assert main(["gen-sft", "--traces", str(traces), "--sft-out", str(sft),
                 "--pref-out", str(pref)]) == 0
    scorer = base / "scorer.json"
    scorer.write_text(json.dumps({"default_logprob": -0.25}),
                      encoding="utf-8")
    losses = base / "losses.json"
    assert main(["score-loss", "--sft", str(sft), "--pref", str(pref),
                 "--scorer", str(scorer), "--out", str(losses)]) == 0
    report_with = base / "report_with.json"
    eval_traces = base / "eval_traces.jsonl"
    assert main([
        "eval", "--dataset", paths["dataset"], "--graphs",
        paths["graphs_dir"], "--backend", "scripted",
        "--script", paths["script_with"], "--self-consistency", "1",
        "--mct", "3", "--out", str(report_with),
        "--traces-out", str(eval_traces),
    ]) == 0
    report_without = base / "report_without.json"
    assert main([
        "eval", "--dataset", paths["dataset"], "--graphs",
        paths["graphs_dir"], "--backend", "scripted",
        "--script", paths["script_without"], "--self-consistency", "1",
        "--no-correction", "--out", str(report_without),
    ]) == 0
    stats = base / "stats.json"
    assert main(["error-stats", "--traces", str(traces),
                 "--out", str(stats)]) == 0
    return [traces, sft, pref, losses, report_with, eval_traces,
            report_without, stats]


def test_criterion_7_end_to_end_benchmark(tmp_path):
    with criterion(7, "bundled suite: 100% with correction, 60% without, "
                      "every scripted kind corrected"):
        start = time.perf_counter()
        files = _run_pipeline(tmp_path / "run")
        report_with = json.loads(files[4].read_text(encoding="utf-8"))
        assert report_with["value"] == 100.0
        assert report_with["total"] == 20
        assert report_with["solved_direct"] == 12
        assert report_with["solved_after_n"] == {"1": 8}
        report_without = json.loads(files[6].read_text(encoding="utf-8"))
        assert report_without["value"] == 60.0
        assert report_without["failed_mct"] == 8
        stats = json.loads(files[7].read_text(encoding="utf-8"))
        assert len(stats["per_kind"]) == 8
        for row in stats["per_kind"].values():
            assert row["corrected_pct"] == 100.0
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_8_determinism(tmp_path, toy_graph):
    with criterion(8, "two consecutive runs produce byte-identical outputs"):
        first = _run_pipeline(tmp_path / "one")
        second = _run_pipeline(tmp_path / "two")
        for a, b in zip(first, second):
            assert filecmp.cmp(a, b, shallow=False), f"{a.name} differs"

        # loop fixtures (criterion 4/5 objects) serialize identically too
        for path, replies in (
            (tmp_path / "fix1.jsonl", [GOOD_PLAN]),
            (tmp_path / "fix2.jsonl",
             [WRONG_A, "use count.\n\n" + GOOD_PLAN]),
        ):
            runs = []
            for _ in range(2):
                trace = loop(toy_graph, replies)
                write_jsonl([trace], str(path))
                runs.append(path.read_bytes())
            assert runs[0] == runs[1]


HASH_SEED_RUN = """
from pathlib import Path
from test_acceptance import _run_pipeline, main
_run_pipeline(Path("."))
assert main(["correct", "--dataset", "dataset.jsonl", "--graphs", "graphs",
             "--out", "teacher_traces.jsonl", "--backend", "scripted",
             "--script", "script_with.jsonl", "--self-consistency", "1",
             "--mct", "3", "--author", "teacher"]) == 0
"""


def test_criterion_8_across_hash_seeds(tmp_path):
    """Criterion 8 between processes: with string hashing seeded 1 and 2,
    the pipeline writes the same bytes to every file and to stdout."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), str(tests)])}
    runs = {}
    for seed in ("1", "2"):
        (tmp_path / seed).mkdir()
        runs[seed] = subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_RUN], cwd=tmp_path / seed,
            env={**env, "PYTHONHASHSEED": seed}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
    outputs = {seed: run.communicate(timeout=120) for seed, run in
               runs.items()}
    assert [run.returncode for run in runs.values()] == [0, 0], outputs
    assert outputs["1"] == outputs["2"]
    files = {seed: {p.relative_to(tmp_path / seed): p.read_bytes()
                    for p in (tmp_path / seed).rglob("*") if p.is_file()}
             for seed in runs}
    assert len(files["1"]) == 19
    assert files["1"] == files["2"]
