"""Branches that the rest of the suite never reaches, each pinned to its
behaviour: a skipped unsolved trace, an empty table file, a step reference
as keep's key, literal sets under aggregates and set operations."""

from __future__ import annotations

import json

import pytest

from cgqa.cli import main
from cgqa.dsl import parse_plan, validate_plan
from cgqa.executor import execute_plan
from cgqa.graph import ingest_table

ALICE_PLAN = ("query1 = get_information(head_entity='Alice', "
              "relation='Hometown')")


@pytest.fixture
def people():
    return ingest_table([["Alice", "20", "Texas"], ["Bob", "25", "Boston"]],
                        ["Name", "Age", "Hometown"])


def run(text: str, cg):
    return execute_plan(validate_plan(parse_plan(text)), cg)


def test_gen_sft_skips_an_unsolved_trace(tmp_path, capsys):
    (tmp_path / "people.csv").write_text(
        "Name,Age,Hometown\nAlice,20,Texas\n", encoding="utf-8")
    (tmp_path / "script.jsonl").write_text(
        json.dumps({"reply": ALICE_PLAN}) + "\n", encoding="utf-8")
    p = {name: str(tmp_path / name) for name in (
        "people.csv", "people.jsonl", "script.jsonl", "trace.json",
        "traces.jsonl", "sft.jsonl", "pref.jsonl")}
    assert main(["ingest", p["people.csv"], "--kind", "table",
                 "--out", p["people.jsonl"]]) == 0
    assert main(["ask", "Where is Alice from?", "--graph", p["people.jsonl"],
                 "--backend", "scripted", "--script", p["script.jsonl"],
                 "--self-consistency", "1", "--out", p["trace.json"]]) == 0
    solved = json.loads((tmp_path / "trace.json").read_text("utf-8"))
    unsolved = {**solved, "question_id": "q2", "status": "failed_mct",
                "final_plan_text": None}
    (tmp_path / "traces.jsonl").write_text(
        "".join(json.dumps(t) + "\n" for t in (unsolved, solved)),
        encoding="utf-8")
    capsys.readouterr()
    assert main(["gen-sft", "--traces", p["traces.jsonl"], "--sft-out",
                 p["sft.jsonl"], "--pref-out", p["pref.jsonl"]]) == 0
    assert capsys.readouterr().out == (
        f"wrote 1 records to {p['sft.jsonl']}, 0 pairs to {p['pref.jsonl']}\n")
    (line,) = (tmp_path / "sft.jsonl").read_text("utf-8").splitlines()
    record = json.loads(line)
    assert record["trace_id"] == "ask/teacher"


def test_ingest_of_an_empty_table_file_fails_as_empty(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert main(["ingest", str(path), "--kind", "table",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path} is empty\n"
    assert not out.exists()


def test_keep_takes_no_step_reference_as_its_key(people):
    out = run("query1 = get_information(relation='Age')\n"
              "query2 = keep(set=output_of_query1, key=output_of_query1, "
              "value=20)", people)
    assert out.status == "exec_error"
    assert out.error.kind.value == "runtime_exception"
    assert out.error.message == ("Exception from executor in function "
                                 "'keep': parameter 'key' of keep must be a "
                                 "literal")


@pytest.mark.parametrize("plan, answer", [
    ("query1 = count(set='x')", {1}),
    ("query1 = sum(set=5)", {5}),
    ("query1 = max(set='2001-05-03')", {"2001-05-03"}),
    ("query1 = set_union(set1='a', set2='b')", {"a", "b"}),
    ("query1 = set_difference(set1='Alice', set2='alice')", set()),
    ("query1 = set_negation(set='Alice')", {"Bob"}),
])
def test_a_literal_set_is_a_one_value_set(people, plan, answer):
    out = run(plan, people)
    assert (out.status, out.answer) == ("success", answer)
