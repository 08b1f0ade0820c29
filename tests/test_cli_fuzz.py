"""The CLI's error boundary under mutated input files: every run of every
subcommand either succeeds or fails with one `error:` line, and no exception
escapes `cgqa.cli.main`. A run whose only change is a long numeral in a
label or number cell succeeds."""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa.cli import main

import mini_suite
from test_cli import ALICE_PLAN, ASK

SCRIPTED = ["--backend", "scripted", "--script", "{script}",
            "--self-consistency", "1"]
# A run of each subcommand over the valid inputs: "{name}" is the file
# FILES names, "{graphs}" the directory of the DUMPS, and "{out}" and
# "{out2}" are outputs.
RUNS = [
    ["ingest", "{people_csv}", "--kind", "table", "--out", "{out}"],
    ["ingest", "{movies_tsv}", "--kind", "kg", "--out", "{out}"],
    ["ingest", "{terms_tsv}", "--kind", "temporal", "--out", "{out}"],
    [*ASK, "--graph", "{people}", "--script", "{ask_script}",
     "--demo-pool", "{pool}", "--config", "{config}", "--gold", '["Texas"]',
     "--out", "{out}"],
    ["correct", "--dataset", "{dataset}", "--graphs", "{graphs}",
     "--out", "{out}", *SCRIPTED, "--author", "student"],
    ["gen-sft", "--traces", "{traces}", "--sft-out", "{out}",
     "--pref-out", "{out2}"],
    ["score-loss", "--sft", "{sft}", "--pref", "{pref}", "--scorer",
     "{scorer}", "--out", "{out}"],
    ["eval", "--dataset", "{dataset}", "--graphs", "{graphs}", "--out",
     "{out}", "--traces-out", "{out2}", *SCRIPTED],
    ["error-stats", "--traces", "{traces}", "--out", "{out}"],
]
DUMPS = ["people", "movies", "terms"]
FILES = {"people_csv": "sources/people.csv",
         "movies_tsv": "sources/movies.tsv",
         "terms_tsv": "sources/terms.tsv", "graphs": "graphs",
         **{name: f"graphs/{name}.jsonl" for name in DUMPS},
         "dataset": "dataset.jsonl", "script": "script_with.jsonl",
         "ask_script": "ask_script.jsonl", "pool": "pool.jsonl",
         "config": "config.json", "traces": "traces.jsonl",
         "sft": "sft.jsonl", "pref": "pref.jsonl", "scorer": "scorer.json"}
# (run, input file) for every file each run reads.
CASES = [(argv, name) for argv in RUNS for arg in argv
         if arg.startswith("{") and not arg.startswith("{out")
         for name in (DUMPS if arg == "{graphs}" else [arg[1:-1]])]
# A numeral past int()'s 4,300-digit limit, whose number is 7.
LONG_NUMERAL = "0" * 5000 + "7"
# Stand-ins for a changed JSON value: every JSON type, blank text, and a
# long numeral.
SWAPS = [0, 2.5, "", " ", "x", True, None, [], ["x"], {}, {"x": 1},
         LONG_NUMERAL]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory) -> Path:
    """A directory holding a valid input file for every FILES name, on
    which every run of RUNS exits 0."""
    base = tmp_path_factory.mktemp("valid")
    mini_suite.write_all(str(base))
    for name, argv in zip(DUMPS, RUNS):
        assert run(base, argv, {**FILES, "out": FILES[name]})[0] == 0
    (base / "ask_script.jsonl").write_text("".join(
        json.dumps({"reply": r}) + "\n" for r in (
            "query1 = frobnicate(set='x')", "fix.\n\n" + ALICE_PLAN)),
        encoding="utf-8")
    (base / "pool.jsonl").write_text("".join(json.dumps(d) + "\n" for d in (
        {"question": "Where is Bob from?",
         "schema_text": "source: table\nHometown: Boston",
         "plan_text": "query1 = get_information(head_entity='Bob', "
                      "relation='Hometown')"},
        {"question": "Where is Carol from?",
         "schema_text": "source: table\nHometown: Dallas",
         "plan_text": "query1 = get_information(head_entity='Carol', "
                      "relation='Hometown')",
         "wrong_plan_text": "query1 = hometown(head_entity='Carol')",
         "error_message": "undefined function", "analysis": "use a lookup"},
    )), encoding="utf-8")
    (base / "config.json").write_text(json.dumps(
        {"timeout": 5}), encoding="utf-8")
    (base / "scorer.json").write_text(json.dumps(
        {"default_logprob": -0.5,
         "entries": [{"target": ALICE_PLAN, "logprobs": [-0.25, -0.5]}]}),
        encoding="utf-8")
    assert run(base, RUNS[4], {**FILES, "out": "traces.jsonl"})[0] == 0
    assert run(base, RUNS[5], {**FILES, "out": "sft.jsonl",
                               "out2": "pref.jsonl"})[0] == 0
    for argv in (RUNS[3], *RUNS[6:]):  # the runs whose output no run reads
        code, err = run(base, argv, {**FILES, "out": "run.out",
                                     "out2": "run.out2"})
        assert code == 0, (argv[0], err)
    return base


def run(base: Path, argv: list[str], files=FILES) -> tuple[int, str]:
    """main(argv) with each "{name}" read as base / files[name] (which may
    be absolute); returns the exit code and stderr."""
    args = [str(base / files[a[1:-1]]) if a.startswith("{") else a
            for a in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def json_paths(value, path=()):
    """The path of value and of everything it holds."""
    yield path
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_paths(item, (*path, key))


def swapped(data, old):
    """A stand-in for old: of another JSON type, or other text."""
    return data.draw(st.sampled_from([s for s in SWAPS if (type(s), s) != (
        type(old), old)]), label="swap")


def mutate_json(data, line: str) -> str:
    """line, a JSON value, with one key deleted or one value swapped."""
    value = json.loads(line)
    path = data.draw(st.sampled_from(list(json_paths(value))), label="path")
    if not path:
        return json.dumps(swapped(data, value))
    holder = value
    for key in path[:-1]:
        holder = holder[key]
    if isinstance(path[-1], str) and data.draw(st.booleans(), label="delete"):
        del holder[path[-1]]
    else:
        holder[path[-1]] = swapped(data, holder[path[-1]])
    return json.dumps(value, ensure_ascii=False)


def mutate(data, path: Path) -> bool:
    """Rewrite path with one line dropped, duplicated or truncated, or, in
    one line, a byte that is not UTF-8 inserted, a cell added, removed,
    blanked or made LONG_NUMERAL (CSV/TSV) or a JSON value changed
    (mutate_json). Returns whether the file must still be read: a cell
    made LONG_NUMERAL is a valid label or number, but not a valid time."""
    lines = path.read_text(encoding="utf-8").splitlines()
    valid = False
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[i]
    sep = {".csv": ",", ".tsv": "\t"}.get(path.suffix)
    how = data.draw(st.sampled_from(
        ["drop", "duplicate", "truncate", "edit", "undecodable"]), label="how")
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, line)
    elif how == "truncate":
        lines[i] = line[:data.draw(st.integers(0, max(len(line) - 1, 0)))]
    elif how == "undecodable":  # "\udcff" is written as the byte 0xff
        j = data.draw(st.integers(0, len(line)), label="at")
        lines[i] = line[:j] + "\udcff" + line[j:]
    elif sep is None:
        lines[i] = mutate_json(data, line)
    else:
        cells = line.split(sep)
        j = data.draw(st.integers(0, len(cells) - 1), label="cell")
        edit = data.draw(st.sampled_from(["numeral", "blank", "add",
                                          "remove"]))
        if edit == "blank":
            cells[j] = ""
        elif edit == "numeral":
            cells[j] = LONG_NUMERAL
            valid = not (path.name == "terms.tsv" and j == 3)
        elif edit == "add":
            cells.insert(j, "x")
        else:
            del cells[j]
        lines[i] = sep.join(cells)
    path.write_bytes("".join(f"{x}\n" for x in lines).encode(
        "utf-8", "surrogateescape"))
    return valid


@pytest.mark.parametrize("argv, name", CASES,
                         ids=[f"{argv[0]}-{name}" for argv, name in CASES])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_input_succeeds_or_fails_in_one_line(valid_inputs, argv,
                                                     name, data):
    with tempfile.TemporaryDirectory() as tmp:
        files = {**FILES, "out": f"{tmp}/out", "out2": f"{tmp}/out2"}
        if name in DUMPS:  # a changed dump in a copy of the directory
            files["graphs"] = shutil.copytree(valid_inputs / "graphs",
                                              f"{tmp}/graphs")
            files[name] = f"{tmp}/{FILES[name]}"
        else:
            files[name] = shutil.copy(valid_inputs / FILES[name], tmp)
        valid = mutate(data, Path(files[name]))
        code, err = run(valid_inputs, argv, files)
    assert code == 0 or (not valid and code == 1 and err.startswith("error: ")
                         and err.count("\n") == 1), (code, err)
