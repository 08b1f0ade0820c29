"""The bytes of every record file the CLI writes for the bundled suite.

The files under golden/records/ pin the wire form of each record family:
graph dumps, student and teacher correction traces, SFT records, preference
pairs, error statistics and both evaluation reports. Reruns of one version
are compared elsewhere; these files hold the bytes steady across versions.

After a deliberate change to a wire format, rewrite them with

    PYTHONPATH=src python tests/test_golden_records.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from cgqa.cli import main

import mini_suite

GOLDEN_DIR = Path(__file__).parent / "golden" / "records"
GRAPHS = {"people.jsonl": ("table", "people_csv"),
          "movies.jsonl": ("kg", "movies_tsv"),
          "terms.jsonl": ("temporal", "terms_tsv")}
FILES = [*GRAPHS, "traces_student.jsonl", "traces_teacher.jsonl",
         "sft.jsonl", "pref.jsonl", "error_stats.json", "eval_with.json",
         "eval_without.json"]


def write_records(base: Path, out: Path) -> None:
    """Run the CLI over the bundled suite in base; write FILES into out."""
    suite = mini_suite.write_all(str(base))
    out.mkdir(parents=True, exist_ok=True)
    loop = ["--backend", "scripted", "--self-consistency", "1"]
    data = ["--dataset", suite["dataset"], "--graphs", suite["graphs_dir"]]
    runs = [["ingest", suite[src], "--kind", kind, "--out",
             os.path.join(suite["graphs_dir"], name)]
            for name, (kind, src) in GRAPHS.items()]
    runs += [["correct", *data, *loop, "--script", suite["script_with"],
              "--mct", "3", "--author", author,
              "--out", str(out / f"traces_{author}.jsonl")]
             for author in ("student", "teacher")]
    runs += [
        ["gen-sft", "--traces", str(out / "traces_student.jsonl"),
         "--sft-out", str(out / "sft.jsonl"),
         "--pref-out", str(out / "pref.jsonl")],
        ["error-stats", "--traces", str(out / "traces_student.jsonl"),
         "--out", str(out / "error_stats.json")],
        ["eval", *data, *loop, "--script", suite["script_with"], "--mct",
         "3", "--out", str(out / "eval_with.json")],
        ["eval", *data, *loop, "--script", suite["script_without"],
         "--no-correction", "--out", str(out / "eval_without.json")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    for name in GRAPHS:
        (out / name).write_bytes(
            Path(suite["graphs_dir"], name).read_bytes())


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("golden_records")
    write_records(base, base / "out")
    return base / "out"


@pytest.mark.parametrize("name", FILES)
def test_record_bytes_match_golden(written, name, capsys):
    capsys.readouterr()
    assert (written / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_records(Path(tmp), GOLDEN_DIR)
    print(f"wrote {len(FILES)} files to {GOLDEN_DIR}")
