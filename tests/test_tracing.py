"""The benchmark's tracer still sees every layer boundary it times.

perfbench/tracing.py records spans by patching the module attributes the
pipeline calls through. If the pipeline stops calling one of them, its
per-layer numbers silently read zero; this test makes that fail instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

from cgqa.correction import Demonstration, Question
from cgqa.evaluate import PipelineConfig, run_question
from cgqa.graph import load_table_file
from cgqa.llm import ScriptedChatClient

import mini_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_a_corrected_question_records_a_span_at_every_patch_point(tmp_path):
    paths = mini_suite.write_all(str(tmp_path))
    cg = load_table_file(paths["people_csv"])
    qid, text, gold, ref, initial, fix = next(
        q for q in mini_suite.QUESTIONS if q[0] == "m13")
    pool = (Demonstration("How many people are from Texas?", "s", initial),
            Demonstration("How many people studied in Utah?", "s", fix,
                          wrong_plan_text=initial, error_message="e",
                          analysis="a"))
    config = PipelineConfig(mct=3, sc_n=1, demo_pool=pool)
    client = ScriptedChatClient([{"reply": initial}, {"reply": fix}])
    tracer = tracing.Tracer()
    with tracer.patched():
        trace = tracer.call("evaluate", "run_question", run_question,
                            Question(qid, text, gold, ref), cg, client, config,
                            qid=qid)
    assert (trace.status, trace.n) == ("solved_after_n", 1)

    names = [s[tracing.NAME] for s in tracer.spans]
    for name in ("retrieve_demos", "build_query_prompt",
                 "build_correction_prompt", "parse_plan", "execute_plan",
                 "run_correction"):
        assert name in names, name
    assert names.count("retrieve_demos") == 2  # query and correction demos
    layers = tracing.summarize(tracer.spans, 1, None)
    assert layers["correction.retrieve_s"] > 0
    assert layers["correction.prompt_s"] > 0
