"""The correction loop: demo retrieval, prompt building, self-consistency
voting, round bookkeeping, and terminal statuses."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from json.encoder import encode_basestring
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgqa import correction
from cgqa.correction import (
    CorrectionTrace,
    DemoIndex,
    Demonstration,
    Question,
    answers_match,
    assess,
    build_correction_prompt,
    build_query_prompt,
    extract_plan,
    generate_initial,
    normalize_answer_value,
    render_schema,
    retrieve_demos,
    run_correction,
)
from cgqa.dsl import read_numeral
from cgqa.errors import ErrorKind
from cgqa.evaluate import PipelineConfig
from cgqa.graph import ingest_table, schema_summary, value_key
from cgqa.llm import (ChatMessage, ScriptedChatClient, flatten_messages,
                      request_digest)

GOLDEN_DIR = Path(__file__).parent / "golden" / "prompts"

QUESTION = "How many people studied in Utah?"
GOOD_PLAN = (
    "query1 = get_information(relation='Colleges', tail_entity='Utah')\n"
    "query2 = count(set=output_of_query1)"
)
WRONG_SUBTRACT = "query1 = subtract(set1='a', set2='b')"
WRONG_NESTED = "query1 = count(set=get_information(relation='Colleges'))"


def ordered_client(*replies: str) -> ScriptedChatClient:
    return ScriptedChatClient([{"reply": r} for r in replies])


def make_question(gold=None):
    return Question(id="q1", text=QUESTION, gold_answer=gold, graph_ref="toy")


def jaccard(a: str, b: str) -> float:
    """Jaccard over casefolded word sets, the retrieval score, computed
    here on its own."""
    ta = set(re.findall(r"\w+", a.casefold()))
    tb = set(re.findall(r"\w+", b.casefold()))
    return len(ta & tb) / len(ta | tb) if ta | tb else 1.0


class TestRetrieveDemos:
    def test_clamping_small_pool(self):
        pool = [Demonstration("only one", "s", "query1 = count(set=output_of_query1)")]
        assert retrieve_demos("anything", pool, 15, 8) == pool

    def test_identical_question_ranks_first(self):
        pool = [
            Demonstration("who directed heat", "s", "p1"),
            Demonstration(QUESTION, "s", "p2"),
            Demonstration("what is the mean age", "s", "p3"),
        ]
        got = retrieve_demos(QUESTION, pool, 15, 2)
        assert got[0].question == QUESTION
        assert jaccard(QUESTION, QUESTION) == 1.0

    def test_top_k_against_brute_force(self):
        pool = [
            Demonstration(f"question about topic {i} number {i % 7}", "s", f"p{i}")
            for i in range(100)
        ]
        query = "question about topic 13 number 6"
        got = retrieve_demos(query, pool, k_retrieve=15, k_use=8)
        assert len(got) == 8
        scores = [jaccard(query, d.question) for d in got]
        assert scores == sorted(scores, reverse=True)
        # independent full ranking: stable sort by (-score, pool position)
        ranked = sorted(
            range(len(pool)),
            key=lambda i: (-jaccard(query, pool[i].question), i),
        )
        assert [d.plan_text for d in got] == [
            pool[i].plan_text for i in ranked[:8]
        ]

    def test_empty_pool(self):
        assert retrieve_demos("q", [], 15, 8) == []

    def test_ranking_matches_plain_jaccard(self):
        rng = random.Random(3)
        words = ["who", "What", "age", "Utah", "city", "mean", "of", "in",
                 "team", "born", "2001", "the"]
        pool = [Demonstration(" ".join(rng.sample(words, rng.randint(0, 6))),
                              "s", f"p{i}") for i in range(200)]
        for _ in range(20):
            query = " ".join(rng.sample(words, rng.randint(0, 6)))
            ranked = sorted(range(len(pool)),
                            key=lambda i: (-jaccard(query, pool[i].question),
                                           i))
            got = retrieve_demos(query, pool, 15, 15)
            assert [d.plan_text for d in got] == [
                pool[i].plan_text for i in ranked[:15]]

    def test_pool_words_are_computed_once(self, monkeypatch):
        pool = [Demonstration(f"question about topic {i}", "s", f"p{i}")
                for i in range(50)]
        seen = []
        word_set = correction._word_set
        monkeypatch.setattr(correction, "_word_set",
                            lambda text: seen.append(text) or word_set(text))
        first = retrieve_demos("topic 3 question", pool, 15, 8)
        assert len(seen) == 51
        seen.clear()
        assert retrieve_demos("topic 7", pool, 15, 8) != first
        assert seen == ["topic 7"]

    def test_deduplication(self):
        demo = Demonstration("same", "s", "samep")
        got = retrieve_demos("same", [demo, demo, demo], 3, 3)
        assert len(got) == 1


def brute_force_demos(question, pool, k_retrieve, k_use):
    """Rank the whole pool by (-jaccard, position), keep k_retrieve, then
    the first k_use distinct (question, plan) pairs."""
    def words(text):
        return set(re.findall(r"\w+", text.casefold()))

    def jaccard(a, b):
        return len(a & b) / len(a | b) if a | b else 1.0

    q = words(question)
    ranked = sorted(range(len(pool)),
                    key=lambda i: (-jaccard(q, words(pool[i].question)), i))
    picked, seen = [], set()
    for i in ranked[:max(k_retrieve, 0)]:
        ident = (pool[i].question, pool[i].plan_text)
        if ident not in seen and len(picked) < k_use:
            seen.add(ident)
            picked.append(pool[i])
    return picked


# Few words, so questions overlap, repeat and often share none; "?!" and ""
# have no words; the casefold pairs differ only in case.
RETRIEVAL_WORDS = ["who", "Utah", "age", "of", "the", "Straße", "STRASSE",
                   "ǆemal", "ǅemal", "ΣΊΣΥΦΟΣ", "σίσυφος", "?!", "2001"]
retrieval_texts = st.lists(st.sampled_from(RETRIEVAL_WORDS), max_size=4).map(
    " ".join)


class TestRetrievalIndex:
    @settings(max_examples=300, deadline=None)
    @given(question=retrieval_texts,
           pool=st.lists(st.tuples(retrieval_texts, st.sampled_from("pq")),
                         max_size=25),
           k_retrieve=st.integers(0, 30), k_use=st.integers(0, 30))
    def test_equals_brute_force_ranking(self, question, pool, k_retrieve,
                                        k_use):
        demos = [Demonstration(q, "s", plan) for q, plan in pool]
        want = brute_force_demos(question, demos, k_retrieve, k_use)
        assert retrieve_demos(question, demos, k_retrieve, k_use) == want
        assert retrieve_demos(question, DemoIndex(demos), k_retrieve,
                              k_use) == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(100, 500),
           k_retrieve=st.integers(0, 520), k_use=st.integers(0, 520))
    def test_large_pools_equal_brute_force_ranking(self, seed, size,
                                                   k_retrieve, k_use):
        """Pools span many int digits, and a 12-word question shared in
        full counts to 12, which takes four bit planes."""
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(38)] + ["Straße", "STRASSE"]

        def text():
            return " ".join(rng.choices(vocab, k=rng.randint(0, 12)))
        long = " ".join(rng.sample(vocab, 12))
        texts = [text() for _ in range(size - 1)]
        texts.insert(rng.randrange(size), long)
        demos = [Demonstration(q, "s", f"p{i}") for i, q in enumerate(texts)]
        index = DemoIndex(demos)
        for question in (long, text(), rng.choice(texts), "", "?!"):
            want = brute_force_demos(question, demos, k_retrieve, k_use)
            assert retrieve_demos(question, index, k_retrieve, k_use) == want

    def test_fewer_overlaps_than_k_fill_in_pool_order(self):
        pool = [Demonstration(text, "s", f"p{i}") for i, text in enumerate(
            ["who", "?!", "Utah age", "", "age of", "the"])]
        got = retrieve_demos("age", pool, 5, 5)
        assert [d.plan_text for d in got] == ["p2", "p4", "p0", "p1", "p3"]

    def test_question_without_words_matches_demos_without_words(self):
        pool = [Demonstration(text, "s", f"p{i}") for i, text in enumerate(
            ["who", "?!", "Utah", ""])]
        got = retrieve_demos("...", pool, 3, 3)
        assert [d.plan_text for d in got] == ["p1", "p3", "p0"]

    def test_zero_k_picks_nothing(self):
        pool = [Demonstration("who", "s", "p")]
        assert retrieve_demos("who", pool, 0, 8) == []
        assert retrieve_demos("who", pool, 15, 0) == []

    @settings(max_examples=300, deadline=None)
    @given(question=retrieval_texts,
           pool=st.lists(st.tuples(retrieval_texts, st.sampled_from("pq"),
                                   st.booleans()), max_size=25),
           k=st.sampled_from([0, 1, 15, "more"]), k_use=st.integers(0, 30))
    def test_masked_ranking_equals_a_correction_only_index(
            self, question, pool, k, k_use):
        """run_question ranks the pool once and masks it to the correction
        demonstrations; that must pick what indexing them apart picks."""
        demos = [Demonstration(q, "s", plan, wrong_plan_text="w" if fix
                               else None) for q, plan, fix in pool]
        k_retrieve = len(demos) + 1 if k == "more" else k
        index = DemoIndex(demos)
        ranking = index.rank(question)
        fixes = [d for d in demos if d.is_correction]
        want = retrieve_demos(question, DemoIndex(fixes), k_retrieve, k_use)
        assert want == brute_force_demos(question, fixes, k_retrieve, k_use)
        masked = [m & index.corrections for m in ranking]
        assert retrieve_demos(question, index, k_retrieve, k_use,
                              masked) == want
        assert retrieve_demos(question, index, k_retrieve, k_use,
                              ranking) == brute_force_demos(
            question, demos, k_retrieve, k_use)

    def test_pipeline_config_indexes_each_pool_once(self):
        plain = Demonstration("who is from utah", "s", "p1")
        fix = Demonstration("how old is bob", "s", "p2", wrong_plan_text="w",
                            error_message="e", analysis="a")
        config = PipelineConfig(demo_pool=(plain, fix))
        index = config.demo_index()
        assert index.pool == (plain, fix) and index.corrections == 0b10
        assert config.demo_index() is index
        config.demo_pool = (plain, fix)  # equal, but another object
        rebuilt = config.demo_index()
        assert rebuilt is not index and rebuilt.pool == index.pool
        assert config.demo_index() is rebuilt


class TestPrompts:
    def test_query_prompt_golden(self, toy_graph):
        text = flatten_messages(build_query_prompt(
            QUESTION, render_schema(schema_summary(toy_graph))))
        golden = (GOLDEN_DIR / "query_prompt.txt").read_text(encoding="utf-8")
        assert text + "\n" == golden

    def test_correction_prompt_golden(self, toy_graph):
        schema_text = render_schema(schema_summary(toy_graph))
        err = assess(WRONG_SUBTRACT, toy_graph).error
        text = flatten_messages(build_correction_prompt(
            QUESTION, schema_text, WRONG_SUBTRACT, err.message
        ))
        golden = (GOLDEN_DIR / "correction_prompt.txt").read_text(
            encoding="utf-8"
        )
        assert text + "\n" == golden
        assert "Please call one of: [get_information" in text

    def test_prompts_are_deterministic(self, toy_graph):
        schema_text = render_schema(schema_summary(toy_graph))
        a = build_query_prompt(QUESTION, schema_text)
        b = build_query_prompt(QUESTION, schema_text)
        assert a == b
        assert request_digest(a) == request_digest(b)

    def test_zero_demos_still_well_formed(self):
        messages = build_query_prompt("q", "schema: s", demos=())
        assert messages[0].role == "system"
        assert "(none)" in messages[1].content

    def test_demo_blocks_render(self, toy_graph):
        schema_text = render_schema(schema_summary(toy_graph))
        demos = [
            Demonstration("who is from texas", schema_text,
                          "query1 = get_information(relation='Hometown')"),
            Demonstration(
                "how many colleges", schema_text,
                "query1 = count(set=output_of_query1)",
                wrong_plan_text="query1 = size(set=output_of_query1)",
                error_message="The function 'size' is not defined!",
                analysis="size is not a registry function; count is.",
            ),
        ]
        pq = build_query_prompt("q", schema_text, demos)
        assert "[Demonstration 1]" in pq[1].content
        pc = build_correction_prompt("q", schema_text, "wrong", "msg", demos)
        assert "Corrected query:" in pc[1].content


def json_dumps_digest(messages) -> str:
    """request_digest as json.dumps wrote it before content_json existed."""
    canon = json.dumps([{"role": m.role, "content": m.content}
                        for m in messages], ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# Every character JSON escapes, and some it leaves alone: DEL, the line
# separator U+2028 and an emoji outside the BMP.
prompt_texts = st.text(st.sampled_from(
    ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\U0001f600", "a",
     " ", "é"]), max_size=8)
demonstrations = st.builds(Demonstration, prompt_texts, prompt_texts,
                           prompt_texts, st.none() | prompt_texts,
                           prompt_texts, prompt_texts)


@settings(max_examples=200, deadline=None)
@given(question=prompt_texts, schema=prompt_texts, wrong=prompt_texts,
       message=prompt_texts, demos=st.lists(demonstrations, max_size=3),
       history=st.lists(st.tuples(prompt_texts, prompt_texts), max_size=2))
def test_prompts_carry_their_escaped_content(question, schema, wrong, message,
                                             demos, history):
    for prompt in (build_query_prompt(question, schema, demos),
                   build_correction_prompt(question, schema, wrong, message,
                                           demos, history),
                   [ChatMessage("system", schema), ChatMessage("user", wrong)]):
        for m in prompt:
            assert m.content_json in (None, encode_basestring(m.content))
        assert request_digest(prompt) == json_dumps_digest(prompt)


class TestExtractPlan:
    def test_analysis_then_plan(self):
        completion = (
            "The function subtract does not exist, count is the right one.\n\n"
            + GOOD_PLAN
        )
        analysis, plan = extract_plan(completion)
        assert "does not exist" in analysis
        assert plan == GOOD_PLAN

    def test_plan_only(self):
        analysis, plan = extract_plan(GOOD_PLAN)
        assert analysis == ""
        assert plan == GOOD_PLAN

    def test_code_fences_ignored(self):
        completion = "Fix:\n```\n" + GOOD_PLAN + "\n```"
        _, plan = extract_plan(completion)
        assert plan == GOOD_PLAN

    def test_no_plan(self):
        analysis, plan = extract_plan("I am not sure what to do.")
        assert plan is None
        assert analysis == "I am not sure what to do."

    def test_trailing_prose_excluded(self):
        completion = GOOD_PLAN + "\nThat should work."
        _, plan = extract_plan(completion)
        assert plan == GOOD_PLAN


class TestGenerateInitial:
    def schema(self, cg):
        return render_schema(schema_summary(cg))

    def test_single_sample(self, toy_graph):
        client = ordered_client(GOOD_PLAN)
        got, _ = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, PipelineConfig(sc_n=1))
        assert got == GOOD_PLAN

    def test_majority_wins(self, toy_graph):
        plan_b = "query1 = get_information(relation='Age')"
        replies = [GOOD_PLAN, GOOD_PLAN, plan_b, WRONG_SUBTRACT, GOOD_PLAN]
        client = ordered_client(*replies)
        got, _ = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, PipelineConfig(sc_n=5))
        assert got == GOOD_PLAN

    def test_tie_breaks_to_earliest(self, toy_graph):
        plan_b = "query1 = get_information(relation='Age')"
        replies = [plan_b, plan_b, GOOD_PLAN, GOOD_PLAN, WRONG_SUBTRACT]
        client = ordered_client(*replies)
        got, _ = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, PipelineConfig(sc_n=5))
        assert got == plan_b

    def test_error_outcomes_share_a_bucket(self, toy_graph):
        replies = [WRONG_SUBTRACT, WRONG_NESTED, GOOD_PLAN]
        client = ordered_client(*replies)
        got, _ = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, PipelineConfig(sc_n=3))
        assert got == WRONG_SUBTRACT  # two errors outvote one clean answer

    def test_client_with_sample_gets_one_batch(self, toy_graph):
        plan_b = "query1 = get_information(relation='Age')"

        class BatchClient:
            calls = []

            def sample(self, messages, n):
                self.calls.append(n)
                return [plan_b, GOOD_PLAN, GOOD_PLAN][:n]

            def complete(self, messages):
                raise AssertionError("complete() called despite sample()")

        client = BatchClient()
        got, _ = generate_initial(QUESTION, self.schema(toy_graph), toy_graph,
                               client, PipelineConfig(sc_n=3))
        assert got == GOOD_PLAN
        assert client.calls == [3]


VOTE_GRAPH = ingest_table(
    [["Alice", "Utah", "20", "Texas"], ["Bob", "Princeton", "25", "Boston"]],
    ["Name", "Colleges", "Age", "Hometown"],
)
VOTE_PLANS = [
    GOOD_PLAN,
    "query1 = get_information(relation='Age')",
    "query1 = get_information(relation='Hometown')",
    "query1 = get_information(relation='Colleges')\n"
    "query2 = sum(set=output_of_query1)",  # fails in the executor
    WRONG_SUBTRACT,  # rejected by the validator
    WRONG_NESTED,  # rejected by the parser
]


def vote_every_sample(samples, cg):
    """The vote with every sample assessed on its own."""
    buckets = {}
    for i, plan in enumerate(samples):
        buckets.setdefault(correction._vote_key(assess(plan, cg)),
                           []).append(i)
    best = max(buckets.values(), key=lambda idxs: (len(idxs), -idxs[0]))
    return samples[best[0]]


class TestVoteAssessesDistinctPlans:
    def counting(self, monkeypatch, name):
        calls = []
        fn = getattr(correction, name)
        monkeypatch.setattr(correction, name,
                            lambda *a, **k: calls.append(a[0]) or fn(*a, **k))
        return calls

    def test_each_distinct_text_parsed_and_executed_once(self, monkeypatch):
        parsed = self.counting(monkeypatch, "parse_plan")
        executed = self.counting(monkeypatch, "execute_plan")
        replies = [GOOD_PLAN, WRONG_SUBTRACT, GOOD_PLAN, VOTE_PLANS[1],
                   WRONG_SUBTRACT, GOOD_PLAN, VOTE_PLANS[1]]
        plan, _ = generate_initial(QUESTION, "s", VOTE_GRAPH,
                                   ordered_client(*replies),
                                   PipelineConfig(sc_n=7))
        assert plan == GOOD_PLAN
        assert parsed == [GOOD_PLAN, WRONG_SUBTRACT, VOTE_PLANS[1]]
        assert len(executed) == 2  # WRONG_SUBTRACT never validates

    def test_each_distinct_completion_split_and_keyed_once(self,
                                                           monkeypatch):
        split = self.counting(monkeypatch, "extract_plan")
        keyed = self.counting(monkeypatch, "_vote_key")
        fenced = f"```\n{GOOD_PLAN}\n```"  # splits to GOOD_PLAN
        replies = [GOOD_PLAN, fenced, WRONG_SUBTRACT, fenced, GOOD_PLAN,
                   WRONG_NESTED, WRONG_SUBTRACT]
        plan, _ = generate_initial(QUESTION, "s", VOTE_GRAPH,
                                   ordered_client(*replies),
                                   PipelineConfig(sc_n=7))
        assert plan == GOOD_PLAN
        assert split == [GOOD_PLAN, fenced, WRONG_SUBTRACT, WRONG_NESTED]
        assert len(keyed) == 1  # GOOD_PLAN's 4 of 7 samples decide the vote

    def test_undecided_vote_keys_every_distinct_plan_once(self,
                                                          monkeypatch):
        parsed = self.counting(monkeypatch, "parse_plan")
        keyed = self.counting(monkeypatch, "_vote_key")
        replies = [GOOD_PLAN, WRONG_SUBTRACT, GOOD_PLAN, VOTE_PLANS[1],
                   WRONG_NESTED, VOTE_PLANS[1], GOOD_PLAN]
        plan, _ = generate_initial(QUESTION, "s", VOTE_GRAPH,
                                   ordered_client(*replies),
                                   PipelineConfig(sc_n=7))
        assert plan == GOOD_PLAN
        # before each plan, the lead is at most the runner-up plus the
        # samples left, so no plan is skipped
        assert parsed == [GOOD_PLAN, WRONG_SUBTRACT, VOTE_PLANS[1],
                          WRONG_NESTED]
        assert len(keyed) == 4

    @pytest.mark.parametrize("order, want", [
        ("AAABC", "A"),  # A's 3 of 5 decide before B
        ("BAAAC", "BA"),  # B's 1 + 2 left cannot tie A's 3
    ])
    def test_assessing_stops_once_the_vote_is_decided(self, monkeypatch,
                                                      order, want):
        plans = dict(zip("ABC", VOTE_PLANS[1:4]))
        parsed = self.counting(monkeypatch, "parse_plan")
        plan, _ = generate_initial(QUESTION, "s", VOTE_GRAPH,
                                   ordered_client(*map(plans.get, order)),
                                   PipelineConfig(sc_n=5))
        assert plan == plans["A"]
        assert parsed == [plans[p] for p in want]

    def test_identical_samples_assessed_once_per_question(self, monkeypatch):
        parsed = self.counting(monkeypatch, "parse_plan")
        trace = run_correction(make_question(gold=[1]),
                               schema_summary(VOTE_GRAPH), VOTE_GRAPH,
                               ordered_client(*[GOOD_PLAN] * 5),
                               PipelineConfig(sc_n=5))
        assert trace.status == "solved_direct"
        assert parsed == [GOOD_PLAN]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(VOTE_PLANS), min_size=1, max_size=11))
    def test_vote_and_outcome_match_assessing_every_sample(self, samples):
        plan, outcome = generate_initial(QUESTION, "s", VOTE_GRAPH,
                                         ordered_client(*samples),
                                         PipelineConfig(sc_n=len(samples)))
        assert plan == vote_every_sample(samples, VOTE_GRAPH)
        assert outcome.to_dict() == assess(plan, VOTE_GRAPH).to_dict()

    def test_other_exceptions_propagate(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(correction, "execute_plan", boom)
        with pytest.raises(RuntimeError, match="boom"):
            generate_initial(QUESTION, "s", VOTE_GRAPH,
                             ordered_client(GOOD_PLAN, GOOD_PLAN),
                             PipelineConfig(sc_n=2))


@pytest.mark.parametrize("plan", [
    WRONG_SUBTRACT,  # rejected by the validator
    "query1 = get_information(relation='Colleges')\n"
    "query2 = sum(set=output_of_query1)",  # fails in the executor
])
def test_stored_error_keeps_no_traceback(toy_graph, plan):
    err = assess(plan, toy_graph).error
    assert err is not None
    assert err.__traceback__ is None
    assert err.__cause__ is None


def _chain_ok(trace: CorrectionTrace) -> bool:
    prev = trace.initial_outcome.error
    for rnd in trace.rounds:
        if rnd.error_in.to_dict() != (prev.to_dict() if prev else None):
            return False
        prev = rnd.outcome_after.error
    return True


class TestRunCorrection:
    def test_solved_direct(self, toy_graph):
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            ordered_client(GOOD_PLAN), PipelineConfig(mct=3, sc_n=1),
        )
        assert trace.status == "solved_direct"
        assert trace.rounds == []
        assert trace.n == 0
        assert trace.final_plan_text == GOOD_PLAN

    def test_solved_after_one_round(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT,
            "subtract is not defined; count does the job.\n\n" + GOOD_PLAN,
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, PipelineConfig(mct=3, sc_n=1),
        )
        assert trace.status == "solved_after_n"
        assert trace.n == 1
        assert trace.final_plan_text == GOOD_PLAN
        assert trace.rounds[0].error_in.kind is ErrorKind.UNDEFINED_FUNCTION
        assert trace.rounds[0].analysis.startswith("subtract is not defined")
        assert _chain_ok(trace)

    def test_solved_after_two_rounds(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT,
            "Try a different missing function.\n\n"
            "query1 = tally(set=output_of_query1)",
            "tally is also undefined; count is correct.\n\n" + GOOD_PLAN,
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, PipelineConfig(mct=3, sc_n=1),
        )
        assert trace.status == "solved_after_n"
        assert trace.n == 2
        assert [r.index for r in trace.rounds] == [1, 2]
        assert _chain_ok(trace)

    def test_failed_mct_uses_every_round(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT,
            "still wrong\n\n" + WRONG_SUBTRACT,
            "still wrong\n\n" + WRONG_SUBTRACT,
            "still wrong\n\n" + WRONG_SUBTRACT,
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, PipelineConfig(mct=3, sc_n=1),
        )
        assert trace.status == "failed_mct"
        assert trace.n == 3
        assert len(trace.rounds) == 3
        assert trace.final_plan_text is None
        assert _chain_ok(trace)

    def test_mct_zero_is_single_pass(self, toy_graph):
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            ordered_client(WRONG_SUBTRACT), PipelineConfig(mct=0, sc_n=1),
        )
        assert trace.status == "failed_mct"
        assert trace.rounds == []

    def test_gold_mismatch(self, toy_graph):
        trace = run_correction(
            make_question(gold=[2]), schema_summary(toy_graph), toy_graph,
            ordered_client(GOOD_PLAN), PipelineConfig(mct=3, sc_n=1),
        )
        assert trace.status == "failed_gold_mismatch"
        assert trace.final_plan_text is None

    def test_gold_ignored_when_absent(self, toy_graph):
        trace = run_correction(
            make_question(gold=None), schema_summary(toy_graph), toy_graph,
            ordered_client(GOOD_PLAN), PipelineConfig(mct=3, sc_n=1),
        )
        assert trace.status == "solved_direct"

    def test_malformed_completion_counts_as_round(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT,
            "I cannot help with that.",
            "count fixes it.\n\n" + GOOD_PLAN,
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, PipelineConfig(mct=3, sc_n=1),
        )
        assert trace.status == "solved_after_n"
        assert trace.n == 2
        first = trace.rounds[0]
        assert first.outcome_after.error is not None
        assert first.outcome_after.error.kind is ErrorKind.NON_STANDARD_EXPRESSION
        assert _chain_ok(trace)

    def test_strict_empty_none_answer_is_designed_false_negative(
        self, toy_graph
    ):
        # a correct plan whose true answer is empty keeps tripping the empty
        # check under strict mode and exhausts the round budget
        empty_plan = (
            "query1 = get_information(relation='Hometown', tail_entity='Utah')"
        )
        client = ordered_client(
            empty_plan, "a\n\n" + empty_plan, "b\n\n" + empty_plan,
            "c\n\n" + empty_plan,
        )
        question = Question(id="q", text="Who is from Utah?", gold_answer=[])
        trace = run_correction(
            question, schema_summary(toy_graph), toy_graph, client,
            PipelineConfig(mct=3, sc_n=1, strict_empty=True),
        )
        assert trace.status == "failed_mct"

    def test_loop_bound_property(self, toy_graph):
        for mct in (0, 1, 2, 3):
            replies = [WRONG_SUBTRACT] + ["x\n\n" + WRONG_SUBTRACT] * mct
            trace = run_correction(
                make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
                ordered_client(*replies), PipelineConfig(mct=mct, sc_n=1),
            )
            assert len(trace.rounds) <= mct
            assert trace.n == mct

    def test_trace_json_round_trip(self, toy_graph):
        client = ordered_client(
            WRONG_SUBTRACT, "analysis here.\n\n" + GOOD_PLAN
        )
        trace = run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, PipelineConfig(mct=3, sc_n=1),
        )
        back = CorrectionTrace.from_dict(trace.to_dict())
        assert back.to_dict() == trace.to_dict()

    def test_keyed_script_drives_loop(self, toy_graph):
        schema = schema_summary(toy_graph)
        schema_text = render_schema(schema)
        pq = build_query_prompt(QUESTION, schema_text)
        err = assess(WRONG_SUBTRACT, toy_graph).error
        pc = build_correction_prompt(
            QUESTION, schema_text, WRONG_SUBTRACT, err.message
        )
        client = ScriptedChatClient(
            [
                {"key": request_digest(pq), "reply": WRONG_SUBTRACT},
                {"key": request_digest(pc),
                 "reply": "use count.\n\n" + GOOD_PLAN},
            ]
        )
        trace = run_correction(
            make_question(gold=[1]), schema, toy_graph, client,
            PipelineConfig(mct=3, sc_n=1)
        )
        assert trace.status == "solved_after_n"
        assert trace.n == 1


class TestHistoryMode:
    def test_default_prompt_carries_only_latest_attempt(self, toy_graph):
        client = RecordingClient([
            WRONG_SUBTRACT,
            "x.\n\nquery1 = tally(set=output_of_query1)",
            "y.\n\n" + GOOD_PLAN,
        ])
        run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, PipelineConfig(mct=3, sc_n=1),
        )
        round2_prompt = client.prompts[2][1].content
        assert "tally" in round2_prompt
        assert WRONG_SUBTRACT not in round2_prompt

    def test_full_history_shows_earlier_attempts(self, toy_graph):
        client = RecordingClient([
            WRONG_SUBTRACT,
            "x.\n\nquery1 = tally(set=output_of_query1)",
            "y.\n\n" + GOOD_PLAN,
        ])
        run_correction(
            make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
            client, PipelineConfig(mct=3, sc_n=1, full_history=True),
        )
        round2_prompt = client.prompts[2][1].content
        assert "Earlier attempt 1:" in round2_prompt
        assert WRONG_SUBTRACT in round2_prompt


class RecordingClient:
    """Ordered scripted replies that also remember every prompt seen."""

    def __init__(self, replies):
        self._client = ordered_client(*replies)
        self.prompts = []

    def complete(self, messages):
        self.prompts.append(list(messages))
        return self._client.complete(messages)


class TestBackendSubstitutability:
    def test_http_backend_drives_the_loop(self, toy_graph):
        # the loop only sees complete(); an HTTP-backed client slots in
        # wherever the scripted one does
        import json as _json
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        from cgqa.llm import ClientConfig, HttpChatClient

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = _json.dumps(
                    {"choices": [{"message": {"content": GOOD_PLAN}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = HttpChatClient(ClientConfig(
                backend="http",
                endpoint=f"http://127.0.0.1:{server.server_port}/v1",
                retry_backoff=0.0,
            ))
            trace = run_correction(
                make_question(gold=[1]), schema_summary(toy_graph), toy_graph,
                client, PipelineConfig(mct=3, sc_n=1),
            )
            assert trace.status == "solved_direct"
        finally:
            server.shutdown()
            server.server_close()


class TestAnswersMatch:
    def test_denotation_set_equality(self):
        assert answers_match({"Alice"}, ["alice"])
        assert answers_match({20}, ["20"])
        assert answers_match({20.0000000001}, [20], mode="denotation")
        assert not answers_match({"Alice", "Bob"}, ["Alice"])
        assert not answers_match({"Alice"}, ["Bob"])

    @pytest.mark.parametrize("answer, gold", [
        ([10], ["1e1"]), ([0.5], [".5"]), ([7], ["+7"]),
        (["9" * 400], ["9" * 400])],
        ids=["exponent", "leading_point", "plus_sign", "past_float_range"])
    def test_a_gold_numeral_is_read_as_value_key_reads_it(self, answer, gold):
        # '9' * 400 is a numeral no float holds: text on both sides
        assert value_key(answer[0]) == value_key(gold[0])
        assert answers_match(answer, gold)

    def test_hits_at_one(self):
        assert answers_match({"b", "a"}, ["a"], mode="hits1")
        assert not answers_match({"b", "a"}, ["b"], mode="hits1")
        assert answers_match({5, "zz"}, ["5"], mode="hits1")
        assert not answers_match(set(), ["a"], mode="hits1")

    def test_punctuation_and_case(self):
        assert answers_match({"New York!"}, ["new york"])

    def test_an_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="^mode must be one of "
                                             "denotation, hits1, not 'bogus'$"):
            answers_match({"a"}, ["a"], mode="bogus")


def _old_normalize_answer_value(value):
    """The answer key as it was before it read value_key: its own numeral
    branch, read_numeral and then the float of the text."""
    if isinstance(value, bool):
        return ("t", str(value).casefold())
    if isinstance(value, (int, float)):
        return ("n", float(value))
    text = str(value).strip()
    if (number := read_numeral(text)) is not None and math.isfinite(number):
        return ("n", float(text))
    folded = text.casefold()
    if folded.isalnum():
        return ("t", folded)
    return ("t", " ".join(re.sub(r"[^\w\s.-]|_", " ", folded).split()))


_NUMERAL_TEXTS = st.builds(
    lambda sign, body, pad: pad + sign + body + pad,
    st.sampled_from(["", "+", "-"]),
    st.from_regex(r"\d*(\.\d*)?([eE][+-]?\d{1,3})?", fullmatch=True)
    | st.integers(10 ** 299, 10 ** 400).map(str),
    st.sampled_from(["", " ", "\t"]))
_GOLD_VALUES = st.one_of(
    st.sampled_from(["07", "+7", "-0", ".5", "1e999", "-1e999", "٧",
                     "9" * 400, "New York!", "a_b", "x.y-z", "İ",
                     "ß", "", " "]),
    _NUMERAL_TEXTS, st.text(), st.booleans(), st.integers(), st.floats())


@settings(max_examples=500, deadline=None)
@given(value=_GOLD_VALUES)
def test_an_answer_key_reads_value_key_as_the_old_numeral_branch_did(value):
    got = normalize_answer_value(value)
    want = _old_normalize_answer_value(value)
    assert (got[0], type(got[1]), repr(got[1])) == (
        want[0], type(want[1]), repr(want[1]))


class TestLoopSettingsAreChecked:
    @pytest.mark.parametrize("setting, message", [
        ({"metric": "bogus"},
         "metric must be one of denotation, hits1, not 'bogus'"),
        ({"metric": "denotation_accuracy"},
         "metric must be one of denotation, hits1, not "
         "'denotation_accuracy'"),
        ({"author": "bogus"},
         "author must be one of teacher, student, not 'bogus'"),
    ])
    def test_an_unknown_choice_is_refused(self, setting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**setting)

    @pytest.mark.parametrize("setting, message", [
        ({"sc_n": 2.5}, "self-consistency must be an integer, not 2.5"),
        ({"jobs": 1.5}, "jobs must be an integer, not 1.5"),
        ({"mct": True}, "mct must be an integer, not True"),
        ({"sc_n": True}, "self-consistency must be an integer, not True"),
        ({"demos": 8.0}, "demos must be an integer, not 8.0"),
        ({"retrieves": "15"}, "retrieves must be an integer, not '15'"),
    ])
    def test_a_loop_integer_of_another_type_is_refused(self, setting,
                                                       message):
        # a float once failed later as a TypeError, and True ran as 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**setting)
