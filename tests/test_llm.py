import io
import json

import pytest
import requests

from causalkit import fixtures, llm, nsclc
from causalkit.cli import dispatch
from causalkit.errors import (
    BackendError,
    CyclicDraft,
    ReplayMiss,
    SchemaMismatch,
    VariableAliasUnknown,
)
from causalkit.graph import Dag, VariableScheme
from causalkit.llm import (
    ElicitationTranscript,
    HttpBackend,
    ReplayBackend,
    elicit_graph,
    pairwise_prompts,
    parse_adjacency_response,
    parse_verdict,
    refine,
    render_pairwise_prompt,
    render_refine_prompt,
    render_single_prompt,
)

SCHEME = nsclc.SCHEME


class TestPrompts:
    def test_pairwise_prompt_uses_display_names(self):
        prompt = render_pairwise_prompt("AGE", "GENDER")
        assert prompt == "Does age effect Gender in NSCLC"
        prompt = render_pairwise_prompt("KRAS", "SURVIVALMONTHS")
        assert prompt == "Does KRAS mutation effect survival in NSCLC"

    def test_same_variable_rejected(self):
        with pytest.raises(ValueError):
            render_pairwise_prompt("AGE", "AGE")

    def test_symmetric_mode_counts(self):
        prompts = pairwise_prompts(SCHEME)
        assert len(prompts) == 18 * 17 // 2 == 153
        assert len({p for _, _, p in prompts}) == 153

    def test_single_prompt_layout(self):
        prompt = render_single_prompt(SCHEME)
        assert prompt.startswith(
            "Generate me a cause effect adjacency matrix for these nodes "
        )
        assert "AGE, SMOKING" in prompt
        assert prompt.endswith("mutation doesn't cause symptoms.")

    def test_refine_prompt_layout(self):
        prompt = render_refine_prompt("Add X.", [(0, 1), (2, 3)], SCHEME)
        assert prompt == (
            "Add X.\nCurrent edges: AGE -> SMOKING; GENDER -> SHORTNESSOFBREATH"
        )


class TestParseVerdict:
    @pytest.mark.parametrize(
        "cause,effect,completion,expected", fixtures.PAIRWISE_FIXTURES
    )
    def test_recorded_fixtures(self, cause, effect, completion, expected):
        verdict = parse_verdict(completion, cause, effect)
        assert verdict.verdict == expected
        assert verdict.cause == cause and verdict.effect == effect

    def test_leading_yes(self):
        assert parse_verdict("Yes, it does.", "A", "B").verdict == "yes"
        assert parse_verdict("Yes it can.", "A", "B").verdict == "yes"

    def test_negation_beats_later_affirmation(self):
        text = "They do not have a direct cause, though age can have an impact on it."
        assert parse_verdict(text, "A", "B").verdict == "no"

    def test_uncertain_fallback(self):
        verdict = parse_verdict("It is hard to say.", "A", "B")
        assert verdict.verdict == "uncertain"
        assert verdict.matched is None


class TestAdjacencyParser:
    def test_recorded_single_response(self):
        dag, unparsed = parse_adjacency_response(
            fixtures.SINGLE_PROMPT_RESPONSE, SCHEME
        )
        edges = {(SCHEME.names[u], SCHEME.names[v]) for u, v in dag.edges}
        assert edges == set(nsclc.v1_edges())
        assert len(edges) == 43
        # Suppression clause: no gene causes a symptom.
        assert not any(
            u in nsclc.GENES and v in nsclc.SYMPTOMS for u, v in edges
        )

    def test_alias_resolves(self):
        dag, _ = parse_adjacency_response(
            "WEIGHTLOSS can affect the SURVIVAL_MONTHS.", SCHEME
        )
        u = SCHEME.index("WEIGHTLOSS")
        v = SCHEME.index("SURVIVALMONTHS")
        assert (u, v) in dag.edges

    def test_unknown_uppercase_token_raises(self):
        with pytest.raises(VariableAliasUnknown):
            parse_adjacency_response("BLOODTYPE can affect the AGE.", SCHEME)

    def test_unparsed_sentences_reported(self):
        text = "This sentence states nothing causal. AGE can affect the STAGEGROUP."
        dag, unparsed = parse_adjacency_response(text, SCHEME)
        assert unparsed == ["This sentence states nothing causal."]
        assert len(dag.edges) == 1

    def test_cycle_raises_cyclic_draft(self):
        text = "AGE can affect the SMOKING. SMOKING can affect the AGE."
        with pytest.raises(CyclicDraft) as info:
            parse_adjacency_response(text, SCHEME)
        assert ("AGE", "SMOKING") in info.value.edges

    def test_nsclc_is_not_an_unknown_variable(self):
        text = "In NSCLC, AGE can affect the STAGEGROUP."
        dag, unparsed = parse_adjacency_response(text, SCHEME)
        assert dag.edges == {(SCHEME.index("AGE"), SCHEME.index("STAGEGROUP"))}
        assert unparsed == []

    def test_marker_sentence_without_an_edge_is_unparsed(self):
        text = "Diet can affect the outcome. AGE can affect the STAGEGROUP."
        dag, unparsed = parse_adjacency_response(text, SCHEME)
        assert unparsed == ["Diet can affect the outcome."]
        assert dag.edges == {(SCHEME.index("AGE"), SCHEME.index("STAGEGROUP"))}

    def test_chain_marker(self):
        text = "CHESTPAIN can indicate the STAGEGROUP, which in turn influences the TREATMENTPLAN."
        dag, _ = parse_adjacency_response(text, SCHEME)
        chest, stage, plan = map(
            SCHEME.index, ("CHESTPAIN", "STAGEGROUP", "TREATMENTPLAN")
        )
        assert (chest, stage) in dag.edges
        assert (stage, plan) in dag.edges
        assert (chest, plan) not in dag.edges


class TestReplayBackend:
    def test_hit_and_miss(self):
        backend = ReplayBackend({"p": "c"})
        assert backend.send("p") == "c"
        with pytest.raises(ReplayMiss):
            backend.send("q")

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        fixtures.write_replay_file(path, {"p1": "c1", "p2": "c2"})
        backend = ReplayBackend.parse_jsonl(path.read_text())
        assert backend.send("p1") == "c1"
        assert backend.send("p2") == "c2"

    @pytest.mark.parametrize("bad", ["[1]", '{"prompt": "q"}', "{oops"])
    def test_malformed_jsonl_line_rejected_with_its_number(self, bad):
        text = '{"prompt": "p", "completion": "c"}\n\n' + bad + "\n"
        with pytest.raises(SchemaMismatch, match="^line 3: "):
            ReplayBackend.parse_jsonl(text)

    def test_bundled_map_holds_exactly_the_prompts_sent(self):
        exchanges = fixtures.replay_backend()._exchanges
        _, pairwise = elicit_graph("pairwise", SCHEME, fixtures.replay_backend())
        session = fixtures.run_refinement_session()
        sent = [prompt for prompt, _, _ in pairwise.exchanges + session.exchanges]
        assert len(exchanges) == 158
        assert sorted(sent) == sorted(exchanges)

    def test_transcript_jsonl_is_replayable(self):
        backend = fixtures.replay_backend()
        _, transcript = elicit_graph("pairwise", SCHEME, backend)
        lines = transcript.to_jsonl().strip().splitlines()
        assert len(lines) == 153
        replay = ReplayBackend(
            {
                json.loads(line)["prompt"]: json.loads(line)["completion"]
                for line in lines
            }
        )
        dag2, _ = elicit_graph("pairwise", SCHEME, replay)
        dag1, _ = elicit_graph("pairwise", SCHEME, backend)
        assert dag1.edges == dag2.edges


class TestElicitation:
    def test_pairwise_yields_recorded_yes_edges(self):
        backend = fixtures.replay_backend()
        dag, transcript = elicit_graph("pairwise", SCHEME, backend)
        edges = {
            (SCHEME.names[u], SCHEME.names[v]) for u, v in dag.edges
        }
        assert edges == {
            ("AGE", "SURVIVALMONTHS"),
            ("KRAS", "SURVIVALMONTHS"),
            ("TREATMENTPLAN", "SURVIVALMONTHS"),
        }
        assert len(transcript.exchanges) == 153
        assert transcript.latest_draft[0] == "V1"

    def test_single_yields_v1(self):
        backend = fixtures.replay_backend()
        dag, transcript = elicit_graph("single", SCHEME, backend)
        assert dag.edges == nsclc.v1_dag().edges
        assert transcript.latest_draft[0] == "V1"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            elicit_graph("vote", SCHEME, ReplayBackend({}))

    def test_pairwise_falls_back_to_the_reversed_prompt(self):
        # The recorded session asked (C, B) instead of (B, C); its verdict
        # orients the edge the way that prompt asked.
        scheme = VariableScheme.of([(n, ("0", "1")) for n in "ABC"])
        backend = ReplayBackend(
            {
                render_pairwise_prompt("A", "B"): "Yes, it does.",
                render_pairwise_prompt("A", "C"): "No direct effect.",
                render_pairwise_prompt("C", "B"): "Yes, it does.",
            }
        )
        dag, transcript = elicit_graph("pairwise", scheme, backend)
        assert dag.edges == {(0, 1), (2, 1)}
        assert [p for p, _, _ in transcript.exchanges] == [
            render_pairwise_prompt("A", "B"),
            render_pairwise_prompt("A", "C"),
            render_pairwise_prompt("C", "B"),
        ]

    def test_pairwise_yes_that_would_close_a_cycle_is_skipped(self):
        # A -> B, then the reversed prompt gives C -> A, so B -> C would
        # close A -> B -> C -> A.
        scheme = VariableScheme.of([(n, ("0", "1")) for n in "ABC"])
        backend = ReplayBackend(
            {
                render_pairwise_prompt("A", "B"): "Yes, it does.",
                render_pairwise_prompt("C", "A"): "Yes, it does.",
                render_pairwise_prompt("B", "C"): "Yes, it does.",
            }
        )
        dag, transcript = elicit_graph("pairwise", scheme, backend)
        assert dag.edges == {(0, 1), (2, 0)}
        assert [c for _, c, _ in transcript.exchanges] == ["Yes, it does."] * 3
        assert transcript.latest_draft == ("V1", ((0, 1), (2, 0)))

    def test_pairwise_miss_in_both_orders_raises(self):
        scheme = VariableScheme.of([(n, ("0", "1")) for n in "AB"])
        with pytest.raises(ReplayMiss):
            elicit_graph("pairwise", scheme, ReplayBackend({}))


class TestRefinement:
    def test_full_session_drafts(self):
        session = fixtures.run_refinement_session()
        labels = [label for label, _ in session.drafts]
        assert labels == ["V1", "V2", "V3", "V4", "V5"]
        final = {
            (SCHEME.names[u], SCHEME.names[v])
            for u, v in session.latest_draft[1]
        }
        assert final == set(nsclc.v5_edges())

    def test_diffs_record_stated_changes(self):
        session = fixtures.run_refinement_session()
        name = lambda e: (SCHEME.names[e[0]], SCHEME.names[e[1]])
        v2_added = {name(e) for e in session.diffs[1]["added"]}
        assert v2_added == {("AGE", "SMOKING")}
        v3_added = {name(e) for e in session.diffs[2]["added"]}
        assert ("SMOKING", "KRAS") in v3_added
        assert ("STAGEGROUP", "EGFR") in v3_added
        v3_removed = {name(e) for e in session.diffs[2]["removed"]}
        assert ("KRAS", "STAGEGROUP") in v3_removed
        v5_added = {name(e) for e in session.diffs[4]["added"]}
        assert v5_added == {("TREATMENTPLAN", "SURVIVALMONTHS")}

    def test_transcript_append_only(self):
        session = fixtures.run_refinement_session()
        assert len(session.exchanges) == 5  # 1 elicitation + 4 corrections
        assert isinstance(session, ElicitationTranscript)

    def test_refine_requires_draft(self):
        with pytest.raises(ValueError):
            refine(ElicitationTranscript(), "fix it", ReplayBackend({}), SCHEME)

    def test_final_draft_is_acyclic_dag(self):
        session = fixtures.run_refinement_session()
        Dag(SCHEME, frozenset(session.latest_draft[1]))  # must not raise


class TestNsclcDrafts:
    def test_v1_edge_count(self):
        assert len(nsclc.v1_edges()) == 43

    def test_v5_contains_stated_additions(self):
        v5 = set(nsclc.v5_edges())
        assert ("AGE", "SMOKING") in v5
        assert ("TREATMENTPLAN", "SURVIVALMONTHS") in v5
        for gene in nsclc.GENES:
            assert ("SMOKING", gene) in v5
            assert ("STAGEGROUP", gene) in v5
            assert (gene, "STAGEGROUP") not in v5

    def test_drafts_are_dags(self):
        nsclc.v1_dag()
        nsclc.v5_dag()


def _response(status, body):
    response = requests.Response()
    response.status_code = status
    response._content = body if isinstance(body, bytes) else json.dumps(body).encode()
    return response


def _completion(text):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpBackend:
    """HttpBackend against a fake `requests.post`; no request leaves the process."""

    @pytest.fixture
    def fake(self, monkeypatch):
        calls, sleeps, replies = [], [], []

        def post(url, **kwargs):
            calls.append(kwargs)
            reply = replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(llm.time, "sleep", sleeps.append)
        return calls, sleeps, replies

    def test_completion_and_timeout(self, fake, tmp_path, monkeypatch):
        calls, sleeps, replies = fake
        replies.append(_response(200, _completion("yes")))
        transcript = tmp_path / "t.jsonl"
        monkeypatch.setenv("LLM_API_KEY", "k")
        backend = HttpBackend("http://llm.invalid/v1", "m", transcript)
        assert backend.send("p") == "yes"
        assert calls[0]["timeout"] == HttpBackend.TIMEOUT_S > 0
        assert calls[0]["headers"] == {"Authorization": "Bearer k"}
        assert calls[0]["json"]["messages"] == [{"role": "user", "content": "p"}]
        assert calls[0]["json"]["temperature"] == 0.0
        assert json.loads(transcript.read_text())["completion"] == "yes"
        assert ReplayBackend.parse_jsonl(transcript.read_text()).send("p") == "yes"
        assert sleeps == []

    def test_connection_errors_retried_then_backend_error(self, fake):
        calls, sleeps, replies = fake
        replies.extend(requests.ConnectionError("refused") for _ in range(4))
        with pytest.raises(BackendError, match="refused"):
            HttpBackend("http://llm.invalid/v1", "m").send("p")
        assert len(calls) == HttpBackend.MAX_RETRIES + 1 == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_timeout_then_success(self, fake):
        calls, sleeps, replies = fake
        replies.extend(
            [
                requests.Timeout("slow"),
                _response(503, {}),
                _response(200, _completion("no")),
            ]
        )
        assert HttpBackend("http://llm.invalid/v1", "m").send("p") == "no"
        assert sleeps == [1.0, 2.0]

    def test_client_error_not_retried(self, fake):
        calls, sleeps, replies = fake
        replies.append(_response(401, {}))
        with pytest.raises(BackendError, match="401"):
            HttpBackend("http://llm.invalid/v1", "m").send("p")
        assert len(calls) == 1 and sleeps == []

    @pytest.mark.parametrize(
        "body",
        [
            b"<html>gateway</html>",
            {},
            {"choices": []},
            {"choices": [{"message": {}}]},
            _completion(None),
            [1],
        ],
    )
    def test_malformed_body_is_backend_error(self, fake, tmp_path, body):
        _, _, replies = fake
        replies.append(_response(200, body))
        transcript = tmp_path / "t.jsonl"
        with pytest.raises(BackendError, match="malformed"):
            HttpBackend("http://llm.invalid/v1", "m", transcript).send("p")
        assert not transcript.exists()

    def test_refine_keeps_every_exchange_in_its_transcript(
        self, fake, tmp_path, monkeypatch
    ):
        # The backend appends each exchange as it is made; refine must not
        # overwrite the file from its session, which holds neither the line
        # already there nor the rejected correction's exchange.
        calls, _, replies = fake
        completions = [
            fixtures.SINGLE_PROMPT_RESPONSE,
            "AGE can affect the SMOKING. SMOKING can affect the AGE.",
            fixtures.edges_to_reply(nsclc.v1_edges() + [("AGE", "SMOKING")]),
        ]
        replies.extend(_response(200, _completion(c)) for c in completions)
        transcript = tmp_path / "t.jsonl"
        earlier = llm.transcript_line("an earlier prompt", "an earlier reply", 0.0)
        transcript.write_text(earlier)
        monkeypatch.setattr("sys.stdin", io.StringIO("one\ntwo\n:done\n"))
        argv = ["refine", "--backend", "http", "--url", "http://llm.invalid/v1",
                "--out-graph", str(tmp_path / "g.json"),
                "--out-transcript", str(transcript)]
        assert dispatch(argv) == 0
        lines = transcript.read_text().splitlines(keepends=True)
        assert len(calls) == 3 and lines[0] == earlier
        assert [json.loads(line)["completion"] for line in lines[1:]] == completions
