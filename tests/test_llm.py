import io
import json
import random
import re

import pytest
import requests

from causalkit import fixtures, llm, nsclc
from causalkit.cli import dispatch
from causalkit.errors import (
    BackendError,
    CycleError,
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
        assert parse_verdict(completion) == expected

    def test_leading_yes(self):
        assert parse_verdict("Yes, it does.") == "yes"
        assert parse_verdict("Yes it can.") == "yes"

    def test_negation_beats_later_affirmation(self):
        text = "They do not have a direct cause, though age can have an impact on it."
        assert parse_verdict(text) == "no"

    def test_uncertain_fallback(self):
        assert parse_verdict("It is hard to say.") == "uncertain"


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

    def test_overlapping_markers_count_once(self):
        # The lone "influences" also matches inside the chain marker, which
        # comes first in _MARKERS and so claims the span.
        text = "CHESTPAIN can indicate the STAGEGROUP, which in turn  influences the TREATMENTPLAN."
        dag, unparsed = parse_adjacency_response(text, SCHEME)
        chest, stage, plan = map(
            SCHEME.index, ("CHESTPAIN", "STAGEGROUP", "TREATMENTPLAN")
        )
        assert dag.edges == {(chest, stage), (stage, plan)}
        assert unparsed == []

    def test_turn_without_which_is_a_lone_marker(self):
        dag, unparsed = parse_adjacency_response(
            "SMOKING in turn influences the AGE.", SCHEME
        )
        assert dag.edges == {(SCHEME.index("SMOKING"), SCHEME.index("AGE"))}
        assert unparsed == []

    @pytest.mark.parametrize(
        "text,edges",
        [
            ("SMOKING can affect the stage of the disease.", set()),
            (
                "SMOKING can affect the average SURVIVALMONTHS.",
                {("SMOKING", "SURVIVALMONTHS")},
            ),
            ("SMOKING can affect metastasis.", set()),
            ("SMOKING can affect the interpretation of AGE.", {("SMOKING", "AGE")}),
        ],
        ids=["stage", "average", "metastasis", "interpretation"],
    )
    def test_aliases_match_whole_words_only(self, text, edges):
        dag, _ = parse_adjacency_response(text, SCHEME)
        assert {(SCHEME.names[u], SCHEME.names[v]) for u, v in dag.edges} == edges

    def test_name_with_non_word_ends_matches(self):
        scheme = VariableScheme.of([("SMOKING", ("a", "b")), ("+STAGE+", ("a", "b"))])
        dag, _ = parse_adjacency_response("SMOKING can affect the +stage+.", scheme)
        assert dag.edges == {(0, 1)}

    def test_longest_alias_claims_its_span(self):
        # "chest pain" (CHESTPAIN's alias) contains the name PAIN.
        scheme = VariableScheme.of(
            [(name, ("a", "b")) for name in ("SMOKING", "CHESTPAIN", "PAIN")]
        )
        dag, _ = parse_adjacency_response("SMOKING can affect the chest pain.", scheme)
        assert dag.edges == {(0, 1)}


# The six patterns and the overlap filter that llm._MARKERS replaced, and the
# parse loop that read them: the reference for the one-alternation scan.
REFERENCE_MARKERS = (
    (re.compile(r"can\s+(?:also\s+)?affect(?:\s+the)?", re.I), "affect", False),
    (re.compile(r"can\s+lead\s+to", re.I), "affect", False),
    (re.compile(r"can\s+(?:also\s+)?indicate(?:\s+the)?", re.I), "affect", False),
    (re.compile(r"do(?:es)?\s+not\s+cause", re.I), "suppress", False),
    (re.compile(r"which\s+in\s+turn\s+influences", re.I), "affect", True),
    (re.compile(r"influences", re.I), "affect", False),
)


def reference_markers(sentence):
    """(start, end, kind, anchored): each pattern's matches in list order, less
    those that start inside a marker already kept, sorted by position."""
    markers = []
    for pattern, kind, anchored in REFERENCE_MARKERS:
        for match in pattern.finditer(sentence):
            if any(m[0] <= match.start() < m[1] for m in markers):
                continue
            markers.append((match.start(), match.end(), kind, anchored))
    return sorted(markers)


def reference_parse(completion, scheme):
    """(edges, unparsed) read through the reference markers."""
    sentences = [s.strip() for s in re.split(r"(?<=\.)\s+|\n", completion) if s.strip()]
    added, suppressed, unparsed = set(), set(), []
    for sentence in sentences:
        markers = reference_markers(sentence)
        if not markers:
            unparsed.append(sentence)
            continue
        variables = llm._find_variables(sentence, scheme)
        subjects = [
            name for start, end, names in variables if end <= markers[0][0]
            for name in names
        ]
        got_edge = False
        for k, (start, end, kind, anchored) in enumerate(markers):
            limit = markers[k + 1][0] if k + 1 < len(markers) else len(sentence)
            objects = [
                name for vstart, vend, names in variables
                if start < vstart and vend <= limit for name in names
            ]
            if anchored:
                before = [v for v in variables if v[1] <= start]
                sources = list(before[-1][2]) if before else subjects
            else:
                sources = subjects
            target = suppressed if kind == "suppress" else added
            for src in sources:
                for dst in objects:
                    if src != dst:
                        target.add((scheme.index(src), scheme.index(dst)))
                        got_edge = True
        if not got_edge:
            unparsed.append(sentence)
    edges = added - suppressed
    try:
        Dag(scheme, frozenset(edges))
    except CycleError:
        raise CyclicDraft(
            "parsed draft contains a directed cycle",
            edges=sorted((scheme.names[u], scheme.names[v]) for u, v in edges),
        ) from None
    return edges, unparsed


def parsed_edges(completion, scheme):
    dag, unparsed = parse_adjacency_response(completion, scheme)
    return dag.edges, unparsed


def parse_outcome(parse, text):
    """(sorted edges, unparsed sentences) of a reply, or the error it raised."""
    try:
        edges, unparsed = parse(text, SCHEME)
    except (CyclicDraft, VariableAliasUnknown) as exc:
        return type(exc), str(exc), getattr(exc, "edges", None)
    return sorted(edges), unparsed


_PHRASES = (
    "can affect the", "can also affect", "can affect", "can lead to",
    "can indicate the", "can also indicate the", "can  indicate", "do not cause",
    "does not cause", "Do\tnot cause", "which in turn influences",
    "which in turn  influences", "Which In Turn influences", "in turn influences",
    "influences", "Influences", "which in turn", "can", "can also", "affect the",
    "lead to", "not cause",
)
_FILLER = (
    "and", "the", "stage", "average", "of", "symptoms", "mutations", "NSCLC",
    "(", ")", "they", "disease", "which", "turn", "re", "BLOODTYPE",
)


def random_reply(rng: random.Random) -> str:
    """Sentences of marker phrases, scheme names, aliases and filler in any
    case, mostly apart and sometimes run together."""
    words = (
        *SCHEME.names, *SCHEME.names, *(n.lower() for n in SCHEME.names),
        *nsclc.VARIABLE_ALIASES, "SYMPTOMS", *_PHRASES, *_PHRASES, *_FILLER,
    )
    sentences = []
    for _ in range(rng.randint(1, 3)):
        parts = []
        for _ in range(rng.randint(1, 8)):
            parts += [rng.choice(words), rng.choice((" ", " ", " ", "  ", ", ", ""))]
        sentences.append("".join(parts).strip() + ".")
    return rng.choice((" ", "\n")).join(sentences)


class TestMarkerScanReference:
    def test_same_markers_and_parses_as_the_six_pattern_filter(self):
        rng = random.Random(28)
        bundled = sorted(set(fixtures.replay_backend()._exchanges.values()))
        texts = bundled + [random_reply(rng) for _ in range(10_000)]
        outcomes = []
        for text in texts:
            scanned = [(m.start(), m.end(), m.lastgroup) for m in llm._MARKERS.finditer(text)]
            assert scanned == [
                (start, end, "chain" if anchored else kind)
                for start, end, kind, anchored in reference_markers(text)
            ]
            outcome = parse_outcome(parsed_edges, text)
            assert outcome == parse_outcome(reference_parse, text), text
            outcomes.append(outcome)
        # The texts reach every branch: edges, no edge and both errors.
        kinds = {o[0] if isinstance(o[0], type) else bool(o[0]) for o in outcomes}
        assert kinds == {True, False, CyclicDraft, VariableAliasUnknown}


def reference_variables(sentence, scheme):
    """The per-alias scan that llm._find_variables replaced: each alias,
    longest first, claims its whole-word matches that overlap no claim made
    before it; then every unclaimed uppercase token is an error."""
    alias_map = {name: (name,) for name in scheme.names}
    for alias, target in nsclc.VARIABLE_ALIASES.items():
        if target in scheme.names:
            alias_map[alias] = (target,)
    if all(s in scheme.names for s in nsclc.SYMPTOMS):
        alias_map["SYMPTOMS"] = nsclc.SYMPTOMS
    hits = []
    for alias in sorted(alias_map, key=len, reverse=True):
        pattern = r"(?<!\w)" + re.escape(alias) + r"(?!\w)"
        for match in re.finditer(pattern, sentence, re.I):
            if any(s < match.end() and match.start() < e for s, e, _ in hits):
                continue
            hits.append((match.start(), match.end(), alias_map[alias]))
    for match in re.finditer(r"\b[A-Z][A-Z0-9_]{2,}\b", sentence):
        if match.group(0) != "NSCLC" and not any(
            s <= match.start() and match.end() <= e for s, e, _ in hits
        ):
            raise VariableAliasUnknown(f"unrecognized variable name {match.group(0)!r}")
    return sorted(hits)


def scan_outcome(scan, sentence, scheme):
    try:
        return scan(sentence, scheme)
    except VariableAliasUnknown as exc:
        return str(exc)


class TestVariableScanReference:
    # Names that hold one another and non-word characters, for a scheme
    # other than the bundled one.
    NESTED = VariableScheme.of(
        (name, ("a", "b"))
        for name in ("LUNG", "LUNG CANCER", "SMALL LUNG CANCER", "+X", "IL-6", "IL")
    )

    def test_same_spans_as_the_per_alias_scan(self):
        rng = random.Random(29)
        bundled = sorted(set(fixtures.replay_backend()._exchanges.values()))
        texts = bundled + [random_reply(rng) for _ in range(3_000)]
        nested_words = (*self.NESTED.names, "lung", "cancer", "small", "x", "6", "and")
        texts += [
            " ".join(rng.choice(nested_words) for _ in range(rng.randint(1, 8)))
            for _ in range(2_000)
        ]
        outcomes = set()
        for text in texts:
            for scheme in (SCHEME, self.NESTED):
                outcome = scan_outcome(llm._find_variables, text, scheme)
                assert outcome == scan_outcome(reference_variables, text, scheme), text
                outcomes.add(type(outcome))
        assert outcomes == {list, str}

    @pytest.mark.parametrize(
        "text",
        [
            "+XABC can affect the IL.",
            "ABC+X can affect the IL.",
            "IL-6_X can affect the LUNG.",
            "IL-6 can affect the RET_X.",
            "SMOKING can affect the RET_X.",
            "KRAS2 can affect the AGE.",
            "AGE can affect the KRAS2 and +X.",
            "+X can affect the IL-6 and SMALL LUNG CANCER.",
        ],
    )
    def test_words_that_touch_an_alias_match_as_the_per_alias_scan(self, text):
        # An uppercase word next to, or holding, a name with non-word ends.
        for scheme in (SCHEME, self.NESTED):
            outcome = scan_outcome(llm._find_variables, text, scheme)
            assert outcome == scan_outcome(reference_variables, text, scheme)

    def test_an_all_caps_sentence_raises_on_its_first_unknown_word(self):
        text = "AGE CAN AFFECT THE SURVIVAL."
        for scan in llm._find_variables, reference_variables:
            assert scan_outcome(scan, text, SCHEME) == "unrecognized variable name 'CAN'"

    def test_the_alternation_is_compiled_once_per_scheme(self):
        assert llm._alias_scan(SCHEME) is llm._alias_scan(SCHEME)
        assert llm._alias_scan(self.NESTED) is not llm._alias_scan(SCHEME)


class TestReplayBackend:
    def test_hit_and_miss(self):
        backend = ReplayBackend({"p": "c"})
        assert backend.send("p") == "c"
        with pytest.raises(ReplayMiss):
            backend.send("q")

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text(
            llm.transcript_line("p1", "c1", 0.0) + llm.transcript_line("p2", "c2", 0.0)
        )
        backend = ReplayBackend.parse_jsonl(path.read_text())
        assert backend.send("p1") == "c1"
        assert backend.send("p2") == "c2"

    @pytest.mark.parametrize("bad", ["[1]", '{"prompt": "q"}', "{oops"])
    def test_malformed_jsonl_line_rejected_with_its_number(self, bad):
        text = '{"prompt": "p", "completion": "c"}\n\n' + bad + "\n"
        with pytest.raises(SchemaMismatch, match="^line 3: "):
            ReplayBackend.parse_jsonl(text)

    def test_prompt_with_two_completions_rejected_naming_both_lines(self):
        text = "\n".join([
            '{"prompt": "p", "completion": "a"}',
            '{"prompt": "q", "completion": "c"}',
            '{"prompt": "p", "completion": "a"}',
            '{"prompt": "p", "completion": "b"}',
        ])
        with pytest.raises(SchemaMismatch, match="^lines 1 and 4: "):
            ReplayBackend.parse_jsonl(text)

    def test_exact_repeat_accepted(self):
        line = '{"prompt": "p", "completion": "a"}\n'
        assert ReplayBackend.parse_jsonl(line * 2).send("p") == "a"

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
    def test_pairwise_yields_recorded_yes_edges(self, caplog):
        backend = fixtures.replay_backend()
        with caplog.at_level("WARNING", logger="causalkit.llm"):
            dag, transcript = elicit_graph("pairwise", SCHEME, backend)
        assert caplog.records == []  # the recorded session skips no pair
        edges = {
            (SCHEME.names[u], SCHEME.names[v]) for u, v in dag.edges
        }
        assert edges == {
            ("AGE", "SURVIVALMONTHS"),
            ("KRAS", "SURVIVALMONTHS"),
            ("TREATMENTPLAN", "SURVIVALMONTHS"),
        }
        assert len(transcript.exchanges) == 153
        assert transcript.drafts[-1][0] == "V1"

    def test_single_yields_v1(self):
        backend = fixtures.replay_backend()
        dag, transcript = elicit_graph("single", SCHEME, backend)
        assert dag.edges == nsclc.v1_dag().edges
        assert transcript.drafts[-1][0] == "V1"

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

    def test_pairwise_yes_that_would_close_a_cycle_is_skipped(self, caplog):
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
        with caplog.at_level("WARNING", logger="causalkit.llm"):
            dag, transcript = elicit_graph("pairwise", scheme, backend)
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [(
            "causalkit.llm", "WARNING",
            "pairwise yes B -> C would close a directed cycle; skipped",
        )]
        assert dag.edges == {(0, 1), (2, 0)}
        assert [c for _, c, _ in transcript.exchanges] == ["Yes, it does."] * 3
        assert transcript.drafts[-1] == ("V1", ((0, 1), (2, 0)))

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
            for u, v in session.drafts[-1][1]
        }
        assert final == set(nsclc.v5_edges())

    def test_diffs_record_stated_changes(self):
        drafts = [
            {(SCHEME.names[u], SCHEME.names[v]) for u, v in edges}
            for _, edges in fixtures.run_refinement_session().drafts
        ]
        v1, v2, v3, v4, v5 = drafts
        assert v2 - v1 == {("AGE", "SMOKING")}
        assert ("SMOKING", "KRAS") in v3 - v2
        assert ("STAGEGROUP", "EGFR") in v3 - v2
        assert ("KRAS", "STAGEGROUP") in v2 - v3
        assert v5 - v4 == {("TREATMENTPLAN", "SURVIVALMONTHS")}

    def test_transcript_append_only(self):
        session = fixtures.run_refinement_session()
        assert len(session.exchanges) == 5  # 1 elicitation + 4 corrections
        assert isinstance(session, ElicitationTranscript)

    def test_refine_requires_draft(self):
        with pytest.raises(ValueError):
            refine(ElicitationTranscript(), "fix it", ReplayBackend({}), SCHEME)

    def test_final_draft_is_acyclic_dag(self):
        session = fixtures.run_refinement_session()
        Dag(SCHEME, frozenset(session.drafts[-1][1]))  # must not raise


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

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_transcript_fails_before_any_request(
        self, fake, tmp_path, capsys, where
    ):
        calls, _, replies = fake
        replies.append(_response(200, _completion(fixtures.SINGLE_PROMPT_RESPONSE)))
        transcript, reason = {
            "missing-directory": (tmp_path / "missing" / "t.jsonl", "No such file"),
            "a-directory": (tmp_path, "Is a directory"),
        }[where]
        argv = ["elicit", "--strategy", "single", "--backend", "http",
                "--url", "http://llm.invalid/v1", "--out-graph", str(tmp_path / "g.json"),
                "--out-transcript", str(transcript)]
        assert dispatch(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {transcript}: {reason}")
        assert calls == [] and sorted(tmp_path.iterdir()) == []

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
