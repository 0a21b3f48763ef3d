"""Language-model graph elicitation over a pluggable backend.

Two strategies: pairwise yes/no edge prompting, and a single whole-graph
prompt whose free-text reply is parsed into an adjacency draft.  A
refinement loop appends corrected drafts (V1, V2, ...) to an append-only
transcript.  The replay backend makes every elicitation reproducible from a
recorded transcript file.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import time
from dataclasses import dataclass, replace

from .errors import (
    BackendError,
    CycleError,
    CyclicDraft,
    ReplayMiss,
    SchemaMismatch,
    VariableAliasUnknown,
)
from .graph import Dag, VariableScheme
from .nsclc import DISPLAY_NAMES, SYMPTOMS, VARIABLE_ALIASES


class ReplayBackend:
    """Deterministic backend answering from a recorded prompt -> completion map."""

    def __init__(self, exchanges: dict[str, str]):
        self._exchanges = dict(exchanges)

    @classmethod
    def parse_jsonl(cls, text: str) -> "ReplayBackend":
        """Backend from JSON lines of {"prompt": ..., "completion": ...}."""
        exchanges = {}
        for number, line in enumerate(text.split("\n"), 1):
            if line.strip():
                try:
                    record = json.loads(line)
                    exchanges[record["prompt"]] = record["completion"]
                except (ValueError, KeyError, TypeError):
                    raise SchemaMismatch(
                        f"line {number}: not a JSON object with prompt and completion"
                    ) from None
        return cls(exchanges)

    def send(self, prompt: str) -> str:
        try:
            return self._exchanges[prompt]
        except KeyError:
            raise ReplayMiss(f"no recorded completion for prompt: {prompt!r}") from None


class HttpBackend:
    """Chat-completion endpoint client; every exchange is recorded to a
    JSON-lines transcript so runs can be replayed.

    A failed connection, a timeout, 429 and 5xx are retried with doubling
    delays; any other status and a body without a completion raise
    BackendError.
    """

    TIMEOUT_S = 60.0
    MAX_RETRIES = 3

    def __init__(self, url: str, model: str, transcript_path=None):
        self.url = url
        self.model = model
        self.transcript_path = transcript_path
        self.api_key = os.environ.get("LLM_API_KEY", "")

    def send(self, prompt: str) -> str:
        import requests

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        delay = 1.0
        for attempt in range(self.MAX_RETRIES + 1):
            try:
                response = requests.post(
                    self.url, json=payload, headers=headers, timeout=self.TIMEOUT_S
                )
            except requests.RequestException as exc:
                failure = f"request failed: {exc}"
            else:
                if response.status_code == 200:
                    break
                if response.status_code != 429 and response.status_code < 500:
                    raise BackendError(f"backend returned {response.status_code}")
                failure = f"backend returned {response.status_code}"
            if attempt == self.MAX_RETRIES:
                raise BackendError(f"{failure} after retries")
            time.sleep(delay)
            delay *= 2
        try:
            completion = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion body ({exc!r})") from None
        if not isinstance(completion, str):
            raise BackendError("malformed completion body (content is not text)")
        if self.transcript_path:
            with open(self.transcript_path, "a", encoding="utf-8") as fh:
                fh.write(transcript_line(prompt, completion, time.time()))
        return completion


def transcript_line(prompt: str, completion: str, t: float) -> str:
    """One exchange at time t as a JSON line, the form parse_jsonl reads."""
    return json.dumps({"prompt": prompt, "completion": completion, "time": t}) + "\n"


@dataclass(frozen=True)
class EdgeVerdict:
    cause: str
    effect: str
    verdict: str  # yes | no | uncertain
    completion: str
    matched: str | None = None


@dataclass(frozen=True)
class ElicitationTranscript:
    exchanges: tuple[tuple[str, str, float], ...] = ()
    drafts: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = ()
    diffs: tuple[dict, ...] = ()

    def with_exchange(self, prompt, completion):
        return replace(
            self, exchanges=self.exchanges + ((prompt, completion, time.time()),)
        )

    def with_draft(self, edges, diff=None):
        label = f"V{len(self.drafts) + 1}"
        draft = (label, tuple(sorted(edges)))
        return replace(
            self,
            drafts=self.drafts + (draft,),
            diffs=self.diffs + (diff or {},),
        )

    @property
    def latest_draft(self):
        return self.drafts[-1] if self.drafts else None

    def to_jsonl(self) -> str:
        return "".join(itertools.starmap(transcript_line, self.exchanges))


def render_pairwise_prompt(cause: str, effect: str) -> str:
    if cause == effect:
        raise ValueError("cause and effect must differ")
    cause_name = DISPLAY_NAMES.get(cause, cause)
    effect_name = DISPLAY_NAMES.get(effect, effect)
    return f"Does {cause_name} effect {effect_name} in NSCLC"


def pairwise_prompts(scheme: VariableScheme):
    """(cause, effect, prompt) triples asking each unordered pair once, in
    scheme order (n(n-1)/2 prompts)."""
    return [
        (cause, effect, render_pairwise_prompt(cause, effect))
        for cause, effect in itertools.combinations(scheme.names, 2)
    ]


_NEGATION_PATTERNS = (
    "do not have a direct cause",
    "does not directly cause",
    "no direct",
)
_AFFIRMATION_PATTERNS = (
    "can have an impact on",
    "can have a significant impact",
    "varying impacts on",
)


def parse_verdict(completion: str, cause: str, effect: str) -> EdgeVerdict:
    """Rule cascade over the completion text; first matching rule wins."""
    lowered = completion.lower()
    if lowered.startswith("yes,") or lowered.startswith("yes "):
        return EdgeVerdict(cause, effect, "yes", completion, completion[:4])
    for verdict, patterns in ("no", _NEGATION_PATTERNS), ("yes", _AFFIRMATION_PATTERNS):
        for pattern in patterns:
            pos = lowered.find(pattern)
            if pos >= 0:
                matched = completion[pos : pos + len(pattern)]
                return EdgeVerdict(cause, effect, verdict, completion, matched)
    return EdgeVerdict(cause, effect, "uncertain", completion, None)


def render_single_prompt(scheme: VariableScheme) -> str:
    return (
        "Generate me a cause effect adjacency matrix for these nodes "
        + ", ".join(scheme.names)
        + " mutation doesn't cause symptoms."
    )


def render_refine_prompt(correction: str, edges, scheme: VariableScheme) -> str:
    """A correction turn's prompt: the correction, then the current edges."""
    edge_text = "; ".join(f"{scheme.names[u]} -> {scheme.names[v]}" for u, v in edges)
    return f"{correction}\nCurrent edges: {edge_text}"


_MARKERS = (
    (re.compile(r"can\s+(?:also\s+)?affect(?:\s+the)?", re.I), "affect", False),
    (re.compile(r"can\s+lead\s+to", re.I), "affect", False),
    (re.compile(r"can\s+(?:also\s+)?indicate(?:\s+the)?", re.I), "affect", False),
    (re.compile(r"do(?:es)?\s+not\s+cause", re.I), "suppress", False),
    (re.compile(r"which\s+in\s+turn\s+influences", re.I), "affect", True),
    (re.compile(r"(?<!turn )influences", re.I), "affect", False),
)

_IGNORED_TOKENS = {"NSCLC"}


def _find_variables(sentence: str, scheme: VariableScheme):
    """(position, names) occurrences of scheme variables and their aliases."""
    alias_map = {name: (name,) for name in scheme.names}
    for alias, target in VARIABLE_ALIASES.items():
        if target in scheme.names:
            alias_map[alias] = (target,)
    if all(s in scheme.names for s in SYMPTOMS):
        alias_map["SYMPTOMS"] = SYMPTOMS
    hits = []
    for alias in sorted(alias_map, key=len, reverse=True):
        for match in re.finditer(re.escape(alias), sentence, re.I):
            span = (match.start(), match.end())
            if any(s < span[1] and span[0] < e for s, e, _ in hits):
                continue  # already claimed by a longer alias
            hits.append((span[0], span[1], alias_map[alias]))
    # Uppercase tokens that look like variable names but match nothing.
    for match in re.finditer(r"\b[A-Z][A-Z0-9_]{2,}\b", sentence):
        if match.group(0) in _IGNORED_TOKENS:
            continue
        span = (match.start(), match.end())
        if not any(s <= span[0] and span[1] <= e for s, e, _ in hits):
            raise VariableAliasUnknown(
                f"unrecognized variable name {match.group(0)!r}"
            )
    return sorted(hits)


def parse_adjacency_response(completion: str, scheme: VariableScheme):
    """Extract directed edges from a prose adjacency description.

    Recognizes "{A} can affect the {B} and {C}", "can lead to", "can
    indicate", "which in turn influences", and "{list} do not cause {B}"
    (an edge suppression).  Sentences matching no pattern are reported, not
    guessed.  Returns (Dag, unparsed sentence list); raises CyclicDraft
    when the stated edges contain a cycle.
    """
    sentences = [s.strip() for s in re.split(r"(?<=\.)\s+|\n", completion) if s.strip()]
    added: set[tuple[int, int]] = set()
    suppressed: set[tuple[int, int]] = set()
    unparsed: list[str] = []
    for sentence in sentences:
        markers = []
        for pattern, kind, anchored in _MARKERS:
            for match in pattern.finditer(sentence):
                if any(m[0] <= match.start() < m[1] for m in markers):
                    continue
                markers.append((match.start(), match.end(), kind, anchored))
        markers.sort()
        if not markers:
            unparsed.append(sentence)
            continue
        variables = _find_variables(sentence, scheme)
        subjects = [
            name
            for start, end, names in variables
            if end <= markers[0][0]
            for name in names
        ]
        got_edge = False
        for k, (start, end, kind, anchored) in enumerate(markers):
            limit = markers[k + 1][0] if k + 1 < len(markers) else len(sentence)
            objects = [
                name
                for vstart, vend, names in variables
                if start < vstart and vend <= limit
                for name in names
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
        return Dag(scheme, frozenset(edges)), unparsed
    except CycleError:
        raise CyclicDraft(
            "parsed draft contains a directed cycle",
            edges=sorted((scheme.names[u], scheme.names[v]) for u, v in edges),
        ) from None


def _edge_diff(old, new) -> dict:
    old, new = set(old), set(new)
    return {
        "added": sorted(new - old),
        "removed": sorted(old - new),
    }


def refine(
    session: ElicitationTranscript,
    correction: str,
    backend,
    scheme: VariableScheme,
) -> ElicitationTranscript:
    """One correction turn: prompt with the latest draft's edges as context,
    parse the reply into the next draft, record the edge diff.

    On a cyclic or unparseable reply the session is returned unchanged past
    its last valid draft (the exception propagates)."""
    if session.latest_draft is None:
        raise ValueError("refine needs a session with at least one draft")
    _, current_edges = session.latest_draft
    prompt = render_refine_prompt(correction, current_edges, scheme)
    completion = backend.send(prompt)
    dag, _ = parse_adjacency_response(completion, scheme)
    diff = _edge_diff(current_edges, dag.edges)
    return session.with_exchange(prompt, completion).with_draft(dag.edges, diff)


def elicit_graph(strategy: str, scheme: VariableScheme, backend):
    """Run one elicitation session; returns (Dag, ElicitationTranscript)."""
    transcript = ElicitationTranscript()
    if strategy == "pairwise":
        dag = Dag(scheme)
        for cause, effect, prompt in pairwise_prompts(scheme):
            try:
                completion = backend.send(prompt)
            except ReplayMiss:
                # The recorded session may have asked this pair reversed.
                cause, effect = effect, cause
                prompt = render_pairwise_prompt(cause, effect)
                completion = backend.send(prompt)
            transcript = transcript.with_exchange(prompt, completion)
            verdict = parse_verdict(completion, cause, effect)
            if verdict.verdict == "yes":
                try:
                    dag = dag.add(cause, effect)
                except CycleError:
                    pass  # skipped; the draft stays acyclic
        transcript = transcript.with_draft(dag.edges)
        return dag, transcript
    if strategy == "single":
        prompt = render_single_prompt(scheme)
        completion = backend.send(prompt)
        transcript = transcript.with_exchange(prompt, completion)
        dag, _ = parse_adjacency_response(completion, scheme)
        return dag, transcript.with_draft(dag.edges)
    raise ValueError(f"unknown strategy {strategy!r}")
