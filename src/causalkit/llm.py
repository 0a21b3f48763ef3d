"""Language-model graph elicitation over a pluggable backend.

Two strategies: pairwise yes/no edge prompting, and a single whole-graph
prompt whose free-text reply is parsed into an adjacency draft.  A
refinement loop appends corrected drafts (V1, V2, ...) to an append-only
transcript.  The replay backend makes every elicitation reproducible from a
recorded transcript file.
"""

from __future__ import annotations

import errno
import functools
import itertools
import json
import logging
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
from .graph import Dag, VariableScheme, reaches
from .nsclc import DISPLAY_NAMES, SYMPTOMS, VARIABLE_ALIASES

log = logging.getLogger(__name__)


class ReplayBackend:
    """Deterministic backend answering from a recorded prompt -> completion map."""

    def __init__(self, exchanges: dict[str, str]):
        self._exchanges = dict(exchanges)

    @classmethod
    def parse_jsonl(cls, text: str) -> "ReplayBackend":
        """Backend from JSON lines of {"prompt": ..., "completion": ...} strings.

        A prompt may repeat only with the same completion, since a replay
        can give it just one.
        """
        exchanges, first_line = {}, {}
        for number, line in enumerate(text.split("\n"), 1):
            if line.strip():
                try:
                    record = json.loads(line)
                    prompt, completion = record["prompt"], record["completion"]
                    if not (isinstance(prompt, str) and isinstance(completion, str)):
                        raise TypeError
                except (ValueError, KeyError, TypeError):
                    raise SchemaMismatch(
                        f"line {number}: not a JSON object with prompt and "
                        "completion strings"
                    ) from None
                if exchanges.setdefault(prompt, completion) != completion:
                    raise SchemaMismatch(
                        f"lines {first_line[prompt]} and {number}: one prompt "
                        "with two different completions"
                    )
                first_line.setdefault(prompt, number)
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
        if transcript_path:
            _check_appendable(transcript_path)

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


def _check_appendable(path):
    """Raise BackendError, naming path, if an append to it would fail: before
    any request is sent, and without creating the file."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_APPEND))
        return
    except FileNotFoundError as exc:  # made by the first append, if it can be
        parent = os.path.dirname(path) or "."
        if os.access(parent, os.W_OK):
            return
        reason = os.strerror(errno.EACCES) if os.path.isdir(parent) else exc.strerror
    except OSError as exc:
        reason = exc.strerror
    raise BackendError(f"{path}: {reason}")


def transcript_line(prompt: str, completion: str, t: float) -> str:
    """One exchange at time t as a JSON line, the form parse_jsonl reads."""
    return json.dumps({"prompt": prompt, "completion": completion, "time": t}) + "\n"


@dataclass(frozen=True)
class ElicitationTranscript:
    exchanges: tuple[tuple[str, str, float], ...] = ()
    drafts: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = ()

    def with_exchange(self, prompt, completion):
        return replace(
            self, exchanges=self.exchanges + ((prompt, completion, time.time()),)
        )

    def with_draft(self, edges):
        label = f"V{len(self.drafts) + 1}"
        draft = (label, tuple(sorted(edges)))
        return replace(self, drafts=self.drafts + (draft,))

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


def parse_verdict(completion: str) -> str:
    """The verdict "yes", "no" or "uncertain" by a rule cascade over the text:
    "yes" as its first word in any case, then the negations, then the
    affirmations."""
    lowered = completion.lower()
    if re.match(r"\s*yes\b", lowered):
        return "yes"
    for verdict, patterns in ("no", _NEGATION_PATTERNS), ("yes", _AFFIRMATION_PATTERNS):
        if any(pattern in lowered for pattern in patterns):
            return verdict
    return "uncertain"


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


# One alternation: finditer claims markers leftmost first, none inside another.
_MARKERS = re.compile(
    r"(?P<chain>which\s+in\s+turn\s+influences)"
    r"|(?P<suppress>do(?:es)?\s+not\s+cause)"
    r"|(?P<affect>can\s+(?:also\s+)?(?:affect|indicate)(?:\s+the)?"
    r"|can\s+lead\s+to|influences)",
    re.I,
)

_IGNORED_TOKENS = {"NSCLC"}


@functools.lru_cache(maxsize=8)
def _alias_scan(scheme: VariableScheme):
    """One case-insensitive alternation of the scheme's names and aliases,
    longest first, each a whole word and its own group, then a last group for
    any uppercase word; and the names each alias group stands for."""
    alias_map = {name: (name,) for name in scheme.names}
    for alias, target in VARIABLE_ALIASES.items():
        if target in scheme.names:
            alias_map[alias] = (target,)
    if all(s in scheme.names for s in SYMPTOMS):
        alias_map["SYMPTOMS"] = SYMPTOMS
    aliases = sorted(alias_map, key=len, reverse=True)
    # Not \b: a scheme name may start or end with a non-word character.
    alternation = "|".join(f"({re.escape(alias)})" for alias in aliases) or "(?!)"
    pattern = re.compile(
        rf"(?<!\w)(?:{alternation})(?!\w)|\b((?-i:[A-Z][A-Z0-9_]{{2,}}))\b", re.I
    )
    return pattern, [alias_map[alias] for alias in aliases]


def _find_variables(sentence: str, scheme: VariableScheme):
    """(position, names) occurrences of scheme variables and their aliases,
    each matched as a whole word, in one left-to-right scan in which the
    longest alias that matches at a position wins.  An uppercase word that no
    alias match holds (none starts or ends inside a word) raises, unless ignored."""
    pattern, targets = _alias_scan(scheme)
    hits = []
    for match in pattern.finditer(sentence):
        if match.lastindex <= len(targets):
            hits.append((match.start(), match.end(), targets[match.lastindex - 1]))
        elif match.group(0) not in _IGNORED_TOKENS:
            raise VariableAliasUnknown(f"unrecognized variable name {match.group(0)!r}")
    return hits


def parse_adjacency_response(completion: str, scheme: VariableScheme):
    """Extract directed edges from a prose adjacency description.

    Recognizes "{A} can affect the {B} and {C}", "can lead to", "can
    indicate", "which in turn influences", and "{list} do not cause {B}"
    (an edge suppression).  Sentences matching no pattern are reported, not
    guessed.  Returns (Dag, unparsed sentence list); raises CyclicDraft
    when the stated edges contain a cycle.
    """
    sentences = [s.strip() for s in re.split(r"(?<=\.)\s+|\n", completion) if s.strip()]
    added: set[tuple[str, str]] = set()
    suppressed: set[tuple[str, str]] = set()
    unparsed: list[str] = []
    for sentence in sentences:
        markers = list(_MARKERS.finditer(sentence))
        if not markers:
            unparsed.append(sentence)
            continue
        variables = _find_variables(sentence, scheme)
        subjects = [
            name
            for start, end, names in variables
            if end <= markers[0].start()
            for name in names
        ]
        got_edge = False
        for k, marker in enumerate(markers):
            start, kind = marker.start(), marker.lastgroup
            limit = markers[k + 1].start() if k + 1 < len(markers) else len(sentence)
            objects = [
                name
                for vstart, vend, names in variables
                if start < vstart and vend <= limit
                for name in names
            ]
            if kind == "chain":
                before = [v for v in variables if v[1] <= start]
                sources = list(before[-1][2]) if before else subjects
            else:
                sources = subjects
            target = suppressed if kind == "suppress" else added
            for src in sources:
                for dst in objects:
                    if src != dst:
                        target.add((src, dst))
                        got_edge = True
        if not got_edge:
            unparsed.append(sentence)

    edges = added - suppressed
    try:
        return Dag(scheme, edges), unparsed
    except CycleError:
        raise CyclicDraft(
            "parsed draft contains a directed cycle", edges=sorted(edges)
        ) from None


def refine(
    session: ElicitationTranscript,
    correction: str,
    backend,
    scheme: VariableScheme,
) -> ElicitationTranscript:
    """One correction turn: prompt with the latest draft's edges as context,
    parse the reply into the next draft.

    On a cyclic or unparseable reply the session is returned unchanged past
    its last valid draft (the exception propagates)."""
    if not session.drafts:
        raise ValueError("refine needs a session with at least one draft")
    _, current_edges = session.drafts[-1]
    prompt = render_refine_prompt(correction, current_edges, scheme)
    completion = backend.send(prompt)
    dag, _ = parse_adjacency_response(completion, scheme)
    return session.with_exchange(prompt, completion).with_draft(dag.edges)


def elicit_graph(strategy: str, scheme: VariableScheme, backend):
    """Run one elicitation session; returns (Dag, ElicitationTranscript)."""
    transcript = ElicitationTranscript()
    if strategy == "pairwise":
        edges: set[tuple[int, int]] = set()
        for cause, effect, prompt in pairwise_prompts(scheme):
            try:
                completion = backend.send(prompt)
            except ReplayMiss:
                # The recorded session may have asked this pair reversed.
                cause, effect = effect, cause
                prompt = render_pairwise_prompt(cause, effect)
                completion = backend.send(prompt)
            transcript = transcript.with_exchange(prompt, completion)
            u, v = scheme.index(cause), scheme.index(effect)
            if parse_verdict(completion) != "yes":
                continue
            if reaches(edges, v, u):  # skipped, so the draft stays acyclic
                log.warning(
                    "pairwise yes %s -> %s would close a directed cycle; skipped",
                    cause, effect,
                )
            else:
                edges.add((u, v))
        return Dag(scheme, frozenset(edges)), transcript.with_draft(edges)
    if strategy == "single":
        prompt = render_single_prompt(scheme)
        completion = backend.send(prompt)
        transcript = transcript.with_exchange(prompt, completion)
        dag, _ = parse_adjacency_response(completion, scheme)
        return dag, transcript.with_draft(dag.edges)
    raise ValueError(f"unknown strategy {strategy!r}")
