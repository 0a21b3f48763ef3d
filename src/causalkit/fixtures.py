"""Recorded elicitation transcripts bundled for replay.

One replay map holds the canned prompt/completion exchanges used by the test
suite and by `elicit` and `refine` when no replay file is supplied: the 153
pairwise prompts, the whole-graph single-prompt response, and the four
correction turns of the refinement session that produces drafts V1 to V5.
"""

from __future__ import annotations

from . import nsclc
from .llm import (
    ElicitationTranscript,
    ReplayBackend,
    elicit_graph,
    pairwise_prompts,
    refine,
    render_pairwise_prompt,
    render_refine_prompt,
    render_single_prompt,
)

# (cause, effect, completion, expected verdict) for the five recorded
# pairwise exchanges.
PAIRWISE_FIXTURES = (
    (
        "AGE",
        "GENDER",
        "Age and gender can both independently influence the development and "
        "characteristics of non-small cell lung cancer (NSCLC), but they do "
        "not have a direct cause-and-effect relationship with each other",
        "no",
    ),
    (
        "AGE",
        "SURVIVALMONTHS",
        "Yes, age can have an impact on survival analysis",
        "yes",
    ),
    (
        "AGE",
        "SHORTNESSOFBREATH",
        "Age itself does not directly cause shortness of breath in NSCLC",
        "no",
    ),
    (
        "KRAS",
        "SURVIVALMONTHS",
        "KRAS mutation subtype: There are different subtypes of KRAS "
        "mutations and some studies have suggested that specific subtypes "
        "may have varying impacts on survival",
        "yes",
    ),
    (
        "TREATMENTPLAN",
        "SURVIVALMONTHS",
        "Therapy can have a significant impact on the survival outcomes of "
        "patients with NSCLC, particularly those with specific molecular "
        "alterations that are targeted by the therapy.",
        "yes",
    ),
)

_UNCERTAIN_COMPLETION = "The relationship between these variables is unclear."

SINGLE_PROMPT_RESPONSE = (
    "In order to create a cause-effect adjacency matrix, we need to "
    "understand the relationships between the given nodes. Here's a "
    "possible interpretation of the relationships between them: "
    "AGE can affect the TREATMENTPLAN and SURVIVALMONTHS. "
    "SMOKING can lead to CHESTPAIN, SHORTNESSOFBREATH, and can affect the "
    "TREATMENTPLAN, SURVIVALMONTHS, and STAGEGROUP. "
    "GENDER can affect the TREATMENTPLAN and SURVIVALMONTHS. "
    "SHORTNESSOFBREATH and CHESTPAIN can indicate the STAGEGROUP, which in "
    "turn influences the TREATMENTPLAN and SURVIVALMONTHS. "
    "WEIGHTLOSS can also indicate the STAGEGROUP and can affect the "
    "TREATMENTPLAN and SURVIVAL_MONTHS. "
    "Mutations (KRAS, EGFR, FGFR1, ALK, MET, PIK3CA, BRAF, ROS1, RET) do "
    "not cause symptoms (as per the user's instructions) but they can "
    "affect the TREATMENTPLAN, SURVIVALMONTHS, and STAGEGROUP."
)

# The four recorded correction turns; nsclc.draft_edges gives the draft each
# canned reply restates.
REFINEMENT_CORRECTIONS = (
    "how age is not cause smoking please relook into the adjacency matrix "
    "and generate a correct one.",
    "the stage group and smoking should cause some mutation in nsclc",
    "please reinvestigate how mutation is effecting the treatment plan and "
    "survival months",
    "treatment plan should effect survival months",
)


def edges_to_reply(edges) -> str:
    """Render an edge list as prose the adjacency parser accepts."""
    by_source: dict[str, list[str]] = {}
    for src, dst in edges:
        by_source.setdefault(src, []).append(dst)
    sentences = ["Here is the corrected adjacency matrix."]
    for src in sorted(by_source):
        targets = sorted(set(by_source[src]))
        sentences.append(f"{src} can affect the {', '.join(targets)}.")
    sentences.append(
        f"Mutations ({', '.join(nsclc.GENES)}) do not cause symptoms."
    )
    return " ".join(sentences)


def replay_backend() -> ReplayBackend:
    """Every bundled exchange: all 153 pairwise prompts (the five recorded
    completions in their recorded ask direction, a neutral completion for the
    rest), the single prompt, and each correction prompt, which embeds the
    sorted edges of the draft it corrects."""
    scheme = nsclc.SCHEME
    recorded = {
        frozenset((cause, effect)): (cause, effect, completion)
        for cause, effect, completion, _ in PAIRWISE_FIXTURES
    }
    exchanges = {}
    for cause, effect, prompt in pairwise_prompts(scheme):
        key = frozenset((cause, effect))
        if key in recorded:
            asked_cause, asked_effect, completion = recorded[key]
            prompt = render_pairwise_prompt(asked_cause, asked_effect)
            exchanges[prompt] = completion
        else:
            exchanges[prompt] = _UNCERTAIN_COMPLETION
    exchanges[render_single_prompt(scheme)] = SINGLE_PROMPT_RESPONSE
    drafts = nsclc.draft_edges()
    for correction, current, reply in zip(REFINEMENT_CORRECTIONS, drafts, drafts[1:]):
        current = sorted({(scheme.index(u), scheme.index(v)) for u, v in current})
        prompt = render_refine_prompt(correction, current, scheme)
        exchanges[prompt] = edges_to_reply(reply)
    return ReplayBackend(exchanges)


def run_refinement_session() -> ElicitationTranscript:
    """Single-prompt elicitation plus the four recorded corrections."""
    scheme = nsclc.SCHEME
    backend = replay_backend()
    _, session = elicit_graph("single", scheme, backend)
    for correction in REFINEMENT_CORRECTIONS:
        session = refine(session, correction, backend, scheme)
    return session
