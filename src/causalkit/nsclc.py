"""The 18-variable NSCLC scheme, display names, published cohort marginals,
and the edge lists of the recorded drafts V1 to V5."""

from __future__ import annotations

from .graph import Dag, VariableScheme

GENES = (
    "KRAS", "EGFR", "FGFR1", "ALK", "MET", "PIK3CA", "BRAF", "ROS1", "RET",
)

SYMPTOMS = ("SHORTNESSOFBREATH", "CHESTPAIN", "WEIGHTLOSS")

_BINARY = ("Absent", "Present")

SCHEME = VariableScheme.of(
    [
        ("AGE", ("<65", "65-75", ">=75")),
        ("SMOKING", ("Non-Smoker", "Smoker")),
        ("GENDER", ("Female", "Male")),
        ("SHORTNESSOFBREATH", ("No", "Yes")),
        ("CHESTPAIN", ("No", "Yes")),
        ("WEIGHTLOSS", ("No", "Yes")),
        (
            "TREATMENTPLAN",
            ("Unknown", "Chemotherapy", "Targeted Therapy", "Immunotherapy"),
        ),
        ("SURVIVALMONTHS", ("<12", "12-36", ">36")),
        ("STAGEGROUP", ("I", "II", "III", "IV")),
    ]
    + [(gene, _BINARY) for gene in GENES]
)

# Bin edges of the numeric columns load_csv accepts: edges (a, b) map v < a
# to state 0, a <= v < b to state 1 and v >= b to state 2.
NUMERIC_BINS = {"AGE": (65.0, 75.0), "SURVIVALMONTHS": (12.0, 36.0)}

# Human-readable phrasings used when rendering prompts.
DISPLAY_NAMES = {
    "AGE": "age",
    "SMOKING": "smoking",
    "GENDER": "Gender",
    "SHORTNESSOFBREATH": "shortness of breath",
    "CHESTPAIN": "chest pain",
    "WEIGHTLOSS": "weight loss",
    "TREATMENTPLAN": "treatment plan",
    "SURVIVALMONTHS": "survival",
    "STAGEGROUP": "stage group",
    **{gene: f"{gene} mutation" for gene in GENES},
}


def _normalized(values):
    total = sum(values)
    return tuple(v / total for v in values)


# Published cohort marginals where available; the remaining vectors are
# declared conventions (age and survival bins from the reported mean/sd,
# symptoms and ROS1 are unreported and set to plausible rates).
COHORT_MARGINALS = {
    "AGE": (0.217, 0.347, 0.436),
    "SMOKING": (0.810, 0.190),
    "GENDER": (0.577, 0.423),
    "SHORTNESSOFBREATH": (0.60, 0.40),
    "CHESTPAIN": (0.70, 0.30),
    "WEIGHTLOSS": (0.65, 0.35),
    # Published percentages sum to 100.1; normalized here.
    "TREATMENTPLAN": _normalized((0.693, 0.209, 0.071, 0.028)),
    "SURVIVALMONTHS": (0.35, 0.25, 0.40),
    "STAGEGROUP": (0.304, 0.080, 0.141, 0.475),
    "KRAS": (1 - 0.279, 0.279),
    "EGFR": (1 - 0.390, 0.390),
    "FGFR1": (1 - 0.058, 0.058),
    "ALK": (1 - 0.206, 0.206),
    "MET": (1 - 0.110, 0.110),
    "PIK3CA": (1 - 0.264, 0.264),
    "BRAF": (1 - 0.052, 0.052),
    "ROS1": (0.90, 0.10),
    "RET": (1 - 0.429, 0.429),
}

COHORT_SIZE = 326

# Gene mutation aliases accepted when parsing model completions.
VARIABLE_ALIASES = {
    "SURVIVAL_MONTHS": "SURVIVALMONTHS",
    "SURVIVAL MONTHS": "SURVIVALMONTHS",
    "STAGE GROUP": "STAGEGROUP",
    "TREATMENT PLAN": "TREATMENTPLAN",
    "SHORTNESS OF BREATH": "SHORTNESSOFBREATH",
    "CHEST PAIN": "CHESTPAIN",
    "WEIGHT LOSS": "WEIGHTLOSS",
    "SURVIVAL": "SURVIVALMONTHS",
}


def v1_edges():
    """Edge list of the first whole-graph draft elicited in a single prompt."""
    edges = [
        ("AGE", "TREATMENTPLAN"),
        ("AGE", "SURVIVALMONTHS"),
        ("SMOKING", "CHESTPAIN"),
        ("SMOKING", "SHORTNESSOFBREATH"),
        ("SMOKING", "TREATMENTPLAN"),
        ("SMOKING", "SURVIVALMONTHS"),
        ("SMOKING", "STAGEGROUP"),
        ("GENDER", "TREATMENTPLAN"),
        ("GENDER", "SURVIVALMONTHS"),
        ("SHORTNESSOFBREATH", "STAGEGROUP"),
        ("CHESTPAIN", "STAGEGROUP"),
        ("STAGEGROUP", "TREATMENTPLAN"),
        ("STAGEGROUP", "SURVIVALMONTHS"),
        ("WEIGHTLOSS", "STAGEGROUP"),
        ("WEIGHTLOSS", "TREATMENTPLAN"),
        ("WEIGHTLOSS", "SURVIVALMONTHS"),
    ]
    for gene in GENES:
        edges += [
            (gene, "TREATMENTPLAN"),
            (gene, "SURVIVALMONTHS"),
            (gene, "STAGEGROUP"),
        ]
    return edges


def draft_edges():
    """Edge lists of drafts V1 to V5: the single-prompt draft, then the draft
    restated by the reply to each of the four recorded corrections
    (`fixtures.REFINEMENT_CORRECTIONS`, quoted below)."""
    v1 = v1_edges()
    v2 = v1 + [("AGE", "SMOKING")]  # "how age is not cause smoking ..."
    # "the stage group and smoking should cause some mutation in nsclc"
    v3 = [e for e in v2 if not (e[0] in GENES and e[1] == "STAGEGROUP")]
    v3 += [(cause, gene) for gene in GENES for cause in ("SMOKING", "STAGEGROUP")]
    # "please reinvestigate how mutation is effecting ...": V4 restates V3.
    # "treatment plan should effect survival months"
    v5 = v3 + [("TREATMENTPLAN", "SURVIVALMONTHS")]
    return [v1, v2, v3, v3, v5]


def v5_edges():
    """Edge list after the recorded refinement session (final draft)."""
    return draft_edges()[-1]


def v1_dag() -> Dag:
    return Dag(SCHEME, v1_edges())


def v5_dag() -> Dag:
    return Dag(SCHEME, v5_edges())
