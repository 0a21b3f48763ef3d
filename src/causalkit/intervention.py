"""do-operator graph surgery and Average Treatment Effect estimation."""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .bayesnet import BayesianNetwork, Cpd, variable_elimination
from .data import text_table
from .errors import UnknownState, UnknownVariable, ZeroEvidenceProbability
from .graph import Dag

TREATMENT_ROWS = ("Chemotherapy", "Targeted Therapy", "Immunotherapy")
MUTATION_COLUMNS = ("KRAS", "EGFR", "FGFR1", "ALK", "MET", "PIK3CA", "BRAF", "RET")
TREATMENT_VARIABLE = "TREATMENTPLAN"
CONTROL_STATE = "Unknown"
OUTCOME = "SURVIVALMONTHS"


@dataclass(frozen=True)
class InterventionQuery:
    treatment: str
    treated_state: str
    control_state: str
    outcome: str
    outcome_values: dict[str, float]
    evidence: dict[str, str] = field(default_factory=dict)

    def validate(self, net: BayesianNetwork):
        if self.outcome == self.treatment:
            raise UnknownVariable("outcome must differ from treatment")
        if self.treatment in self.evidence:
            raise UnknownVariable("treatment cannot also be evidence")
        missing = set(net.scheme.states(self.outcome)) - set(self.outcome_values)
        if missing:
            raise UnknownState(f"outcome_values missing states {sorted(missing)}")


def _cut(net: BayesianNetwork, node: str, prior: np.ndarray) -> BayesianNetwork:
    """`net` with the incoming edges of `node` severed and `prior`, one
    probability per state, as its root CPD."""
    idx = net.scheme.index(node)
    dag = Dag(net.scheme, frozenset(e for e in net.dag.edges if e[1] != idx))
    return BayesianNetwork(dag, {**net.cpds, node: Cpd(node, (), prior[None, :])})


def apply_do(net: BayesianNetwork, node: str, state: str) -> BayesianNetwork:
    """Graph surgery for do(node=state): sever incoming edges, point-mass CPD."""
    point = np.zeros(net.scheme.cardinality(node))
    point[net.scheme.state_index(node, state)] = 1.0
    return _cut(net, node, point)


def _randomized(net: BayesianNetwork, node: str) -> BayesianNetwork:
    """`net` with `node` cut from its parents and given the uniform prior, as
    if assigned at random.  For a power-of-two cardinality, such as
    TREATMENTPLAN's 4, scaling by 1/card is exact, so arms that cannot move
    the outcome come out bit-equal."""
    card = net.scheme.cardinality(node)
    return _cut(net, node, np.full(card, 1.0 / card))


def _arms(
    net: BayesianNetwork, treatment: str, outcome: str, evidence, values, arms, infer
) -> np.ndarray:
    """E[v(outcome) | do(t), evidence] for each state index t in `arms`, from
    one query on `net`, a network in which `treatment` is already randomized.

    With the incoming edges cut and a prior of full support, P(outcome |
    treatment = t, evidence) there equals P(outcome | do(t), evidence), so
    each row of the posterior over (treatment, outcome) is divided by its own
    mass.  ZeroEvidenceProbability names the first arm of mass 0, one under
    which the evidence is impossible.  The whole posterior is divided and
    multiplied before the arms are taken, which keeps every arm's bits
    independent of which others are asked for.
    """
    joint = infer(net, (treatment, outcome), dict(evidence))
    mass = joint.sum(axis=1)
    for arm in arms:
        if not mass[arm] > 0:
            raise ZeroEvidenceProbability(
                "evidence has probability zero under "
                f"do({treatment}={net.scheme.states(treatment)[arm]})"
            )
    with np.errstate(divide="ignore", invalid="ignore"):  # rows no arm uses
        expected = (joint / mass[:, None]) @ values
    return expected[list(arms)]


def ate(net: BayesianNetwork, q: InterventionQuery, infer=variable_elimination) -> float:
    """E[v(outcome) | do(treated), evidence] - same under do(control).

    Both arms come from one query on the network with the treatment
    randomized (see `_arms`); evidence is conditioned after surgery, the
    same evidence in each arm.  `infer` is swappable for the brute-force
    oracle in tests.  ZeroEvidenceProbability is raised when the evidence is
    impossible under either arm.
    """
    q.validate(net)
    scheme = net.scheme
    values = np.array([q.outcome_values[s] for s in scheme.states(q.outcome)])
    treated, control = (
        scheme.state_index(q.treatment, s) for s in (q.treated_state, q.control_state)
    )
    treated_value, control_value = _arms(
        _randomized(net, q.treatment), q.treatment, q.outcome, q.evidence, values,
        (treated, control), infer,
    )
    return float(treated_value - control_value)


@dataclass(frozen=True)
class AteGrid:
    treatments: tuple[str, ...]
    mutations: tuple[str, ...]
    cells: np.ndarray  # rows = treatments, columns = mutations

    @functools.cached_property
    def rows(self) -> list[list[str]]:
        """The header and one formatted row per treatment, for both outputs."""
        return [["Treatment Category", *self.mutations]] + [
            [t] + [f"{v:.6f}" for v in row]
            for t, row in zip(self.treatments, self.cells)
        ]

    def to_text(self) -> str:
        return text_table(self.rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(self.rows)
        return out.getvalue()


def ate_grid(net: BayesianNetwork) -> AteGrid:
    """The paper's table: the ATE of do(TREATMENTPLAN = row) against
    do(TREATMENTPLAN = Unknown) given each mutation gene in its last state,
    on the indicator of the most favorable SURVIVALMONTHS bin.

    TREATMENTPLAN is randomized once, and one query per gene answers every
    arm (see `_arms`), so a cell equals the `ate` of its query exactly.
    """
    scheme = net.scheme
    values = np.array([0.0] * (scheme.cardinality(OUTCOME) - 1) + [1.0])
    randomized = _randomized(net, TREATMENT_VARIABLE)
    rows = [scheme.state_index(TREATMENT_VARIABLE, t) for t in TREATMENT_ROWS]
    control = scheme.state_index(TREATMENT_VARIABLE, CONTROL_STATE)
    columns = []
    for gene in MUTATION_COLUMNS:
        evidence = {gene: scheme.states(gene)[-1]}
        expected = _arms(
            randomized, TREATMENT_VARIABLE, OUTCOME, evidence, values,
            (*rows, control), variable_elimination,
        )
        columns.append(expected[:-1] - expected[-1])
    return AteGrid(TREATMENT_ROWS, MUTATION_COLUMNS, np.stack(columns, axis=1))
