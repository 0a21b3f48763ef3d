"""do-operator graph surgery and Average Treatment Effect estimation."""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .bayesnet import BayesianNetwork, Cpd, variable_elimination
from .data import text_table
from .errors import UnknownState, UnknownVariable
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
        scheme = net.scheme
        if self.outcome == self.treatment:
            raise UnknownVariable("outcome must differ from treatment")
        if self.treatment in self.evidence:
            raise UnknownVariable("treatment cannot also be evidence")
        for state in self.treated_state, self.control_state:
            scheme.state_index(self.treatment, state)
        missing = set(scheme.states(self.outcome)) - set(self.outcome_values)
        if missing:
            raise UnknownState(f"outcome_values missing states {sorted(missing)}")


def apply_do(net: BayesianNetwork, node: str, state: str) -> BayesianNetwork:
    """Graph surgery for do(node=state): sever incoming edges, point-mass CPD."""
    scheme = net.scheme
    idx = scheme.index(node)
    state_idx = scheme.state_index(node, state)
    dag = Dag(
        scheme,
        frozenset(e for e in net.dag.edges if e[1] != idx),
    )
    point = np.zeros((1, scheme.cardinality(node)))
    point[0, state_idx] = 1.0
    cpds = dict(net.cpds)
    cpds[node] = Cpd(node, (), point)
    return BayesianNetwork(dag, cpds)


def _expected_outcome(
    mutilated: BayesianNetwork, outcome: str, evidence, values, infer
) -> float:
    """E[v(outcome) | evidence] on a mutilated network; `values` holds v per
    outcome state, in scheme order."""
    posterior = infer(mutilated, (outcome,), dict(evidence))
    return float(posterior @ values)


def ate(net: BayesianNetwork, q: InterventionQuery, infer=variable_elimination) -> float:
    """E[v(outcome) | do(treated), evidence] - same under do(control).

    Evidence is conditioned after surgery on each mutilated network; both
    arms share identical evidence.  `infer` is swappable for the brute-force
    oracle in tests.
    """
    q.validate(net)
    if q.treated_state == q.control_state:
        return 0.0
    values = np.array([q.outcome_values[s] for s in net.scheme.states(q.outcome)])
    treated, control = (
        _expected_outcome(
            apply_do(net, q.treatment, state), q.outcome, q.evidence, values, infer
        )
        for state in (q.treated_state, q.control_state)
    )
    return treated - control


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

    Each arm's mutilated network is built once and queried once per gene;
    all rows share the control arm.
    """
    scheme = net.scheme
    values = np.array([0.0] * (scheme.cardinality(OUTCOME) - 1) + [1.0])
    evidence = [{gene: scheme.states(gene)[-1]} for gene in MUTATION_COLUMNS]
    expected = {}
    for arm in (*TREATMENT_ROWS, CONTROL_STATE):
        mutilated = apply_do(net, TREATMENT_VARIABLE, arm)
        expected[arm] = np.array([
            _expected_outcome(mutilated, OUTCOME, e, values, variable_elimination)
            for e in evidence
        ])
    cells = np.array([expected[t] - expected[CONTROL_STATE] for t in TREATMENT_ROWS])
    return AteGrid(TREATMENT_ROWS, MUTATION_COLUMNS, cells)
