"""BDeu graph-fit scoring: the simplified closed form and the canonical
log-gamma form, plus whole-graph totals decomposed per node family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CategoricalDataset, CountTable, contingency_counts, text_table
from .graph import Dag

VARIANTS = ("paper", "canonical")


@dataclass(frozen=True)
class ScoreReport:
    per_node: dict[str, float]
    total: float


def bdeu_family_paper(counts: CountTable, alpha: float) -> float:
    """Smoothed-frequency family score.

    score = sum_ij (n_ij + a/N_j) * ln((n_ij + a/N_j) / (n_i + a))
    with N_j the child cardinality.  Natural log; always finite because the
    smoothing term keeps every log argument strictly positive.  An unobserved
    configuration adds -a * ln(N_j); the rest is read from `counts.histogram`.
    """
    if isinstance(alpha, (bool, np.bool_)) or not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    n_i, n_ij, m = counts.histogram
    r = counts.child_card
    smoothed = n_ij + alpha / r
    terms = (m * smoothed * np.log(smoothed / (n_i + alpha))).tolist()
    unseen = counts.n_configs - int(m.sum()) // r
    return math.fsum(terms) - unseen * alpha * math.log(r)


def bdeu_family_canonical(counts: CountTable, alpha: float) -> float:
    """Canonical BDeu family score (log marginal likelihood, log-gamma form).

    alpha_i = alpha / N_i per configuration, split uniformly over child
    states: alpha_ij = alpha / (N_i * N_j).  Empty cells and unobserved
    configurations add 0; each cell carries 1/N_j of its configuration's term.
    """
    if isinstance(alpha, (bool, np.bool_)) or not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    m = counts.histogram[2]
    r = counts.child_card
    a_i = alpha / counts.n_configs
    a_ij = a_i / r
    n_i, n_ij = counts.distinct
    cells = m * (_lgamma_at(a_ij, n_ij) - math.lgamma(a_ij))
    configs = m / r * (_lgamma_at(a_i, n_i) - math.lgamma(a_i))
    return math.fsum((cells - configs).tolist())


def _lgamma_at(a: float, level) -> np.ndarray:
    """lgamma(a + k) for each histogram row's count k, from one math.lgamma
    call per distinct count."""
    values, index = level
    return np.array([math.lgamma(a + k) for k in values.tolist()])[index]


_FAMILY = {"paper": bdeu_family_paper, "canonical": bdeu_family_canonical}


def bdeu_total(
    dag: Dag,
    data: CategoricalDataset,
    alpha: float,
    variant: str = "canonical",
) -> ScoreReport:
    """Whole-graph score: sum of per-node family scores in scheme order."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if dag.scheme is not data.scheme and dag.scheme != data.scheme:
        raise ValueError("dag and data use different schemes")
    per_node = {}
    for idx, name in enumerate(dag.scheme.names):
        counts = contingency_counts(data, idx, dag.parents(idx))
        per_node[name] = _FAMILY[variant](counts, alpha)
    total = sum(per_node.values())
    return ScoreReport(per_node, total)


def score_table(ess_values, reports_by_graph: dict[str, list[ScoreReport]]) -> str:
    """Aligned text table: one row per ESS value, one column per graph.  Row k
    holds each graph's k-th report, its score at the k-th ESS value."""
    rows = [["Equivalent sample Size", *reports_by_graph]]
    for k, ess in enumerate(ess_values):
        totals = [f"{reports[k].total:.2f}" for reports in reports_by_graph.values()]
        rows.append([f"{ess:g}", *totals])
    return text_table(rows)
