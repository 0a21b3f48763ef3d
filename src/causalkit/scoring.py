"""BDeu graph-fit scoring: the simplified closed form and the canonical
log-gamma form, plus whole-graph totals decomposed per node family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CategoricalDataset, CountTable, contingency_counts
from .graph import Dag

VARIANTS = ("paper", "canonical")
_lgamma = np.frompyfunc(math.lgamma, 1, 1)


@dataclass(frozen=True)
class ScoreReport:
    per_node: dict[str, float]
    total: float
    ess: float
    variant: str


def bdeu_family_paper(counts: CountTable, alpha: float) -> float:
    """Smoothed-frequency family score.

    score = sum_ij (n_ij + a/N_j) * ln((n_ij + a/N_j) / (n_i + a))
    with N_j the child cardinality.  Natural log; always finite because the
    smoothing term keeps every log argument strictly positive.  An unobserved
    configuration adds -a * ln(N_j); the rest is read from `counts.histogram`.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
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
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n_i, n_ij, m = counts.histogram
    r = counts.child_card
    a_i = alpha / counts.n_configs
    a_ij = a_i / r
    cells = m * (_lgamma(a_ij + n_ij).astype(float) - math.lgamma(a_ij))
    configs = m / r * (_lgamma(a_i + n_i).astype(float) - math.lgamma(a_i))
    return math.fsum((cells - configs).tolist())


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
        parents = tuple(dag.scheme.names[p] for p in dag.parents(idx))
        counts = contingency_counts(data, name, parents)
        per_node[name] = _FAMILY[variant](counts, alpha)
    total = sum(per_node.values())
    return ScoreReport(per_node, total, alpha, variant)


def score_table(reports_by_graph: dict[str, list[ScoreReport]]) -> str:
    """Aligned text table: one row per ESS value, one column per graph."""
    names = list(reports_by_graph)
    ess_values = sorted({r.ess for rs in reports_by_graph.values() for r in rs})
    header = ["Equivalent sample Size"] + names
    rows = [header]
    for ess in ess_values:
        row = [f"{ess:g}"]
        for name in names:
            match = [r for r in reports_by_graph[name] if r.ess == ess]
            row.append(f"{match[0].total:.2f}" if match else "-")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"
