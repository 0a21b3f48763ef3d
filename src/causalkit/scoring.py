"""BDeu graph-fit scoring: the simplified closed form and the canonical
log-gamma form, plus whole-graph totals decomposed per node family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data import CategoricalDataset, CountTable, contingency_counts
from .graph import Dag

VARIANTS = ("paper", "canonical")


@dataclass(frozen=True)
class ScoreReport:
    per_node: dict[str, float]
    total: float
    ess: float
    variant: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "variant": self.variant,
                "ess": self.ess,
                "total": self.total,
                "per_node": self.per_node,
            },
            indent=2,
        )


def bdeu_family_paper(counts: CountTable, alpha: float) -> float:
    """Smoothed-frequency family score.

    score = sum_ij (n_ij + a/N_j) * ln((n_ij + a/N_j) / (n_i + a))
    with N_j the child cardinality.  Natural log; always finite because the
    smoothing term keeps every log argument strictly positive.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n_ij = counts.n_ij.astype(float)
    smoothed = n_ij + alpha / counts.child_card
    denom = counts.n_i.astype(float) + alpha
    return float(np.sum(smoothed * np.log(smoothed / denom[:, None])))


def bdeu_family_canonical(counts: CountTable, alpha: float) -> float:
    """Canonical BDeu family score (log marginal likelihood, log-gamma form).

    alpha_i = alpha / N_i per configuration, split uniformly over child
    states: alpha_ij = alpha / (N_i * N_j).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n_i = counts.n_i.astype(float)
    n_ij = counts.n_ij.astype(float)
    a_i = alpha / counts.n_configs
    a_ij = a_i / counts.child_card
    per_config = (
        gammaln(a_i)
        - gammaln(a_i + n_i)
        + np.sum(gammaln(a_ij + n_ij) - gammaln(a_ij), axis=1)
    )
    return float(per_config.sum())


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
