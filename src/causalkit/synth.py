"""Synthetic data generation.

Ancestral sampling from any fully parameterized network, and cohorts of
independent variables matching the published summary table, which are
samples of the edgeless network of those marginals.  Sampling uses the
Philox counter-based RNG so results are reproducible across platforms for a
fixed seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bayesnet import BayesianNetwork, Cpd
from .data import CategoricalDataset
from .errors import MarginalMismatch
from .graph import Dag, VariableScheme
from . import nsclc


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class CohortSpec:
    n: int
    marginals: dict[str, tuple[float, ...]]
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise MarginalMismatch("n must be >= 1")
        for name, vec in self.marginals.items():
            # Written so that NaN fails too.
            if not all(0 <= p <= 1 for p in vec):
                raise MarginalMismatch(
                    f"marginals for {name} are not all in [0, 1]: {vec}"
                )
            if abs(sum(vec) - 1.0) > 1e-9:
                raise MarginalMismatch(f"marginals for {name} sum to {sum(vec)}")

    @staticmethod
    def nsclc_default(n: int = nsclc.COHORT_SIZE, seed: int = 0) -> "CohortSpec":
        return CohortSpec(n, dict(nsclc.COHORT_MARGINALS), seed)


def sample_from_network(
    net: BayesianNetwork, n: int, seed: int
) -> CategoricalDataset:
    """Draw n rows by ancestral sampling in topological order."""
    scheme = net.scheme
    rng = _rng(seed)
    rows = np.zeros((n, len(scheme)), dtype=np.int64)
    for idx in net.dag.topological_order():
        probs = net.tables[idx][tuple(rows[:, p] for p in net.scopes[idx][:-1])]
        rows[:, idx] = _draw(probs, rng.random(n))
    return CategoricalDataset(scheme, rows)


def generate_cohort(
    spec: CohortSpec, scheme: VariableScheme = nsclc.SCHEME
) -> CategoricalDataset:
    """Independent draws per variable from the marginal targets: a sample of
    the edgeless network whose root CPDs are the marginals."""
    cpds = {}
    for name in scheme.names:
        if name not in spec.marginals:
            raise MarginalMismatch(f"no marginal target for {name}")
        vec = np.asarray(spec.marginals[name], dtype=float)
        if vec.size != scheme.cardinality(name):
            raise MarginalMismatch(
                f"{name}: {vec.size} probabilities for "
                f"{scheme.cardinality(name)} states"
            )
        cpds[name] = Cpd(name, (), vec[None, :])
    return sample_from_network(BayesianNetwork(Dag(scheme), cpds), spec.n, spec.seed)


def _draw(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """State per uniform draw u: how many of the row's cumulative sums lie
    below u.  The sums are cumsum's own, kept column by column rather than
    in numpy's loop per row.  The last one is left out so that a row summing
    to just under 1 cannot yield a state equal to the cardinality."""
    states = np.zeros(u.shape, dtype=np.int64)
    columns = (probs[..., j] for j in range(probs.shape[-1] - 1))
    for running in itertools.accumulate(columns):
        states += running < u
    return states


def random_network(dag: Dag, seed: int, concentration: float = 1.0) -> BayesianNetwork:
    """Random parameterization of a structure: Dirichlet rows per CPD."""
    rng = _rng(seed)
    scheme = dag.scheme
    cpds = {}
    for idx, name in enumerate(scheme.names):
        parents = tuple(scheme.names[p] for p in dag.parents(idx))
        n_configs = math.prod(scheme.cardinality(p) for p in parents)
        card = scheme.cardinality(name)
        table = rng.dirichlet([concentration] * card, size=n_configs)
        cpds[name] = Cpd(name, parents, table)
    return BayesianNetwork(dag, cpds)


def reference_network(seed: int = 7) -> BayesianNetwork:
    """Correlated NSCLC ground truth: the final refined structure with a
    seeded random parameterization.  Used wherever tests need a joint
    distribution rather than independent marginals."""
    return random_network(nsclc.v5_dag(), seed=seed, concentration=2.0)
