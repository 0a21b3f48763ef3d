"""Reference computations the benchmark checks causalkit's outputs against.

Everything here is computed apart from causalkit: tables are counted with
`collections.Counter` over row tuples (not a mixed-radix `bincount`), BDeu
is summed term by term with `math.lgamma`, and treatment effects come from
enumerating the full joint of the mutilated network.  Only numpy and the
chi-square tail from scipy are shared with the program.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.special import chdtrc


def joint_counts(rows: np.ndarray, cols) -> Counter:
    """Counts of each observed value tuple of `cols`."""
    return Counter(map(tuple, rows[:, list(cols)].tolist()))


def g2_test(rows: np.ndarray, cards, x: int, y: int, cond=()):
    """G² statistic, degrees of freedom and p-value for x ⟂ y | cond.

    Strata without observations are left out, both from the statistic and
    from the degrees of freedom; empty cells add nothing to the statistic.
    """
    cond = list(cond)
    cells = joint_counts(rows, cond + [x, y])
    strata: dict[tuple, dict[tuple[int, int], int]] = {}
    for key, n in cells.items():
        strata.setdefault(key[: len(cond)], {})[key[-2:]] = n
    g2 = 0.0
    for table in strata.values():
        total = sum(table.values())
        row_sum = Counter()
        col_sum = Counter()
        for (a, b), n in table.items():
            row_sum[a] += n
            col_sum[b] += n
        for (a, b), n in table.items():
            g2 += 2.0 * n * math.log(n * total / (row_sum[a] * col_sum[b]))
    dof = (cards[x] - 1) * (cards[y] - 1) * len(strata)
    p = float(chdtrc(dof, g2)) if dof > 0 else 1.0
    return g2, dof, p


def family_counts(rows: np.ndarray, cards, child: int, parents):
    """Counts of one family as (q, r, observed, parent cards).

    `observed` maps each parent configuration that occurs in the data (a
    tuple in `parents` order) to its list of child-state counts n_jk.  The
    q - len(observed) configurations that never occur have n_jk = 0.
    """
    parents = list(parents)
    parent_cards = [cards[p] for p in parents]
    r = cards[child]
    observed: dict[tuple, list[int]] = {}
    for key, n in joint_counts(rows, parents + [child]).items():
        observed.setdefault(key[:-1], [0] * r)[key[-1]] = n
    return math.prod(parent_cards), r, observed, parent_cards


def bdeu_canonical(family, alpha: float) -> float:
    """Literal BDeu family score:
    Σ_j [lnΓ(α/q) − lnΓ(α/q + n_j) + Σ_k (lnΓ(α/(q r) + n_jk) − lnΓ(α/(q r)))].
    A configuration with n_j = 0 adds exactly 0, so only observed ones are summed."""
    q, r, observed, _ = family
    a_j, a_jk = alpha / q, alpha / (q * r)
    score = 0.0
    for row in observed.values():
        score += math.lgamma(a_j) - math.lgamma(a_j + sum(row))
        for n in row:
            score += math.lgamma(a_jk + n) - math.lgamma(a_jk)
    return score


def bdeu_paper(family, alpha: float) -> float:
    """Smoothed-frequency family score:
    Σ_jk (n_jk + α/r) ln((n_jk + α/r) / (n_j + α)).
    Each configuration with n_j = 0 adds r (α/r) ln(1/r) = α ln(1/r)."""
    q, r, observed, _ = family
    score = (q - len(observed)) * alpha * math.log(1 / r)
    for row in observed.values():
        n_j = sum(row)
        for n in row:
            s = n + alpha / r
            score += s * math.log(s / (n_j + alpha))
    return score


def cpd_table(family, alpha: float) -> np.ndarray:
    """Posterior-mean CPD (n_jk + α/(q r)) / (n_j + α/q), one row per parent
    configuration in row-major order; unobserved rows are uniform, 1/r."""
    q, r, observed, parent_cards = family
    table = np.full((q, r), 1.0 / r)
    for config, row in observed.items():
        index = 0
        for state, card in zip(config, parent_cards):
            index = index * card + state
        table[index] = [(n + alpha / (q * r)) / (sum(row) + alpha / q) for n in row]
    return table


def is_acyclic(n_nodes: int, edges) -> bool:
    """Kahn's algorithm on (parent, child) index pairs."""
    indegree = [0] * n_nodes
    children: dict[int, list[int]] = {}
    for u, v in edges:
        indegree[v] += 1
        children.setdefault(u, []).append(v)
    ready = [v for v in range(n_nodes) if indegree[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in children.get(u, ()):
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return seen == n_nodes


def required_colliders(pairs, sepsets):
    """(x, z, y) that PC must orient x → z ← y: x - z - y is unshielded,
    z is outside the separating set of (x, y), and no other unshielded
    triple asks for either edge the other way round.

    `pairs` are the skeleton's adjacent pairs and `sepsets` maps each
    removed pair to its separating set, both as frozensets.
    """
    neighbours: dict[int, set[int]] = {}
    for pair in pairs:
        a, b = tuple(pair)
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    triples, into = [], set()
    for z, adjacent in neighbours.items():
        for x in adjacent:
            for y in adjacent:
                if x < y and y not in neighbours[x]:
                    sep = sepsets.get(frozenset((x, y)))
                    if sep is not None and z not in sep:
                        triples.append((x, z, y))
                        into |= {(x, z), (y, z)}
    return [
        (x, z, y) for x, z, y in triples
        if (z, x) not in into and (z, y) not in into
    ]


def mutilated_joint(cards, cpds, treatment: int, state: int) -> np.ndarray:
    """Full joint under do(treatment = state), one axis per variable.

    `cpds` maps each variable index to (parent indices, table) with one row
    per parent configuration, row-major over the parent order.
    """
    joint = np.ones(cards)
    for v in range(len(cards)):
        if v == treatment:
            point = np.zeros(cards[v])
            point[state] = 1.0
            parents, table = (), point[None, :]
        else:
            parents, table = cpds[v]
        scope = list(parents) + [v]
        factor = np.asarray(table).reshape([cards[p] for p in scope])
        order = np.argsort(scope)
        shape = [cards[u] if u in scope else 1 for u in range(len(cards))]
        joint *= np.transpose(factor, order).reshape(shape)
    return joint


def expected_outcome(joint: np.ndarray, outcome: int, values, evidence) -> float:
    """E[values(outcome) | evidence] under `joint`; evidence maps index → state."""
    index = tuple(evidence.get(v, slice(None)) for v in range(joint.ndim))
    kept = [v for v in range(joint.ndim) if v not in evidence]
    sliced = joint[index]
    marginal = sliced.sum(axis=tuple(i for i, v in enumerate(kept) if v != outcome))
    return float(np.dot(marginal / marginal.sum(), values))
