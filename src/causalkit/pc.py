"""The PC algorithm: CI testing, stable skeleton search, collider
orientation, and the four Meek propagation rules.

The CI test is pluggable so the pipeline can run against a d-separation
oracle instead of data, separating algorithmic correctness from sampling
noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import chdtrc

from .data import CategoricalDataset
from .errors import InsufficientData
from .graph import Dag, Pdag, VariableScheme

log = logging.getLogger(__name__)


@dataclass
class SepsetMap:
    """Separating sets found during skeleton pruning, by unordered pair."""

    sets: dict[frozenset[int], frozenset[int]] = field(default_factory=dict)

    def put(self, x: int, y: int, cond) -> None:
        self.sets[frozenset((x, y))] = frozenset(cond)

    def get(self, x: int, y: int):
        return self.sets.get(frozenset((x, y)))


def ci_test_g2(data: CategoricalDataset, x: int, y: int, cond=(), test="g2"):
    """Conditional independence test for discrete columns.

    Returns (statistic, p_value, dof).  Degrees of freedom are reduced for
    conditioning strata with no observations; zero-count cells contribute
    nothing to the statistic.  One bincount gives the (x, y) table of every
    stratum, and the statistic is summed over all of them at once.
    """
    cards = data.scheme.cardinalities()
    rx, ry = cards[x], cards[y]
    flat = data.rows[:, x] * ry + data.rows[:, y]
    size = rx * ry
    for c in reversed(tuple(cond)):
        flat += data.rows[:, c] * size
        size *= cards[c]
    tables = np.bincount(flat, minlength=size).reshape(-1, rx, ry)
    n_s = tables.sum(axis=(1, 2))
    nonempty = n_s > 0
    if not nonempty.any():
        raise InsufficientData("every conditioning stratum is empty")

    tables = tables[nonempty]
    expected = (
        tables.sum(axis=2, keepdims=True)
        * tables.sum(axis=1, keepdims=True)
        / n_s[nonempty, None, None]
    )
    mask = tables > 0 if test == "g2" else expected > 0
    observed, expected = tables[mask], expected[mask]
    if test == "g2":
        stat = 2.0 * float(np.sum(observed * np.log(observed / expected)))
    elif test == "chi2":
        stat = float(np.sum((observed - expected) ** 2 / expected))
    else:
        raise ValueError(f"unknown test {test!r}")
    dof = (rx - 1) * (ry - 1) * int(nonempty.sum())
    p = float(chdtrc(dof, stat)) if dof > 0 else 1.0
    return stat, p, dof


def make_ci_from_data(data: CategoricalDataset, test: str = "g2"):
    # A column-major copy, made once per run, turns every column that a
    # test reads into a contiguous array.
    columns = CategoricalDataset(data.scheme, np.ascontiguousarray(data.rows.T).T)

    def ci(x: int, y: int, cond) -> float:
        _, p, _ = ci_test_g2(columns, x, y, cond, test=test)
        return p

    ci.scheme = data.scheme
    return ci


def make_ci_from_dag(dag: Dag):
    """d-separation oracle with the CI-callable interface (p in {0, 1})."""

    def ci(x: int, y: int, cond) -> float:
        return 1.0 if d_separated(dag, x, y, cond) else 0.0

    ci.scheme = dag.scheme
    return ci


def d_separated(dag: Dag, x: int, y: int, cond) -> bool:
    """Reachability ("Bayes ball") test of d-separation in a DAG."""
    cond = set(cond)
    ancestors_of_cond = set(cond)
    frontier = list(cond)
    while frontier:
        v = frontier.pop()
        for p in dag.parents(v):
            if p not in ancestors_of_cond:
                ancestors_of_cond.add(p)
                frontier.append(p)

    # States are (node, direction): direction "up" = arrived from a child.
    visited = set()
    frontier = [(x, "up")]
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node == y and node not in cond:
            return False
        if direction == "up" and node not in cond:
            for p in dag.parents(node):
                frontier.append((p, "up"))
            for c in dag.children(node):
                frontier.append((c, "down"))
        elif direction == "down":
            if node not in cond:
                for c in dag.children(node):
                    frontier.append((c, "down"))
            if node in ancestors_of_cond:
                for p in dag.parents(node):
                    frontier.append((p, "up"))
    return True


def learn_skeleton(
    ci,
    alpha_level: float = 0.05,
    max_cond_size: int | None = None,
) -> tuple[Pdag, SepsetMap]:
    """Stable-PC skeleton search.

    `ci` is a callable (x, y, cond) -> p-value carrying a `.scheme`
    attribute; use make_ci_from_data or make_ci_from_dag.  Conditioning sets
    grow level by level and deletions are batched per level, making the
    result independent of edge traversal order.
    """
    if not 0 < alpha_level < 1:
        raise ValueError("alpha_level must be in (0, 1)")
    scheme: VariableScheme = ci.scheme
    n = len(scheme)
    if max_cond_size is None:
        max_cond_size = n - 2
    adj = {v: set(range(n)) - {v} for v in range(n)}
    sepsets = SepsetMap()

    level = 0
    while level <= max_cond_size:
        snapshot = {v: frozenset(adj[v]) for v in adj}
        if all(len(snapshot[v]) - 1 < level for v in snapshot):
            break
        removals = []
        for x, y in combinations(range(n), 2):
            if y not in adj[x]:
                continue
            found = None
            for base in (snapshot[x] - {y}, snapshot[y] - {x}):
                for cond in combinations(sorted(base), level):
                    if ci(x, y, cond) > alpha_level:
                        found = cond
                        break
                if found is not None:
                    break
            if found is not None:
                removals.append((x, y, found))
        for x, y, cond in removals:
            if y in adj[x]:
                adj[x].discard(y)
                adj[y].discard(x)
                sepsets.put(x, y, cond)
        level += 1

    undirected = frozenset(
        frozenset((x, y)) for x in adj for y in adj[x] if x < y
    )
    return Pdag(scheme, frozenset(), undirected), sepsets


def orient_v_structures(skeleton: Pdag, sepsets: SepsetMap) -> Pdag:
    """Orient x -> z <- y for nonadjacent x, y whose sepset excludes z.

    Conflicting demands on one edge leave it undirected (logged).
    """
    proposals: set[tuple[int, int]] = set()
    pairs = skeleton.skeleton_pairs()
    adj: dict[int, set[int]] = {}
    for pair in pairs:
        a, b = tuple(pair)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for z in sorted(adj):
        for x, y in combinations(sorted(adj[z]), 2):
            if y in adj.get(x, ()):
                continue
            sep = sepsets.get(x, y)
            if sep is not None and z not in sep:
                proposals.add((x, z))
                proposals.add((y, z))
    directed = set()
    for u, v in proposals:
        if (v, u) in proposals:
            if u < v:  # one warning per edge, not one per direction
                log.warning(
                    "conflicting collider orientations on edge (%d, %d); "
                    "kept undirected",
                    u,
                    v,
                )
            continue
        directed.add((u, v))
    undirected = frozenset(pairs - {frozenset(e) for e in directed})
    return Pdag(skeleton.scheme, frozenset(directed), undirected)


def _meek_implies(a, b, directed, undirected, adj) -> bool:
    """True if one of R1-R4 orients the undirected edge a - b as a -> b."""
    spouses = (
        c
        for c in adj[a] & adj[b]
        if frozenset((a, c)) in undirected and (c, b) in directed
    )
    return (
        # R1: c -> a, a - b, c and b nonadjacent  =>  a -> b
        any(
            (c, a) in directed and b not in adj[c] and c != b
            for c in adj[a]
        )
        # R2: a -> c -> b with a - b  =>  a -> b
        or any(
            (a, c) in directed and (c, b) in directed
            for c in adj[a] & adj[b]
        )
        # R3: a - c, a - d, c -> b, d -> b, c and d nonadjacent  =>  a -> b
        or any(
            d not in adj[c]
            for c, d in combinations(spouses, 2)
        )
        # R4: c -> d -> b, a adjacent to c, c and b nonadjacent  =>  a -> b
        or any(
            (d, b) in directed
            and any(
                (c, d) in directed and c in adj[a] and b not in adj[c]
                for c in adj[d]
            )
            for d in adj[a] & adj[b]
        )
    )


def _apply_meek_rules(directed: set, undirected: set, adj) -> bool:
    """Orient the first undirected edge, in sorted pair order and trying
    both directions, that R1-R4 imply; returns True if one was oriented."""
    for pair in sorted(tuple(sorted(p)) for p in undirected):
        for a, b in (pair, pair[::-1]):
            if _meek_implies(a, b, directed, undirected, adj):
                undirected.discard(frozenset((a, b)))
                directed.add((a, b))
                return True
    return False


def meek_closure(pdag: Pdag) -> Pdag:
    """Apply R1-R4 to fixpoint.  Never un-orients an edge."""
    directed = set(pdag.directed)
    undirected = set(pdag.undirected)
    adj: dict[int, set[int]] = {v: set() for v in range(len(pdag.scheme))}
    for pair in pdag.skeleton_pairs():
        a, b = tuple(pair)
        adj[a].add(b)
        adj[b].add(a)
    while _apply_meek_rules(directed, undirected, adj):
        pass
    return Pdag(pdag.scheme, frozenset(directed), frozenset(undirected))


def pc_run(
    ci_or_data,
    alpha_level: float = 0.05,
    max_cond_size: int | None = None,
    test: str = "g2",
) -> Pdag:
    """Full pipeline: skeleton -> collider orientation -> Meek closure."""
    if isinstance(ci_or_data, CategoricalDataset):
        ci = make_ci_from_data(ci_or_data, test=test)
    else:
        ci = ci_or_data
    skeleton, sepsets = learn_skeleton(ci, alpha_level, max_cond_size)
    return meek_closure(orient_v_structures(skeleton, sepsets))


def dag_to_cpdag(dag: Dag) -> Pdag:
    """Pattern (CPDAG) of a DAG: skeleton, its v-structures, Meek closure."""
    scheme = dag.scheme
    directed = set()
    for z in range(len(scheme)):
        for x, y in combinations(dag.parents(z), 2):
            if (x, y) not in dag.edges and (y, x) not in dag.edges:
                directed.add((x, z))
                directed.add((y, z))
    undirected = {
        frozenset((u, v))
        for u, v in dag.edges
        if (u, v) not in directed
    }
    return meek_closure(Pdag(scheme, frozenset(directed), frozenset(undirected)))


def structural_hamming_distance(a: Pdag, b: Pdag) -> int:
    """Edge-wise mismatch count between two partially directed graphs."""

    def kind(g: Pdag, pair):
        u, v = tuple(pair)
        if (u, v) in g.directed:
            return (u, v)
        if (v, u) in g.directed:
            return (v, u)
        if pair in g.undirected:
            return "undirected"
        return None

    pairs = a.skeleton_pairs() | b.skeleton_pairs()
    return sum(1 for pair in pairs if kind(a, pair) != kind(b, pair))
