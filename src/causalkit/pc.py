"""The PC algorithm: CI testing, stable skeleton search, collider
orientation, and the four Meek propagation rules.

The CI test is pluggable so the pipeline can run against a d-separation
oracle instead of data, separating algorithmic correctness from sampling
noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations, count

import numpy as np
from scipy.special import chdtrc

from .data import CategoricalDataset
from .errors import InsufficientData, UnknownVariable
from .graph import Dag, Pdag, VariableScheme, reaches

log = logging.getLogger(__name__)


@dataclass
class SepsetMap:
    """Separating sets found during skeleton pruning, by unordered pair."""

    sets: dict[frozenset[int], frozenset[int]] = field(default_factory=dict)

    def put(self, x: int, y: int, cond) -> None:
        self.sets[frozenset((x, y))] = frozenset(cond)

    def get(self, x: int, y: int):
        return self.sets.get(frozenset((x, y)))


# Upper bound on the codes (rows x variable tuples) one bincount counts, on
# the table cells one reduction reads, and on the sets of one pair that one
# wave holds: about six sets at n = 10,000 and 65 at n = 1,000.  Smaller
# batches pay numpy's per-call cost more often; larger ones compute more sets
# past the first independence, which ends a pair's search.
_BATCH_CODES = 1 << 16


def _batch(n_rows: int) -> int:
    return max(1, _BATCH_CODES // max(n_rows, 1))


def _statistics(tables, rx, ry, test):
    """Statistic and dof of each (strata, rx, ry) count table.  Each statistic
    is one sum over the table's own contiguous run of terms, so it is
    bit-identical to a table counted alone; np.add.reduce sums each row of a
    matrix of equal-length runs in that same order (np.add.reduceat would not).
    """
    strata = np.array([len(t) for t in tables])
    tables = np.concatenate(tables)
    rows, cols = np.einsum("sij->si", tables), np.einsum("sij->sj", tables)
    n_s = np.einsum("si->s", rows)
    nonempty = n_s > 0
    # Nonempty strata per table; a table with none means no rows at all.
    kept = np.add.reduceat(nonempty, np.cumsum(strata) - strata, dtype=np.int64)
    if not kept.all():
        raise InsufficientData("every conditioning stratum is empty")
    tables, n_s = tables[nonempty], n_s[nonempty, None, None]
    expected = rows[nonempty, :, None] * cols[nonempty, None, :] / n_s
    mask = tables > 0 if test == "g2" else expected > 0
    observed, expected = tables[mask], expected[mask]
    if test == "g2":
        terms, scale = observed * np.log(observed / expected), 2.0
    else:
        terms, scale = (observed - expected) ** 2 / expected, 1.0
    ends = np.cumsum(np.count_nonzero(mask, axis=(1, 2)))[np.cumsum(kept) - 1]
    lengths = np.diff(ends, prepend=0)
    stat = np.empty(len(kept))
    for length in np.unique(lengths).tolist():
        which = np.flatnonzero(lengths == length)
        runs = (ends[which] - length)[:, None] + np.arange(length)
        stat[which] = np.add.reduce(terms[runs], axis=1)
    return scale * stat, (rx - 1) * (ry - 1) * kept


def _check_test(x, y, cond, n_vars):
    """Reject a CI test whose variables are not distinct indices in [0, n_vars)."""
    key = sorted((x, y, *cond))
    if key[0] < 0 or key[-1] >= n_vars:
        raise UnknownVariable(f"CI test {x}, {y} | {cond}: index not in [0, {n_vars})")
    if len(set(key)) < len(key):
        raise ValueError(f"CI test {x}, {y} | {cond} needs distinct variables")


def _ci_tests(data: CategoricalDataset, tests, test, tables):
    """(stat, p, dof) arrays of the CI tests (x, y, cond) in `tests` on data.

    `tables` maps a sorted variable tuple to its joint count table, which
    every test on that tuple reads in (cond..., x, y) axis order; it is
    emptied when the tuple length, so PC's level, changes.  Tests are grouped
    by (card x, card y) and reduced in runs.
    """
    if test not in ("g2", "chi2"):
        raise ValueError(f"unknown test {test!r}")
    cards = data.scheme.cardinalities()
    keys = [tuple(sorted((x, y, *cond))) for x, y, cond in tests]
    if tables and keys and len(next(iter(tables))) != len(keys[0]):
        tables.clear()
    missing = {}
    for (x, y, cond), key in zip(tests, keys):
        if key not in tables and key not in missing:
            _check_test(x, y, cond, len(cards))
            missing[key] = None
    tables.update(zip(missing, data.joint_counts(list(missing), _batch(data.n))))

    stat, dof = np.empty(len(tests)), np.empty(len(tests), dtype=np.int64)
    groups: dict[tuple[int, int], list] = {}
    for i, ((x, y, cond), key) in enumerate(zip(tests, keys)):
        view = tables[key].transpose([key.index(v) for v in (*cond, x, y)])
        groups.setdefault((cards[x], cards[y]), []).append((i, view))
    for (rx, ry), views in groups.items():
        # Runs of tables that hold at most _BATCH_CODES cells (or one table).
        step = max(1, _BATCH_CODES // max(view.size for _, view in views))
        for start in range(0, len(views), step):
            run = views[start:start + step]
            index = [i for i, _ in run]
            stat[index], dof[index] = _statistics(
                [view.reshape(-1, rx, ry) for _, view in run], rx, ry, test
            )
    p = np.ones(len(tests))
    p[dof > 0] = chdtrc(dof[dof > 0], stat[dof > 0])
    return stat, p, dof


def ci_test_g2(data: CategoricalDataset, x: int, y: int, cond=(), test="g2"):
    """Conditional independence test for discrete columns.

    Returns (statistic, p_value, dof), computed as a wave of one.  Degrees
    of freedom are reduced for conditioning strata with no observations;
    zero-count cells contribute nothing to the statistic.
    """
    stat, p, dof = _ci_tests(data, [(x, y, tuple(cond))], test, {})
    return float(stat[0]), float(p[0]), int(dof[0])


def make_ci_from_data(data: CategoricalDataset, test: str = "g2"):
    """CI callable over data: ci(tests) returns the p-values of a wave of
    tests (x, y, cond), in order; `ci.batch` is how many sets of one pair a
    wave holds.  A level's count tables are kept for its later waves."""
    tables = {}

    def ci(tests):
        return _ci_tests(data, tests, test, tables)[1].tolist()

    ci.scheme, ci.batch = data.scheme, _batch(data.n)
    return ci


def make_ci_from_dag(dag: Dag):
    """d-separation oracle with the CI-callable interface: p in {0, 1} per
    test, and one set of each pair per wave."""

    def ci(tests):
        for x, y, cond in tests:
            _check_test(x, y, cond, len(dag.scheme))
        return [1.0 if d_separated(dag, x, y, cond) else 0.0 for x, y, cond in tests]

    ci.scheme, ci.batch = dag.scheme, 1
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

    `ci` is a callable that takes a wave, a list of tests (x, y, cond), and
    returns their p-values in order; it carries `.scheme` and `.batch`, how
    many sets of one pair a wave holds (use make_ci_from_data or
    make_ci_from_dag).  Conditioning sets grow level by level and deletions
    are batched per level, making the result independent of edge traversal
    order, so each wave holds the next batch of every pair still searching.
    A pair's candidate sets are those from x's neighbours, then those from
    y's not already listed; the first with p > alpha_level separates the
    pair.  One DEBUG line per level gives the p-values computed and the edges
    removed.
    """
    if not 0 < alpha_level < 1:
        raise ValueError("alpha_level must be in (0, 1)")
    if max_cond_size is not None and not (
        type(max_cond_size) is int and max_cond_size >= 0  # a bool is not a depth
    ):
        raise ValueError("max_cond_size must be None or a non-negative int")
    scheme: VariableScheme = ci.scheme
    n = len(scheme)
    if max_cond_size is None:
        max_cond_size = n - 2
    adj = {v: set(range(n)) - {v} for v in range(n)}
    sepsets = SepsetMap()

    level = 0
    while level <= max_cond_size:
        if all(len(adj[v]) - 1 < level for v in adj):
            break
        searching = []
        for x, y in combinations(range(n), 2):
            if y in adj[x]:
                conds = dict.fromkeys(combinations(sorted(adj[x] - {y}), level))
                conds.update(dict.fromkeys(combinations(sorted(adj[y] - {x}), level)))
                searching.append((x, y, list(conds)))
        removals, computed = {}, 0
        for start in count(0, ci.batch):
            wave = [
                (x, y, cond)
                for x, y, conds in searching
                if (x, y) not in removals
                for cond in conds[start:start + ci.batch]
            ]
            if not wave:
                break
            for (x, y, cond), p in zip(wave, ci(wave)):
                if p > alpha_level:
                    removals.setdefault((x, y), cond)
            computed += len(wave)
        for (x, y), cond in sorted(removals.items()):
            adj[x].discard(y)
            adj[y].discard(x)
            sepsets.put(x, y, cond)
        log.debug(
            "PC level %d: %d CI p-values computed, %d edges removed",
            level,
            computed,
            len(removals),
        )
        level += 1

    undirected = frozenset(
        frozenset((x, y)) for x in adj for y in adj[x] if x < y
    )
    return Pdag(scheme, frozenset(), undirected), sepsets


def orient_v_structures(skeleton: Pdag, sepsets: SepsetMap) -> Pdag:
    """Orient x -> z <- y for nonadjacent x, y whose sepset excludes z.

    Conflicting demands on one edge leave it undirected (logged), and so
    does an orientation that would close a directed cycle with those made
    before it (logged): colliders from sampled data need not be consistent.
    """
    proposals: set[tuple[int, int]] = set()
    adj = skeleton.neighbours
    for z, around in enumerate(adj):
        for x, y in combinations(sorted(around), 2):
            if y in adj[x]:
                continue
            sep = sepsets.get(x, y)
            if sep is not None and z not in sep:
                proposals.add((x, z))
                proposals.add((y, z))
    oriented: set[tuple[int, int]] = set()
    for u, v in proposals:
        if (v, u) not in proposals:
            if reaches(oriented, v, u):
                log.warning(
                    "collider orientation (%d, %d) would close a directed cycle; "
                    "kept undirected",
                    u,
                    v,
                )
            else:
                oriented.add((u, v))
        elif u < v:  # one warning per edge, not one per direction
            log.warning(
                "conflicting collider orientations on edge (%d, %d); "
                "kept undirected",
                u,
                v,
            )
    undirected = skeleton.skeleton_pairs() - {frozenset(e) for e in oriented}
    return Pdag(skeleton.scheme, frozenset(oriented), frozenset(undirected))


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
            (c, a) in directed and b not in adj[c]
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


def meek_closure(pdag: Pdag, acyclic: bool = False) -> Pdag:
    """Apply R1-R4 to fixpoint.  Never un-orients an edge.

    Each step orients the first undirected edge, in sorted pair order and
    trying both directions, that R1-R4 imply.  Meek's rules are sound only
    for a consistent pattern; on colliders from sampled data they can close
    a directed cycle.  With `acyclic=True` (as pc_run uses it) the directed
    edges must form a Dag (else CycleError), and a step whose head reaches its
    tail stays undirected, is skipped from then on, and a warning is logged.
    """
    directed = set(pdag.directed)
    undirected = set(pdag.undirected)
    if acyclic:
        Dag(pdag.scheme, pdag.directed)
    refused: set[frozenset[int]] = set()
    while step := next(
        (
            (a, b)
            for pair in sorted(tuple(sorted(p)) for p in undirected - refused)
            for a, b in (pair, pair[::-1])
            if _meek_implies(a, b, directed, undirected, pdag.neighbours)
        ),
        None,
    ):
        if acyclic and reaches(directed, step[1], step[0]):
            log.warning(
                "orienting (%d, %d) would close a directed cycle; kept undirected",
                *step,
            )
            refused.add(frozenset(step))
        else:
            undirected.discard(frozenset(step))
            directed.add(step)
    return Pdag(pdag.scheme, frozenset(directed), frozenset(undirected))


def pc_run(
    ci_or_data,
    alpha_level: float = 0.05,
    max_cond_size: int | None = None,
    test: str = "g2",
) -> Pdag:
    """Full pipeline: skeleton -> collider orientation -> Meek closure, both
    steps refusing any orientation that would close a directed cycle."""
    if isinstance(ci_or_data, CategoricalDataset):
        ci = make_ci_from_data(ci_or_data, test=test)
    else:
        ci = ci_or_data
    skeleton, sepsets = learn_skeleton(ci, alpha_level, max_cond_size)
    return meek_closure(orient_v_structures(skeleton, sepsets), acyclic=True)


def dag_to_cpdag(dag: Dag) -> Pdag:
    """Pattern (CPDAG) of a DAG: PC's collider step, then Meek closure.  A
    nonadjacent pair x, y is separated by pa(x) | pa(y), as one is a
    non-descendant of the other (local Markov property, weak union).  That set
    holds the middle of every chain or fork between them and never a collider,
    so exactly the unshielded colliders are oriented, and none is refused."""
    skeleton = Pdag(dag.scheme, undirected=frozenset(map(frozenset, dag.edges)))
    sepsets = SepsetMap()
    for x, y in combinations(range(len(dag.scheme)), 2):
        if y not in skeleton.neighbours[x]:
            sepsets.put(x, y, dag.parents(x) + dag.parents(y))
    return meek_closure(orient_v_structures(skeleton, sepsets))


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
