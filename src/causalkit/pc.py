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
from .errors import CycleError, InsufficientData
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


# Upper bound on the codes (rows x conditioning sets) one batch counts: about
# six sets at n = 10,000 and 65 at n = 1,000.  Smaller batches pay numpy's
# per-call cost more often; larger ones compute more sets past the first
# independence, which ends a pair's search.
_BATCH_CODES = 1 << 16


def _ci_batches(columns, cards, x, y, conds, test):
    """Yield (stat, p, dof) arrays for x and y given each conditioning set in
    `conds` (tuples of one size), one batch at a time, in order.

    `columns[v]` is the data column of variable v.  Each batch is one
    bincount over every set's (stratum, x, y) cells, laid end to end.
    Each set's statistic is one sum over its own contiguous slice of terms,
    so it is bit-identical to counting that set alone (np.add.reduceat
    would sum in another order).
    """
    rx, ry = cards[x], cards[y]
    cells = rx * ry
    card = np.asarray(cards)
    xy = columns[x] * ry + columns[y]
    step = max(1, _BATCH_CODES // max(len(xy), 1))
    for start in range(0, len(conds), step):
        batch = np.array(conds[start:start + step], dtype=np.intp)  # (m, level)
        m = len(batch)
        # A set's code is its offset + stratum * cells + the (x, y) code; the
        # stratum puts the set's first variable most significant.
        strata = np.prod(card[batch], axis=1)
        offsets = np.cumsum(strata) - strata
        codes = np.add.outer(offsets * cells, xy)
        stride = np.full(m, cells)
        for j in reversed(range(batch.shape[1])):
            term = columns[batch[:, j]]
            term *= stride[:, None]
            codes += term
            stride *= card[batch[:, j]]
        tables = np.bincount(codes.ravel(), minlength=int(strata.sum()) * cells)
        tables = tables.reshape(-1, rx, ry)
        n_s = tables.sum(axis=(1, 2))
        nonempty = n_s > 0
        # Nonempty strata per set; a set with none means no rows at all.
        kept = np.add.reduceat(nonempty, offsets, dtype=np.int64)
        if not kept.all():
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
            terms, scale = observed * np.log(observed / expected), 2.0
        elif test == "chi2":
            terms, scale = (observed - expected) ** 2 / expected, 1.0
        else:
            raise ValueError(f"unknown test {test!r}")
        # One past each set's last term: the running term count at the end
        # of the set's last nonempty stratum.
        ends = np.cumsum(mask.sum(axis=(1, 2)))[np.cumsum(kept) - 1].tolist()
        stat = np.array([
            scale * float(np.add.reduce(terms[lo:hi]))
            for lo, hi in zip([0] + ends[:-1], ends)
        ])
        dof = (rx - 1) * (ry - 1) * kept
        p = np.ones(m)
        p[dof > 0] = chdtrc(dof[dof > 0], stat[dof > 0])
        yield stat, p, dof


def ci_test_g2(data: CategoricalDataset, x: int, y: int, cond=(), test="g2"):
    """Conditional independence test for discrete columns.

    Returns (statistic, p_value, dof), computed as a batch of one.  Degrees
    of freedom are reduced for conditioning strata with no observations;
    zero-count cells contribute nothing to the statistic.
    """
    cards = data.scheme.cardinalities()
    batches = _ci_batches(data.rows.T, cards, x, y, [tuple(cond)], test)
    stat, p, dof = next(batches)
    return float(stat[0]), float(p[0]), int(dof[0])


def make_ci_from_data(data: CategoricalDataset, test: str = "g2"):
    """CI callable over data: ci(x, y, conds) yields the p-values of the
    conditioning sets `conds`, a list of equal-size tuples, in order and in
    batches, each batch computed only when it is reached."""
    # A column-major copy, made once per run, turns every column that a
    # test reads into a contiguous array.
    columns = np.ascontiguousarray(data.rows.T)
    cards = data.scheme.cardinalities()

    def ci(x: int, y: int, conds):
        for _, p, _ in _ci_batches(columns, cards, x, y, conds, test):
            yield p.tolist()

    ci.scheme = data.scheme
    return ci


def make_ci_from_dag(dag: Dag):
    """d-separation oracle with the CI-callable interface: one verdict
    (p in {0, 1}) per batch, each computed only when it is reached."""

    def ci(x: int, y: int, conds):
        for cond in conds:
            yield [1.0 if d_separated(dag, x, y, cond) else 0.0]

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

    `ci` is a callable (x, y, conds) yielding, in batches and in order, the
    p-values of the conditioning sets `conds`; it carries a `.scheme`
    attribute (use make_ci_from_data or make_ci_from_dag).  Conditioning
    sets grow level by level and deletions are batched per level, making the
    result independent of edge traversal order.  A pair's candidate sets are
    those from x's neighbours, then those from y's not already listed; the
    first with p > alpha_level separates the pair.  One DEBUG line per level
    gives the p-values computed and the edges removed.
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
        computed = 0
        for x, y in combinations(range(n), 2):
            if y not in adj[x]:
                continue
            conds = list(combinations(sorted(snapshot[x] - {y}), level))
            listed = set(conds)
            conds += [
                c
                for c in combinations(sorted(snapshot[y] - {x}), level)
                if c not in listed
            ]
            tested = 0
            for batch in ci(x, y, conds) if conds else ():
                hit = next(
                    (i for i, p in enumerate(batch, tested) if p > alpha_level), None
                )
                tested += len(batch)
                if hit is not None:
                    removals.append((x, y, conds[hit]))
                    break
            computed += tested
        for x, y, cond in removals:
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
    dag = Dag(skeleton.scheme)
    for u, v in proposals:
        if (v, u) not in proposals:
            try:
                dag = dag.add(u, v)
            except CycleError:
                log.warning(
                    "collider orientation (%d, %d) would close a directed cycle; "
                    "kept undirected",
                    u,
                    v,
                )
        elif u < v:  # one warning per edge, not one per direction
            log.warning(
                "conflicting collider orientations on edge (%d, %d); "
                "kept undirected",
                u,
                v,
            )
    undirected = skeleton.skeleton_pairs() - {frozenset(e) for e in dag.edges}
    return Pdag(skeleton.scheme, dag.edges, frozenset(undirected))


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


def meek_closure(pdag: Pdag, acyclic: bool = False) -> Pdag:
    """Apply R1-R4 to fixpoint.  Never un-orients an edge.

    Each step orients the first undirected edge, in sorted pair order and
    trying both directions, that R1-R4 imply.  Meek's rules are sound only
    for a consistent pattern; on colliders from sampled data they can close
    a directed cycle.  With `acyclic=True` (as pc_run uses it) the directed
    edges must form a Dag (else CycleError), and a step the Dag refuses stays
    undirected, is skipped from then on, and a warning is logged.
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
        try:
            if acyclic:
                Dag(pdag.scheme, frozenset(directed | {step}))
        except CycleError:
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
