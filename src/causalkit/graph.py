"""Directed and partially directed graphs over a fixed categorical variable scheme.

Graphs are immutable values, built whole by their constructors, which
check them.  A graph only makes sense relative to one VariableScheme; each
edge endpoint is a name or an index, read by VariableScheme.resolve, and edges
are stored as (parent index, child index) pairs into the scheme's order.
"""

from __future__ import annotations

import heapq
import json
import operator
from dataclasses import dataclass, field

from .errors import CycleError, SchemaMismatch, UnknownVariable


def is_missing(text: str) -> bool:
    """Whether a stripped CSV cell is a missing value: empty, NA or NaN in
    any case.  No state may be labelled so, since it could not be read back."""
    return text.upper() in ("", "NA", "NAN")


@dataclass(frozen=True)
class VariableScheme:
    """Ordered list of named categorical variables with ordered state labels."""

    variables: tuple[tuple[str, tuple[str, ...]], ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for name, states in self.variables:
            if not name:
                raise ValueError("variable names must be nonempty")
            if name != name.strip():
                raise ValueError(
                    f"variable {name!r} has surrounding whitespace, which CSV "
                    "reading strips"
                )
            if len(states) < 2:
                raise ValueError(f"variable {name!r} needs at least 2 states")
            if len(set(states)) != len(states):
                raise ValueError(f"variable {name!r} repeats a state")
            for state in states:
                if is_missing(state):
                    raise ValueError(
                        f"variable {name!r} has state {state!r}, which CSV "
                        "reading takes for a missing value"
                    )
                if state != state.strip():
                    raise ValueError(
                        f"variable {name!r} has state {state!r}, whose "
                        "surrounding whitespace CSV reading strips"
                    )
        # Derived once, since names is read inside per-variable loops.
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})

    @classmethod
    def of(cls, variables) -> "VariableScheme":
        return cls(tuple((name, tuple(states)) for name, states in variables))

    def __len__(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def resolve(self, key) -> int:
        """A name's index, or an index in [0, n): -1 is not the last
        variable, and a bool is not an index."""
        if type(key) is int and 0 <= key < len(self.names):
            return key
        if isinstance(key, str):
            return self.index(key)
        if isinstance(key, bool):
            raise TypeError(f"variable {key!r} is a bool, not an index")
        if not 0 <= (var := operator.index(key)) < len(self.names):
            raise UnknownVariable(f"variable index {key!r} not in [0, {len(self)})")
        return var

    def states(self, name_or_index) -> tuple[str, ...]:
        return self.variables[self.resolve(name_or_index)][1]

    def cardinality(self, name_or_index) -> int:
        return len(self.states(name_or_index))

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(states) for _, states in self.variables)

    def state_index(self, variable, label: str) -> int:
        states = self.states(variable)
        try:
            return states.index(label)
        except ValueError:
            raise UnknownVariable(
                f"variable {variable!r} has no state {label!r}"
            ) from None


def _smallest_first_order(children) -> list[int]:
    """Kahn's algorithm, always taking the smallest ready index; the order is
    shorter than len(children) iff the edges have a directed cycle."""
    indegree = [0] * len(children)
    for heads in children:
        for v in heads:
            indegree[v] += 1
    ready = [v for v, d in enumerate(indegree) if d == 0]
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in children[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                heapq.heappush(ready, v)
    return order


def reaches(edges, source: int, target: int) -> bool:
    """Whether the (tail, head) pairs `edges` lead from source to target, by
    depth-first search; edge (u, v) would close a cycle iff v reaches u."""
    seen, stack = set(), [source]
    while stack:
        u = stack.pop()
        if u == target:
            return True
        if u not in seen:
            seen.add(u)
            stack += [head for tail, head in edges if tail == u]
    return False


@dataclass(frozen=True)
class Dag:
    """Acyclic digraph over a scheme, immutable and built whole by its constructor."""

    scheme: VariableScheme
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        resolve = self.scheme.resolve
        edges = frozenset((resolve(u), resolve(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        # Sorted parent and child tuples and the order, derived once.
        n = len(self.scheme)
        parents, children = [[] for _ in range(n)], [[] for _ in range(n)]
        for u, v in sorted(edges):
            if u == v:
                raise CycleError(f"self-loop on {self.scheme.names[u]}")
            parents[v].append(u)
            children[u].append(v)
        order = _smallest_first_order(children)
        if len(order) < n:
            raise CycleError("edge set contains a directed cycle")
        object.__setattr__(self, "_parents", tuple(map(tuple, parents)))
        object.__setattr__(self, "_children", tuple(map(tuple, children)))
        object.__setattr__(self, "_order", tuple(order))

    def parents(self, variable) -> tuple[int, ...]:
        return self._parents[self.scheme.resolve(variable)]

    def children(self, variable) -> tuple[int, ...]:
        return self._children[self.scheme.resolve(variable)]

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; ties broken by scheme index for determinism."""
        return list(self._order)


@dataclass(frozen=True)
class Pdag:
    """Partially directed graph: disjoint directed and undirected edge sets."""

    scheme: VariableScheme
    directed: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    undirected: frozenset[frozenset[int]] = field(default_factory=frozenset)
    neighbours: tuple[frozenset, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        resolve = self.scheme.resolve
        directed = frozenset((resolve(u), resolve(v)) for u, v in self.directed)
        und = frozenset(frozenset(map(resolve, e)) for e in self.undirected)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", und)
        # Each variable's neighbours, whatever the marks, derived as edges are checked.
        adj = [set() for _ in range(len(self.scheme))]
        for e in und:
            if len(e) != 2:
                raise ValueError(f"undirected edge {sorted(e)} is not two variables")
            a, b = e
            adj[a].add(b)
            adj[b].add(a)
        for u, v in directed:
            if u == v:
                raise CycleError(f"self-loop on {self.scheme.names[u]}")
            if frozenset((u, v)) in und:
                raise ValueError("edge appears both directed and undirected")
            if v in adj[u]:
                raise ValueError("both orientations of one pair present")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "neighbours", tuple(map(frozenset, adj)))

    def skeleton_pairs(self) -> set[frozenset[int]]:
        pairs = {frozenset(e) for e in self.directed}
        pairs |= set(self.undirected)
        return pairs


def _undirected_pairs_sorted(pdag: Pdag) -> list[tuple[int, int]]:
    return sorted(tuple(sorted(e)) for e in pdag.undirected)


def serialize_graph(graph, format: str = "json") -> str:
    """Render a Dag or Pdag as graphviz DOT or as round-trippable JSON."""
    scheme = graph.scheme
    directed = sorted(graph.edges if isinstance(graph, Dag) else graph.directed)
    undirected = [] if isinstance(graph, Dag) else _undirected_pairs_sorted(graph)
    if format == "dot":
        ids = [
            '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
            for name in scheme.names
        ]
        lines = ["digraph G {", *(f"  {i};" for i in ids)]
        lines += (f"  {ids[u]} -> {ids[v]};" for u, v in directed)
        lines += (f"  {ids[u]} -> {ids[v]} [dir=none];" for u, v in undirected)
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        payload = {
            "variables": [
                {"name": name, "states": list(states)}
                for name, states in scheme.variables
            ],
            "directed": [list(e) for e in directed],
            "undirected": [list(e) for e in undirected],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}")


def scheme_from_json(payload) -> VariableScheme:
    """The scheme of a parsed `{"variables": [{"name", "states"}, ...]}` object,
    whose names are strings and whose states are lists of strings."""
    try:
        variables = [(v["name"], v["states"]) for v in payload["variables"]]
        for name, states in variables:
            if not isinstance(name, str) or not (
                isinstance(states, list) and all(isinstance(s, str) for s in states)
            ):
                raise TypeError(
                    f"variable {name!r}: a name string and a list of state strings"
                )
        return VariableScheme.of(variables)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(
            f"not a variable list of name/states objects ({exc!r})"
        ) from None


def _edge_pairs(edges, n: int) -> list[tuple[int, int]]:
    """Validated [u, v] pairs of indices into an n-variable scheme."""
    if not isinstance(edges, list):
        raise SchemaMismatch(f"graph edges must be a list, got {edges!r}")
    for edge in edges:
        if not (
            isinstance(edge, list)
            and len(edge) == 2
            and all(type(i) is int and 0 <= i < n for i in edge)
        ):
            raise SchemaMismatch(
                f"edge {edge!r} is not a pair of variable indices 0..{n - 1}"
            )
    return [(u, v) for u, v in edges]


def parse_graph_json(text: str, scheme: VariableScheme | None = None):
    """Inverse of serialize_graph(json).  Returns a Dag when no undirected edges.

    JSON that is not a graph over the scheme raises SchemaMismatch, and
    directed edges that close a cycle raise CycleError.
    """
    payload = json.loads(text)
    if scheme is None:
        scheme = scheme_from_json(payload)
    elif isinstance(payload, dict) and "variables" in payload:
        if scheme_from_json(payload) != scheme:
            raise SchemaMismatch("the graph's variables differ from the scheme")
    if not isinstance(payload, dict) or "directed" not in payload:
        raise SchemaMismatch('graph JSON must be an object with a "directed" list')
    directed = frozenset(_edge_pairs(payload["directed"], len(scheme)))
    undirected = _edge_pairs(payload.get("undirected", []), len(scheme))
    if undirected:
        try:
            pdag = Pdag(scheme, directed, frozenset(frozenset(e) for e in undirected))
        except ValueError as exc:
            raise SchemaMismatch(str(exc)) from None
        Dag(scheme, directed)  # its directed part must be acyclic too
        return pdag
    return Dag(scheme, directed)
