"""Bayesian-network parameterization and exact inference.

Inference returns the normalized posterior as an array with one axis per
query variable, in query order.  variable_elimination is the production path:
bucket elimination in which every multiply-and-sum step is one np.einsum
call.  The steps are planned once per (CPD scopes, cardinalities, query
variables, evidence variables) and replayed on each network of that
structure.  brute_force_query enumerates the full joint and is its oracle.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import string
from dataclasses import dataclass, field

import numpy as np

from .data import MAX_TABLE_CELLS, CategoricalDataset, contingency_counts
from .errors import (
    CardinalityMismatch,
    SchemaMismatch,
    StateSpaceTooLarge,
    UnknownVariable,
    UnparameterizedNetwork,
    ZeroEvidenceProbability,
)
from .graph import Dag, VariableScheme, parse_graph_json, serialize_graph

_PLAN_CACHE_SIZE = 512  # plans hold only strings and ints, a few kB each


@dataclass(frozen=True, eq=False)
class Cpd:
    """Row-stochastic table P(child state j | parent configuration i).

    Configuration indexing is row-major over the parent order, matching
    CountTable.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        if table.ndim != 2:
            raise CardinalityMismatch("CPD table must be 2-D")
        # One pass decides: a NaN or negative cell fails the min, an infinite
        # cell its row sum.  Only a table that fails is scanned again, for the
        # message; the sums of such a table may overflow or meet inf - inf.
        with np.errstate(over="ignore", invalid="ignore"):
            deviation = np.abs(table @ np.ones(table.shape[1]) - 1.0)
        if table.size and table.min() >= 0 and deviation.max() <= 1e-9:
            return
        if not np.isfinite(table).all():
            raise CardinalityMismatch(f"CPD table for {self.child} is not finite")
        if (table < 0).any() or deviation.max() > 1e-9:
            raise CardinalityMismatch(f"CPD rows for {self.child} not normalized")


@dataclass(frozen=True, eq=False)
class BayesianNetwork:
    dag: Dag
    cpds: dict[str, Cpd]
    # Derived once, in scheme order: each CPD's scope (parents, then child),
    # which keys its inference plans, and its table with one axis per scope.
    scopes: tuple = field(init=False, repr=False)
    tables: tuple = field(init=False, repr=False)

    def __post_init__(self):
        scheme = self.dag.scheme
        cards = scheme.cardinalities()
        for name in self.cpds:
            if name not in scheme.names:
                raise SchemaMismatch(f"CPD for {name}, which the dag does not have")
        scopes, tables = [], []
        for idx, name in enumerate(scheme.names):
            if name not in self.cpds:
                raise UnparameterizedNetwork(f"missing CPD for {name}")
            cpd = self.cpds[name]
            if cpd.child != name:
                raise UnparameterizedNetwork(
                    f"CPD for {cpd.child} is filed under {name}"
                )
            parents = self.dag.parents(idx)
            expected = tuple(scheme.names[p] for p in parents)
            if cpd.parents != expected:
                raise UnparameterizedNetwork(
                    f"CPD parents for {name} are {cpd.parents}, dag says {expected}"
                )
            shape = (math.prod(cards[p] for p in parents), cards[idx])
            if cpd.table.shape != shape:
                raise UnparameterizedNetwork(
                    f"CPD for {name} has shape {cpd.table.shape}, expected {shape}"
                )
            scopes.append(parents + (idx,))
            tables.append(cpd.table.reshape([cards[v] for v in scopes[-1]]))
        object.__setattr__(self, "scopes", tuple(scopes))
        object.__setattr__(self, "tables", tuple(tables))

    @property
    def scheme(self) -> VariableScheme:
        return self.dag.scheme

    def to_json(self) -> str:
        # One line per CPD: indent= would send every float through json's
        # pure-Python encoder, while json.dumps without it uses the C one.
        dag = json.dumps(json.loads(serialize_graph(self.dag, "json")))
        cpds = ",\n".join(
            f'    {json.dumps(name)}: {{"parents": {json.dumps(list(c.parents))}, '
            f'"table": {_table_text(c.table)}}}'
            for name, c in self.cpds.items()
        )
        return f'{{\n  "dag": {dag},\n  "cpds": {{\n{cpds}\n  }}\n}}\n'

    @classmethod
    def from_json(cls, text: str) -> "BayesianNetwork":
        payload = json.loads(text)
        try:
            dag_text = json.dumps(payload["dag"])
            specs = [
                (name, spec["parents"], spec["table"], np.array(spec["table"]))
                for name, spec in payload["cpds"].items()
            ]
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise SchemaMismatch(f"not a network of dag and cpds ({exc!r})") from None
        for name, parents, cells, table in specs:
            if not isinstance(parents, list):
                raise SchemaMismatch(f"CPD parents for {name} are not a list")
            # numpy reads a JSON boolean as the number 0 or 1, so only a table
            # holding one of those can hide a boolean cell.
            if table.dtype.kind not in "iuf" or (
                ((table == 0) | (table == 1)).any()
                and bool in map(type, np.array(cells, dtype=object).flat)
            ):
                raise SchemaMismatch(f"CPD table for {name} is not numbers")
        dag = parse_graph_json(dag_text)
        if not isinstance(dag, Dag):
            raise SchemaMismatch("the network's dag has undirected edges")
        cpds = {
            name: Cpd(name, tuple(parents), table) for name, parents, _, table in specs
        }
        return cls(dag, cpds)


def _table_text(table: np.ndarray) -> str:
    """`json.dumps(table.tolist())` for a finite 2-D float table.

    A fitted table repeats a few values many times (every unobserved parent
    configuration gets the same uniform row), so when fewer than half its
    cells are distinct, each distinct bit pattern is formatted once and the
    cells are joined lazily.  Otherwise sorting and indexing would only add
    time and memory to json's C encoder.
    """
    bits = table.view(np.uint64).ravel()
    if 2 * np.count_nonzero(np.diff(np.sort(bits))) >= table.size:
        return json.dumps(table.tolist())
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = list(map(float.__repr__, distinct.view(np.float64).tolist()))
    cells = map(texts.__getitem__, inverse.data)
    rows = map(", ".join, zip(*[cells] * table.shape[1]))
    return "[[" + "], [".join(rows) + "]]"


def fit_cpds(
    dag: Dag, data: CategoricalDataset, prior_ess: float
) -> BayesianNetwork:
    """Dirichlet posterior-mean CPDs with BDeu-consistent pseudocounts.

    P(j|i) = (n_ij + a/(N_i*N_j)) / (n_i + a/N_i); parent configurations
    never observed get the uniform distribution.
    """
    if isinstance(prior_ess, (bool, np.bool_)) or not 0 < prior_ess < math.inf:
        raise ValueError("prior_ess must be positive and finite")
    if dag.scheme is not data.scheme and dag.scheme != data.scheme:
        raise ValueError("dag and data use different schemes")
    cpds = {}
    for idx, name in enumerate(dag.scheme.names):
        parents = dag.parents(idx)
        counts = contingency_counts(data, idx, parents)
        a_i = prior_ess / counts.n_configs
        a_ij = a_i / counts.child_card
        # In place: the same IEEE operations without a broadcast temporary.
        table = counts.n_ij + a_ij
        table /= (counts.n_i + a_i)[:, None]
        cpds[name] = Cpd(name, tuple(dag.scheme.names[p] for p in parents), table)
    return BayesianNetwork(dag, cpds)


def variable_elimination(
    net: BayesianNetwork, query, evidence: dict | None = None
) -> np.ndarray:
    """Normalized posterior P(query | evidence) by bucket elimination.

    Each CPD's table, shaped to its scope, has the evidence sliced out; the
    cached plan of its structure, query and evidence variables is then
    replayed, one np.einsum call per step.
    """
    scheme = net.scheme
    query_idx, ev = _resolve_query(scheme, query, evidence)
    tables = dict(enumerate(
        table[tuple(ev.get(v, slice(None)) for v in scope)]
        for table, scope in zip(net.tables, net.scopes)
    ))
    plan = _plan(net.scopes, scheme.cardinalities(), query_idx, frozenset(ev))
    for slot, (spec, operands) in enumerate(plan, len(tables)):
        tables[slot] = np.einsum(spec, *map(tables.pop, operands))
    [values] = tables.values()
    return _normalized(values)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(scopes, cards, query_idx, evidence_vars) -> tuple:
    """The einsum steps of bucket elimination, as (spec, operand slots) pairs.

    Slots 0..n-1 hold the CPD tables over `scopes` less `evidence_vars`;
    step k consumes its operands and fills slot n + k, and the last step
    leaves the table over `query_idx`.  The variable eliminated next has the
    bucket product with the fewest cells (lower index on ties); its bucket is
    multiplied two tables at a time and the variable summed out in the last
    product.  Only scopes and cardinalities are read, never evidence states
    or table values, so networks of one structure share plans.  Letters are
    assigned per step, so one step may span at most 52 distinct variables.
    """
    n = len(scopes)
    live = {
        slot: tuple(v for v in scope if v not in evidence_vars)
        for slot, scope in enumerate(scopes)
    }
    steps = []

    def union(slots, drop=None):
        return tuple(sorted({v for s in slots for v in live[s]} - {drop}))

    def contract(slots, out):
        operands = [live.pop(s) for s in slots]
        letter: dict[int, str] = {}
        for scope in operands:
            for v in scope:
                letter.setdefault(v, string.ascii_letters[len(letter)])
        spec = ",".join("".join(map(letter.get, scope)) for scope in operands)
        steps.append((spec + "->" + "".join(map(letter.get, out)), slots))
        live[n + len(steps) - 1] = out
        return n + len(steps) - 1

    def bucket_cells(var):
        joint = union([s for s, scope in live.items() if var in scope])
        return math.prod(cards[v] for v in joint), var

    while remaining := set(union(live)) - set(query_idx):
        var = min(remaining, key=bucket_cells)
        product, *others = [s for s, scope in live.items() if var in scope]
        for slot in others[:-1]:
            product = contract((product, slot), union((product, slot)))
        last = (product, *others[-1:])
        contract(last, union(last, drop=var))
    contract(tuple(live), query_idx)
    return tuple(steps)


def brute_force_query(
    net: BayesianNetwork, query, evidence: dict | None = None
) -> np.ndarray:
    """Oracle: materialize the full joint, condition, and marginalize."""
    scheme = net.scheme
    cards = scheme.cardinalities()
    if (size := math.prod(cards)) > MAX_TABLE_CELLS:
        raise StateSpaceTooLarge(f"joint has {size} entries")
    query_idx, ev = _resolve_query(scheme, query, evidence)

    joint = np.ones(cards)
    all_vars = tuple(range(len(scheme)))
    for scope, table in zip(net.scopes, net.tables):
        axes = [cards[v] if v in scope else 1 for v in all_vars]
        order = sorted(range(len(scope)), key=scope.__getitem__)
        joint = joint * np.transpose(table, order).reshape(axes)

    # Condition on evidence by slicing, then sum out everything but the query.
    index = [slice(None)] * len(all_vars)
    for var, state in ev.items():
        index[var] = state
    conditioned = joint[tuple(index)]
    kept = [v for v in all_vars if v not in ev]
    sum_axes = tuple(i for i, v in enumerate(kept) if v not in query_idx)
    marginal = conditioned.sum(axis=sum_axes)
    remaining = [v for v in kept if v in query_idx]
    marginal = np.transpose(marginal, [remaining.index(q) for q in query_idx])
    return _normalized(marginal)


def _normalized(values: np.ndarray) -> np.ndarray:
    """`values` over their sum, a 0-d array for an empty query."""
    total = values.sum()
    if total <= 0:
        raise ZeroEvidenceProbability("evidence has probability zero")
    return np.asarray(values / total)


def _resolve_query(scheme: VariableScheme, query, evidence):
    """(query indices, {evidence index: state}), checked before any plan."""
    query_idx = tuple(map(scheme.resolve, query))
    if len(set(query_idx)) < len(query_idx):
        raise ValueError(f"query {list(query)!r} repeats a variable")
    ev = {}
    for key, value in (evidence or {}).items():
        var = scheme.resolve(key)
        if var in ev:
            raise ValueError(f"evidence names {scheme.names[var]} twice")
        if isinstance(value, str):
            state = scheme.state_index(var, value)
        elif isinstance(value, bool):
            raise TypeError(f"state {value!r} for {scheme.names[var]} is a bool")
        else:
            state = operator.index(value)
        if not 0 <= state < scheme.cardinality(var):
            raise UnknownVariable(
                f"state {value!r} out of range for {scheme.names[var]}"
            )
        ev[var] = state
    if set(query_idx) & ev.keys():
        raise ValueError("query and evidence overlap")
    return query_idx, ev

