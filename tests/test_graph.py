import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit.data import CategoricalDataset
from causalkit.errors import CycleError, SchemaMismatch, UnknownVariable
from causalkit.graph import (
    Dag,
    Pdag,
    VariableScheme,
    parse_graph_json,
    reaches,
    serialize_graph,
)

from conftest import binary_scheme, dag_from_insertions


def dfs_has_cycle(adjacency):
    """Independent oracle: recursive three-color DFS."""
    n = len(adjacency)
    color = [0] * n

    def visit(u):
        color[u] = 1
        for v in range(n):
            if adjacency[u][v]:
                if color[v] == 1 or (color[v] == 0 and visit(v)):
                    return True
        color[u] = 2
        return False

    return any(color[u] == 0 and visit(u) for u in range(n))


class TestScheme:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VariableScheme.of([("A", ("0", "1")), ("A", ("0", "1"))])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="names must be nonempty"):
            VariableScheme.of([("", ("0", "1"))])

    def test_single_state_rejected(self):
        with pytest.raises(ValueError):
            VariableScheme.of([("A", ("only",))])

    @pytest.mark.parametrize("label", ["", "NA", "na", "NaN", "nan", "nAn"])
    def test_state_read_as_missing_rejected(self, label):
        # CSV reading takes these cells for missing values, so a state so
        # labelled could never be read back.
        with pytest.raises(ValueError, match="missing value"):
            VariableScheme.of([("A", (label, "x"))])

    @pytest.mark.parametrize("label", [" x", "x ", "\tx", "x\n"])
    def test_state_with_surrounding_whitespace_rejected(self, label):
        # CSV reading strips every cell, so such a label could never be read.
        with pytest.raises(ValueError, match="whitespace CSV reading strips"):
            VariableScheme.of([("A", (label, "y"))])

    @pytest.mark.parametrize("name", [" A", "A ", " "])
    def test_name_with_surrounding_whitespace_rejected(self, name):
        # CSV reading strips every header, so no column could match the name.
        with pytest.raises(ValueError, match="whitespace, which CSV reading strips"):
            VariableScheme.of([(name, ("x", "y"))])

    def test_lookup(self):
        s = binary_scheme(3)
        assert s.index("X2") == 2
        assert s.cardinality("X0") == 2
        with pytest.raises(UnknownVariable):
            s.index("nope")

    @pytest.mark.parametrize(
        "key, error",
        [
            (-1, UnknownVariable),
            (3, UnknownVariable),
            (True, TypeError),
            (1.0, TypeError),
        ],
    )
    def test_every_lookup_takes_a_name_or_an_index_in_range(self, key, error):
        # -1 is not the last variable and True is not variable 1, in every
        # lookup as in variable elimination.
        s = binary_scheme(3)
        dag = Dag(s, [("X0", "X1"), ("X1", "X2")])
        data = CategoricalDataset(s, np.array([[0, 1, 1], [1, 0, 1]]))
        lookups = (dag.parents, dag.children, data.column, s.states, s.cardinality)
        for lookup in lookups:
            assert np.array_equal(lookup("X1"), lookup(1))
            assert np.array_equal(lookup(np.int64(1)), lookup(1))
            with pytest.raises(error):
                lookup(key)


class TestEndpoints:
    """Every edge endpoint is read by VariableScheme.resolve."""

    def test_names_indices_and_numpy_integers_build_one_graph(self):
        s = binary_scheme(3)
        spellings = [
            [("X0", "X1"), ("X1", "X2")],
            [(0, 1), (1, 2)],
            [(np.int64(0), np.int32(1)), (np.uint8(1), np.int64(2))],
            [("X0", 1), (np.int64(1), "X2")],
        ]
        dags = [Dag(s, edges) for edges in spellings]
        pdags = [Pdag(s, edges[:1], edges[1:]) for edges in spellings]
        assert all(dag == dags[1] for dag in dags)
        assert all(pdag == pdags[1] for pdag in pdags)
        endpoints = [v for dag in dags for e in dag.edges for v in e]
        endpoints += [v for pdag in pdags for e in pdag.directed for v in e]
        endpoints += [v for pdag in pdags for e in pdag.undirected for v in e]
        assert {type(v) for v in endpoints} == {int}
        assert dags[1].edges == {(0, 1), (1, 2)}
        assert pdags[1].undirected == {frozenset({1, 2})}

    @pytest.mark.parametrize(
        "key, error",
        [
            (-1, UnknownVariable),
            (3, UnknownVariable),
            (True, TypeError),
            (1.0, TypeError),
            ("BOGUS", UnknownVariable),
        ],
    )
    def test_an_endpoint_that_is_not_a_variable_is_rejected(self, key, error):
        s = binary_scheme(3)
        builds = (
            lambda edge: Dag(s, {edge}),
            lambda edge: Pdag(s, directed={edge}),
            lambda edge: Pdag(s, undirected={edge}),
        )
        for build in builds:
            for edge in (key, 0), (0, key):
                with pytest.raises(error):
                    build(edge)


class TestIsAcyclic:
    def test_self_loop(self):
        with pytest.raises(CycleError):
            Dag(binary_scheme(3), frozenset((v, v) for v in range(3)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_insertions_match_dfs_oracle(self, data):
        n = data.draw(st.integers(3, 7))
        edges = set()
        adj = [[0] * n for _ in range(n)]
        for _ in range(data.draw(st.integers(0, 20))):
            u = data.draw(st.integers(0, n - 1))
            v = data.draw(st.integers(0, n - 1))
            if u == v or adj[u][v]:
                continue
            adj[u][v] = 1
            would_cycle = dfs_has_cycle(adj)
            assert reaches(edges, v, u) == would_cycle
            if would_cycle:
                adj[u][v] = 0
            else:
                edges.add((u, v))
        Dag(binary_scheme(n), frozenset(edges))


class TestReaches:
    def test_follows_directed_paths_only(self):
        edges = {(0, 1), (1, 2), (3, 2)}
        assert reaches(edges, 0, 2) and reaches(edges, 3, 2)
        assert not reaches(edges, 2, 0) and not reaches(edges, 0, 3)
        assert reaches(set(), 4, 4)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_an_edge_closes_a_cycle_iff_the_constructor_refuses_it(self, data):
        # The Dag constructor's Kahn pass is the oracle.
        n = data.draw(st.integers(2, 7))
        rank = data.draw(st.permutations(range(n)))
        forward = [(u, v) for u in range(n) for v in range(n) if rank[u] < rank[v]]
        edges = frozenset(data.draw(st.lists(st.sampled_from(forward), max_size=15)))
        scheme = binary_scheme(n)
        Dag(scheme, edges)
        for u, v in itertools.product(range(n), repeat=2):
            try:
                Dag(scheme, edges | {(u, v)})
            except CycleError:
                assert reaches(edges, v, u)
            else:
                assert not reaches(edges, v, u)


class TestTopologicalOrder:
    def test_empty_graph_gives_scheme_order(self):
        s = VariableScheme.of([(n, ("0", "1")) for n in "ABC"])
        assert Dag(s).topological_order() == [0, 1, 2]

    def test_tie_break(self):
        s = VariableScheme.of([(n, ("0", "1")) for n in "ABC"])
        g = Dag(s, [("C", "A")])
        assert g.topological_order() == [1, 2, 0]

    def test_chain(self):
        s = VariableScheme.of([(n, ("0", "1")) for n in "ABC"])
        g = Dag(s, [("A", "B"), ("B", "C")])
        assert g.topological_order() == [0, 1, 2]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_respects_edges_and_is_permutation(self, data):
        n = data.draw(st.integers(2, 8))
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=15))
        g = dag_from_insertions(binary_scheme(n), pairs)
        order = g.topological_order()
        assert sorted(order) == list(range(n))
        position = {v: i for i, v in enumerate(order)}
        assert all(position[u] < position[v] for u, v in g.edges)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_smallest_order_and_families_match_naive_oracles(self, data):
        # The sampler draws variables in this order, so it fixes the bytes
        # that `sample` writes for a seed.
        n = data.draw(st.integers(1, 8))
        rank = data.draw(st.permutations(range(n)))
        pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        g = Dag(binary_scheme(n), frozenset(edges))
        # itertools.permutations yields in lexicographic order.
        smallest = next(
            list(p)
            for p in itertools.permutations(range(n))
            if all(p.index(u) < p.index(v) for u, v in edges)
        )
        assert g.topological_order() == smallest
        for v in range(n):
            assert g.parents(v) == tuple(sorted(u for u, w in edges if w == v))
            assert g.children(v) == tuple(sorted(w for u, w in edges if u == v))

    def test_add_closing_a_cycle_names_the_edge(self):
        g = Dag(binary_scheme(3), [("X0", "X1"), ("X1", "X2")])
        with pytest.raises(CycleError, match="^self-loop on X1$"):
            Dag(g.scheme, g.edges | {(1, 1)})
        with pytest.raises(CycleError, match="^edge set contains a directed cycle$"):
            Dag(g.scheme, g.edges | {(2, 0)})


class TestSerialization:
    def test_dot_directed(self):
        s = VariableScheme.of([("A", ("0", "1")), ("B", ("0", "1"))])
        g = Dag(s, [("A", "B")])
        assert '"A" -> "B";' in serialize_graph(g, "dot")

    def test_dot_undirected(self):
        s = VariableScheme.of([("A", ("0", "1")), ("B", ("0", "1"))])
        g = Pdag(s, undirected=[("A", "B")])
        assert '"A" -> "B" [dir=none];' in serialize_graph(g, "dot")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format 'yaml'"):
            serialize_graph(Dag(VariableScheme.of([("A", ("0", "1"))])), "yaml")

    def test_dot_escapes_quote_and_backslash(self):
        s = VariableScheme.of([('a"b', ("0", "1")), ("c\\", ("0", "1"))])
        g = Dag(s, [('a"b', "c\\")])
        assert serialize_graph(g, "dot").splitlines() == [
            "digraph G {",
            '  "a\\"b";',
            '  "c\\\\";',
            '  "a\\"b" -> "c\\\\";',
            "}",
        ]

    def test_json_round_trip_dag(self):
        s = binary_scheme(4)
        g = Dag(s, [("X0", "X1"), ("X2", "X3"), ("X0", "X3")])
        back = parse_graph_json(serialize_graph(g, "json"))
        assert back.edges == g.edges
        assert back.scheme == g.scheme

    def test_json_round_trip_pdag(self):
        s = binary_scheme(4)
        g = Pdag(
            s, directed=[("X0", "X1")], undirected=[("X2", "X3")]
        )
        back = parse_graph_json(serialize_graph(g, "json"))
        assert back.directed == g.directed
        assert back.undirected == g.undirected

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"directed": []},
            {"variables": [{"name": "X0"}], "directed": []},
            {"variables": [{"name": "X0", "states": ["0", "1"]}] * 2, "directed": []},
            {"variables": "V"},
            {"variables": "V", "directed": [[0, 1]], "undirected": [[0, 1]]},
            {"variables": "V", "directed": [[0, -1]]},
            {"variables": "V", "directed": [[0, 2]]},
            {"variables": "V", "directed": [[0, True]]},
            {"variables": "V", "directed": [[0, 1.0]]},
            {"variables": "V", "directed": [[0, 1, 1]]},
            {"variables": "V", "directed": {"0": 1}},
        ],
    )
    def test_json_of_wrong_shape_rejected(self, payload):
        if isinstance(payload, dict) and payload.get("variables") == "V":
            variables = json.loads(serialize_graph(Dag(binary_scheme(2)), "json"))
            payload = {**payload, "variables": variables["variables"]}
        with pytest.raises(SchemaMismatch):
            parse_graph_json(json.dumps(payload))

    def test_json_variables_must_match_given_scheme(self):
        s = binary_scheme(3)
        text = serialize_graph(Dag(s, [("X0", "X1")]), "json")
        assert parse_graph_json(text, s).edges == {(0, 1)}
        payload = json.loads(text)
        payload["variables"].reverse()
        with pytest.raises(SchemaMismatch):
            parse_graph_json(json.dumps(payload), s)
        del payload["variables"]
        assert parse_graph_json(json.dumps(payload), s).edges == {(0, 1)}

    def test_graph_file_edges_are_indices_not_names(self):
        payload = json.loads(serialize_graph(Dag(binary_scheme(2)), "json"))
        for key in "directed", "undirected":
            with pytest.raises(SchemaMismatch, match="not a pair of variable indices"):
                parse_graph_json(json.dumps({**payload, key: [["X0", "X1"]]}))


class TestPdag:
    def test_disjoint_sets_enforced(self):
        s = binary_scheme(2)
        with pytest.raises(ValueError):
            Pdag(s, directed=[("X0", "X1")], undirected=[("X0", "X1")])

    def test_undirected_self_loop_rejected(self):
        s = binary_scheme(2)
        with pytest.raises(ValueError, match="not two variables"):
            Pdag(s, undirected=frozenset({frozenset({0})}))
        text = serialize_graph(Pdag(s, undirected=[("X0", "X1")]), "json")
        payload = {**json.loads(text), "undirected": [[0, 0]]}
        with pytest.raises(SchemaMismatch, match=r"undirected edge \[0\]"):
            parse_graph_json(json.dumps(payload))

    def test_directed_self_loop_rejected(self):
        with pytest.raises(CycleError, match="self-loop on X1"):
            Pdag(binary_scheme(2), directed=frozenset({(1, 1)}))

    def test_double_orientation_rejected(self):
        s = binary_scheme(2)
        with pytest.raises(ValueError):
            Pdag(s, directed=[("X0", "X1"), ("X1", "X0")])

    def test_neighbours_are_derived_whatever_the_marks(self):
        pdag = Pdag(
            binary_scheme(5),
            directed=[("X0", "X1"), ("X2", "X1")],
            undirected=[("X1", "X3")],
        )
        assert pdag.neighbours == (
            frozenset({1}),
            frozenset({0, 2, 3}),
            frozenset({1}),
            frozenset({1}),
            frozenset(),
        )
        pairs = {frozenset((v, w)) for v, ws in enumerate(pdag.neighbours) for w in ws}
        assert pairs == pdag.skeleton_pairs()

    def test_graph_file_with_a_directed_cycle_rejected_whatever_the_undirected(self):
        s = binary_scheme(5)
        payload = json.loads(serialize_graph(Dag(s), "json"))
        cycle = {**payload, "directed": [[0, 1], [1, 2], [2, 0]]}
        for undirected in ([], [[3, 4]]):
            with pytest.raises(CycleError):
                parse_graph_json(json.dumps({**cycle, "undirected": undirected}))
        # A pair in both orientations keeps its own message.
        both = {**payload, "directed": [[0, 1], [1, 0]], "undirected": [[3, 4]]}
        with pytest.raises(SchemaMismatch, match="both orientations of one pair"):
            parse_graph_json(json.dumps(both))
