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
    serialize_graph,
)

from conftest import binary_scheme


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
        dag = Dag.from_names(s, [("X0", "X1"), ("X1", "X2")])
        data = CategoricalDataset(s, np.array([[0, 1, 1], [1, 0, 1]]))
        lookups = (dag.parents, dag.children, data.column, s.states, s.cardinality)
        for lookup in lookups:
            assert np.array_equal(lookup("X1"), lookup(1))
            assert np.array_equal(lookup(np.int64(1)), lookup(1))
            with pytest.raises(error):
                lookup(key)
        with pytest.raises(error):
            dag.add(key, "X0")
        with pytest.raises(error):
            dag.remove("X0", key)


class TestMutateEdge:
    def test_add_single_edge(self):
        s = binary_scheme(2)
        g = Dag(s).add("X0", "X1")
        assert g.edges == {(0, 1)}

    def test_two_cycle_rejected(self):
        s = binary_scheme(2)
        g = Dag.from_names(s, [("X0", "X1")])
        with pytest.raises(CycleError):
            g.add("X1", "X0")

    def test_remove_is_inverse_of_add(self):
        s = binary_scheme(2)
        g = Dag(s).add("X0", "X1")
        assert g.remove("X0", "X1").edges == frozenset()

    def test_value_semantics(self):
        s = binary_scheme(2)
        g = Dag(s)
        g.add("X0", "X1")
        assert g.edges == frozenset()

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            Dag(binary_scheme(2)).add("X0", "Z9")


class TestIsAcyclic:
    def test_self_loop(self):
        with pytest.raises(CycleError):
            Dag(binary_scheme(3), frozenset((v, v) for v in range(3)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_insertions_match_dfs_oracle(self, data):
        n = data.draw(st.integers(3, 7))
        s = binary_scheme(n)
        g = Dag(s)
        adj = [[0] * n for _ in range(n)]
        for _ in range(data.draw(st.integers(0, 20))):
            u = data.draw(st.integers(0, n - 1))
            v = data.draw(st.integers(0, n - 1))
            if u == v or adj[u][v]:
                continue
            adj[u][v] = 1
            would_cycle = dfs_has_cycle(adj)
            try:
                g = g.add(u, v)
                assert not would_cycle
            except CycleError:
                assert would_cycle
                adj[u][v] = 0


class TestTopologicalOrder:
    def test_empty_graph_gives_scheme_order(self):
        s = VariableScheme.of([(n, ("0", "1")) for n in "ABC"])
        assert Dag(s).topological_order() == [0, 1, 2]

    def test_tie_break(self):
        s = VariableScheme.of([(n, ("0", "1")) for n in "ABC"])
        g = Dag.from_names(s, [("C", "A")])
        assert g.topological_order() == [1, 2, 0]

    def test_chain(self):
        s = VariableScheme.of([(n, ("0", "1")) for n in "ABC"])
        g = Dag.from_names(s, [("A", "B"), ("B", "C")])
        assert g.topological_order() == [0, 1, 2]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_respects_edges_and_is_permutation(self, data):
        n = data.draw(st.integers(2, 8))
        s = binary_scheme(n)
        g = Dag(s)
        for _ in range(data.draw(st.integers(0, 15))):
            u = data.draw(st.integers(0, n - 1))
            v = data.draw(st.integers(0, n - 1))
            if u != v:
                try:
                    g = g.add(u, v)
                except CycleError:
                    pass
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
        g = Dag.from_names(binary_scheme(3), [("X0", "X1"), ("X1", "X2")])
        closing = "^adding X2 -> X0 would create a directed cycle$"
        with pytest.raises(CycleError, match=closing):
            g.add("X2", "X0")
        with pytest.raises(CycleError, match="^self-loop on X1$"):
            g.add("X1", "X1")
        with pytest.raises(CycleError, match="^edge set contains a directed cycle$"):
            Dag(g.scheme, g.edges | {(2, 0)})


class TestSerialization:
    def test_dot_directed(self):
        s = VariableScheme.of([("A", ("0", "1")), ("B", ("0", "1"))])
        g = Dag.from_names(s, [("A", "B")])
        assert '"A" -> "B";' in serialize_graph(g, "dot")

    def test_dot_undirected(self):
        s = VariableScheme.of([("A", ("0", "1")), ("B", ("0", "1"))])
        g = Pdag.from_names(s, undirected=[("A", "B")])
        assert '"A" -> "B" [dir=none];' in serialize_graph(g, "dot")

    def test_dot_escapes_quote_and_backslash(self):
        s = VariableScheme.of([('a"b', ("0", "1")), ("c\\", ("0", "1"))])
        g = Dag.from_names(s, [('a"b', "c\\")])
        assert serialize_graph(g, "dot").splitlines() == [
            "digraph G {",
            '  "a\\"b";',
            '  "c\\\\";',
            '  "a\\"b" -> "c\\\\";',
            "}",
        ]

    def test_json_round_trip_dag(self):
        s = binary_scheme(4)
        g = Dag.from_names(s, [("X0", "X1"), ("X2", "X3"), ("X0", "X3")])
        back = parse_graph_json(serialize_graph(g, "json"))
        assert back.edges == g.edges
        assert back.scheme == g.scheme

    def test_json_round_trip_pdag(self):
        s = binary_scheme(4)
        g = Pdag.from_names(
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
        text = serialize_graph(Dag.from_names(s, [("X0", "X1")]), "json")
        assert parse_graph_json(text, s).edges == {(0, 1)}
        payload = json.loads(text)
        payload["variables"].reverse()
        with pytest.raises(SchemaMismatch):
            parse_graph_json(json.dumps(payload), s)
        del payload["variables"]
        assert parse_graph_json(json.dumps(payload), s).edges == {(0, 1)}


class TestPdag:
    def test_disjoint_sets_enforced(self):
        s = binary_scheme(2)
        with pytest.raises(ValueError):
            Pdag.from_names(s, directed=[("X0", "X1")], undirected=[("X0", "X1")])

    def test_undirected_self_loop_rejected(self):
        s = binary_scheme(2)
        with pytest.raises(ValueError, match="not two variables"):
            Pdag(s, undirected=frozenset({frozenset({0})}))
        text = serialize_graph(Pdag.from_names(s, undirected=[("X0", "X1")]), "json")
        payload = {**json.loads(text), "undirected": [[0, 0]]}
        with pytest.raises(SchemaMismatch, match=r"undirected edge \[0\]"):
            parse_graph_json(json.dumps(payload))

    def test_directed_self_loop_rejected(self):
        with pytest.raises(CycleError, match="self-loop on X1"):
            Pdag(binary_scheme(2), directed=frozenset({(1, 1)}))

    def test_double_orientation_rejected(self):
        s = binary_scheme(2)
        with pytest.raises(ValueError):
            Pdag.from_names(s, directed=[("X0", "X1"), ("X1", "X0")])

    def test_neighbours_are_derived_whatever_the_marks(self):
        pdag = Pdag.from_names(
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
