import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import bayesnet, nsclc
from causalkit.bayesnet import (
    BayesianNetwork,
    Cpd,
    _plan,
    _table_text,
    brute_force_query,
    fit_cpds,
    variable_elimination,
)
from causalkit.data import CategoricalDataset, CountTable, contingency_counts
from causalkit.errors import (
    CardinalityMismatch,
    StateSpaceTooLarge,
    UnknownVariable,
    UnparameterizedNetwork,
    ZeroEvidenceProbability,
)
from causalkit.graph import Dag, VariableScheme, serialize_graph
from causalkit.intervention import AteGrid, ate_grid
from causalkit.notears import NotearsResult, WeightedAdjacency
from causalkit.synth import random_network, reference_network, sample_from_network

from conftest import binary_scheme, dag_from_insertions


def random_dag(scheme, rng, n_edges):
    pairs = (map(int, rng.integers(0, len(scheme), size=2)) for _ in range(n_edges))
    return dag_from_insertions(scheme, pairs)


def per_row_check(child, table):
    """The CPD check as numpy's per-row reduction states it: the reference
    that Cpd must agree with, exception type and message included."""
    table = np.asarray(table, dtype=float)
    if not np.isfinite(table).all():
        raise CardinalityMismatch(f"CPD table for {child} is not finite")
    if (table < 0).any() or np.abs(table.sum(axis=1) - 1.0).max() > 1e-9:
        raise CardinalityMismatch(f"CPD rows for {child} not normalized")


def outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def tall(card, rows=5000, seed=0):
    return np.random.default_rng(seed).dirichlet([0.5] * card, size=rows)


NOT_FINITE = (CardinalityMismatch, "CPD table for A is not finite")
NOT_NORMALIZED = (CardinalityMismatch, "CPD rows for A not normalized")


class TestCpd:
    @pytest.mark.parametrize(
        "table, expected",
        [
            pytest.param([[np.nan, 0.5]], NOT_FINITE, id="nan"),
            pytest.param([[0.2, np.inf, 0.3]], NOT_FINITE, id="inf"),
            pytest.param([[0.2, -np.inf, 0.3]], NOT_FINITE, id="minus-inf"),
            pytest.param(
                [[0.5, 0.5], [np.inf, -np.inf]], NOT_FINITE, id="inf-minus-inf"
            ),
            pytest.param([[0.5, 0.6]], NOT_NORMALIZED, id="sum-1.1"),
            pytest.param([[-0.1, 1.1]], NOT_NORMALIZED, id="negative"),
            pytest.param([[0.5, 0.5], [1.0, -0.0]], None, id="minus-zero"),
            pytest.param([[0.5, 0.5 + 2e-9]], NOT_NORMALIZED, id="sum-1+2e-9"),
            pytest.param([[0.5, 0.5 - 2e-9]], NOT_NORMALIZED, id="sum-1-2e-9"),
            pytest.param([[0.5, 0.5 + 5e-10]], None, id="sum-1+5e-10"),
            pytest.param([[0.5, 0.5 - 5e-10]], None, id="sum-1-5e-10"),
            pytest.param([[1e308, 1e308, -1e308]], NOT_NORMALIZED, id="sum-overflows"),
            pytest.param(np.empty((1, 0)), NOT_NORMALIZED, id="1x0"),
            pytest.param([[1.0]], None, id="1x1"),
            pytest.param([[1 / 8] * 8], None, id="8-states"),
            pytest.param(
                [[1 / 8] * 7 + [1 / 8 + 2e-9]], NOT_NORMALIZED, id="8-states-off"
            ),
            pytest.param([[0.1] * 10], None, id="10-states"),
            pytest.param(tall(3), None, id="tall"),
            pytest.param(np.asfortranarray(tall(4)), None, id="tall-fortran-order"),
            pytest.param(
                np.vstack([tall(3), [[0.5, 0.5, 2e-9]]]), NOT_NORMALIZED, id="tall-off"
            ),
            pytest.param(
                np.vstack([tall(3), [[0.5, 0.5, np.nan]]]), NOT_FINITE, id="tall-nan"
            ),
        ],
    )
    def test_accepts_and_rejects_as_the_per_row_check(self, table, expected):
        assert outcome(Cpd, "A", (), table) == expected
        assert outcome(per_row_check, "A", table) == expected

    def test_empty_table_fails_as_the_per_row_check(self):
        # numpy's max of no row sums raises; the check keeps that failure.
        expected = outcome(per_row_check, "A", np.empty((0, 3)))
        assert expected[0] is ValueError
        assert outcome(Cpd, "A", (), np.empty((0, 3))) == expected

    @pytest.mark.parametrize("card", range(1, 11))
    def test_rows_at_the_tolerance_decided_as_the_per_row_check(self, card):
        # Rows scaled to sum within a few ulps of 1 +- 1e-9, where the last
        # bit of a row sum decides.
        rows = tall(card, rows=400, seed=card)
        rows *= 1 + np.linspace(-1.001e-9, 1.001e-9, len(rows))[:, None]
        decided = {None: 0, NOT_NORMALIZED: 0}
        for row in rows:
            expected = outcome(per_row_check, "A", [row])
            assert outcome(Cpd, "A", (), [row]) == expected
            decided[expected] += 1
        assert decided[None] and decided[NOT_NORMALIZED]
        assert outcome(Cpd, "A", (), rows) == outcome(per_row_check, "A", rows)

    @pytest.mark.parametrize("width", range(0, 12))
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_every_width_and_memory_layout(self, width, layout):
        rng = np.random.default_rng(width)
        table = rng.dirichlet([0.5] * max(width, 1), size=3000)[:, :width]
        scaled, nan = table.copy(), table.copy()
        scaled[1234] *= 1 + 1e-6
        if width:
            nan[1234, width // 2] = np.nan

        def laid_out(t):
            return {
                "C": np.ascontiguousarray(t),
                "F": np.asfortranarray(t),
                "strided": np.repeat(t, 3, axis=0)[::3][:, ::-1],
            }[layout]

        # Width 0 has rows that sum to 0, so it is not normalized either way.
        assert outcome(Cpd, "A", (), laid_out(table)) == (
            None if width else NOT_NORMALIZED
        )
        assert outcome(Cpd, "A", (), laid_out(scaled)) == NOT_NORMALIZED
        assert outcome(Cpd, "A", (), laid_out(nan)) == (
            NOT_FINITE if width else NOT_NORMALIZED
        )
        # numpy's max of no row sums raises, as it did for every empty table.
        empty = laid_out(table[:0])
        assert outcome(Cpd, "A", (), empty)[0] is ValueError
        assert outcome(Cpd, "A", (), empty) == outcome(per_row_check, "A", empty)

    def test_network_validates_parent_order(self, abc_scheme):
        dag = Dag(abc_scheme, [("X0", "X2"), ("X1", "X2")])
        cpds = {
            "X0": Cpd("X0", (), np.array([[0.5, 0.5]])),
            "X1": Cpd("X1", (), np.array([[0.5, 0.5]])),
            # Parents listed in the wrong order relative to the scheme.
            "X2": Cpd("X2", ("X1", "X0"), np.full((4, 2), 0.5)),
        }
        with pytest.raises(UnparameterizedNetwork):
            BayesianNetwork(dag, cpds)

    def test_missing_cpd_rejected(self, abc_scheme):
        dag = Dag(abc_scheme)
        with pytest.raises(UnparameterizedNetwork):
            BayesianNetwork(dag, {"X0": Cpd("X0", (), np.array([[0.5, 0.5]]))})

    def test_cpd_filed_under_another_variable_rejected(self):
        half = np.array([[0.5, 0.5]])
        cpds = {"X0": Cpd("X1", (), half), "X1": Cpd("X0", (), half)}
        with pytest.raises(UnparameterizedNetwork, match="CPD for X1 is filed under X0"):
            BayesianNetwork(Dag(binary_scheme(2)), cpds)


class TestFitCpds:
    def test_posterior_mean_hand_value(self):
        # Root node, counts (3, 1), ess 1: P = (3 + 0.5)/(4 + 1) = 0.7.
        scheme = binary_scheme(2)
        rows = [[0, 0]] * 3 + [[1, 0]]
        data = CategoricalDataset(scheme, np.array(rows))
        net = fit_cpds(Dag(scheme), data, 1.0)
        assert net.cpds["X0"].table[0].tolist() == pytest.approx([0.7, 0.3])

    def test_unobserved_config_uniform(self):
        scheme = binary_scheme(2)
        data = CategoricalDataset(scheme, np.array([[0, 0], [0, 1]]))
        net = fit_cpds(Dag(scheme, [("X0", "X1")]), data, 2.0)
        # X0=1 never observed: row is the prior mean, i.e. uniform.
        assert net.cpds["X1"].table[1].tolist() == pytest.approx([0.5, 0.5])

    def test_ess_validation(self):
        scheme = binary_scheme(2)
        data = CategoricalDataset(scheme, np.array([[0, 0]]))
        with pytest.raises(ValueError):
            fit_cpds(Dag(scheme), data, 0.0)

    @pytest.mark.parametrize("ess", [math.nan, math.inf])
    def test_non_finite_ess_rejected(self, ess):
        scheme = binary_scheme(2)
        data = CategoricalDataset(scheme, np.array([[0, 0]]))
        with pytest.raises(ValueError, match="prior_ess must be positive and finite"):
            fit_cpds(Dag(scheme), data, ess)

    @pytest.mark.parametrize("a_states", [["0", "1"], ["0", "1", "2"]])
    def test_dag_over_another_scheme_rejected(self, a_states):
        # Same-sized columns would be fitted silently, a wider variable would
        # fail on a CPD shape the data never had.
        dag = Dag(VariableScheme.of([("A", a_states), ("B", ["0", "1"])]), {(0, 1)})
        xy = VariableScheme.of([("X", ["0", "1"]), ("Y", ["0", "1"])])
        data = CategoricalDataset(xy, np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="dag and data use different schemes"):
            fit_cpds(dag, data, 1.0)

    def test_filled_count_memo_gives_identical_tables(self):
        scheme = binary_scheme(4)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, size=(300, 4))
        dag = Dag(scheme, [("X0", "X2"), ("X1", "X2"), ("X2", "X3")])
        other = Dag(scheme, [("X2", "X0"), ("X3", "X2"), ("X1", "X3")])
        warm = CategoricalDataset(scheme, rows)
        fit_cpds(other, warm, 1.0)
        contingency_counts(warm, "X2", ("X1", "X0"))
        fit_cpds(dag, warm, 15.0)
        fresh = fit_cpds(dag, CategoricalDataset(scheme, rows), 5.0)
        for name, cpd in fit_cpds(dag, warm, 5.0).cpds.items():
            assert cpd.parents == fresh.cpds[name].parents
            assert cpd.table.tobytes() == fresh.cpds[name].table.tobytes()

    @pytest.mark.parametrize("ess", [0.5, 5.0, 10.0, 15.0])
    def test_cells_are_the_broadcast_division_bit_for_bit(self, ess):
        data = sample_from_network(reference_network(7), 2000, seed=3)
        scheme = data.scheme
        net = fit_cpds(nsclc.v5_dag(), data, ess)
        for name, cpd in net.cpds.items():
            counts = contingency_counts(data, name, cpd.parents)
            a_i = ess / counts.n_configs
            a_ij = a_i / scheme.cardinality(name)
            expected = (counts.n_ij + a_ij) / (counts.n_ij.sum(axis=1) + a_i)[:, None]
            assert cpd.table.tobytes() == expected.tobytes()

    def test_large_sample_recovers_frequencies(self):
        scheme = binary_scheme(1)
        rows = [[0]] * 900 + [[1]] * 100
        data = CategoricalDataset(scheme, np.array(rows))
        net = fit_cpds(Dag(scheme), data, 1.0)
        assert net.cpds["X0"].table[0, 1] == pytest.approx(0.1, abs=1e-3)


class TestInference:
    def test_chain_posterior_hand_values(self, chain_net):
        pb = variable_elimination(chain_net, ["B"])
        assert pb.tolist() == pytest.approx([0.59, 0.41])
        pa = variable_elimination(chain_net, ["A"], {"B": "1"})
        assert pa[1] == pytest.approx(0.27 / 0.41)

    def test_evidence_as_indices_or_labels(self, chain_net):
        by_label = variable_elimination(chain_net, ["A"], {"B": "1"})
        by_index = variable_elimination(chain_net, [0], {1: 1})
        by_numpy = variable_elimination(chain_net, [0], {np.int64(1): np.int64(1)})
        assert np.allclose(by_label, by_index)
        assert by_numpy.tolist() == by_index.tolist()

    def test_query_evidence_overlap_rejected(self, chain_net):
        with pytest.raises(ValueError):
            variable_elimination(chain_net, ["A"], {"A": "0"})

    def test_zero_probability_evidence(self):
        scheme = binary_scheme(2)
        dag = Dag(scheme, [("X0", "X1")])
        net = BayesianNetwork(
            dag,
            {
                "X0": Cpd("X0", (), np.array([[1.0, 0.0]])),
                "X1": Cpd("X1", ("X0",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            },
        )
        with pytest.raises(ZeroEvidenceProbability):
            variable_elimination(net, ["X0"], {"X1": "1"})
        with pytest.raises(ZeroEvidenceProbability):
            brute_force_query(net, ["X0"], {"X1": "1"})

    # 2**64 entries read 0 as an int64 product.
    @pytest.mark.parametrize("n", [25, 64])
    def test_brute_force_refuses_large_joint_before_allocating(self, n):
        scheme = binary_scheme(n)
        uniform = np.array([[0.5, 0.5]])
        net = BayesianNetwork(
            Dag(scheme), {name: Cpd(name, (), uniform) for name in scheme.names}
        )
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceTooLarge, match=f"joint has {2**n} entries"):
                brute_force_query(net, ["X0"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the joint would take 8 * 2**n bytes

    def test_joint_query_matches_brute_force(self, confounded_net):
        ve = variable_elimination(confounded_net, ["Y", "M"])
        bf = brute_force_query(confounded_net, ["Y", "M"])
        assert ve.shape == bf.shape == (2, 2)
        assert np.allclose(ve, bf, atol=1e-12)

    @pytest.mark.parametrize("infer", [variable_elimination, brute_force_query])
    def test_posterior_is_an_array_with_one_axis_per_query_variable(self, infer):
        scheme = VariableScheme.of([("A", ("0", "1")), ("B", ("0", "1", "2"))])
        net = random_network(Dag(scheme, [("A", "B")]), seed=3)
        ab, ba = infer(net, ["A", "B"]), infer(net, ["B", "A"])
        assert type(ab) is np.ndarray and ab.shape == (2, 3)
        assert np.allclose(ba, ab.T, rtol=0, atol=1e-15)
        assert ab.sum() == pytest.approx(1.0)
        empty = infer(net, [], {"B": "2"})
        assert type(empty) is np.ndarray and empty.shape == () and empty == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ve_equals_brute_force_on_random_networks(self, data):
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        scheme = binary_scheme(n)
        dag = random_dag(scheme, rng, int(rng.integers(0, 2 * n)))
        net = random_network(dag, seed=seed)
        query = [int(v) for v in rng.choice(n, size=rng.integers(1, 3), replace=False)]
        ev_pool = [v for v in range(n) if v not in query]
        evidence = {
            int(v): int(rng.integers(0, 2))
            for v in rng.choice(ev_pool, size=min(len(ev_pool), 2), replace=False)
        }
        try:
            ve = variable_elimination(net, query, evidence)
        except ZeroEvidenceProbability:
            with pytest.raises(ZeroEvidenceProbability):
                brute_force_query(net, query, evidence)
            return
        bf = brute_force_query(net, query, evidence)
        assert np.allclose(ve, bf, atol=1e-9)


class TestPlanCache:
    def test_warm_plans_give_cold_bits(self, monkeypatch):
        data = sample_from_network(reference_network(7), 326, seed=1)
        nets = [
            reference_network(7),
            fit_cpds(nsclc.v1_dag(), data, 10.0),
            fit_cpds(nsclc.v5_dag(), data, 10.0),
        ]
        rng = np.random.default_rng(11)
        patterns = []
        for net in nets:
            n = len(net.scheme)
            for _ in range(15):
                size = rng.integers(1, 3)
                query = [int(v) for v in rng.choice(n, size=size, replace=False)]
                pool = [v for v in range(n) if v not in query]
                evidence = {
                    int(v): int(rng.integers(0, net.scheme.cardinality(int(v))))
                    for v in rng.choice(pool, size=rng.integers(0, 4), replace=False)
                }
                patterns.append((net, query, evidence))

        def bits():
            out = [ate_grid(net).cells.tobytes() for net in nets]
            for net, query, evidence in patterns:
                try:
                    posterior = variable_elimination(net, query, evidence)
                    out.append(posterior.tobytes())
                except ZeroEvidenceProbability:
                    out.append(None)
            return out

        _plan.cache_clear()
        first = bits()
        warm = bits()
        assert _plan.cache_info().hits >= len(first)
        # Unwrapped, every call plans afresh.
        monkeypatch.setattr(bayesnet, "_plan", _plan.__wrapped__)
        assert first == warm == bits()

    def test_networks_of_one_dag_share_a_plan(self):
        scheme = binary_scheme(5)
        dag = Dag(
            scheme,
            [("X0", "X1"), ("X1", "X2"), ("X0", "X3"), ("X3", "X2"), ("X2", "X4")],
        )
        _plan.cache_clear()
        posteriors = []
        for seed in (1, 2):
            net = random_network(dag, seed=seed)
            ve = variable_elimination(net, ["X4", "X1"], {"X3": "1"})
            bf = brute_force_query(net, ["X4", "X1"], {"X3": "1"})
            assert np.allclose(ve, bf, rtol=0, atol=1e-12)
            posteriors.append(ve)
        info = _plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not np.allclose(*posteriors)

    def test_zero_probability_evidence_on_a_cache_hit(self):
        scheme = binary_scheme(2)
        dag = Dag(scheme, [("X0", "X1")])
        net = BayesianNetwork(
            dag,
            {
                "X0": Cpd("X0", (), np.array([[1.0, 0.0]])),
                "X1": Cpd("X1", ("X0",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            },
        )
        _plan.cache_clear()
        posterior = variable_elimination(net, ["X0"], {"X1": "0"})
        assert posterior.tolist() == [1.0, 0.0]
        for _ in range(2):
            with pytest.raises(ZeroEvidenceProbability):
                variable_elimination(net, ["X0"], {"X1": "1"})
        info = _plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("infer", [variable_elimination, brute_force_query])
    @pytest.mark.parametrize(
        "query, evidence, error",
        [
            ((99,), {}, UnknownVariable),
            ((-1,), {}, UnknownVariable),
            ((0,), {-1: 0}, UnknownVariable),
            ((0,), {99: 0}, UnknownVariable),
            (("A", "A"), {}, ValueError),
            ((1, "B"), {}, ValueError),
            ((0,), {"B": 1.9}, TypeError),
            ((0,), {"B": 1.0}, TypeError),
            ((0,), {"B": True}, TypeError),
            ((0,), {"B": "1", 1: 0}, ValueError),
            ((0,), {1: 1, "B": 1}, ValueError),
            ((True,), {}, TypeError),
            ((0,), {True: 1}, TypeError),
            ((0,), {"B": 2}, UnknownVariable),
            ((0,), {"B": -1}, UnknownVariable),
        ],
    )
    def test_variable_indices_are_range_checked(
        self, chain_net, infer, query, evidence, error
    ):
        with pytest.raises(error):
            infer(chain_net, query, evidence)


class TestSerialization:
    def test_network_json_round_trip(self, confounded_net):
        back = BayesianNetwork.from_json(confounded_net.to_json())
        assert back.dag.edges == confounded_net.dag.edges
        for name, cpd in confounded_net.cpds.items():
            assert back.cpds[name].parents == cpd.parents
            assert np.allclose(back.cpds[name].table, cpd.table)

    def test_to_json_one_line_per_cpd_and_exact_round_trip(self, confounded_net):
        awkward = np.array([[1 / 3, 2 / 3], [1e-300, 1 - 1e-300]])
        awkward = np.vstack([awkward, [[0.1 + 0.2, 1 - (0.1 + 0.2)], [0.5, 0.5]]])
        cpds = {**confounded_net.cpds, "Y": Cpd("Y", ("M", "T"), awkward)}
        net = BayesianNetwork(confounded_net.dag, cpds)
        text = net.to_json()
        payload = {
            "dag": json.loads(serialize_graph(net.dag, "json")),
            "cpds": {
                name: {"parents": list(c.parents), "table": c.table.tolist()}
                for name, c in net.cpds.items()
            },
        }
        assert json.loads(text) == json.loads(json.dumps(payload, indent=2))
        lines = text.splitlines()
        assert len(lines) == len(net.cpds) + 5
        for line, name in zip(lines[3:-2], net.cpds):
            assert line.startswith(f'    "{name}": {{"parents": ')
        back = BayesianNetwork.from_json(text)
        for name, cpd in net.cpds.items():
            assert back.cpds[name].table.tobytes() == cpd.table.tobytes()

    @pytest.mark.parametrize(
        "table",
        [
            np.vstack([[0.1, 0.2, 0.3, 0.4], np.full((49, 4), 0.25)]),
            np.random.default_rng(0).dirichlet(np.ones(3), size=20),
            np.array([[0.0, -0.0, 1.0]] * 4),
            np.array([[5e-324, 1.0]] * 3),
            np.array([[0.5, 0.5]]),
            np.array([[0.3, 0.7]]),
            np.asfortranarray(np.vstack([[0.9, 0.1], np.full((5, 2), 0.5)])),
        ],
        ids=[
            "mostly-repeated", "all-distinct", "signed-zeros", "subnormal",
            "one-row-repeated", "one-row-distinct", "fortran-order",
        ],
    )
    def test_table_text_is_json_dumps(self, table):
        assert _table_text(table) == json.dumps(table.tolist())

    def test_fitted_network_text_is_json_dumps_layout(self):
        data = sample_from_network(reference_network(7), 326, seed=1)
        net = fit_cpds(nsclc.v5_dag(), data, 10.0)
        dag = json.dumps(json.loads(serialize_graph(net.dag, "json")))
        cpds = ",\n".join(
            f"    {json.dumps(name)}: "
            + json.dumps({"parents": list(c.parents), "table": c.table.tolist()})
            for name, c in net.cpds.items()
        )
        assert net.to_json() == f'{{\n  "dag": {dag},\n  "cpds": {{\n{cpds}\n  }}\n}}\n'

    def test_cpd_to_factor_scope(self, confounded_net):
        y = confounded_net.scheme.index("Y")
        assert confounded_net.scopes[y] == (0, 1, 2)
        assert confounded_net.tables[y].shape == (2, 2, 2)

    def test_tables_are_cpd_views_with_one_axis_per_scope_variable(self):
        net = reference_network(7)
        for idx, name in enumerate(net.scheme.names):
            scope, table = net.scopes[idx], net.tables[idx]
            assert scope == net.dag.parents(idx) + (idx,)
            assert table.shape == tuple(net.scheme.cardinality(v) for v in scope)
            assert table.base is net.cpds[name].table


def _two_node_network():
    halves = np.full((1, 2), 0.5)
    return BayesianNetwork(
        Dag(binary_scheme(2)), {"X0": Cpd("X0", (), halves), "X1": Cpd("X1", (), halves)}
    )


# Each builds a new value; two builds hold equal arrays in distinct objects.
ARRAY_VALUES = {
    "CategoricalDataset": lambda: CategoricalDataset(binary_scheme(2), [[0, 1], [1, 0]]),
    "CountTable": lambda: CountTable(np.array([[1, 2], [3, 4]])),
    "Cpd": lambda: Cpd("A", (), np.array([[0.25, 0.75]])),
    "WeightedAdjacency": lambda: WeightedAdjacency(binary_scheme(2), np.eye(2)),
    "AteGrid": lambda: AteGrid(("T1", "T2"), ("M",), np.zeros((2, 1))),
    "NotearsResult": lambda: NotearsResult(
        WeightedAdjacency(binary_scheme(2), np.eye(2)), Dag(binary_scheme(2)), 0.0, True
    ),
    "BayesianNetwork": _two_node_network,
}


@pytest.mark.parametrize("build", ARRAY_VALUES.values(), ids=ARRAY_VALUES)
def test_values_holding_arrays_compare_and_hash_by_identity(build):
    value, copy = build(), build()
    assert value == value
    assert value != copy
    assert hash(value) == hash(value)
    assert len({value, copy}) == 2
