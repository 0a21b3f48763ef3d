import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import bayesnet, nsclc
from causalkit.bayesnet import (
    BayesianNetwork,
    Cpd,
    Factor,
    _plan,
    _table_text,
    brute_force_query,
    cpd_to_factor,
    fit_cpds,
    variable_elimination,
)
from causalkit.data import CategoricalDataset, contingency_counts
from causalkit.errors import (
    CardinalityMismatch,
    UnknownVariable,
    UnparameterizedNetwork,
    ZeroEvidenceProbability,
)
from causalkit.graph import Dag, serialize_graph
from causalkit.intervention import ate_grid
from causalkit.synth import random_network, reference_network, sample_from_network

from conftest import binary_scheme


def random_dag(scheme, rng, n_edges):
    dag = Dag(scheme)
    for _ in range(n_edges):
        u, v = rng.integers(0, len(scheme), size=2)
        if u != v:
            try:
                dag = dag.add(int(u), int(v))
            except Exception:
                pass
    return dag


class TestCpd:
    def test_rows_must_normalize(self):
        with pytest.raises(CardinalityMismatch):
            Cpd("A", (), np.array([[0.5, 0.6]]))

    def test_negative_rejected(self):
        with pytest.raises(CardinalityMismatch):
            Cpd("A", (), np.array([[-0.1, 1.1]]))

    def test_non_finite_rejected(self):
        with pytest.raises(CardinalityMismatch, match="not finite"):
            Cpd("A", (), np.array([[np.nan, 0.5]]))

    def test_network_validates_parent_order(self, abc_scheme):
        dag = Dag.from_names(abc_scheme, [("X0", "X2"), ("X1", "X2")])
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
        net = fit_cpds(Dag.from_names(scheme, [("X0", "X1")]), data, 2.0)
        # X0=1 never observed: row is the prior mean, i.e. uniform.
        assert net.cpds["X1"].table[1].tolist() == pytest.approx([0.5, 0.5])

    def test_ess_validation(self):
        scheme = binary_scheme(2)
        data = CategoricalDataset(scheme, np.array([[0, 0]]))
        with pytest.raises(ValueError):
            fit_cpds(Dag(scheme), data, 0.0)

    def test_filled_count_memo_gives_identical_tables(self):
        scheme = binary_scheme(4)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, size=(300, 4))
        dag = Dag.from_names(scheme, [("X0", "X2"), ("X1", "X2"), ("X2", "X3")])
        other = Dag.from_names(scheme, [("X2", "X0"), ("X3", "X2"), ("X1", "X3")])
        warm = CategoricalDataset(scheme, rows)
        fit_cpds(other, warm, 1.0)
        contingency_counts(warm, "X2", ("X1", "X0"))
        fit_cpds(dag, warm, 15.0)
        fresh = fit_cpds(dag, CategoricalDataset(scheme, rows), 5.0)
        for name, cpd in fit_cpds(dag, warm, 5.0).cpds.items():
            assert cpd.parents == fresh.cpds[name].parents
            assert cpd.table.tobytes() == fresh.cpds[name].table.tobytes()

    def test_large_sample_recovers_frequencies(self):
        scheme = binary_scheme(1)
        rows = [[0]] * 900 + [[1]] * 100
        data = CategoricalDataset(scheme, np.array(rows))
        net = fit_cpds(Dag(scheme), data, 1.0)
        assert net.cpds["X0"].table[0, 1] == pytest.approx(0.1, abs=1e-3)


class TestFactors:
    def test_shape_validation(self, abc_scheme):
        with pytest.raises(CardinalityMismatch):
            Factor(abc_scheme, (0, 1), np.zeros((2, 3)))


class TestInference:
    def test_chain_posterior_hand_values(self, chain_net):
        pb = variable_elimination(chain_net, ["B"])
        assert pb.values.tolist() == pytest.approx([0.59, 0.41])
        pa = variable_elimination(chain_net, ["A"], {"B": "1"})
        assert pa.values[1] == pytest.approx(0.27 / 0.41)

    def test_evidence_as_indices_or_labels(self, chain_net):
        by_label = variable_elimination(chain_net, ["A"], {"B": "1"})
        by_index = variable_elimination(chain_net, [0], {1: 1})
        by_numpy = variable_elimination(chain_net, [0], {np.int64(1): np.int64(1)})
        assert np.allclose(by_label.values, by_index.values)
        assert by_numpy.values.tolist() == by_index.values.tolist()

    def test_query_evidence_overlap_rejected(self, chain_net):
        with pytest.raises(ValueError):
            variable_elimination(chain_net, ["A"], {"A": "0"})

    def test_zero_probability_evidence(self):
        scheme = binary_scheme(2)
        dag = Dag.from_names(scheme, [("X0", "X1")])
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

    def test_joint_query_matches_brute_force(self, confounded_net):
        ve = variable_elimination(confounded_net, ["Y", "M"])
        bf = brute_force_query(confounded_net, ["Y", "M"])
        assert ve.variables == bf.variables
        assert np.allclose(ve.values, bf.values, atol=1e-12)

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
        assert np.allclose(ve.values, bf.values, atol=1e-9)


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
                    out.append(posterior.values.tobytes())
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
        dag = Dag.from_names(
            scheme,
            [("X0", "X1"), ("X1", "X2"), ("X0", "X3"), ("X3", "X2"), ("X2", "X4")],
        )
        _plan.cache_clear()
        posteriors = []
        for seed in (1, 2):
            net = random_network(dag, seed=seed)
            ve = variable_elimination(net, ["X4", "X1"], {"X3": "1"})
            bf = brute_force_query(net, ["X4", "X1"], {"X3": "1"})
            assert np.allclose(ve.values, bf.values, rtol=0, atol=1e-12)
            posteriors.append(ve.values)
        info = _plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not np.allclose(*posteriors)

    def test_zero_probability_evidence_on_a_cache_hit(self):
        scheme = binary_scheme(2)
        dag = Dag.from_names(scheme, [("X0", "X1")])
        net = BayesianNetwork(
            dag,
            {
                "X0": Cpd("X0", (), np.array([[1.0, 0.0]])),
                "X1": Cpd("X1", ("X0",), np.array([[1.0, 0.0], [0.0, 1.0]])),
            },
        )
        _plan.cache_clear()
        posterior = variable_elimination(net, ["X0"], {"X1": "0"})
        assert posterior.values.tolist() == [1.0, 0.0]
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
        f = cpd_to_factor(confounded_net, "Y")
        assert f.variables == (0, 1, 2)
        assert f.values.shape == (2, 2, 2)
