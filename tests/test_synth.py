import numpy as np
import pytest

from causalkit import nsclc, synth
from causalkit.bayesnet import BayesianNetwork, Cpd
from causalkit.errors import MarginalMismatch
from causalkit.graph import Dag, VariableScheme
from causalkit.synth import (
    CohortSpec,
    generate_cohort,
    random_network,
    reference_network,
    sample_from_network,
)

from conftest import binary_scheme


def cumsum_draw(probs, u):
    """The sampler's rule as one cumsum per row: the reference for _draw."""
    return (probs.cumsum(axis=-1)[..., :-1] < u[:, None]).sum(axis=1)


def cumsum_sample(net, n, seed):
    rng = synth._rng(seed)
    rows = np.zeros((n, len(net.scheme)), dtype=np.int64)
    for idx in net.dag.topological_order():
        probs = net.tables[idx][tuple(rows[:, p] for p in net.scopes[idx][:-1])]
        rows[:, idx] = cumsum_draw(probs, rng.random(n))
    return rows


class TestCohortSpec:
    def test_marginals_must_sum_to_one(self):
        with pytest.raises(MarginalMismatch):
            CohortSpec(10, {"A": (0.5, 0.6)})

    @pytest.mark.parametrize(
        "vec",
        [(float("nan"), 0.5), (1.5, -0.5), (float("inf"), 0.0),
         (float("inf"), -float("inf")), (0.5, float("nan"), 0.5)],
    )
    def test_marginals_must_be_probabilities(self, vec):
        with pytest.raises(MarginalMismatch, match=r"A are not all in \[0, 1\]"):
            CohortSpec(5, {"A": vec})

    def test_n_must_be_positive(self):
        with pytest.raises(MarginalMismatch):
            CohortSpec(0, {})

    def test_default_covers_whole_scheme(self):
        spec = CohortSpec.nsclc_default()
        assert spec.n == nsclc.COHORT_SIZE
        assert set(spec.marginals) == set(nsclc.SCHEME.names)


class TestGenerateCohort:
    def test_deterministic_per_seed(self):
        a = generate_cohort(CohortSpec.nsclc_default(seed=5))
        b = generate_cohort(CohortSpec.nsclc_default(seed=5))
        c = generate_cohort(CohortSpec.nsclc_default(seed=6))
        assert np.array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    @pytest.mark.parametrize("n, seed", [(326, 0), (10_000, 4)])
    def test_rows_equal_the_cumsum_rule(self, n, seed):
        rng = synth._rng(seed)
        expected = [
            cumsum_draw(np.array(nsclc.COHORT_MARGINALS[name]), rng.random(n))
            for name in nsclc.SCHEME.names
        ]
        rows = generate_cohort(CohortSpec.nsclc_default(n, seed)).rows
        assert (rows == np.array(expected).T).all()

    def test_large_sample_hits_marginals(self):
        spec = CohortSpec.nsclc_default(n=100_000, seed=1)
        data = generate_cohort(spec)
        for name, target in spec.marginals.items():
            counts = np.bincount(
                data.column(name), minlength=nsclc.SCHEME.cardinality(name)
            )
            observed = counts / data.n
            assert np.abs(observed - np.array(target)).max() < 0.005, name

    def test_missing_marginal_rejected(self):
        spec = CohortSpec(10, {"X0": (0.5, 0.5)})
        with pytest.raises(MarginalMismatch):
            generate_cohort(spec, binary_scheme(2))

    def test_wrong_cardinality_rejected(self):
        spec = CohortSpec(10, {"X0": (0.2, 0.3, 0.5), "X1": (0.5, 0.5)})
        with pytest.raises(MarginalMismatch):
            generate_cohort(spec, binary_scheme(2))


class TestSampleFromNetwork:
    def test_deterministic_per_seed(self, chain_net):
        a = sample_from_network(chain_net, 100, seed=3)
        b = sample_from_network(chain_net, 100, seed=3)
        assert np.array_equal(a.rows, b.rows)

    def test_marginal_and_conditional_frequencies(self, chain_net):
        data = sample_from_network(chain_net, 200_000, seed=0)
        a = data.column("A")
        b = data.column("B")
        assert a.mean() == pytest.approx(0.3, abs=0.01)
        assert b[a == 0].mean() == pytest.approx(0.2, abs=0.01)
        assert b[a == 1].mean() == pytest.approx(0.9, abs=0.01)

    def test_respects_topological_dependencies(self, confounded_net):
        # P(Y=1) from the net: sum over M, T.
        data = sample_from_network(confounded_net, 200_000, seed=2)
        m, t = data.column("M"), data.column("T")
        y = data.column("Y")
        assert y[(m == 1) & (t == 1)].mean() == pytest.approx(0.8, abs=0.02)


    @pytest.mark.parametrize(
        "make_net, n, seed",
        [
            (lambda: reference_network(7), 1000, 12),
            (lambda: reference_network(7), 10_000, 810448438),
            (lambda: random_network(nsclc.v5_dag(), 1, concentration=0.3), 500, 1),
            (lambda: random_network(nsclc.v1_dag(), 2, concentration=5.0), 500, 2),
        ],
    )
    def test_rows_equal_the_cumsum_rule(self, make_net, n, seed):
        net = make_net()
        rows = sample_from_network(net, n, seed).rows
        assert (rows == cumsum_sample(net, n, seed)).all()

    def test_rows_just_under_one_equal_the_cumsum_rule(self):
        scheme = VariableScheme.of(
            [("A", ("0", "1", "2")), ("B", ("0", "1", "2", "3"))]
        )
        a_row = [0.25, 0.25, 0.5 - 5e-10]
        b_rows = [
            [0.1, 0.2, 0.3, 0.4 - 9e-10],
            [0.25] * 4,
            [0.7, 0.0, 0.3 - 1e-10, 0.0],
        ]
        net = BayesianNetwork(
            Dag(scheme, [("A", "B")]),
            {
                "A": Cpd("A", (), np.array([a_row])),
                "B": Cpd("B", ("A",), np.array(b_rows)),
            },
        )
        # Draws across [0, 1] and just below 1, above every row's sum.
        u = np.concatenate([np.linspace(0, 1, 2001), 1 - np.logspace(-16, -9, 50)])
        for probs in (np.array(a_row), np.array(b_rows)[np.arange(len(u)) % 3]):
            assert (synth._draw(probs, u) == cumsum_draw(probs, u)).all()
        rows = sample_from_network(net, 5000, 3).rows
        assert (rows == cumsum_sample(net, 5000, 3)).all()

    def test_row_just_under_one_gives_last_state(self, monkeypatch):
        # Rows summing to 1 - 5e-10 pass the 1e-9 normalization checks; a
        # draw above that sum must still give the last state, not card.
        class TopRng:
            def random(self, n):
                return np.full(n, 1 - 1e-12)

        monkeypatch.setattr(synth, "_rng", lambda seed: TopRng())
        row = [0.5, 0.5 - 5e-10]
        scheme = binary_scheme(2)
        net = BayesianNetwork(
            Dag(scheme, [("X0", "X1")]),
            {
                "X0": Cpd("X0", (), np.array([row])),
                "X1": Cpd("X1", ("X0",), np.array([row, row])),
            },
        )
        assert (sample_from_network(net, 5, seed=0).rows == 1).all()
        spec = CohortSpec(5, {"X0": tuple(row), "X1": tuple(row)})
        assert (generate_cohort(spec, scheme).rows == 1).all()


class TestRandomNetwork:
    def test_rows_stochastic_and_deterministic(self):
        scheme = binary_scheme(3)
        dag = Dag(scheme, [("X0", "X1"), ("X1", "X2")])
        net_a = random_network(dag, seed=4)
        net_b = random_network(dag, seed=4)
        for name in scheme.names:
            assert np.allclose(net_a.cpds[name].table.sum(axis=1), 1.0)
            assert np.array_equal(
                net_a.cpds[name].table, net_b.cpds[name].table
            )

    def test_reference_network_structure(self):
        net = reference_network()
        assert net.dag.edges == nsclc.v5_dag().edges
        assert ("TREATMENTPLAN", "SURVIVALMONTHS") in {
            (net.scheme.names[u], net.scheme.names[v]) for u, v in net.dag.edges
        }
