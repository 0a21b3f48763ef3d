import numpy as np
import pytest

from causalkit import nsclc, synth
from causalkit.bayesnet import BayesianNetwork, Cpd
from causalkit.errors import MarginalMismatch
from causalkit.graph import Dag
from causalkit.synth import (
    CohortSpec,
    generate_cohort,
    random_network,
    reference_network,
    sample_from_network,
)

from conftest import binary_scheme


class TestCohortSpec:
    def test_marginals_must_sum_to_one(self):
        with pytest.raises(MarginalMismatch):
            CohortSpec(10, {"A": (0.5, 0.6)})

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
            Dag.from_names(scheme, [("X0", "X1")]),
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
        dag = Dag.from_names(scheme, [("X0", "X1"), ("X1", "X2")])
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
