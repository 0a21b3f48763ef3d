import numpy as np
import pytest

from causalkit import notears
from causalkit.errors import ShapeError
from causalkit.graph import Dag
from causalkit.notears import (
    NotearsConfig,
    WeightedAdjacency,
    acyclicity_h,
    notears_fit,
    objective_and_grad,
    standardize,
)
from causalkit.pc import dag_to_cpdag, structural_hamming_distance
from causalkit.synth import random_network, reference_network, sample_from_network

from conftest import binary_scheme


def finite_difference(func, w, eps=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            plus, minus = w.copy(), w.copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            grad[i, j] = (func(plus) - func(minus)) / (2 * eps)
    return grad


class TestAcyclicityH:
    def test_zero_matrix_is_zero(self):
        h, grad = acyclicity_h(np.zeros((5, 5)))
        assert h == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grad, 0.0)

    def test_two_cycle_closed_form(self):
        # W with unit 2-cycle: tr(e^{W∘W}) = 2 cosh(1), so h = 2cosh(1) - 2.
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        h, _ = acyclicity_h(w)
        assert h == pytest.approx(2 * np.cosh(1.0) - 2.0, abs=1e-9)

    def test_dag_weights_give_zero(self):
        w = np.array([[0.0, 2.0, -1.5], [0.0, 0.0, 0.7], [0.0, 0.0, 0.0]])
        h, _ = acyclicity_h(w)
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_positive_on_any_cycle(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 2] = w[2, 0] = 0.5
        h, _ = acyclicity_h(w)
        assert h > 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.normal(scale=0.5, size=(4, 4))
            _, grad = acyclicity_h(w)
            fd = finite_difference(lambda m: acyclicity_h(m)[0], w)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert (np.abs(grad - fd) / denom).max() < 1e-5

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            acyclicity_h(np.zeros((2, 3)))


class TestObjective:
    def test_perfect_fit_leaves_only_penalty(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        x[:, 1] = 2.0 * x[:, 0]
        w = np.array([[0.0, 2.0], [0.0, 0.0]])
        loss, _ = objective_and_grad(w, x, l1=0.1)
        # Column 1 is reconstructed exactly; column 0 has no parents, so its
        # residual is itself.  Remaining loss: 0.5/n ||x0||^2 plus the penalty.
        expected = 0.5 / 50 * float((x[:, 0] ** 2).sum()) + 0.1 * 2.0
        assert loss == pytest.approx(expected, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 3))
        for _ in range(3):
            w = rng.normal(scale=0.5, size=(3, 3))
            _, grad = objective_and_grad(w, x, l1=0.0)
            fd = finite_difference(
                lambda m: objective_and_grad(m, x, 0.0)[0], w
            )
            denom = np.maximum(np.abs(fd), 1e-8)
            assert (np.abs(grad - fd) / denom).max() < 1e-5

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            objective_and_grad(np.zeros((2, 2)), np.zeros((5, 3)), 0.1)


class TestGramLoss:
    """The fit's loss from C = X^T X / N against the row-form oracle."""

    def test_matches_row_form(self):
        rng = np.random.default_rng(4)
        for n, d in ((50, 3), (400, 7)):
            x = standardize(rng.normal(size=(n, d)))
            for _ in range(3):
                w = rng.normal(scale=0.5, size=(d, d))
                loss, grad = notears._gram_loss(w, x.T @ x / n)
                row_loss, row_grad = objective_and_grad(w, x, 0.0)
                assert loss == pytest.approx(row_loss, rel=1e-10)
                assert np.abs(grad - row_grad).max() <= 1e-10 * np.abs(row_grad).max()

    def test_fit_matches_row_form_fit(self, monkeypatch):
        data = sample_from_network(reference_network(7), 326, 11)
        gram = notears_fit(data)
        x = standardize(data.rows)
        calls = []

        def row_form(w, c):
            calls.append(1)
            return objective_and_grad(w, x, 0.0)

        monkeypatch.setattr(notears, "_gram_loss", row_form)
        rows = notears_fit(data)
        assert calls
        assert gram.dag.edges == rows.dag.edges
        assert gram.converged == rows.converged
        assert gram.repaired_edges == rows.repaired_edges
        # L-BFGS-B (gtol 1e-6) may stop one step apart on the two paths.
        assert np.abs(gram.raw.w - rows.raw.w).max() <= 1e-6


class TestStandardize:
    def test_centers_columns(self):
        x = np.array([[1.0, 10.0], [3.0, 30.0]])
        out = standardize(x)
        assert np.allclose(out.mean(axis=0), 0.0)
        # Column scale is preserved.
        assert np.allclose(out[:, 1], [-10.0, 10.0])

    def test_constant_column_becomes_zero(self):
        x = np.array([[1.0, 5.0], [3.0, 5.0], [8.0, 5.0]])
        out = standardize(x)
        assert np.array_equal(out[:, 1], np.zeros(3))
        assert np.allclose(out[:, 0], [-3.0, -1.0, 4.0])


class TestConfig:
    def test_defaults(self):
        c = NotearsConfig()
        assert c.max_iter == 100
        assert c.h_tol == 1e-8
        assert c.w_threshold == 0.5
        assert c.l1_penalty == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            NotearsConfig(max_iter=0)
        with pytest.raises(ValueError):
            NotearsConfig(l1_penalty=-0.1)
        with pytest.raises(ValueError):
            NotearsConfig(h_tol=2.0)


class TestFit:
    def test_two_node_linear_sem(self):
        # X1 = 0.8 X0 + noise: the recovered weight should sit near 0.8 and
        # the reverse edge should vanish.
        rng = np.random.default_rng(0)
        n = 5000
        x0 = rng.normal(size=n)
        # Equal noise variances keep the direction identifiable for the
        # least-squares objective.
        x1 = 0.8 * x0 + rng.normal(size=n)
        data = np.column_stack([x0, x1])
        result = notears_fit(data, scheme=binary_scheme(2))
        assert result.converged
        assert result.h_final <= 1e-8
        assert result.dag.edges == {(0, 1)}
        assert result.raw.w[0, 1] == pytest.approx(0.8, abs=0.1)
        assert abs(result.raw.w[1, 0]) < 0.1

    def test_ten_node_chain_recovery(self):
        rng = np.random.default_rng(3)
        n, d = 3000, 10
        x = np.zeros((n, d))
        x[:, 0] = rng.normal(size=n)
        for j in range(1, d):
            x[:, j] = 0.9 * x[:, j - 1] + rng.normal(size=n)
        result = notears_fit(x, scheme=binary_scheme(d))
        truth = Dag(
            binary_scheme(d), frozenset((j - 1, j) for j in range(1, d))
        )
        shd = structural_hamming_distance(
            dag_to_cpdag(result.dag), dag_to_cpdag(truth)
        )
        assert shd == 0

    def test_categorical_dataset_input(self):
        scheme = binary_scheme(3)
        dag = Dag.from_names(scheme, [("X0", "X1")])
        data = sample_from_network(random_network(dag, seed=2), 500, 0)
        result = notears_fit(data)
        assert result.dag.scheme == scheme
        assert result.h_final <= 1e-8

    def test_raw_matrix_requires_scheme(self):
        with pytest.raises(ShapeError):
            notears_fit(np.zeros((10, 2)))

    def test_output_is_always_acyclic(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            x = rng.normal(size=(200, 5))
            result = notears_fit(
                x, NotearsConfig(w_threshold=0.01), scheme=binary_scheme(5)
            )
            assert isinstance(result.dag, Dag)  # Dag construction proves it

    def test_independent_noise_yields_empty_graph(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1000, 4))
        result = notears_fit(x, scheme=binary_scheme(4))
        assert result.dag.edges == frozenset()


    def test_penalty_stops_growing_at_rho_max(self, monkeypatch, caplog):
        # A subproblem that never reduces h: the first solve is accepted at
        # rho = 1, then rho climbs by factors of 10 and the fit gives up once
        # it reaches RHO_MAX.
        cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
        rhos = []

        def stuck(w0, c, l1, rho, alpha, bounds):
            rhos.append(rho)
            return cycle

        monkeypatch.setattr(notears, "_solve_subproblem", stuck)
        with caplog.at_level("WARNING", logger="causalkit.notears"):
            result = notears_fit(np.eye(2), scheme=binary_scheme(2))
        assert rhos == [1.0, *(10.0**k for k in range(16))]
        assert 10.0 * rhos[-1] == notears.RHO_MAX
        assert not result.converged
        assert result.h_final == acyclicity_h(cycle)[0] > 0
        assert any("did not reach" in r.getMessage() for r in caplog.records)


class TestWeightedAdjacency:
    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            WeightedAdjacency(binary_scheme(3), np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        w = np.zeros((2, 2))
        w[0, 1] = np.inf
        with pytest.raises(ShapeError):
            WeightedAdjacency(binary_scheme(2), w)
