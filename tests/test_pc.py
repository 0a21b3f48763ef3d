import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalkit
from causalkit.data import CategoricalDataset
from causalkit.errors import InsufficientData
from causalkit.graph import Dag, Pdag, VariableScheme
from causalkit.pc import (
    SepsetMap,
    ci_test_g2,
    d_separated,
    dag_to_cpdag,
    learn_skeleton,
    make_ci_from_dag,
    make_ci_from_data,
    meek_closure,
    orient_v_structures,
    pc_run,
    structural_hamming_distance,
)
from causalkit.bayesnet import BayesianNetwork, Cpd
from causalkit.synth import sample_from_network

from conftest import binary_scheme


def strong_chain_net():
    scheme = binary_scheme(3)
    dag = Dag.from_names(scheme, CHAIN)
    return BayesianNetwork(
        dag,
        {
            "X0": Cpd("X0", (), np.array([[0.5, 0.5]])),
            "X1": Cpd("X1", ("X0",), np.array([[0.9, 0.1], [0.1, 0.9]])),
            "X2": Cpd("X2", ("X1",), np.array([[0.9, 0.1], [0.1, 0.9]])),
        },
    )


def strong_collider_net():
    scheme = binary_scheme(3)
    dag = Dag.from_names(scheme, COLLIDER)
    table = np.array([[0.9, 0.1], [0.6, 0.4], [0.5, 0.5], [0.05, 0.95]])
    return BayesianNetwork(
        dag,
        {
            "X0": Cpd("X0", (), np.array([[0.5, 0.5]])),
            "X1": Cpd("X1", (), np.array([[0.5, 0.5]])),
            "X2": Cpd("X2", ("X0", "X1"), table),
        },
    )


def moral_dsep_oracle(dag, x, y, cond):
    """Independent d-separation check: moralize the ancestral graph of
    {x, y} union cond, then test undirected reachability avoiding cond."""
    relevant = set(cond) | {x, y}
    frontier = list(relevant)
    while frontier:
        v = frontier.pop()
        for p in dag.parents(v):
            if p not in relevant:
                relevant.add(p)
                frontier.append(p)
    edges = {
        frozenset((u, v)) for u, v in dag.edges if u in relevant and v in relevant
    }
    for v in relevant:
        ps = [p for p in dag.parents(v) if p in relevant]
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                edges.add(frozenset((a, b)))
    blocked = set(cond)
    seen, stack = {x}, [x]
    while stack:
        u = stack.pop()
        if u == y:
            return False
        if u in blocked and u != x:
            continue
        for e in edges:
            if u in e:
                (w,) = e - {u} or {u}
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return True


def random_dag(scheme, rng, density=0.4):
    n = len(scheme)
    dag = Dag(scheme)
    perm = rng.permutation(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                dag = dag.add(int(perm[i]), int(perm[j]))
    return dag


def loop_ci_test(data, x, y, cond=(), test="g2"):
    """Reference CI test: one (x, y) table and one reduction per stratum."""
    from scipy.stats import chi2

    cards = data.scheme.cardinalities()
    rows = np.asarray(data.rows)
    stat, strata = 0.0, 0
    configs = np.zeros(data.n, dtype=np.int64)
    for c in cond:
        configs = configs * cards[c] + rows[:, c]
    for config in np.unique(configs):
        sub = rows[configs == config]
        table = np.zeros((cards[x], cards[y]))
        np.add.at(table, (sub[:, x], sub[:, y]), 1)
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / len(sub)
        if test == "g2":
            mask = table > 0
            stat += 2.0 * np.sum(table[mask] * np.log(table[mask] / expected[mask]))
        else:
            mask = expected > 0
            stat += np.sum((table[mask] - expected[mask]) ** 2 / expected[mask])
        strata += 1
    dof = (cards[x] - 1) * (cards[y] - 1) * strata
    return stat, (chi2.sf(stat, dof) if dof > 0 else 1.0), dof


def random_cohort(seed):
    """Small cohort of 3-6 variables with 2-4 states, the last one constant
    for every third seed, so that many conditioning strata are empty."""
    rng = np.random.default_rng(seed)
    cards = rng.integers(2, 5, size=int(rng.integers(3, 7)))
    scheme = VariableScheme.of(
        (f"V{i}", tuple(str(s) for s in range(card)))
        for i, card in enumerate(cards)
    )
    n = int(rng.integers(20, 400))
    rows = np.column_stack([rng.integers(0, card, size=n) for card in cards])
    # Make one column depend on another so that some tests reject.
    rows[:, 1] = np.where(rng.random(n) < 0.6, rows[:, 0] % cards[1], rows[:, 1])
    if seed % 3 == 0:
        rows[:, -1] = 0
    return CategoricalDataset(scheme, rows), rng


CHAIN = ("X0", "X1"), ("X1", "X2")
COLLIDER = ("X0", "X2"), ("X1", "X2")


class TestDSeparation:
    def test_chain(self):
        dag = Dag.from_names(binary_scheme(3), CHAIN)
        assert not d_separated(dag, 0, 2, ())
        assert d_separated(dag, 0, 2, (1,))

    def test_fork(self):
        dag = Dag.from_names(binary_scheme(3), [("X1", "X0"), ("X1", "X2")])
        assert not d_separated(dag, 0, 2, ())
        assert d_separated(dag, 0, 2, (1,))

    def test_collider(self):
        dag = Dag.from_names(binary_scheme(3), COLLIDER)
        assert d_separated(dag, 0, 1, ())
        assert not d_separated(dag, 0, 1, (2,))

    def test_collider_descendant_opens_path(self):
        dag = Dag.from_names(
            binary_scheme(4), [("X0", "X2"), ("X1", "X2"), ("X2", "X3")]
        )
        assert d_separated(dag, 0, 1, ())
        assert not d_separated(dag, 0, 1, (3,))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_moralization_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 100_000)))
        n = data.draw(st.integers(3, 7))
        dag = random_dag(binary_scheme(n), rng)
        x, y = data.draw(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            )
        )
        cond = data.draw(
            st.sets(st.integers(0, n - 1), max_size=n - 2).map(
                lambda s: s - {x, y}
            )
        )
        assert d_separated(dag, x, y, cond) == moral_dsep_oracle(dag, x, y, cond)


class TestCiTest:
    def _sampled(self, edges, n=10_000, seed=0):
        net = strong_chain_net() if edges is CHAIN else strong_collider_net()
        return sample_from_network(net, n, seed)

    def test_detects_dependence_and_independence_on_chain(self):
        data = self._sampled(CHAIN)
        _, p_marg, _ = ci_test_g2(data, 0, 2)
        _, p_cond, _ = ci_test_g2(data, 0, 2, (1,))
        assert p_marg < 0.01
        assert p_cond > 0.05

    def test_collider_marginal_independence(self):
        data = self._sampled(COLLIDER)
        _, p_marg, _ = ci_test_g2(data, 0, 1)
        _, p_cond, _ = ci_test_g2(data, 0, 1, (2,))
        assert p_marg > 0.05
        assert p_cond < 0.01

    def test_chi2_variant_agrees_directionally(self):
        data = self._sampled(CHAIN)
        _, p_g2, _ = ci_test_g2(data, 0, 2, test="g2")
        _, p_chi2, _ = ci_test_g2(data, 0, 2, test="chi2")
        assert p_g2 < 0.01 and p_chi2 < 0.01

    def test_unknown_test_rejected(self):
        data = self._sampled(CHAIN, n=10)
        with pytest.raises(ValueError):
            ci_test_g2(data, 0, 2, test="exact")

    def test_dof_reduced_for_empty_strata(self):
        scheme = binary_scheme(3)
        # X2 is constant 0, so the X2=1 stratum is empty.
        rows = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]] * 5)
        data = CategoricalDataset(scheme, rows)
        _, _, dof = ci_test_g2(data, 0, 1, (2,))
        assert dof == 1

    def test_dof_matches_scipy_convention(self):
        data = self._sampled(CHAIN, n=500)
        _, _, dof = ci_test_g2(data, 0, 2, (1,))
        assert dof == 2  # (2-1)(2-1) per stratum, both strata populated

    def test_insufficient_data(self):
        scheme = binary_scheme(2)
        data = CategoricalDataset(scheme, np.zeros((0, 2), dtype=int))
        with pytest.raises(InsufficientData):
            ci_test_g2(data, 0, 1)


class TestVectorisedCiTest:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("test", ["g2", "chi2"])
    def test_matches_per_stratum_loop(self, seed, test):
        data, rng = random_cohort(seed)
        n_vars = len(data.scheme)
        for _ in range(10):
            x, y = (int(v) for v in rng.choice(n_vars, size=2, replace=False))
            others = [v for v in range(n_vars) if v not in (x, y)]
            size = int(rng.integers(0, min(4, len(others)) + 1))
            cond = tuple(int(v) for v in rng.permutation(others)[:size])
            stat, p, dof = ci_test_g2(data, x, y, cond, test=test)
            ref_stat, ref_p, ref_dof = loop_ci_test(data, x, y, cond, test=test)
            assert stat == pytest.approx(ref_stat, rel=1e-9, abs=1e-12)
            assert dof == ref_dof
            for alpha in (0.01, 0.05):
                assert (p > alpha) == (ref_p > alpha)
            assert p == pytest.approx(ref_p, rel=1e-6, abs=1e-12)

    def test_p_value_is_chi2_survival(self):
        from scipy.stats import chi2

        data = sample_from_network(strong_chain_net(), 2_000, 3)
        for x, y, cond in ((0, 2, ()), (0, 2, (1,)), (0, 1, (2,)), (1, 2, ())):
            stat, p, dof = ci_test_g2(data, x, y, cond)
            assert p == chi2.sf(stat, dof)

    def test_importing_pc_does_not_import_scipy_stats(self):
        src = str(Path(causalkit.__file__).resolve().parents[1])
        code = "import sys, causalkit.pc; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"


class TestSkeleton:
    def test_oracle_chain(self):
        dag = Dag.from_names(binary_scheme(3), CHAIN)
        skeleton, sepsets = learn_skeleton(make_ci_from_dag(dag))
        assert skeleton.skeleton_pairs() == {
            frozenset((0, 1)),
            frozenset((1, 2)),
        }
        assert sepsets.get(0, 2) == frozenset((1,))

    def test_oracle_collider_sepset_excludes_collider(self):
        dag = Dag.from_names(binary_scheme(3), COLLIDER)
        skeleton, sepsets = learn_skeleton(make_ci_from_dag(dag))
        assert sepsets.get(0, 1) == frozenset()

    def test_alpha_validation(self):
        dag = Dag(binary_scheme(2))
        with pytest.raises(ValueError):
            learn_skeleton(make_ci_from_dag(dag), alpha_level=0.0)

    def test_max_cond_size_zero_keeps_chain_endpoints(self):
        dag = Dag.from_names(binary_scheme(3), CHAIN)
        skeleton, _ = learn_skeleton(make_ci_from_dag(dag), max_cond_size=0)
        # Without conditioning, X0 and X2 remain dependent, edge survives.
        assert frozenset((0, 2)) in skeleton.skeleton_pairs()

    def test_data_skeleton_recovers_collider(self):
        data = sample_from_network(strong_collider_net(), 10_000, 1)
        skeleton, _ = learn_skeleton(make_ci_from_data(data))
        assert skeleton.skeleton_pairs() == {
            frozenset((0, 2)),
            frozenset((1, 2)),
        }


class TestOrientation:
    def test_collider_oriented(self):
        dag = Dag.from_names(binary_scheme(3), COLLIDER)
        skeleton, sepsets = learn_skeleton(make_ci_from_dag(dag))
        out = orient_v_structures(skeleton, sepsets)
        assert out.directed == {(0, 2), (1, 2)}

    def test_conflict_left_undirected(self, caplog):
        # Manufactured conflicting sepsets around a triangle-free square.
        scheme = binary_scheme(4)
        skeleton = Pdag.from_names(
            scheme,
            undirected=[("X0", "X1"), ("X1", "X2"), ("X2", "X3"), ("X3", "X0")],
        )
        sepsets = SepsetMap()
        sepsets.put(0, 2, ())
        sepsets.put(1, 3, ())
        with caplog.at_level(logging.WARNING, logger="causalkit.pc"):
            out = orient_v_structures(skeleton, sepsets)
        # Every edge receives both orientations, so all stay undirected.
        assert out.directed == frozenset()
        assert len(out.undirected) == 4
        # One warning per conflicting edge, not one per direction.
        warned = [frozenset(r.args) for r in caplog.records]
        assert sorted(map(sorted, warned)) == sorted(map(sorted, out.undirected))


class TestMeekRules:
    def test_r1(self):
        scheme = binary_scheme(3)
        pdag = Pdag.from_names(
            scheme, directed=[("X0", "X1")], undirected=[("X1", "X2")]
        )
        out = meek_closure(pdag)
        assert (1, 2) in out.directed

    def test_r2(self):
        scheme = binary_scheme(3)
        pdag = Pdag.from_names(
            scheme,
            directed=[("X0", "X1"), ("X1", "X2")],
            undirected=[("X0", "X2")],
        )
        out = meek_closure(pdag)
        assert (0, 2) in out.directed

    def test_r3(self):
        scheme = binary_scheme(4)
        pdag = Pdag.from_names(
            scheme,
            directed=[("X1", "X3"), ("X2", "X3")],
            undirected=[("X0", "X1"), ("X0", "X2"), ("X0", "X3")],
        )
        out = meek_closure(pdag)
        assert (0, 3) in out.directed

    def test_r4(self):
        scheme = binary_scheme(4)
        pdag = Pdag.from_names(
            scheme,
            directed=[("X2", "X3"), ("X3", "X1")],
            undirected=[("X0", "X1"), ("X0", "X2"), ("X0", "X3")],
        )
        out = meek_closure(pdag)
        assert (0, 1) in out.directed

    def test_never_unorients(self):
        scheme = binary_scheme(3)
        pdag = Pdag.from_names(scheme, directed=[("X0", "X1")])
        out = meek_closure(pdag)
        assert pdag.directed <= out.directed


class TestPipeline:
    def test_oracle_pipeline_equals_cpdag_on_collider(self):
        dag = Dag.from_names(binary_scheme(3), COLLIDER)
        out = pc_run(make_ci_from_dag(dag))
        cpdag = dag_to_cpdag(dag)
        assert structural_hamming_distance(out, cpdag) == 0

    def test_oracle_pipeline_equals_cpdag_on_random_dags(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            dag = random_dag(binary_scheme(5), rng)
            out = pc_run(make_ci_from_dag(dag))
            cpdag = dag_to_cpdag(dag)
            assert out.directed == cpdag.directed, seed
            assert out.undirected == cpdag.undirected, seed

    def test_data_pipeline_recovers_chain_pattern(self):
        dag = Dag.from_names(binary_scheme(3), CHAIN)
        data = sample_from_network(strong_chain_net(), 10_000, 0)
        out = pc_run(data)
        assert structural_hamming_distance(out, dag_to_cpdag(dag)) == 0

    def test_data_pipeline_recovers_collider_pattern(self):
        dag = Dag.from_names(binary_scheme(3), COLLIDER)
        data = sample_from_network(strong_collider_net(), 10_000, 0)
        out = pc_run(data)
        assert structural_hamming_distance(out, dag_to_cpdag(dag)) == 0


class TestCpdagAndShd:
    def test_chain_is_fully_undirected(self):
        dag = Dag.from_names(binary_scheme(3), CHAIN)
        cpdag = dag_to_cpdag(dag)
        assert cpdag.directed == frozenset()
        assert len(cpdag.undirected) == 2

    def test_markov_equivalent_dags_share_cpdag(self):
        scheme = binary_scheme(3)
        a = dag_to_cpdag(Dag.from_names(scheme, CHAIN))
        b = dag_to_cpdag(
            Dag.from_names(scheme, [("X1", "X0"), ("X1", "X2")])
        )
        assert a.directed == b.directed and a.undirected == b.undirected

    def test_shd_zero_iff_identical(self):
        dag = Dag.from_names(binary_scheme(3), COLLIDER)
        cpdag = dag_to_cpdag(dag)
        assert structural_hamming_distance(cpdag, cpdag) == 0

    def test_shd_counts_each_kind_of_mismatch(self):
        scheme = binary_scheme(3)
        a = Pdag.from_names(scheme, directed=[("X0", "X1")])
        b = Pdag.from_names(scheme, directed=[("X1", "X0")])
        c = Pdag.from_names(scheme, undirected=[("X0", "X1")])
        d = Pdag(scheme)
        assert structural_hamming_distance(a, b) == 1  # reversal
        assert structural_hamming_distance(a, c) == 1  # orientation loss
        assert structural_hamming_distance(a, d) == 1  # deletion
        assert structural_hamming_distance(b, c) == 1
