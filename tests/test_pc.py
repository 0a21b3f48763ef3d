import hashlib
import logging
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalkit
from causalkit import nsclc, pc
from causalkit.data import CategoricalDataset
from causalkit.errors import CycleError, InsufficientData, UnknownVariable
from causalkit.graph import Dag, Pdag, VariableScheme, serialize_graph
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
from causalkit.synth import reference_network, sample_from_network

from conftest import binary_scheme


def strong_chain_net():
    scheme = binary_scheme(3)
    dag = Dag(scheme, CHAIN)
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
    dag = Dag(scheme, COLLIDER)
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
    """Each pair forward in a random order kept with probability density."""
    n = len(scheme)
    perm = rng.permutation(n)
    forward = [(int(perm[i]), int(perm[j])) for i in range(n) for j in range(i + 1, n)]
    return Dag(scheme, frozenset(e for e in forward if rng.random() < density))


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


def one_table_ci_test(data, x, y, cond=(), test="g2"):
    """Reference CI test for one set: one bincount, then np.sum over every
    stratum's terms at once (the single-set form the batches must equal)."""
    from scipy.stats import chi2

    cards = data.scheme.cardinalities()
    rows = np.asarray(data.rows)
    rx, ry = cards[x], cards[y]
    flat = rows[:, x] * ry + rows[:, y]
    size = rx * ry
    for c in reversed(cond):
        flat = flat + rows[:, c] * size
        size *= cards[c]
    tables = np.bincount(flat, minlength=size).reshape(-1, rx, ry)
    n_s = tables.sum(axis=(1, 2))
    tables = tables[n_s > 0]
    expected = (
        tables.sum(axis=2, keepdims=True)
        * tables.sum(axis=1, keepdims=True)
        / n_s[n_s > 0, None, None]
    )
    mask = tables > 0 if test == "g2" else expected > 0
    observed, expected = tables[mask], expected[mask]
    if test == "g2":
        stat = 2.0 * float(np.sum(observed * np.log(observed / expected)))
    else:
        stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = (rx - 1) * (ry - 1) * len(tables)
    return stat, (float(chi2.sf(stat, dof)) if dof > 0 else 1.0), dof


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


def loop_skeleton(ci_one, scheme, alpha_level=0.05, max_cond_size=None):
    """Reference stable-PC skeleton: one ci_one(x, y, cond) -> p call per
    set, x's neighbours first, then all of y's, stopping at p > alpha."""
    n = len(scheme)
    max_cond_size = n - 2 if max_cond_size is None else max_cond_size
    adj = {v: set(range(n)) - {v} for v in range(n)}
    sepsets = {}
    for level in range(max_cond_size + 1):
        snapshot = {v: frozenset(adj[v]) for v in adj}
        if all(len(snapshot[v]) - 1 < level for v in snapshot):
            break
        removals = []
        for x, y in combinations(range(n), 2):
            if y not in adj[x]:
                continue
            for cond in (
                *combinations(sorted(snapshot[x] - {y}), level),
                *combinations(sorted(snapshot[y] - {x}), level),
            ):
                if ci_one(x, y, cond) > alpha_level:
                    removals.append((x, y, cond))
                    break
        for x, y, cond in removals:
            adj[x].discard(y)
            adj[y].discard(x)
            sepsets[frozenset((x, y))] = frozenset(cond)
    pairs = {frozenset((x, y)) for x in adj for y in adj[x]}
    return pairs, sepsets


def counting(ci):
    """`ci` that also records every (x, y, cond) whose p-value it computed,
    and every wave it was asked for."""
    computed, waves = [], []

    def wrapped(tests):
        computed.extend(tests)
        waves.append(list(tests))
        return ci(tests)

    wrapped.scheme, wrapped.batch = ci.scheme, ci.batch
    return wrapped, computed, waves


CHAIN = ("X0", "X1"), ("X1", "X2")
COLLIDER = ("X0", "X2"), ("X1", "X2")


class TestDSeparation:
    def test_chain(self):
        dag = Dag(binary_scheme(3), CHAIN)
        assert not d_separated(dag, 0, 2, ())
        assert d_separated(dag, 0, 2, (1,))

    def test_fork(self):
        dag = Dag(binary_scheme(3), [("X1", "X0"), ("X1", "X2")])
        assert not d_separated(dag, 0, 2, ())
        assert d_separated(dag, 0, 2, (1,))

    def test_collider(self):
        dag = Dag(binary_scheme(3), COLLIDER)
        assert d_separated(dag, 0, 1, ())
        assert not d_separated(dag, 0, 1, (2,))

    def test_collider_descendant_opens_path(self):
        dag = Dag(
            binary_scheme(4), [("X0", "X2"), ("X1", "X2"), ("X2", "X3")]
        )
        assert d_separated(dag, 0, 1, ())
        assert not d_separated(dag, 0, 1, (3,))

    def test_reads_the_edges_of_the_dag_it_is_given(self):
        # d_separated walks the Dag's cached parents/children; an edge added
        # to a copy must open a path there and nowhere else.
        chain = Dag(binary_scheme(3), CHAIN)
        assert d_separated(chain, 0, 2, (1,))
        shortcut = Dag(chain.scheme, chain.edges | {(0, 2)})
        assert not d_separated(shortcut, 0, 2, (1,))
        assert d_separated(chain, 0, 2, (1,))

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


class TestCiArguments:
    DATA = sample_from_network(reference_network(7), 500, 1)

    @pytest.mark.parametrize(
        "x, y, cond",
        [(0, 1, (0,)), (0, 1, (1,)), (0, 0, ()), (0, 1, (2, 2)), (3, 1, (2, 3))],
        ids=["holds-x", "holds-y", "x-is-y", "repeats", "holds-x-later"],
    )
    def test_a_repeated_variable_is_a_value_error(self, x, y, cond):
        with pytest.raises(ValueError, match="distinct variables"):
            ci_test_g2(self.DATA, x, y, cond)
        ci = make_ci_from_data(self.DATA)
        # A table of the same level counted first must not excuse the test.
        ci([(5, 6, tuple(range(7, 7 + len(cond))))])
        with pytest.raises(ValueError, match="distinct variables"):
            ci([(x, y, cond)])
        with pytest.raises(ValueError, match="distinct variables"):
            make_ci_from_dag(reference_network(7).dag)([(x, y, cond)])

    @pytest.mark.parametrize(
        "x, y, cond",
        [(0, 1, (-1,)), (0, 1, (99,)), (0, 18, ()), (-1, 1, ())],
        ids=["negative-in-set", "large-in-set", "y-past-the-end", "negative-x"],
    )
    def test_an_index_outside_the_scheme_is_unknown_variable(self, x, y, cond):
        with pytest.raises(UnknownVariable, match=r"not in \[0, 18\)"):
            ci_test_g2(self.DATA, x, y, cond)
        with pytest.raises(UnknownVariable):
            make_ci_from_data(self.DATA)([(0, 1, ()), (x, y, cond)])
        oracle = make_ci_from_dag(reference_network(7).dag)
        with pytest.raises(UnknownVariable, match=r"not in \[0, 18\)"):
            oracle([(0, 1, ()), (x, y, cond)])


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

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("test", ["g2", "chi2"])
    def test_batched_equals_one_set_at_a_time(self, seed, test, monkeypatch):
        data, rng = random_cohort(seed)
        # Three sets per batch, so a level's list spans several waves, and
        # three tuples per count.
        monkeypatch.setattr(pc, "_BATCH_CODES", 3 * data.n)
        cards = data.scheme.cardinalities()
        x, y = (int(v) for v in rng.choice(len(cards), size=2, replace=False))
        others = [v for v in range(len(cards)) if v not in (x, y)]
        ci = make_ci_from_data(data, test)
        assert ci.batch == 3
        tables = {}
        for level in range(len(others) + 1):  # levels 0-4
            conds = list(combinations(others, level))
            tests = [(x, y, cond) for cond in conds]
            stat, p, dof = pc._ci_tests(data, tests, test, tables)
            assert {len(key) for key in tables} == {level + 2}  # this level's only
            assert ci(tests) == p.tolist()
            for cond, *result in zip(conds, stat, p, dof):
                single = ci_test_g2(data, x, y, cond, test=test)
                assert tuple(result) == single
                assert single == one_table_ci_test(data, x, y, cond, test)

    def test_batches_split_at_the_code_cap(self, monkeypatch):
        # 20,000 rows make three sets per batch at the module's own cap.
        data = sample_from_network(reference_network(7), 20_000, 4)
        assert pc._BATCH_CODES // data.n == 3
        ci = make_ci_from_data(data)
        assert ci.batch == 3
        conds = list(combinations(range(2, 8), 2))
        counted, bincount = [], np.bincount
        with monkeypatch.context() as patch:
            patch.setattr(
                np,
                "bincount",
                lambda codes, **kw: counted.append(len(codes)) or bincount(codes, **kw),
            )
            p = ci([(0, 1, c) for c in conds])
        # Fifteen tuples, counted three at a time.
        assert counted == [3 * data.n] * 5
        assert p == [ci_test_g2(data, 0, 1, c)[1] for c in conds]
        assert p == [one_table_ci_test(data, 0, 1, c)[1] for c in conds]

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("test", ["g2", "chi2"])
    def test_wave_equals_one_table_per_test(self, seed, test, monkeypatch):
        # Waves of random tests at levels 0-4, mixing pairs of different
        # cardinalities and splits of one variable tuple; a cap of one to
        # three rows' worth of codes splits them into several counts and
        # post-processing runs.
        data, rng = random_cohort(seed)
        monkeypatch.setattr(pc, "_BATCH_CODES", int(rng.integers(1, 4)) * data.n)
        n_vars = len(data.scheme)
        cards = data.scheme.cardinalities()
        tables, ci, groups = {}, make_ci_from_data(data, test), set()
        for level in range(min(4, n_vars - 2) + 1):
            wave = []
            for _ in range(16):
                x, y, *cond = (int(v) for v in rng.permutation(n_vars)[: level + 2])
                wave.append((x, y, tuple(cond)))
            groups |= {(cards[x], cards[y]) for x, y, _ in wave}
            stat, p, dof = pc._ci_tests(data, wave, test, tables)
            assert ci(wave) == p.tolist()
            assert list(zip(stat, p, dof)) == [
                one_table_ci_test(data, x, y, cond, test) for x, y, cond in wave
            ]
        assert len(groups) > 2

    @pytest.mark.parametrize("n, seed, depth", [(1000, 12, None), (326, 1, None)])
    def test_each_level_counts_each_variable_tuple_once(
        self, n, seed, depth, monkeypatch
    ):
        data = sample_from_network(reference_network(7), n, seed)
        counted, count = [], CategoricalDataset.joint_counts

        def recording(self, keys, per_count):
            counted.extend(keys)
            return count(self, keys, per_count)

        monkeypatch.setattr(CategoricalDataset, "joint_counts", recording)
        ci, computed, _ = counting(make_ci_from_data(data))
        learn_skeleton(ci, 0.05, depth)
        assert len(counted) == len(set(counted))
        assert set(counted) == {tuple(sorted((x, y, *c))) for x, y, c in computed}
        assert len(counted) < len(computed)  # tests share tables

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
        dag = Dag(binary_scheme(3), CHAIN)
        skeleton, sepsets = learn_skeleton(make_ci_from_dag(dag))
        assert skeleton.skeleton_pairs() == {
            frozenset((0, 1)),
            frozenset((1, 2)),
        }
        assert sepsets.get(0, 2) == frozenset((1,))

    def test_oracle_collider_sepset_excludes_collider(self):
        dag = Dag(binary_scheme(3), COLLIDER)
        skeleton, sepsets = learn_skeleton(make_ci_from_dag(dag))
        assert sepsets.get(0, 1) == frozenset()

    def test_alpha_validation(self):
        dag = Dag(binary_scheme(2))
        with pytest.raises(ValueError):
            learn_skeleton(make_ci_from_dag(dag), alpha_level=0.0)

    @pytest.mark.parametrize("depth", [-1, 1.5, True, np.int64(1)])
    def test_a_depth_must_be_none_or_a_non_negative_int(self, depth):
        data = sample_from_network(reference_network(7), 200, 1)
        with pytest.raises(ValueError, match="max_cond_size"):
            pc_run(data, 0.05, depth)

    def test_max_cond_size_zero_keeps_chain_endpoints(self):
        dag = Dag(binary_scheme(3), CHAIN)
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


class TestBatchedSkeleton:
    def _both(self, ci, ci_one, depth=None):
        skeleton, sepsets = learn_skeleton(ci, 0.05, depth)
        pairs, ref_sepsets = loop_skeleton(ci_one, ci.scheme, 0.05, depth)
        assert skeleton.skeleton_pairs() == pairs
        assert sepsets.sets == ref_sepsets

    @pytest.mark.parametrize("seed", range(30))
    def test_data_matches_one_test_at_a_time(self, seed):
        data, _ = random_cohort(seed)
        self._both(
            make_ci_from_data(data), lambda x, y, c: ci_test_g2(data, x, y, c)[1]
        )

    @pytest.mark.parametrize("n, seed, depth", [(326, 1, None), (1000, 12, 2)])
    def test_reference_cohorts_match_one_test_at_a_time(self, n, seed, depth):
        data = sample_from_network(reference_network(7), n, seed)
        self._both(
            make_ci_from_data(data),
            lambda x, y, c: ci_test_g2(data, x, y, c)[1],
            depth,
        )

    def test_oracle_matches_one_test_at_a_time(self):
        for seed in range(30):
            dag = random_dag(binary_scheme(6), np.random.default_rng(seed))
            self._both(
                make_ci_from_dag(dag),
                lambda x, y, c: 1.0 if d_separated(dag, x, y, c) else 0.0,
            )

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_no_set_is_tested_twice_and_each_level_is_logged(self, seed, caplog):
        data, _ = random_cohort(seed)
        dag = random_dag(binary_scheme(6), np.random.default_rng(seed))
        for ci in (make_ci_from_data(data), make_ci_from_dag(dag)):
            ci, computed, waves = counting(ci)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="causalkit.pc"):
                learn_skeleton(ci)
            assert len(computed) == len(set(computed))
            # A wave holds at most `batch` sets of each pair, all of one level.
            for wave in waves:
                pairs = [(x, y) for x, y, _ in wave]
                assert max(map(pairs.count, pairs)) <= ci.batch
                assert len({len(cond) for _, _, cond in wave}) == 1
            levels = [r.args for r in caplog.records]
            assert [level for level, _, _ in levels] == list(range(len(levels)))
            assert sum(count for _, count, _ in levels) == len(computed)

    def test_level_counts_on_the_oracle_chain(self, caplog):
        dag = Dag(binary_scheme(3), CHAIN)
        learn_skeleton(make_ci_from_dag(dag))
        assert caplog.records == []  # DEBUG is off by default
        with caplog.at_level(logging.DEBUG, logger="causalkit.pc"):
            learn_skeleton(make_ci_from_dag(dag))
        # Level 1 lists (X2) once for (X0, X1), not once from each side.
        assert [r.getMessage() for r in caplog.records] == [
            "PC level 0: 3 CI p-values computed, 0 edges removed",
            "PC level 1: 3 CI p-values computed, 1 edges removed",
        ]


class TestOrientation:
    def test_collider_oriented(self):
        dag = Dag(binary_scheme(3), COLLIDER)
        skeleton, sepsets = learn_skeleton(make_ci_from_dag(dag))
        out = orient_v_structures(skeleton, sepsets)
        assert out.directed == {(0, 2), (1, 2)}

    def test_conflict_left_undirected(self, caplog):
        # Manufactured conflicting sepsets around a triangle-free square.
        scheme = binary_scheme(4)
        skeleton = Pdag(
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

    def test_oriented_edges_leave_the_undirected_set(self):
        dag = Dag(
            binary_scheme(4), [("X0", "X2"), ("X1", "X2"), ("X2", "X3")]
        )
        skeleton, sepsets = learn_skeleton(make_ci_from_dag(dag))
        out = orient_v_structures(skeleton, sepsets)
        assert out.directed == {(0, 2), (1, 2)}
        assert out.undirected == {frozenset((2, 3))}


class TestMeekRules:
    def test_r1(self):
        scheme = binary_scheme(3)
        pdag = Pdag(
            scheme, directed=[("X0", "X1")], undirected=[("X1", "X2")]
        )
        out = meek_closure(pdag)
        assert (1, 2) in out.directed

    def test_r2(self):
        scheme = binary_scheme(3)
        pdag = Pdag(
            scheme,
            directed=[("X0", "X1"), ("X1", "X2")],
            undirected=[("X0", "X2")],
        )
        out = meek_closure(pdag)
        assert (0, 2) in out.directed

    def test_r3(self):
        scheme = binary_scheme(4)
        pdag = Pdag(
            scheme,
            directed=[("X1", "X3"), ("X2", "X3")],
            undirected=[("X0", "X1"), ("X0", "X2"), ("X0", "X3")],
        )
        out = meek_closure(pdag)
        assert (0, 3) in out.directed

    def test_r4(self):
        scheme = binary_scheme(4)
        pdag = Pdag(
            scheme,
            directed=[("X2", "X3"), ("X3", "X1")],
            undirected=[("X0", "X1"), ("X0", "X2"), ("X0", "X3")],
        )
        out = meek_closure(pdag)
        assert (0, 1) in out.directed

    @pytest.mark.parametrize(
        "directed, undirected, expected_directed",
        [
            # R1 with X0 and X2 adjacent.
            ([("X0", "X1")], [("X1", "X2"), ("X0", "X2")], {(0, 1)}),
            # R3 with the spouses X1 and X2 adjacent.
            (
                [("X1", "X3"), ("X2", "X3")],
                [("X0", "X1"), ("X0", "X2"), ("X0", "X3"), ("X1", "X2")],
                {(1, 3), (2, 3)},
            ),
            # R4 with X2 and X1 adjacent: only R2 fires, on X2 - X1.
            (
                [("X2", "X3"), ("X3", "X1")],
                [("X0", "X1"), ("X0", "X2"), ("X0", "X3"), ("X1", "X2")],
                {(2, 3), (3, 1), (2, 1)},
            ),
        ],
        ids=["r1", "r3", "r4"],
    )
    def test_shielded_pattern_orients_nothing_by_its_rule(
        self, directed, undirected, expected_directed
    ):
        n = 1 + max(int(name[1:]) for edge in directed + undirected for name in edge)
        pdag = Pdag(
            binary_scheme(n), directed=directed, undirected=undirected
        )
        out = meek_closure(pdag)
        assert out.directed == expected_directed
        assert out.skeleton_pairs() == pdag.skeleton_pairs()

    def test_never_unorients(self):
        scheme = binary_scheme(3)
        pdag = Pdag(scheme, directed=[("X0", "X1")])
        out = meek_closure(pdag)
        assert pdag.directed <= out.directed

    def test_guarded_closure_needs_an_acyclic_start(self):
        # R1 orients X2 -> X3 (X1 -> X2 - X3, X1 and X3 nonadjacent), but the
        # directed part X0 -> X1 -> X2 -> X0 is already a cycle.
        pdag = Pdag(
            binary_scheme(4),
            directed=[("X0", "X1"), ("X1", "X2"), ("X2", "X0")],
            undirected=[("X2", "X3")],
        )
        assert meek_closure(pdag).directed == pdag.directed | {(2, 3)}
        with pytest.raises(CycleError):
            meek_closure(pdag, acyclic=True)


class TestAcyclicGuard:
    # X2 -> X0 - X1 with X2, X1 nonadjacent: R1 orients X0 -> X1, which
    # closes X0 -> X1 -> X3 -> X4 -> X0.
    PDAG = dict(
        directed=[("X2", "X0"), ("X1", "X3"), ("X3", "X4"), ("X4", "X0")],
        undirected=[("X0", "X1")],
    )

    def test_meek_closure_follows_r1_literally(self):
        pdag = Pdag(binary_scheme(5), **self.PDAG)
        out = meek_closure(pdag)
        assert out.directed == pdag.directed | {(0, 1)}
        with pytest.raises(CycleError):
            Dag(pdag.scheme, out.directed)

    def test_guard_keeps_the_edge_undirected_and_warns_once(self, caplog):
        pdag = Pdag(binary_scheme(5), **self.PDAG)
        with caplog.at_level(logging.WARNING, logger="causalkit.pc"):
            out = meek_closure(pdag, acyclic=True)
        assert (out.directed, out.undirected) == (pdag.directed, pdag.undirected)
        assert [r.args for r in caplog.records] == [(0, 1)]

    def test_pc_run_is_acyclic_where_meek_closes_a_cycle(self, caplog):
        data = sample_from_network(reference_network(7), 5000, 11)
        skeleton, sepsets = learn_skeleton(make_ci_from_data(data), 0.05, 2)
        literal = meek_closure(orient_v_structures(skeleton, sepsets))
        with pytest.raises(CycleError):
            Dag(data.scheme, literal.directed)
        with caplog.at_level(logging.WARNING, logger="causalkit.pc"):
            out = pc_run(data, 0.05, 2)
        Dag(data.scheme, out.directed)
        stage, alk = data.scheme.index("STAGEGROUP"), data.scheme.index("ALK")
        assert literal.directed - out.directed == {(stage, alk)}
        assert out.undirected - literal.undirected == {frozenset((stage, alk))}
        assert [r.args for r in caplog.records if "cycle" in r.msg] == [(stage, alk)]

    def test_colliders_alone_cannot_close_a_cycle(self, caplog):
        # A triangle X0 - X1 - X2 with one extra neighbour each; every
        # nonadjacent pair is independent given nothing, except X1, X5 given
        # X0, X2, X3 given X1 and X0, X4 given X2.  The colliders then ask
        # for X0 -> X1 -> X2 -> X0, which the collider step must not finish.
        edges = ((0, 1), (1, 2), (2, 0), (3, 1), (4, 2), (5, 0))
        adjacent = {frozenset(e) for e in edges}
        separating = {
            frozenset((1, 5)): (0,),
            frozenset((2, 3)): (1,),
            frozenset((0, 4)): (2,),
        }

        def ci(tests):
            return [
                1.0
                if frozenset((x, y)) not in adjacent
                and cond == separating.get(frozenset((x, y)), ())
                else 0.0
                for x, y, cond in tests
            ]

        ci.scheme, ci.batch = binary_scheme(6), 1
        skeleton, sepsets = learn_skeleton(ci)
        assert skeleton.undirected == adjacent
        with caplog.at_level(logging.WARNING, logger="causalkit.pc"):
            colliders = orient_v_structures(skeleton, sepsets)
        [record] = caplog.records
        assert "collider orientation" in record.msg
        refused = frozenset(record.args)
        assert colliders.undirected == {refused}
        assert {frozenset(e) for e in colliders.directed} == adjacent - {refused}
        Dag(ci.scheme, colliders.directed)
        Dag(ci.scheme, pc_run(ci).directed)


class TestPipeline:
    def test_oracle_pipeline_equals_cpdag_on_collider(self):
        dag = Dag(binary_scheme(3), COLLIDER)
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
        dag = Dag(binary_scheme(3), CHAIN)
        data = sample_from_network(strong_chain_net(), 10_000, 0)
        out = pc_run(data)
        assert structural_hamming_distance(out, dag_to_cpdag(dag)) == 0

    def test_data_pipeline_recovers_collider_pattern(self):
        dag = Dag(binary_scheme(3), COLLIDER)
        data = sample_from_network(strong_collider_net(), 10_000, 0)
        out = pc_run(data)
        assert structural_hamming_distance(out, dag_to_cpdag(dag)) == 0


class TestCpdagAndShd:
    def test_chain_is_fully_undirected(self):
        dag = Dag(binary_scheme(3), CHAIN)
        cpdag = dag_to_cpdag(dag)
        assert cpdag.directed == frozenset()
        assert len(cpdag.undirected) == 2

    def test_markov_equivalent_dags_share_cpdag(self):
        scheme = binary_scheme(3)
        a = dag_to_cpdag(Dag(scheme, CHAIN))
        b = dag_to_cpdag(
            Dag(scheme, [("X1", "X0"), ("X1", "X2")])
        )
        assert a.directed == b.directed and a.undirected == b.undirected

    def test_shd_zero_iff_identical(self):
        dag = Dag(binary_scheme(3), COLLIDER)
        cpdag = dag_to_cpdag(dag)
        assert structural_hamming_distance(cpdag, cpdag) == 0

    def test_shd_counts_each_kind_of_mismatch(self):
        scheme = binary_scheme(3)
        a = Pdag(scheme, directed=[("X0", "X1")])
        b = Pdag(scheme, directed=[("X1", "X0")])
        c = Pdag(scheme, undirected=[("X0", "X1")])
        d = Pdag(scheme)
        assert structural_hamming_distance(a, b) == 1  # reversal
        assert structural_hamming_distance(a, c) == 1  # orientation loss
        assert structural_hamming_distance(a, d) == 1  # deletion
        assert structural_hamming_distance(b, c) == 1


def pin_digest(*parts: str) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def causalkit_lines(records) -> list[str]:
    return [
        f"{r.levelname} {r.name}: {r.getMessage()}\n"
        for r in records
        if r.name.startswith("causalkit")
    ]


def nsclc_random_dag(seed: int) -> Dag:
    """A DAG over the NSCLC scheme: a random variable order, and each forward
    pair kept with one probability drawn from U(0.05, 0.5)."""
    rng = np.random.default_rng(seed)
    n = len(nsclc.SCHEME)
    order = rng.permutation(n)
    keep = rng.uniform(0.05, 0.5)
    return Dag(
        nsclc.SCHEME,
        frozenset(
            (int(order[i]), int(order[j]))
            for i, j in combinations(range(n), 2)
            if rng.random() < keep
        ),
    )


class TestOrientationPins:
    """SHA-256 of PC's serialized output and its `causalkit` DEBUG and warning
    lines, taken from the implementation that grew a `Dag` per proposed edge
    (the full-depth seed-11 run: from the per-pair CI kernel before waves).
    The three cohorts hold collider conflicts and a guarded-Meek refusal, so
    the collider step, the closure and both guards are pinned byte for byte.
    A changed digest is a changed output: mend the code, not the digest."""

    @pytest.mark.parametrize(
        "n, seed, depth, digest",
        [
            (1000, 12, None, "e2847eb6ec4c1c92cd6fedb5f5b4a960a87bb5cf73be8a867a10cdad2f15d29b"),
            (10_000, 810448438, 2, "92ad4ad8ff1fffc2f72e76cfdafe6425a327afafb7b5759c4364f57e90f1cd3d"),
            (10_000, 11, 3, "c782af117b1ab90dadb2466bc28e211a52b7a028ab1dc08d33e522f7e1829021"),
            (10_000, 11, None, "662c933c2a63d483101bf4f63535770217716d538e1d8fbbaaf2b32263f11dbb"),
        ],
        ids=[
            "n1000-seed12-full",
            "n10000-seed810448438-depth2",
            "n10000-seed11-depth3",
            "n10000-seed11-full",
        ],
    )
    def test_pc_run(self, n, seed, depth, digest, caplog):
        data = sample_from_network(reference_network(7), n, seed)
        with caplog.at_level(logging.DEBUG, logger="causalkit"):
            out = pc_run(data, 0.05, depth)
        lines = causalkit_lines(caplog.records)
        assert pin_digest(serialize_graph(out), *lines) == digest

    def test_dag_to_cpdag_on_300_random_dags(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="causalkit"):
            texts = [
                serialize_graph(dag_to_cpdag(nsclc_random_dag(seed)))
                for seed in range(300)
            ]
        assert causalkit_lines(caplog.records) == []
        assert pin_digest(*texts) == (
            "3746c7c3fdf1e5715cbbc97b8fbbb12f99b45d85e1d1a49f5d6e903b3ed5c0d0"
        )
