import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from causalkit import nsclc
from causalkit.data import CategoricalDataset, contingency_counts
from causalkit.graph import Dag, VariableScheme
from causalkit.scoring import (
    VARIANTS,
    bdeu_family_canonical,
    bdeu_family_paper,
    bdeu_total,
    score_table,
)
from causalkit.synth import reference_network, sample_from_network

from conftest import binary_scheme, dag_from_insertions


def _table(rows, child="X1", parents=("X0",)):
    """Build a CountTable from an explicit dataset containing given counts."""
    scheme = binary_scheme(2)
    data = CategoricalDataset(scheme, np.array(rows))
    return contingency_counts(data, child, parents)


def one_cell_counts(n1, n2):
    """Root-node CountTable for a binary child with counts (n1, n2)."""
    rows = [[0, 0]] * n1 + [[0, 1]] * n2
    scheme = binary_scheme(2)
    data = CategoricalDataset(scheme, np.array(rows))
    return contingency_counts(data, "X1", ())


def paper_oracle(n_ij, alpha):
    """Literal transcription of the smoothed-frequency closed form."""
    total = 0.0
    for row in n_ij:
        n_i = sum(row)
        for n in row:
            s = n + alpha / len(row)
            total += s * math.log(s / (n_i + alpha))
    return total


def canonical_oracle(n_ij, alpha):
    """Literal log-gamma BDeu with alpha split over configs then states."""
    q = len(n_ij)
    total = 0.0
    for row in n_ij:
        n_i = sum(row)
        a_i = alpha / q
        a_ij = a_i / len(row)
        total += gammaln(a_i) - gammaln(a_i + n_i)
        for n in row:
            total += gammaln(a_ij + n) - gammaln(a_ij)
    return total


def per_cell_canonical(counts, alpha):
    """bdeu_family_canonical with one math.lgamma call per histogram row."""
    n_i, n_ij, m = counts.histogram
    r = counts.child_card
    a_i = alpha / counts.n_configs
    a_ij = a_i / r
    lg_ij = np.array([math.lgamma(a_ij + k) for k in n_ij.tolist()])
    lg_i = np.array([math.lgamma(a_i + k) for k in n_i.tolist()])
    cells = m * (lg_ij - math.lgamma(a_ij))
    configs = m / r * (lg_i - math.lgamma(a_i))
    return math.fsum((cells - configs).tolist())


class TestPaperVariant:
    def test_frozen_reference_value(self):
        # counts (3, 1), alpha 1: hand-derived
        #   3.5 ln(3.5/5) + 1.5 ln(1.5/5) = -3.054321...
        counts = one_cell_counts(3, 1)
        expected = 3.5 * math.log(3.5 / 5) + 1.5 * math.log(1.5 / 5)
        assert bdeu_family_paper(counts, 1.0) == pytest.approx(
            expected, abs=1e-12
        )
        assert bdeu_family_paper(counts, 1.0) == pytest.approx(
            -3.0543215096, abs=1e-9
        )

    def test_alpha_validation(self):
        counts = one_cell_counts(1, 1)
        with pytest.raises(ValueError):
            bdeu_family_paper(counts, 0.0)
        with pytest.raises(ValueError):
            bdeu_family_canonical(counts, -1.0)

    def test_zero_counts_finite(self):
        counts = one_cell_counts(5, 0)
        assert math.isfinite(bdeu_family_paper(counts, 1.0))
        assert math.isfinite(bdeu_family_canonical(counts, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_literal_oracle(self, data):
        rows = [
            [data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))]
            for _ in range(data.draw(st.integers(1, 30)))
        ]
        alpha = data.draw(st.sampled_from([0.5, 1.0, 5.0, 10.0]))
        counts = _table(rows)
        expected = paper_oracle(counts.n_ij.tolist(), alpha)
        assert bdeu_family_paper(counts, alpha) == pytest.approx(
            expected, rel=1e-12
        )


class TestCanonicalVariant:
    def test_frozen_reference_value(self):
        counts = one_cell_counts(3, 1)
        expected = canonical_oracle([[3, 1]], 1.0)
        assert bdeu_family_canonical(counts, 1.0) == pytest.approx(
            expected, abs=1e-12
        )
        assert bdeu_family_canonical(counts, 1.0) == pytest.approx(
            -3.2425923514, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_literal_oracle(self, data):
        rows = [
            [data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))]
            for _ in range(data.draw(st.integers(1, 30)))
        ]
        alpha = data.draw(st.sampled_from([0.5, 1.0, 5.0, 15.0]))
        counts = _table(rows)
        expected = canonical_oracle(counts.n_ij.tolist(), alpha)
        assert bdeu_family_canonical(counts, alpha) == pytest.approx(
            expected, rel=1e-12
        )

    def test_likelihood_equivalence_of_markov_equivalent_dags(self):
        # A -> B and B -> A are Markov equivalent; canonical BDeu must tie.
        scheme = binary_scheme(2)
        rng = np.random.default_rng(0)
        data = CategoricalDataset(scheme, rng.integers(0, 2, size=(200, 2)))
        fwd = bdeu_total(Dag(scheme, [("X0", "X1")]), data, 10.0)
        rev = bdeu_total(Dag(scheme, [("X1", "X0")]), data, 10.0)
        assert fwd.total == pytest.approx(rev.total, abs=1e-9)


class TestTotals:
    def _random_case(self, seed):
        rng = np.random.default_rng(seed)
        n_vars = int(rng.integers(3, 6))
        scheme = binary_scheme(n_vars)
        pairs = (
            map(int, rng.integers(0, n_vars, size=2))
            for _ in range(int(rng.integers(0, 8)))
        )
        dag = dag_from_insertions(scheme, pairs)
        data = CategoricalDataset(
            scheme, rng.integers(0, 2, size=(int(rng.integers(5, 60)), n_vars))
        )
        return dag, data

    @pytest.mark.parametrize("variant", ["paper", "canonical"])
    def test_decomposes_over_families(self, variant):
        for seed in range(20):
            dag, data = self._random_case(seed)
            report = bdeu_total(dag, data, 10.0, variant)
            assert report.total == pytest.approx(
                sum(report.per_node.values()), abs=1e-12
            )
            fam = bdeu_family_paper if variant == "paper" else bdeu_family_canonical
            for idx, name in enumerate(dag.scheme.names):
                parents = tuple(dag.scheme.names[p] for p in dag.parents(idx))
                counts = contingency_counts(data, name, parents)
                assert report.per_node[name] == pytest.approx(
                    fam(counts, 10.0), abs=1e-12
                )

    def test_cache_consistency(self):
        # Scores read from a dataset whose count memo was filled by other
        # graphs, ESS values and parent orders are bit-identical to scores
        # counted afresh.
        for seed, variant in itertools.product(range(10), VARIANTS):
            dag, data = self._random_case(seed)
            reversed_dag = Dag(dag.scheme, frozenset((v, u) for u, v in dag.edges))
            bdeu_total(reversed_dag, data, 1.0, variant)
            names = data.scheme.names
            fam = bdeu_family_paper if variant == "paper" else bdeu_family_canonical
            for idx, name in enumerate(names):
                parents = [names[p] for p in dag.parents(idx)]
                # The score reads a summary that no parent order changes.
                scores = {
                    fam(contingency_counts(data, name, order), 5.0)
                    for order in itertools.permutations(parents)
                }
                assert len(scores) == 1, (name, parents, scores)
            bdeu_total(dag, data, 15.0, variant)
            warm = bdeu_total(dag, data, 5.0, variant)
            fresh_data = CategoricalDataset(data.scheme, data.rows)
            fresh = bdeu_total(dag, fresh_data, 5.0, variant)
            assert warm.per_node == fresh.per_node
            assert warm.total == fresh.total

    def test_dag_and_data_over_two_schemes_rejected(self):
        dag, data = self._random_case(0)
        other = VariableScheme.of([(f"Y{i}", ("0", "1")) for i in range(len(dag.scheme))])
        with pytest.raises(ValueError, match="different schemes"):
            bdeu_total(Dag(other), data, 5.0)

    def test_unknown_variant_rejected(self):
        dag, data = self._random_case(0)
        with pytest.raises(ValueError):
            bdeu_total(dag, data, 5.0, "bogus")

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_finite_alpha_rejected(self, variant, alpha):
        dag, data = self._random_case(0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            bdeu_total(dag, data, alpha, variant)


class TestSparseWideTables:
    """Several parents of cardinality 3-4 over few rows: most parent
    configurations are never observed."""

    @staticmethod
    def _table(cards, rows):
        scheme = VariableScheme.of(
            [(f"X{i}", tuple(map(str, range(c)))) for i, c in enumerate(cards)]
        )
        data = CategoricalDataset(
            scheme, np.array(rows, dtype=np.int64).reshape(len(rows), len(cards))
        )
        return contingency_counts(data, "X0", scheme.names[1:])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_literal_oracles(self, data):
        cards = data.draw(st.lists(st.integers(3, 4), min_size=4, max_size=5))
        rows = data.draw(
            st.lists(st.tuples(*(st.integers(0, c - 1) for c in cards)), max_size=40)
        )
        alpha = data.draw(st.sampled_from([0.5, 1.0, 5.0, 15.0]))
        counts = self._table(cards, rows)
        n_ij = counts.n_ij.tolist()
        assert bdeu_family_canonical(counts, alpha) == per_cell_canonical(counts, alpha)
        assert bdeu_family_canonical(counts, alpha) == pytest.approx(
            canonical_oracle(n_ij, alpha), rel=1e-12
        )
        assert bdeu_family_paper(counts, alpha) == pytest.approx(
            paper_oracle(n_ij, alpha), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    def test_zero_rows(self, alpha):
        counts = self._table((3, 4, 3, 4), [])
        q, r = counts.n_configs, counts.child_card
        assert q == 48 and all(c.size == 0 for c in counts.histogram)
        assert bdeu_family_canonical(counts, alpha) == 0.0
        assert bdeu_family_paper(counts, alpha) == pytest.approx(
            -q * alpha * math.log(r), rel=1e-12
        )
        assert bdeu_family_paper(counts, alpha) == pytest.approx(
            paper_oracle(counts.n_ij.tolist(), alpha), rel=1e-12
        )

    def test_summaries_computed_once_and_read_only(self):
        counts = self._table((3, 4, 3, 4), [(0, 1, 2, 3), (1, 1, 2, 3), (0, 0, 0, 0)])
        assert counts.n_i is counts.n_i
        assert counts.histogram is counts.histogram
        assert counts.distinct is counts.distinct
        n_i, n_ij, m = (column.tolist() for column in counts.histogram)
        assert (n_i, n_ij, m) == ([1, 1, 2, 2], [0, 1, 0, 1], [2, 1, 1, 2])
        assert counts.n_i[[0, 23]].tolist() == [1, 2] and counts.n_i.sum() == 3
        (i_values, i_index), (ij_values, ij_index) = counts.distinct
        assert (i_values.tolist(), i_index.tolist()) == ([1, 2], [0, 0, 1, 1])
        assert (ij_values.tolist(), ij_index.tolist()) == ([0, 1], [0, 1, 0, 1])
        levels = (i_values, i_index, ij_values, ij_index)
        for column in (counts.n_i, *counts.histogram, *levels):
            with pytest.raises(ValueError):
                column[0] = 5
        for attr in ("n_i", "histogram", "distinct"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(counts, attr, None)


class TestDistinctCounts:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0, 10.0, 15.0])
    def test_canonical_equals_one_lgamma_per_cell(self, alpha):
        data = sample_from_network(reference_network(7), 3000, seed=4)
        dag = nsclc.v5_dag()
        for idx, name in enumerate(dag.scheme.names):
            parents = tuple(dag.scheme.names[p] for p in dag.parents(idx))
            counts = contingency_counts(data, name, parents)
            for column, (values, index) in zip(counts.histogram, counts.distinct):
                assert values[index].tolist() == column.tolist()
                assert values.tolist() == sorted(set(column.tolist()))
            assert bdeu_family_canonical(counts, alpha) == per_cell_canonical(
                counts, alpha
            )


class TestScoreTable:
    def test_layout(self):
        scheme = binary_scheme(2)
        rng = np.random.default_rng(0)
        data = CategoricalDataset(scheme, rng.integers(0, 2, size=(50, 2)))
        dag = Dag(scheme, [("X0", "X1")])
        ess_values = (5.0, 10.0, 15.0)
        reports = {
            "g1": [bdeu_total(dag, data, e) for e in ess_values],
            "g2": [bdeu_total(Dag(scheme), data, e) for e in ess_values],
        }
        text = score_table(ess_values, reports)
        lines = text.splitlines()
        assert lines[0].startswith("Equivalent sample Size")
        assert "g1" in lines[0] and "g2" in lines[0]
        assert len(lines) == 4
        assert lines[1].startswith("5")
        assert lines[3].split() == [
            "15", *(f"{reports[g][2].total:.2f}" for g in ("g1", "g2"))
        ]
