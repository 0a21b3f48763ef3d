"""The benchmark's reference computations on small hand-worked cases, so
that a failed workload check points at the program, not at the benchmark."""

import math

import numpy as np
import pytest

import reference as ref


def test_g2_on_a_2x2_table_with_one_empty_stratum():
    # z has two states but every row has z = 0, so one stratum is empty.
    # Its (x, y) table is [[10, 20], [30, 40]]: N = 100, row sums 30 and 70,
    # column sums 40 and 60, expected counts [[12, 18], [28, 42]].
    cells = {(0, 0): 10, (0, 1): 20, (1, 0): 30, (1, 1): 40}
    rows = np.array([[x, y, 0] for (x, y), n in cells.items() for _ in range(n)])
    g2, dof, p = ref.g2_test(rows, (2, 2, 2), 0, 1, (2,))
    expected = 2 * (10 * math.log(10 / 12) + 20 * math.log(20 / 18)
                    + 30 * math.log(30 / 28) + 40 * math.log(40 / 42))
    assert g2 == pytest.approx(expected, rel=1e-12)
    assert g2 == pytest.approx(0.8043486, abs=1e-6)
    assert dof == 1  # (2-1)(2-1) for the one stratum with rows
    assert p == pytest.approx(math.erfc(math.sqrt(g2 / 2)), rel=1e-12)  # chi2(1) tail


def test_bdeu_family_from_its_log_gamma_formula():
    # Binary child, one binary parent, alpha = 2: alpha/q = 1, alpha/(q r) = 1/2.
    # Parent 0 has child counts [3, 1], parent 1 has [0, 2].  With
    # G(1/2) = sqrt(pi), G(3/2) = sqrt(pi)/2, G(5/2) = 3 sqrt(pi)/4,
    # G(7/2) = 15 sqrt(pi)/8, G(3) = 2, G(5) = 24:
    #   parent 0: ln(G(1)/G(5)) + ln(G(7/2)/G(1/2)) + ln(G(3/2)/G(1/2))
    #             = ln(1/24 * 15/8 * 1/2)
    #   parent 1: ln(G(1)/G(3)) + 0 + ln(G(5/2)/G(1/2)) = ln(1/2 * 3/4)
    rows = np.array([[0, 0]] * 3 + [[0, 1]] + [[1, 1]] * 2)  # columns: parent, child
    family = ref.family_counts(rows, (2, 2), child=1, parents=[0])
    assert family == (2, 2, {(0,): [3, 1], (1,): [0, 2]}, [2])
    expected = math.log(15 / 384) + math.log(3 / 8)
    assert ref.bdeu_canonical(family, 2.0) == pytest.approx(expected, rel=1e-12)
    assert ref.cpd_table(family, 2.0).ravel().tolist() == pytest.approx(
        [3.5 / 5, 1.5 / 5, 0.5 / 3, 2.5 / 3], rel=1e-12
    )


def test_unobserved_parent_configurations():
    # A ternary parent whose state 2 never occurs: canonical BDeu adds 0 for
    # it, the paper variant adds alpha ln(1/r), and its CPD row is uniform.
    rows = np.array([[0, 0]] * 3 + [[0, 1]] + [[1, 1]] * 2)
    family = ref.family_counts(rows, (3, 2), child=1, parents=[0])
    q, r, observed, _ = family
    assert (q, r, len(observed)) == (3, 2, 2)
    canonical = 0.0
    paper = 0.0
    a_j, a_jk = 2.0 / 3, 2.0 / 6
    for row in ([3, 1], [0, 2], [0, 0]):  # every configuration, term by term
        canonical += math.lgamma(a_j) - math.lgamma(a_j + sum(row))
        canonical += sum(math.lgamma(a_jk + n) - math.lgamma(a_jk) for n in row)
        paper += sum((n + 1.0) * math.log((n + 1.0) / (sum(row) + 2.0)) for n in row)
    assert ref.bdeu_canonical(family, 2.0) == pytest.approx(canonical, rel=1e-12)
    assert ref.bdeu_paper(family, 2.0) == pytest.approx(paper, rel=1e-12)
    assert ref.cpd_table(family, 2.0)[2].tolist() == pytest.approx([0.5, 0.5])


def test_enumeration_on_a_three_node_chain_under_do():
    # A -> B -> C, all binary.
    p_a = np.array([[0.7, 0.3]])
    p_b = np.array([[0.8, 0.2], [0.1, 0.9]])  # rows: A = 0, 1
    p_c = np.array([[0.6, 0.4], [0.25, 0.75]])  # rows: B = 0, 1
    cpds = {0: ((), p_a), 1: ((0,), p_b), 2: ((1,), p_c)}
    cards = (2, 2, 2)
    values = [0.0, 1.0]  # E[C] = P(C = 1)

    # do(A = a): P(C=1) = sum_b P(b | a) P(C=1 | b).
    treated = ref.mutilated_joint(cards, cpds, 0, 1)
    control = ref.mutilated_joint(cards, cpds, 0, 0)
    assert treated.sum() == pytest.approx(1.0)
    e1 = ref.expected_outcome(treated, 2, values, {})
    e0 = ref.expected_outcome(control, 2, values, {})
    assert e1 == pytest.approx(0.1 * 0.4 + 0.9 * 0.75)  # 0.715
    assert e0 == pytest.approx(0.8 * 0.4 + 0.2 * 0.75)  # 0.47
    assert e1 - e0 == pytest.approx(0.245)

    # do(B = 1) cuts A -> B, so evidence on A no longer informs C.
    joint = ref.mutilated_joint(cards, cpds, 1, 1)
    assert ref.expected_outcome(joint, 2, values, {0: 0}) == pytest.approx(0.75)
    assert ref.expected_outcome(joint, 2, values, {0: 1}) == pytest.approx(0.75)
    # ...and A keeps its marginal.
    assert ref.expected_outcome(joint, 0, [0.0, 1.0], {}) == pytest.approx(0.3)


def test_acyclicity_and_required_colliders():
    assert ref.is_acyclic(3, [(0, 1), (1, 2)])
    assert not ref.is_acyclic(3, [(0, 1), (1, 2), (2, 0)])
    pairs = {frozenset((0, 2)), frozenset((1, 2))}
    # 0 - 2 - 1 with 2 outside sepset(0, 1): a collider at 2.
    assert ref.required_colliders(pairs, {frozenset((0, 1)): frozenset()}) == [(0, 2, 1)]
    # 2 inside the separating set: no collider.
    assert ref.required_colliders(pairs, {frozenset((0, 1)): frozenset({2})}) == []
