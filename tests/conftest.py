import numpy as np
import pytest

from causalkit.bayesnet import BayesianNetwork, Cpd
from causalkit.graph import Dag, VariableScheme, reaches


def binary_scheme(n):
    return VariableScheme.of([(f"X{i}", ("0", "1")) for i in range(n)])


def dag_from_insertions(scheme, pairs):
    """The Dag of the (u, v) pairs taken in order, each kept unless it is a
    self-loop or v already reaches u (it would close a directed cycle)."""
    edges = set()
    for u, v in pairs:
        if u != v and not reaches(edges, v, u):
            edges.add((u, v))
    return Dag(scheme, frozenset(edges))


@pytest.fixture
def abc_scheme():
    return binary_scheme(3)


@pytest.fixture
def chain_net():
    """A -> B with P(A=1)=0.3, P(B=1|A=0)=0.2, P(B=1|A=1)=0.9."""
    scheme = VariableScheme.of([("A", ("0", "1")), ("B", ("0", "1"))])
    dag = Dag(scheme, [("A", "B")])
    return BayesianNetwork(
        dag,
        {
            "A": Cpd("A", (), np.array([[0.7, 0.3]])),
            "B": Cpd("B", ("A",), np.array([[0.8, 0.2], [0.1, 0.9]])),
        },
    )


@pytest.fixture
def confounded_net():
    """M -> T, M -> Y, T -> Y; the back-door test bed."""
    scheme = VariableScheme.of(
        [("M", ("0", "1")), ("T", ("0", "1")), ("Y", ("0", "1"))]
    )
    dag = Dag(scheme, [("M", "T"), ("M", "Y"), ("T", "Y")])
    return BayesianNetwork(
        dag,
        {
            "M": Cpd("M", (), np.array([[0.6, 0.4]])),
            "T": Cpd("T", ("M",), np.array([[0.7, 0.3], [0.2, 0.8]])),
            "Y": Cpd(
                "Y",
                ("M", "T"),
                np.array([[0.9, 0.1], [0.5, 0.5], [0.6, 0.4], [0.2, 0.8]]),
            ),
        },
    )
