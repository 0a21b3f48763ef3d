import gc
import math
import random
import warnings
import weakref

import numpy as np
import pytest

from causalkit import intervention, nsclc
from causalkit.bayesnet import (
    BayesianNetwork,
    Cpd,
    brute_force_query,
    fit_cpds,
    variable_elimination,
)
from causalkit.errors import UnknownState, UnknownVariable, ZeroEvidenceProbability
from causalkit.graph import Dag, VariableScheme
from causalkit.intervention import (
    MUTATION_COLUMNS,
    TREATMENT_ROWS,
    InterventionQuery,
    apply_do,
    ate,
    ate_grid,
)
from causalkit.synth import (
    CohortSpec,
    generate_cohort,
    random_network,
    reference_network,
    sample_from_network,
)

# `to_text()` of two ATE grids, recorded before elimination plans were cached.
# A change to inference that keeps posteriors bit-identical keeps these bytes.
PINNED_GRID_TEXT = {
    "reference_network(7)": (
        "Treatment Category  KRAS       EGFR      FGFR1      ALK       MET        PIK3CA    BRAF      RET\n"
        "Chemotherapy        0.003370   0.008457  -0.001168  0.004160  0.003434   0.010234  0.003837  0.010101\n"
        "Targeted Therapy    -0.002430  0.008386  -0.002749  0.001380  -0.007670  0.007003  0.005919  0.005503\n"
        "Immunotherapy       -0.002639  0.003326  -0.007920  0.004259  -0.006959  0.001916  0.007291  0.002757\n"
    ),
    "V5 at ESS 10 on 326 rows": (
        "Treatment Category  KRAS      EGFR       FGFR1     ALK        MET       PIK3CA    BRAF       RET\n"
        "Chemotherapy        0.003418  -0.003514  0.001504  -0.000106  0.003083  0.001920  -0.005967  -0.004440\n"
        "Targeted Therapy    0.006231  0.000605   0.002553  0.006573   0.007520  0.006057  -0.000591  -0.000316\n"
        "Immunotherapy       0.010344  0.003377   0.009391  0.004480   0.005527  0.003520  0.000627   -0.001112\n"
    ),
}


def binary_query(treated="1", control="0", evidence=None):
    return InterventionQuery(
        treatment="T",
        treated_state=treated,
        control_state=control,
        outcome="Y",
        outcome_values={"0": 0.0, "1": 1.0},
        evidence=evidence or {},
    )


def per_arm_ate(net, q):
    """The ATE as the difference of two mutilated networks, each queried on
    the outcome alone: the definition that `ate`'s single query on the
    randomized network must reproduce."""
    values = np.array([q.outcome_values[s] for s in net.scheme.states(q.outcome)])

    def expected(state):
        mutilated = apply_do(net, q.treatment, state)
        return float(variable_elimination(mutilated, (q.outcome,), q.evidence) @ values)

    return expected(q.treated_state) - expected(q.control_state)


def seeded_queries(net, treatment, outcome, seed, count):
    """`count` queries with distinct arms, a random valuation of the outcome
    and 0-3 evidence variables in random states."""
    rng = random.Random(seed)
    scheme = net.scheme
    others = [n for n in scheme.names if n not in (treatment, outcome)]
    for _ in range(count):
        treated, control = rng.sample(scheme.states(treatment), 2)
        evidence_vars = rng.sample(others, min(rng.randint(0, 3), len(others)))
        yield InterventionQuery(
            treatment,
            treated,
            control,
            outcome,
            {s: rng.uniform(-1.0, 1.0) for s in scheme.states(outcome)},
            {v: rng.choice(scheme.states(v)) for v in evidence_vars},
        )


@pytest.fixture
def blocked_net():
    """M -> T, M -> Y, T -> Y, T -> E, where E = 1 is impossible under T = t2."""
    scheme = VariableScheme.of([
        ("M", ("0", "1")),
        ("T", ("t0", "t1", "t2")),
        ("Y", ("0", "1")),
        ("E", ("0", "1")),
    ])
    dag = Dag(scheme, [("M", "T"), ("M", "Y"), ("T", "Y"), ("T", "E")])
    return BayesianNetwork(dag, {
        "M": Cpd("M", (), np.array([[0.6, 0.4]])),
        "T": Cpd("T", ("M",), np.array([[0.5, 0.3, 0.2], [0.1, 0.3, 0.6]])),
        "Y": Cpd("Y", ("M", "T"), np.array(
            [[0.9, 0.1], [0.7, 0.3], [0.5, 0.5], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]]
        )),
        "E": Cpd("E", ("T",), np.array([[0.5, 0.5], [0.2, 0.8], [1.0, 0.0]])),
    })


class TestApplyDo:
    def test_severs_incoming_edges(self, confounded_net):
        cut = apply_do(confounded_net, "T", "1")
        names = confounded_net.scheme.names
        edges = {(names[u], names[v]) for u, v in cut.dag.edges}
        assert edges == {("M", "Y"), ("T", "Y")}

    def test_point_mass_cpd(self, confounded_net):
        cut = apply_do(confounded_net, "T", "1")
        assert cut.cpds["T"].parents == ()
        assert cut.cpds["T"].table.tolist() == [[0.0, 1.0]]

    def test_other_cpds_untouched(self, confounded_net):
        cut = apply_do(confounded_net, "T", "0")
        assert cut.cpds["Y"] is confounded_net.cpds["Y"]


class TestAte:
    def test_backdoor_hand_value(self, confounded_net):
        # P(Y=1|do(T=t)) = sum_m P(m) P(Y=1|m,t): 0.62 treated, 0.22 control.
        assert ate(confounded_net, binary_query()) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_antisymmetry(self, confounded_net):
        fwd = ate(confounded_net, binary_query("1", "0"))
        rev = ate(confounded_net, binary_query("0", "1"))
        assert fwd == -rev

    def test_same_arm_is_exactly_zero(self, confounded_net):
        assert ate(confounded_net, binary_query("1", "1")) == 0.0

    def test_same_arm_on_impossible_evidence_raises(self):
        # T, E -> Y with P(E = 1) = 0, so E = 1 is impossible under every arm.
        scheme = VariableScheme.of(
            [("T", ("0", "1")), ("E", ("0", "1")), ("Y", ("0", "1"))]
        )
        net = BayesianNetwork(Dag(scheme, [("T", "Y"), ("E", "Y")]), {
            "T": Cpd("T", (), np.array([[0.5, 0.5]])),
            "E": Cpd("E", (), np.array([[1.0, 0.0]])),
            "Y": Cpd("Y", ("T", "E"), np.full((4, 2), 0.5)),
        })
        for arm in "0", "1":
            with pytest.raises(ZeroEvidenceProbability, match=rf"do\(T={arm}\)"):
                ate(net, binary_query(arm, arm, {"E": "1"}))
        with pytest.raises(ZeroEvidenceProbability, match=r"do\(T=1\)"):
            ate(net, binary_query("1", "0", {"E": "1"}))

    def test_no_descendant_gives_zero(self, chain_net):
        # B has no descendants, so do(B) cannot move A.
        q = InterventionQuery(
            treatment="B",
            treated_state="1",
            control_state="0",
            outcome="A",
            outcome_values={"0": 0.0, "1": 1.0},
        )
        assert ate(chain_net, q) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, confounded_net):
        q = binary_query(evidence={"M": "1"})
        via_ve = ate(confounded_net, q)
        via_bf = ate(confounded_net, q, infer=brute_force_query)
        assert via_ve == pytest.approx(via_bf, abs=1e-12)

    def test_evidence_conditions_after_surgery(self, confounded_net):
        # With do(T), M keeps its prior; conditioning on M picks the row.
        q = binary_query(evidence={"M": "1"})
        expected = 0.8 - 0.4  # P(Y=1|M=1,T=1) - P(Y=1|M=1,T=0)
        assert ate(confounded_net, q) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "treatment, outcome",
        [("TREATMENTPLAN", "SURVIVALMONTHS"), ("SMOKING", "EGFR")],
    )
    def test_one_query_matches_per_arm_networks(self, seed, treatment, outcome):
        net = random_network(nsclc.v5_dag(), seed)
        for q in seeded_queries(net, treatment, outcome, seed, 3):
            value = ate(net, q)
            assert value == pytest.approx(per_arm_ate(net, q), abs=1e-12)
            assert value == pytest.approx(ate(net, q, infer=brute_force_query), abs=1e-9)

    def test_one_query_matches_per_arm_networks_on_fixtures(
        self, chain_net, confounded_net
    ):
        cases = [
            (chain_net, "A", "B"), (chain_net, "B", "A"), (confounded_net, "T", "Y")
        ]
        for seed, (net, treatment, outcome) in enumerate(cases):
            for q in seeded_queries(net, treatment, outcome, seed, 6):
                value = ate(net, q)
                assert value == pytest.approx(per_arm_ate(net, q), abs=1e-12)
                assert value == pytest.approx(
                    ate(net, q, infer=brute_force_query), abs=1e-9
                )

    def test_evidence_impossible_under_one_arm(self, blocked_net):
        def query(treated, control):
            return InterventionQuery(
                "T", treated, control, "Y", {"0": 0.0, "1": 1.0}, {"E": "1"}
            )

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for treated, control in ("t2", "t0"), ("t1", "t2"):
                with pytest.raises(ZeroEvidenceProbability, match="do\\(T=t2\\)"):
                    ate(blocked_net, query(treated, control))
            q = query("t0", "t1")
            value = ate(blocked_net, q)
        assert value == pytest.approx(per_arm_ate(blocked_net, q), abs=1e-12)
        assert value == pytest.approx(
            ate(blocked_net, q, infer=brute_force_query), abs=1e-12
        )

    def test_validation(self, confounded_net):
        bad_outcome = InterventionQuery(
            "T", "1", "0", "T", {"0": 0.0, "1": 1.0}
        )
        with pytest.raises(UnknownVariable):
            ate(confounded_net, bad_outcome)
        overlapping = binary_query(evidence={"T": "1"})
        with pytest.raises(UnknownVariable):
            ate(confounded_net, overlapping)
        missing_value = InterventionQuery("T", "1", "0", "Y", {"1": 1.0})
        with pytest.raises(UnknownState):
            ate(confounded_net, missing_value)
        with pytest.raises(UnknownVariable):
            ate(confounded_net, binary_query(treated="maybe"))

    def test_a_value_for_a_state_the_outcome_lacks_is_rejected(self, confounded_net):
        extra = InterventionQuery("T", "1", "0", "Y", {"0": 0.0, "1": 1.0, "2": 5.0})
        with pytest.raises(UnknownState, match=r"\['2'\], not states of Y"):
            ate(confounded_net, extra)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, "1.0", True, np.bool_(True)]
    )
    def test_an_outcome_value_that_is_not_a_finite_real_is_rejected(
        self, confounded_net, value
    ):
        q = InterventionQuery("T", "1", "0", "Y", {"0": 0.0, "1": value})
        with pytest.raises(ValueError, match=r"outcome_values\['1'\] .* not a finite real"):
            ate(confounded_net, q)

    def test_numpy_reals_are_outcome_values(self, confounded_net):
        q = InterventionQuery("T", "1", "0", "Y", {"0": np.int64(0), "1": np.float32(1)})
        assert ate(confounded_net, q) == pytest.approx(0.4, abs=1e-7)


class TestAteGrid:
    def test_shape_and_labels(self):
        grid = ate_grid(reference_network())
        assert grid.treatments == TREATMENT_ROWS
        assert grid.mutations == MUTATION_COLUMNS
        assert grid.cells.shape == (3, 8)

    def test_text_layout_six_decimals(self):
        grid = ate_grid(reference_network())
        lines = grid.to_text().splitlines()
        assert lines[0].split("  ")[0] == "Treatment Category"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split()
            # Each numeric cell prints with exactly six decimals.
            for cell in cells[-8:]:
                whole, frac = cell.lstrip("-").split(".")
                assert len(frac) == 6

    def test_csv_round_trips_values(self):
        grid = ate_grid(reference_network())
        rows = grid.to_csv().splitlines()
        assert rows[0] == "Treatment Category," + ",".join(MUTATION_COLUMNS)
        parsed = np.array(
            [[float(v) for v in row.split(",")[1:]] for row in rows[1:]]
        )
        assert np.allclose(parsed, grid.cells, atol=5e-7)

    def test_grid_cells_equal_single_queries(self):
        cohort = generate_cohort(CohortSpec.nsclc_default(326, seed=3))
        v1 = fit_cpds(nsclc.v1_dag(), cohort, 10.0)
        for net in (reference_network(), v1):
            grid = ate_grid(net)
            states = net.scheme.states("SURVIVALMONTHS")
            values = {s: 0.0 for s in states}
            values[states[-1]] = 1.0
            for i, treatment in enumerate(TREATMENT_ROWS):
                for j, gene in enumerate(MUTATION_COLUMNS):
                    q = InterventionQuery(
                        treatment="TREATMENTPLAN",
                        treated_state=treatment,
                        control_state="Unknown",
                        outcome="SURVIVALMONTHS",
                        outcome_values=values,
                        evidence={gene: net.scheme.states(gene)[-1]},
                    )
                    assert grid.cells[i, j] == ate(net, q)
        # In V1, TREATMENTPLAN has no children, so no arm moves the outcome.
        assert (grid.cells == 0).all()

    def test_grid_cuts_once_and_queries_once_per_gene(self, monkeypatch):
        calls = {"_cut": 0, "variable_elimination": 0}
        for name in calls:
            original = getattr(intervention, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(intervention, name, counted)
        ate_grid(reference_network())
        assert calls == {"_cut": 1, "variable_elimination": 8}

    def test_one_randomized_network_per_network_and_treatment(self, monkeypatch):
        memo = weakref.WeakKeyDictionary()
        monkeypatch.setattr(intervention, "_RANDOMIZED", memo)
        cuts = []
        original = intervention._cut

        def counted(*args):
            cuts.append(args[1])
            return original(*args)

        monkeypatch.setattr(intervention, "_cut", counted)
        net = reference_network()
        values = dict.fromkeys(net.scheme.states("SURVIVALMONTHS"), 0.0)
        values[net.scheme.states("SURVIVALMONTHS")[-1]] = 1.0
        for gene in ("KRAS", "EGFR"):
            q = InterventionQuery(
                "TREATMENTPLAN", "Chemotherapy", "Unknown", "SURVIVALMONTHS", values,
                {gene: net.scheme.states(gene)[-1]},
            )
            ate(net, q)
        ate_grid(net)
        assert cuts == ["TREATMENTPLAN"]
        assert list(memo) == [net]
        del net
        gc.collect()
        assert len(memo) == 0

    def test_grid_rejects_evidence_impossible_under_an_arm(self):
        # KRAS = Present cannot occur under Immunotherapy, the last state.
        dag = Dag(
            nsclc.SCHEME,
            [("TREATMENTPLAN", "SURVIVALMONTHS"), ("TREATMENTPLAN", "KRAS")],
        )
        net = random_network(dag, 7)
        table = np.array([[0.4, 0.6], [0.5, 0.5], [0.7, 0.3], [1.0, 0.0]])
        cpds = {**net.cpds, "KRAS": Cpd("KRAS", ("TREATMENTPLAN",), table)}
        with pytest.raises(ZeroEvidenceProbability, match="Immunotherapy"):
            ate_grid(BayesianNetwork(dag, cpds))

    @pytest.mark.parametrize("label", sorted(PINNED_GRID_TEXT))
    def test_grid_text_is_pinned(self, label):
        net = reference_network(7)
        if label.startswith("V5"):
            net = fit_cpds(nsclc.v5_dag(), sample_from_network(net, 326, 1), 10.0)
        assert ate_grid(net).to_text() == PINNED_GRID_TEXT[label]

    def test_reference_grid_not_degenerate(self):
        grid = ate_grid(reference_network())
        assert np.abs(grid.cells).max() > 1e-4
