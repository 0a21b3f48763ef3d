"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, lists the
operations of one round in `operations`, and checks a round's outputs in
`check` against `reference` computations.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ALPHA_LEVEL = 0.05
ESS_VALUES = (5.0, 10.0, 15.0)
REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


class Workload:
    name = ""
    modules: tuple[str, ...] = ()
    # True when the operations run in child processes (peak memory is then
    # the largest child's).
    child_processes = False
    # Where traced child processes write their traces; None when untraced.
    trace_dir: Path | None = None

    def import_program(self) -> None:
        for mod in self.modules:
            importlib.import_module(f"causalkit.{mod}")

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def operations(self, inputs) -> list:
        """(label, zero-argument callable) for each operation of one round."""
        raise NotImplementedError

    def warm_up(self, inputs) -> None:
        """Run before timing: one whole round unless a workload says otherwise."""
        for _, op in self.operations(inputs):
            op()

    def canonical(self, output):
        """A comparable form of one operation's output."""
        return output

    def check(self, inputs, outputs) -> list[tuple[int | None, str]]:
        """(operation index or None, message) for every failed check."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# pc-discovery


class PcDiscovery(Workload):
    """Stable PC with the G² test on cohorts from reference_network(7).

    A small cohort runs to full depth, so the per-stratum loop of the CI
    test dominates; a large cohort stops at a bounded depth, so counting
    rows dominates.  Few tables are reused between tests.
    """

    name = "pc-discovery"
    modules = ("pc", "synth")
    # Both cohorts are fixed samples; the seed only shuffles their rows,
    # which leaves every count, and so the output, unchanged.  Across
    # samples the work of a full-depth run at n=1000 changes by up to 2.5x,
    # and on some samples pc_run returns a cyclic directed part, so output
    # and cost would depend on the seed.  On the large cohort it does so
    # every time: that operation fails its acyclicity check in every round.
    SMALL_N, SMALL_SAMPLE_SEED = 1000, 12
    LARGE_N, LARGE_SAMPLE_SEED, LARGE_DEPTH = 10_000, 810448438, 2
    SAMPLED_TESTS = 40

    def setup(self, seed, workdir):
        import numpy as np
        from causalkit.data import CategoricalDataset
        from causalkit.synth import reference_network, sample_from_network

        rng = np.random.default_rng(seed)
        net = reference_network(7)
        cohorts = []
        for n, sample_seed, depth in (
            (self.SMALL_N, self.SMALL_SAMPLE_SEED, None),
            (self.LARGE_N, self.LARGE_SAMPLE_SEED, self.LARGE_DEPTH),
        ):
            data = sample_from_network(net, n, sample_seed)
            shuffled = np.asarray(data.rows)[rng.permutation(n)]
            cohorts.append((CategoricalDataset(data.scheme, shuffled), depth))
        return {"cohorts": cohorts, "seed": seed}

    def operations(self, inputs):
        from causalkit.pc import pc_run

        return [
            (f"pc_run n={data.n} depth={depth}",
             lambda data=data, depth=depth: pc_run(data, ALPHA_LEVEL, depth))
            for data, depth in inputs["cohorts"]
        ]

    def warm_up(self, inputs):
        from causalkit.pc import pc_run

        pc_run(inputs["cohorts"][0][0], ALPHA_LEVEL, 1)

    def canonical(self, output):
        return (
            tuple(sorted(output.directed)),
            tuple(sorted(tuple(sorted(p)) for p in output.undirected)),
        )

    def check(self, inputs, outputs):
        import numpy as np
        import reference as ref
        from causalkit.pc import ci_test_g2, learn_skeleton, make_ci_from_data

        failures = []
        rng = random.Random(inputs["seed"] + 1)
        for i, ((data, depth), out) in enumerate(zip(inputs["cohorts"], outputs)):
            rows = np.asarray(data.rows)
            cards = data.scheme.cardinalities()
            n_vars = len(cards)
            names = data.scheme.names
            directed, undirected = self.canonical(out)
            if not ref.is_acyclic(n_vars, directed):
                failures.append((i, "directed part has a cycle: "
                                    f"{[(names[u], names[v]) for u, v in directed]}"))
            # The skeleton search again, for its separating sets.
            skeleton, sepsets = learn_skeleton(
                make_ci_from_data(data), ALPHA_LEVEL, depth
            )
            pairs = {frozenset(e) for e in directed} | {frozenset(e) for e in undirected}
            if pairs != skeleton.skeleton_pairs():
                failures.append((i, "pc_run skeleton differs from learn_skeleton"))
            for pair, cond in sepsets.sets.items():
                x, y = sorted(pair)
                _, _, p = ref.g2_test(rows, cards, x, y, sorted(cond))
                if not p > ALPHA_LEVEL:
                    failures.append((i, f"removed ({x},{y}) | {sorted(cond)}: p={p}"))
            for x, z, y in ref.required_colliders(skeleton.skeleton_pairs(), sepsets.sets):
                if (x, z) not in directed or (y, z) not in directed:
                    failures.append((i, f"collider {x}->{z}<-{y} not oriented"))
            for _ in range(self.SAMPLED_TESTS):
                x, y = rng.sample(range(n_vars), 2)
                others = [v for v in range(n_vars) if v not in (x, y)]
                cond = tuple(sorted(rng.sample(others, rng.randint(0, 3))))
                stat, _, dof = ci_test_g2(data, x, y, cond)
                g2, ref_dof, _ = ref.g2_test(rows, cards, x, y, cond)
                if dof != ref_dof or not _close(stat, g2, abs_tol=1e-9):
                    failures.append((i, f"G2({x},{y}|{cond}) = {stat}/{dof}, "
                                        f"reference {g2}/{ref_dof}"))
        return failures


# --------------------------------------------------------------------------
# score-validate


class ScoreValidate(Workload):
    """The validation step: BDeu of the refinement drafts V1-V5 (canonical
    and paper variants), of seeded single-edge neighbours of V5, and
    `fit_cpds` of each draft, at ESS 5, 10 and 15 on one 100k-row cohort.
    The same family tables recur across graphs, ESS values and fits."""

    name = "score-validate"
    modules = ("scoring", "bayesnet", "synth", "fixtures")
    N = 100_000
    NEIGHBOURS = 4
    # A move into SURVIVALMONTHS (15 parents in V5) can double the count
    # tables of a graph, and with them a round's time and peak memory; only
    # neighbours whose tables hold about as many cells as V5's are kept, so
    # the cost of a round does not depend on the seed.
    MAX_CELL_CHANGE = 0.05
    SAMPLED_FAMILIES = 12

    def warm_up(self, inputs):
        ops = self.operations(inputs)
        for i in (0, 1, len(ops) - 1):  # one canonical, one paper, one fit
            ops[i][1]()

    def setup(self, seed, workdir):
        from causalkit import fixtures
        from causalkit.errors import CycleError
        from causalkit.graph import Dag
        from causalkit.synth import reference_network, sample_from_network

        rng = random.Random(seed)
        data = sample_from_network(reference_network(7), self.N, rng.randrange(2**31))
        session = fixtures.run_refinement_session()
        scheme = data.scheme
        drafts = [(label, Dag(scheme, frozenset(edges))) for label, edges in session.drafts]
        v5 = drafts[-1][1]
        v5_cells = _table_cells(v5)
        neighbours = []
        n_vars = len(scheme)
        while len(neighbours) < self.NEIGHBOURS:
            u, v = rng.sample(range(n_vars), 2)
            if (u, v) in v5.edges:
                action = rng.choice(("remove", "reverse"))
                edges = v5.edges - {(u, v)}
                if action == "reverse":
                    edges |= {(v, u)}
            elif (v, u) in v5.edges:
                continue
            else:
                action, edges = "add", v5.edges | {(u, v)}
            try:
                dag = Dag(scheme, edges)
            except CycleError:
                continue
            if abs(_table_cells(dag) / v5_cells - 1) <= self.MAX_CELL_CHANGE:
                neighbours.append((f"V5 {action} {u}->{v}", dag))
        return {"data": data, "drafts": drafts, "neighbours": neighbours, "seed": seed}

    @staticmethod
    def _specs(inputs):
        """(kind, graph label, ESS, variant, dag) of each operation of a round."""
        specs = []
        for ess in ESS_VALUES:
            for label, dag in inputs["drafts"]:
                for variant in ("canonical", "paper"):
                    specs.append(("bdeu", label, ess, variant, dag))
            for label, dag in inputs["neighbours"]:
                specs.append(("bdeu", label, ess, "canonical", dag))
            for label, dag in inputs["drafts"]:
                specs.append(("fit", label, ess, None, dag))
        return specs

    def operations(self, inputs):
        from causalkit.bayesnet import fit_cpds
        from causalkit.scoring import bdeu_total

        data = inputs["data"]
        ops = []
        for kind, label, ess, variant, dag in self._specs(inputs):
            if kind == "bdeu":
                ops.append((f"bdeu_total {label} ESS {ess:g} {variant}",
                            lambda d=dag, e=ess, v=variant: bdeu_total(d, data, e, v)))
            else:
                ops.append((f"fit_cpds {label} ESS {ess:g}",
                            lambda d=dag, e=ess: fit_cpds(d, data, e)))
        return ops

    def canonical(self, output):
        if hasattr(output, "per_node"):
            return ("bdeu", output.total, tuple(output.per_node.items()))
        digest = hashlib.sha256()
        for name, cpd in output.cpds.items():
            digest.update(repr((name, cpd.parents)).encode())
            digest.update(cpd.table.tobytes())
        return ("fit", digest.hexdigest())

    def check(self, inputs, outputs):
        import numpy as np
        import reference as ref
        from causalkit.graph import Dag
        from causalkit.scoring import bdeu_total

        data = inputs["data"]
        rows = np.asarray(data.rows)
        scheme = data.scheme
        cards = scheme.cardinalities()
        labels = self._specs(inputs)
        failures = []
        family_cache: dict[tuple, list] = {}

        def counts(child, parents):
            key = (child, parents)
            if key not in family_cache:
                family_cache[key] = ref.family_counts(rows, cards, child, parents)
            return family_cache[key]

        rng = random.Random(inputs["seed"] + 1)
        bdeu_ops = [i for i, lab in enumerate(labels) if lab[0] == "bdeu"]
        for i in rng.sample(bdeu_ops, min(self.SAMPLED_FAMILIES, len(bdeu_ops))):
            _, label, ess, variant, dag = labels[i]
            child = rng.randrange(len(scheme))
            parents = dag.parents(child)
            family = counts(child, parents)
            expected = (ref.bdeu_canonical if variant == "canonical" else ref.bdeu_paper)(
                family, ess
            )
            got = outputs[i].per_node[scheme.names[child]]
            if not _close(got, expected):
                failures.append((i, f"{label} ESS {ess} {variant} family "
                                    f"{scheme.names[child]}: {got} vs {expected}"))
        for i in bdeu_ops:
            if not _close(outputs[i].total, sum(outputs[i].per_node.values())):
                failures.append((i, "total is not the sum of its families"))
        fit_ops = [i for i, lab in enumerate(labels) if lab[0] == "fit"]
        for i in rng.sample(fit_ops, min(self.SAMPLED_FAMILIES, len(fit_ops))):
            _, label, ess, _, dag = labels[i]
            child = rng.randrange(len(scheme))
            expected = ref.cpd_table(counts(child, dag.parents(child)), ess)
            table = outputs[i].cpds[scheme.names[child]].table
            if table.shape != expected.shape or not np.allclose(
                table, expected, rtol=REL_TOL, atol=1e-15
            ):
                failures.append((i, f"{label} ESS {ess} CPD of {scheme.names[child]}"))
        # Score equivalence: reversing a covered edge of V5 keeps the
        # canonical total.
        v5 = inputs["drafts"][-1][1]
        v5_ops = {
            lab[2]: i for i, lab in enumerate(labels)
            if lab[0] == "bdeu" and lab[1] == "V5" and lab[3] == "canonical"
        }
        for u, v in sorted(v5.edges):
            if set(v5.parents(v)) != set(v5.parents(u)) | {u}:
                continue
            reversed_dag = Dag(scheme, (v5.edges - {(u, v)}) | {(v, u)})
            for ess, i in v5_ops.items():
                total = bdeu_total(reversed_dag, data, ess, "canonical").total
                if not _close(total, outputs[i].total):
                    failures.append((i, f"covered reversal {u}->{v} at ESS {ess}: "
                                        f"{total} vs {outputs[i].total}"))
        return failures


# --------------------------------------------------------------------------
# ate-inference


class AteInference(Workload):
    """`ate_grid` (48 VE calls each) on V1 and V5 fitted at several ESS values
    to n=326 cohorts from reference_network(7), alongside seeded `ate`
    queries whose evidence mixes 2-3 variables.  The grids repeat one
    elimination pattern per gene; the mixed queries mostly do not."""

    name = "ate-inference"
    modules = ("intervention", "bayesnet", "synth")
    N = 326
    FITS = (("V1", 10.0), ("V5", 5.0), ("V5", 10.0), ("V5", 15.0))
    MIXED_QUERIES = 96

    def setup(self, seed, workdir):
        from causalkit import nsclc
        from causalkit.bayesnet import fit_cpds
        from causalkit.intervention import InterventionQuery, TREATMENT_ROWS
        from causalkit.synth import reference_network, sample_from_network

        rng = random.Random(seed)
        scheme = nsclc.SCHEME
        dags = {"V1": nsclc.v1_dag(), "V5": nsclc.v5_dag()}
        data = sample_from_network(reference_network(7), self.N, rng.randrange(2**31))
        nets = [(f"{label}@{ess:g}", fit_cpds(dags[label], data, ess))
                for label, ess in self.FITS]
        outcome_states = scheme.states("SURVIVALMONTHS")
        values = {s: float(s == outcome_states[-1]) for s in outcome_states}
        candidates = [n for n in scheme.names if n not in ("TREATMENTPLAN", "SURVIVALMONTHS")]
        queries = []
        for k in range(self.MIXED_QUERIES):
            evidence_vars = rng.sample(candidates, rng.choice((2, 3)))
            evidence = {v: rng.choice(scheme.states(v)) for v in evidence_vars}
            queries.append((
                k % len(nets),
                InterventionQuery("TREATMENTPLAN", rng.choice(TREATMENT_ROWS), "Unknown",
                                  "SURVIVALMONTHS", values, evidence),
            ))
        return {"nets": nets, "queries": queries}

    def operations(self, inputs):
        from causalkit.intervention import ate, ate_grid

        nets = inputs["nets"]
        ops = [(f"ate_grid {label}", lambda net=net: ate_grid(net)) for label, net in nets]
        ops += [
            (f"ate {nets[k][0]} query {j}", lambda net=nets[k][1], q=q: ate(net, q))
            for j, (k, q) in enumerate(inputs["queries"])
        ]
        return ops

    def canonical(self, output):
        if hasattr(output, "cells"):
            return tuple(output.cells.ravel().tolist())
        return output

    def check(self, inputs, outputs):
        from dataclasses import replace

        import numpy as np
        import reference as ref
        from causalkit.intervention import MUTATION_COLUMNS, TREATMENT_ROWS, ate

        failures = []
        nets = inputs["nets"]
        joints_by_net = [_arm_joints(net) for _, net in nets]
        scheme = nets[0][1].scheme
        outcome = scheme.index("SURVIVALMONTHS")
        values = [0.0] * (scheme.cardinality(outcome) - 1) + [1.0]

        def reference_ate(k, treated, control, evidence):
            joints = joints_by_net[k]
            ev = {scheme.index(v): scheme.state_index(v, s) for v, s in evidence.items()}
            return (ref.expected_outcome(joints[treated], outcome, values, ev)
                    - ref.expected_outcome(joints[control], outcome, values, ev))

        for k, (label, _) in enumerate(nets):
            cells = outputs[k].cells
            for r, treatment in enumerate(TREATMENT_ROWS):
                for c, gene in enumerate(MUTATION_COLUMNS):
                    expected = reference_ate(k, treatment, "Unknown",
                                             {gene: scheme.states(gene)[-1]})
                    if not _close(cells[r, c], expected, abs_tol=1e-9):
                        failures.append((k, f"{label} {treatment}/{gene}: "
                                            f"{cells[r, c]} vs {expected}"))
            if label.startswith("V1") and np.abs(cells).max() > 1e-12:
                failures.append((k, f"{label}: nonzero cell though TREATMENTPLAN "
                                    "has no descendants in V1"))
        for j, (k, q) in enumerate(inputs["queries"]):
            i = len(nets) + j
            expected = reference_ate(k, q.treated_state, q.control_state, q.evidence)
            if not _close(outputs[i], expected, abs_tol=1e-9):
                failures.append((i, f"mixed query {j}: {outputs[i]} vs {expected}"))
            swapped = replace(q, treated_state=q.control_state, control_state=q.treated_state)
            if not _close(ate(nets[k][1], swapped), -outputs[i], abs_tol=1e-12):
                failures.append((i, f"mixed query {j}: swapping arms does not negate"))
        return failures


def _table_cells(dag) -> int:
    """Cells in all of a DAG's count tables: sum over nodes of r * q."""
    cards = dag.scheme.cardinalities()
    total = 0
    for v in range(len(cards)):
        cells = cards[v]
        for p in dag.parents(v):
            cells *= cards[p]
        total += cells
    return total


def _reference_cpds(net):
    scheme = net.scheme
    return {
        scheme.index(name): (tuple(scheme.index(p) for p in cpd.parents), cpd.table)
        for name, cpd in net.cpds.items()
    }


def _arm_joints(net, treatment="TREATMENTPLAN"):
    """Mutilated joint for each state of the treatment, by state label."""
    import reference as ref

    scheme = net.scheme
    t = scheme.index(treatment)
    cpds = _reference_cpds(net)
    cards = scheme.cardinalities()
    return {
        label: ref.mutilated_joint(cards, cpds, t, s)
        for s, label in enumerate(scheme.states(t))
    }


# --------------------------------------------------------------------------
# cli-pipeline


class CliFailure(Exception):
    pass


class CliPipeline(Workload):
    """The README pipeline as separate `causalkit` processes, one after
    another: sample, elicit (single and pairwise replay), discover (PC and
    NOTEARS), score, fit, ate --grid and compare.  The only workload that
    pays interpreter start-up, import, CSV parsing and file I/O, and the
    only one that runs `llm` and `notears`."""

    name = "cli-pipeline"
    modules = ("bayesnet", "synth", "graph")
    # One fixed cohort: on some sampled cohorts `discover pc` writes a graph
    # with a directed cycle (see pc-discovery), which would make the result
    # of a run depend on its seed.
    N, SAMPLE_SEED = 10_000, 1
    STEPS = (
        ("sample", ["sample", "--network", "reference.json", "--n", str(N),
                    "--seed", str(SAMPLE_SEED), "--out", "cohort.csv"]),
        ("elicit_single", ["elicit", "--strategy", "single", "--out-graph", "v1.json"]),
        ("elicit_pairwise", ["elicit", "--strategy", "pairwise", "--out-graph",
                             "pairwise.json", "--out-transcript", "pairwise.jsonl"]),
        ("discover_pc", ["discover", "--algo", "pc", "--data", "cohort.csv",
                         "--max-cond-size", "2", "--out", "pc.json"]),
        ("discover_notears", ["discover", "--algo", "notears", "--data", "cohort.csv",
                              "--out", "notears.json"]),
        ("score", ["score", "--graph", "v5.json", "--data", "cohort.csv",
                   "--ess", "5,10,15", "--out", "score.txt"]),
        ("fit", ["fit", "--graph", "v5.json", "--data", "cohort.csv",
                 "--ess", "10", "--out", "network.json"]),
        ("ate", ["ate", "--network", "network.json", "--grid", "--out", "ate.csv"]),
        ("compare", ["compare", "--graphs", "v1.json", "pairwise.json", "v5.json",
                     "notears.json", "--data", "cohort.csv"]),
    )
    SMALLEST = ["export-dot", "--graph", "v5.json", "--out", "v5.dot"]
    STEP_TIMEOUT_S = 150
    child_processes = True

    def setup(self, seed, workdir):
        from causalkit import nsclc
        from causalkit.graph import serialize_graph
        from causalkit.synth import reference_network

        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "reference.json").write_text(reference_network(7).to_json())
        (workdir / "v5.json").write_text(serialize_graph(nsclc.v5_dag(), "json"))
        return {"workdir": workdir}

    def command(self, inputs, argv, trace_file: Path | None = None):
        bench_dir = Path(__file__).resolve().parent
        if trace_file is None:
            prefix = [sys.executable, "-m", "causalkit.cli"]
        else:
            prefix = [sys.executable, str(bench_dir / "cli_child.py"), str(trace_file)]
        env = dict(os.environ)
        src = str(bench_dir.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            prefix + argv, cwd=inputs["workdir"], env=env, capture_output=True,
            text=True, timeout=self.STEP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise CliFailure(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
        return proc.stdout

    def operations(self, inputs):
        ops = []
        for label, argv in self.STEPS:
            trace_file = None
            if self.trace_dir is not None:
                trace_file = self.trace_dir / f"{label}.json"
            ops.append((label, lambda argv=argv, tf=trace_file: self.command(inputs, argv, tf)))
        return ops

    def warm_up(self, inputs):
        self.command(inputs, self.SMALLEST)

    def start_time(self, inputs, repeats: int) -> list[float]:
        times = []
        for _ in range(repeats):
            start = perf_counter()
            self.command(inputs, self.SMALLEST)
            times.append(perf_counter() - start)
        return times

    def canonical(self, output):
        # Transcripts carry wall-clock stamps, so stdout is what must repeat.
        return output

    def check(self, inputs, outputs):
        import numpy as np
        import reference as ref
        from causalkit import nsclc

        workdir = inputs["workdir"]
        scheme = nsclc.SCHEME
        names = list(scheme.names)
        cards = scheme.cardinalities()
        labels = [label for label, _ in self.STEPS]
        index = {label: i for i, label in enumerate(labels)}
        failures = []

        with open(workdir / "cohort.csv", newline="") as fh:
            table = list(csv.reader(fh))
        if table[0] != names or len(table) != self.N + 1:
            failures.append((index["sample"], "cohort.csv header or row count"))
            return failures
        rows = np.array(
            [[scheme.states(j).index(cell) for j, cell in enumerate(r)] for r in table[1:]]
        )

        graphs = {}
        for label, name in (("elicit_single", "v1"), ("elicit_pairwise", "pairwise"),
                            ("discover_pc", "pc"), ("discover_notears", "notears"),
                            ("score", "v5")):
            payload = json.loads((workdir / f"{name}.json").read_text())
            variables = [(v["name"], tuple(v["states"])) for v in payload["variables"]]
            directed = [tuple(e) for e in payload["directed"]]
            if variables != list(scheme.variables):
                failures.append((index[label], f"{name}.json is not over the NSCLC scheme"))
            elif not all(0 <= u < len(names) and 0 <= v < len(names) for u, v in directed):
                failures.append((index[label], f"{name}.json edge outside the scheme"))
            elif not ref.is_acyclic(len(names), directed):
                failures.append((index[label], f"{name}.json has a directed cycle"))
            graphs[name] = (directed, payload.get("undirected", []))

        families = {}

        def family(v, parents):
            key = (v, tuple(sorted(parents)))
            if key not in families:
                families[key] = ref.family_counts(rows, cards, v, key[1])
            return families[key]

        def bdeu(name, ess):
            directed, _ = graphs[name]
            return sum(
                ref.bdeu_canonical(family(v, [u for u, w in directed if w == v]), ess)
                for v in range(len(names))
            )

        printed = _parse_table((workdir / "score.txt").read_text())
        for ess in ESS_VALUES:
            if not _printed_close(printed.get(f"{ess:g}", {}).get("v5"), bdeu("v5", ess)):
                failures.append((index["score"], f"score table at ESS {ess:g}"))
        printed = _parse_table(outputs[index["compare"]])
        for ess in ESS_VALUES:
            for name in ("v1", "pairwise", "v5", "notears"):
                if not _printed_close(printed.get(f"{ess:g}", {}).get(name), bdeu(name, ess)):
                    failures.append((index["compare"], f"compare {name} at ESS {ess:g}"))

        v5_parents = {v: sorted(u for u, w in graphs["v5"][0] if w == v)
                      for v in range(len(names))}
        cpds = {
            v: (tuple(v5_parents[v]), ref.cpd_table(family(v, v5_parents[v]), 10.0))
            for v in range(len(names))
        }
        network = json.loads((workdir / "network.json").read_text())
        for v, (parents, expected) in cpds.items():
            spec = network["cpds"][names[v]]
            if (spec["parents"] != [names[p] for p in parents]
                    or not np.allclose(spec["table"], expected, rtol=REL_TOL, atol=1e-15)):
                failures.append((index["fit"], f"network.json CPD of {names[v]}"))
        t = scheme.index("TREATMENTPLAN")
        outcome = scheme.index("SURVIVALMONTHS")
        values = [0.0] * (cards[outcome] - 1) + [1.0]
        joints = {label: ref.mutilated_joint(cards, cpds, t, s)
                  for s, label in enumerate(scheme.states(t))}
        with open(workdir / "ate.csv", newline="") as fh:
            grid = list(csv.reader(fh))
        for row in grid[1:]:
            for gene, cell in zip(grid[0][1:], row[1:]):
                g = scheme.index(gene)
                ev = {g: cards[g] - 1}
                expected = (ref.expected_outcome(joints[row[0]], outcome, values, ev)
                            - ref.expected_outcome(joints["Unknown"], outcome, values, ev))
                if abs(float(cell) - expected) > 5e-7 + 1e-12:
                    failures.append((index["ate"], f"ate.csv {row[0]}/{gene}: "
                                                   f"{cell} vs {expected:.9f}"))
        if len(grid) != 4 or len(grid[0]) != 9:
            failures.append((index["ate"], "ate.csv is not 3 x 8"))
        return failures


def _parse_table(text: str) -> dict[str, dict[str, float]]:
    """Score table text -> {ess label: {graph: printed total}}."""
    lines = [line.split() for line in text.strip().splitlines()]
    if not lines or len(lines[0]) < 4:
        return {}
    graphs = lines[0][3:]  # header: "Equivalent sample Size" then graph names
    return {
        row[0]: {g: float(cell) for g, cell in zip(graphs, row[1:])} for row in lines[1:]
    }


def _printed_close(printed, value) -> bool:
    """Within the rounding of a value printed with two decimals."""
    return printed is not None and abs(printed - value) <= 0.005 + 1e-9 * abs(value)


WORKLOADS = {w.name: w for w in (PcDiscovery, ScoreValidate, AteInference, CliPipeline)}
