"""Benchmark runner: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload pc-discovery --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src` directory.  A run imports causalkit and builds its
inputs (timed as `setup_s`, the inputs built several times and the median
kept), runs the workload's warm-up, then repeats whole rounds of the
workload's operations until `--seconds` have passed.  It checks the first
timed round's outputs against the `reference` computations and every later
round against the first.

With `--trace 0` it reports the end-to-end metrics: the median round time
`wall_s`, `setup_s` and the peak resident memory `peak_rss_mb` (of this
process, or of its largest child for cli-pipeline).  With `--trace 1` it
spends half the time on untraced rounds and half on rounds traced by
`tracing.Tracer`, and reports the per-layer metrics, each the median over
the traced rounds (`synth.sample_s` adds the sampling of one set-up).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, CliPipeline

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3
START_REPEATS = 3


def run_round(ops):
    """Outputs (or the exception raised) and durations of one round."""
    outputs, durations = [], []
    for _, op in ops:
        start = perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
        durations.append(perf_counter() - start)
        outputs.append(out)
    return outputs, durations


class RoundLog:
    """Outcome of every operation of every timed round.

    Only the first round's outputs are kept, for the checks; later rounds
    are compared with them and dropped, so that memory does not grow with
    the number of rounds.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.forms = None
        self.outcomes: list[list[str | None]] = []

    def add(self, outputs) -> None:
        canonical = self.workload.canonical
        if self.first is None:
            self.first = outputs
            self.forms = [None if isinstance(o, Exception) else canonical(o) for o in outputs]
        outcomes = []
        for out, form in zip(outputs, self.forms):
            if isinstance(out, Exception):
                outcomes.append(f"raised {out!r}")
            elif canonical(out) != form:
                outcomes.append("differs from round 1")
            else:
                outcomes.append(None)
        self.outcomes.append(outcomes)


def timed_rounds(ops, seconds: float, log: RoundLog, on_round=None):
    """Whole rounds until `seconds` have passed: round times and, per round,
    the duration of each operation."""
    times, durations = [], []
    begin = perf_counter()
    while not times or perf_counter() - begin < seconds:
        start = perf_counter()
        outputs, op_durations = run_round(ops)
        times.append(perf_counter() - start)
        durations.append(op_durations)
        log.add(outputs)
        del outputs  # so that the next round runs with only the first round's outputs alive
        if on_round is not None:
            on_round()
    return times, durations


def verify(workload, inputs, log: RoundLog, labels):
    """(correct, attempted, failed, messages) over all timed rounds.

    An operation fails when it raises, when its output fails a check of the
    first round, or when its output differs from the first round's.
    `correct` speaks of the operations that did not fail: it is false only
    when a check fails that belongs to no single operation.
    """
    messages = []
    flagged = set()
    if not any(isinstance(out, Exception) for out in log.first):
        for index, message in workload.check(inputs, log.first):
            flagged.add(index)
            where = "" if index is None else f"{labels[index]}: "
            messages.append(f"check failed: {where}{message}")
    else:
        messages.append("an operation of the first round raised; outputs not checked")
        flagged.add(None)
    attempted = failed = 0
    for r, outcomes in enumerate(log.outcomes):
        for i, outcome in enumerate(outcomes):
            attempted += 1
            if outcome is not None:
                failed += 1
                messages.append(f"round {r + 1}: {labels[i]} {outcome}")
            elif i in flagged:
                failed += 1
    return None not in flagged, attempted, failed, messages


def layer_metrics(bucket, setup_bucket, step_times, start_s, overhead_s):
    """The per-layer metrics of one traced round."""
    b = bucket
    metrics = {
        "pc.ci_tests": (b.calls("pc.ci_test_g2"), "count"),
        "pc.ci_test_s": (b.total("pc.ci_test_g2"), "s"),
        "pc.ci_test_p50_us": (b.quantile("pc.ci_test_g2", 50) * 1e6, "us"),
        "pc.ci_test_p90_us": (b.quantile("pc.ci_test_g2", 90) * 1e6, "us"),
        "pc.skeleton_self_s": (b.self_s.get("pc.learn_skeleton", 0.0), "s"),
        "pc.orient_s": (b.total("pc.orient_v_structures", "pc.meek_closure"), "s"),
        "data.contingency_counts_calls": (b.calls("data.contingency_counts"), "count"),
        "data.contingency_counts_s": (b.total("data.contingency_counts"), "s"),
        "data.load_csv_s": (b.total("data.load_csv"), "s"),
        "scoring.bdeu_total_calls": (b.calls("scoring.bdeu_total"), "count"),
        "scoring.bdeu_total_s": (b.total("scoring.bdeu_total"), "s"),
        "scoring.family_self_s": (
            b.self_s.get("scoring.bdeu_family_paper", 0.0)
            + b.self_s.get("scoring.bdeu_family_canonical", 0.0),
            "s",
        ),
        "bayesnet.fit_cpds_s": (b.total("bayesnet.fit_cpds"), "s"),
        "bayesnet.ve_queries": (b.calls("bayesnet.variable_elimination"), "count"),
        "bayesnet.ve_s": (b.total("bayesnet.variable_elimination"), "s"),
        "bayesnet.ve_query_p50_ms": (
            b.quantile("bayesnet.variable_elimination", 50) * 1e3, "ms"),
        "bayesnet.ve_query_p90_ms": (
            b.quantile("bayesnet.variable_elimination", 90) * 1e3, "ms"),
        "intervention.apply_do_calls": (b.calls("intervention.apply_do"), "count"),
        "intervention.apply_do_s": (b.total("intervention.apply_do"), "s"),
        "intervention.ate_grid_s": (b.total("intervention.ate_grid"), "s"),
        "synth.sample_s": (
            b.total("synth.sample_from_network", "synth.generate_cohort")
            + setup_bucket.total("synth.sample_from_network", "synth.generate_cohort"),
            "s",
        ),
        "notears.fit_s": (b.total("notears.notears_fit"), "s"),
        "notears.h_evals": (b.calls("notears.acyclicity_h"), "count"),
        "notears.edges": (b.notears_edges, "count"),
        "llm.elicit_s": (b.total("llm.elicit_graph", "llm.refine"), "s"),
        "llm.prompts": (
            b.calls("llm.ReplayBackend.send") + b.calls("llm.HttpBackend.send"), "count"),
        "cli.start_s": (start_s, "s"),
    }
    for label, _ in CliPipeline.STEPS:
        metrics[f"cli.{label}_s"] = (step_times.get(label, 0.0), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    start = perf_counter()
    import causalkit

    workload.import_program()
    import_s = perf_counter() - start
    if not Path(causalkit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: causalkit imported from {causalkit.__file__}, not {SRC}")

    builds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workload.setup(seed, workdir)
        builds.append(perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    try:
        workload.warm_up(inputs)
    except Exception as exc:  # the timed rounds count and report failures
        print(f"warm-up raised {exc!r}", file=sys.stderr)
    ops = workload.operations(inputs)

    log = RoundLog(workload)
    if not trace:
        times, durations = timed_rounds(ops, seconds, log)
        usage = resource.RUSAGE_CHILDREN if workload.child_processes else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        from tracing import Bucket, Tracer

        plain_times, durations = timed_rounds(ops, seconds / 2, log)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.bucket = setup_bucket = Bucket()
            workload.setup(seed, workdir)
            trace_dir = workdir / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            workload.trace_dir = trace_dir
            buckets = []

            def collect():
                bucket = tracer.bucket
                for path in sorted(trace_dir.glob("*.json")):
                    bucket.merge(json.loads(path.read_text()))
                    path.unlink()
                buckets.append(bucket)
                tracer.bucket = Bucket()

            tracer.bucket = Bucket()
            traced_times, traced_durations = timed_rounds(
                workload.operations(inputs), seconds / 2, log, on_round=collect
            )
        finally:
            tracer.uninstall()
            workload.trace_dir = None
        durations += traced_durations
        start_s = 0.0
        if workload.child_processes:
            start_s = statistics.median(workload.start_time(inputs, START_REPEATS))
        overhead_s = statistics.median(traced_times) - statistics.median(plain_times)
        per_round = []
        for bucket, op_durations in zip(buckets, traced_durations):
            step_times = {}
            if workload.child_processes:
                step_times = {label: d for (label, _), d in zip(ops, op_durations)}
            per_round.append(layer_metrics(bucket, setup_bucket, step_times, start_s, overhead_s))
        metrics = {
            name: (statistics.median(r[name][0] for r in per_round), unit)
            for name, (_, unit) in per_round[0].items()
        }

    labels = [label for label, _ in ops]
    correct, attempted, failed, messages = verify(workload, inputs, log, labels)
    for message in dict.fromkeys(messages):
        print(message[:400], file=sys.stderr)
    op_medians = [statistics.median(d[i] for d in durations) for i in range(len(ops))]
    print(f"{workload.name}: round times {' '.join(f'{sum(d):.3f}' for d in durations)}; "
          f"median op times {' '.join(f'{t:.3f}' for t in op_medians[:12])}", file=sys.stderr)
    print(f"{workload.name}: {len(durations)} rounds, setup builds "
          f"{', '.join(f'{b:.3f}' for b in builds)} s, import {import_s:.3f} s",
          file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running CLI step is killed and
    # waited for, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "causalkit" / "__init__.py").is_file():
        print(f"error: no causalkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
