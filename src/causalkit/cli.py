"""Command-line entry point wiring the toolkit together.

Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures, nsclc
from .bayesnet import BayesianNetwork, fit_cpds
from .data import DiscretizationSpec, load_csv, write_csv
from .errors import CycleError, ToolkitError
from .graph import (
    Dag,
    Pdag,
    VariableScheme,
    parse_graph_json,
    scheme_from_json,
    serialize_graph,
)
from .intervention import ate_grid
from .llm import HttpBackend, ReplayBackend, elicit_graph, refine
from .notears import NotearsConfig, notears_fit
from .pc import pc_run
from .scoring import bdeu_total, score_table
from .synth import CohortSpec, generate_cohort, sample_from_network


def _read(path, parse):
    """parse(text of the file at path); a file that cannot be read or
    decoded is a data error that names the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ToolkitError(f"{path}: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ToolkitError(f"{path}: {exc}") from None


def _load_scheme(path) -> VariableScheme:
    if path is None:
        return nsclc.SCHEME
    return _read(path, lambda text: scheme_from_json(json.loads(text)))


def _load_dataset(path, scheme):
    dataset, dropped = _read(
        path, lambda text: load_csv(text, scheme, DiscretizationSpec.default())
    )
    if dropped:
        print(f"dropped {dropped} rows with missing values", file=sys.stderr)
    return dataset


def _load_graph(path, scheme):
    return _read(path, lambda text: parse_graph_json(text, scheme))


def _load_network(path) -> BayesianNetwork:
    return _read(path, BayesianNetwork.from_json)


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ToolkitError(f"{path}: {exc.strerror}") from None
    print(f"wrote {path}")


def _ess_list(value) -> list[float]:
    return [float(v) for v in str(value).split(",")]


def build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted both before and after the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", help="JSON config file with defaults", default=argparse.SUPPRESS
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--scheme",
        help="variable scheme JSON (default: NSCLC)",
        default=argparse.SUPPRESS,
    )
    parser = argparse.ArgumentParser(prog="causalkit", parents=[common])
    sub = parser.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("ingest", help="encode a raw CSV into dataset form")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)

    p = add_parser("cohort", help="synthesize a cohort from marginals")
    p.add_argument("--n", type=int, default=nsclc.COHORT_SIZE)
    p.add_argument("--out", required=True)

    p = add_parser("sample", help="ancestral-sample from a network file")
    p.add_argument("--network", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add_parser("elicit", help="LLM graph elicitation")
    p.add_argument("--strategy", choices=("pairwise", "single"), required=True)
    p.add_argument("--backend", choices=("replay", "http"), default="replay")
    p.add_argument("--replay-file")
    p.add_argument("--url")
    p.add_argument("--model", default="gpt-4")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-transcript")

    p = add_parser("refine", help="interactive correction loop")
    p.add_argument("--backend", choices=("replay", "http"), default="replay")
    p.add_argument("--replay-file")
    p.add_argument("--url")
    p.add_argument("--model", default="gpt-4")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-transcript")

    p = add_parser("discover", help="run a discovery baseline")
    p.add_argument("--algo", choices=("pc", "notears"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-cond-size", type=int)
    p.add_argument("--ci-test", choices=("g2", "chi2"), default="g2")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--h-tol", type=float, default=1e-8)
    p.add_argument("--w-threshold", type=float, default=0.5)
    p.add_argument("--l1", type=float, default=0.1)

    p = add_parser("score", help="Bdeu score a graph against data")
    p.add_argument("--graph", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ess", default="5,10,15")
    p.add_argument("--variant", choices=("paper", "canonical"), default="canonical")
    p.add_argument("--out")

    p = add_parser("fit", help="fit CPDs and write a network file")
    p.add_argument("--graph", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ess", type=float, default=10.0)
    p.add_argument("--out", required=True)

    p = add_parser("ate", help="average treatment effects")
    p.add_argument("--network")
    p.add_argument("--graph")
    p.add_argument("--data")
    p.add_argument("--ess", type=float, default=10.0)
    p.add_argument("--grid", action="store_true")
    p.add_argument("--out")

    p = add_parser("compare", help="side-by-side Bdeu for several graphs")
    p.add_argument("--graphs", nargs="+", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ess", default="5,10,15")
    p.add_argument("--variant", choices=("paper", "canonical"), default="canonical")

    p = add_parser("export-dot", help="graph JSON to graphviz DOT")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)

    return parser


def _make_backend(args):
    if args.backend == "http":
        if not args.url:
            raise ToolkitError("http backend requires --url")
        return HttpBackend(args.url, args.model, args.out_transcript)
    if args.replay_file:
        return _read(args.replay_file, ReplayBackend.parse_jsonl)
    return None  # bundled fixtures, chosen per strategy


def _cmd_elicit(args, scheme):
    backend = _make_backend(args)
    if backend is None:
        backend = (
            fixtures.pairwise_replay_backend()
            if args.strategy == "pairwise"
            else fixtures.refinement_replay_backend()
        )
    dag, transcript = elicit_graph(args.strategy, scheme, backend)
    _write(args.out_graph, serialize_graph(dag, "json"))
    if args.out_transcript and args.backend != "http":
        _write(args.out_transcript, transcript.to_jsonl())
    return 0


def _cmd_refine(args, scheme):
    backend = _make_backend(args)
    if backend is None:
        backend = fixtures.refinement_replay_backend()
    dag, session = elicit_graph("single", scheme, backend)
    print("current edges:")
    for u, v in sorted(dag.edges):
        print(f"  {scheme.names[u]} -> {scheme.names[v]}")
    print("enter corrections, ':done' to finish")
    for line in sys.stdin:
        correction = line.strip()
        if correction == ":done":
            break
        if not correction:
            continue
        try:
            session = refine(session, correction, backend, scheme)
        except ToolkitError as exc:
            print(f"correction rejected: {exc}", file=sys.stderr)
            continue
        diff = session.diffs[-1]
        for u, v in diff.get("added", ()):
            print(f"  + {scheme.names[u]} -> {scheme.names[v]}")
        for u, v in diff.get("removed", ()):
            print(f"  - {scheme.names[u]} -> {scheme.names[v]}")
    _, edges = session.latest_draft
    _write(args.out_graph, serialize_graph(Dag(scheme, frozenset(edges)), "json"))
    if args.out_transcript:
        _write(args.out_transcript, session.to_jsonl())
    return 0


def _cmd_discover(args, scheme):
    data = _load_dataset(args.data, scheme)
    if args.algo == "pc":
        graph = pc_run(
            data,
            alpha_level=args.alpha,
            max_cond_size=args.max_cond_size,
            test=args.ci_test,
        )
        try:
            Dag(scheme, graph.directed)
        except CycleError:
            print("warning: the edges PC directed form a cycle", file=sys.stderr)
    else:
        config = NotearsConfig(
            max_iter=args.max_iter,
            h_tol=args.h_tol,
            w_threshold=args.w_threshold,
            l1_penalty=args.l1,
        )
        graph = notears_fit(data, config).dag
        if not graph.edges:
            print(
                "warning: NOTEARS learned 0 edges "
                f"(no weight reached --w-threshold {args.w_threshold:g})",
                file=sys.stderr,
            )
    fmt = "dot" if args.out.endswith(".dot") else "json"
    _write(args.out, serialize_graph(graph, fmt))
    return 0


def _cmd_score(args, scheme):
    data = _load_dataset(args.data, scheme)
    graph = _load_graph(args.graph, scheme)
    if isinstance(graph, Pdag):
        raise ToolkitError("scoring needs a fully directed graph")
    reports = [
        bdeu_total(graph, data, ess, args.variant) for ess in _ess_list(args.ess)
    ]
    table = score_table({Path(args.graph).stem: reports})
    print(table, end="")
    if args.out:
        _write(args.out, table)
    return 0


def _cmd_ate(args, scheme):
    if args.network:
        net = _load_network(args.network)
    else:
        if not (args.graph and args.data):
            raise ToolkitError("ate needs --network or --graph plus --data")
        data = _load_dataset(args.data, scheme)
        net = fit_cpds(_load_graph(args.graph, scheme), data, args.ess)
    grid = ate_grid(net)
    print(grid.to_text(), end="")
    if args.out:
        _write(args.out, grid.to_csv())
    return 0


def _apply_config(parser, argv):
    # Flags override config values, so config supplies parser defaults only.
    # The pre-parser reads both `--config PATH` and `--config=PATH`; a
    # trailing --config with no value is a usage error it reports itself.
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is not None:
        config = _read(path, json.loads)
        if not isinstance(config, dict):
            raise ToolkitError(f"{path}: config must be a JSON object")
        parser.set_defaults(**config)


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        if argv is None:
            argv = sys.argv[1:]
        _apply_config(parser, list(argv))
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Global flags keep SUPPRESS defaults so the subparser pass cannot
    # clobber a value given before the subcommand; fill fallbacks here.
    for name, fallback in (("config", None), ("seed", 0), ("scheme", None)):
        if not hasattr(args, name):
            setattr(args, name, fallback)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        scheme = _load_scheme(args.scheme)
        if args.command == "ingest":
            data = _load_dataset(args.csv, scheme)
            _write(args.out, write_csv(data))
        elif args.command == "cohort":
            spec = CohortSpec.nsclc_default(args.n, args.seed)
            _write(args.out, write_csv(generate_cohort(spec, scheme)))
        elif args.command == "sample":
            net = _load_network(args.network)
            _write(args.out, write_csv(sample_from_network(net, args.n, args.seed)))
        elif args.command == "elicit":
            return _cmd_elicit(args, scheme)
        elif args.command == "refine":
            return _cmd_refine(args, scheme)
        elif args.command == "discover":
            return _cmd_discover(args, scheme)
        elif args.command == "score":
            return _cmd_score(args, scheme)
        elif args.command == "fit":
            data = _load_dataset(args.data, scheme)
            net = fit_cpds(_load_graph(args.graph, scheme), data, args.ess)
            _write(args.out, net.to_json())
        elif args.command == "ate":
            return _cmd_ate(args, scheme)
        elif args.command == "compare":
            data = _load_dataset(args.data, scheme)
            reports = {}
            for path in args.graphs:
                graph = _load_graph(path, scheme)
                reports[Path(path).stem] = [
                    bdeu_total(graph, data, ess, args.variant)
                    for ess in _ess_list(args.ess)
                ]
            print(score_table(reports), end="")
        elif args.command == "export-dot":
            graph = _load_graph(args.graph, scheme)
            _write(args.out, serialize_graph(graph, "dot"))
        return 0
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
