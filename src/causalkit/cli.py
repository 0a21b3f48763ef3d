"""Command-line entry point wiring the toolkit together.

Exit codes: 0 success, 1 usage error, 2 data/validation error.  Each
subcommand's handler imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import nsclc
from .errors import ToolkitError
from .graph import (
    Dag,
    Pdag,
    VariableScheme,
    parse_graph_json,
    scheme_from_json,
    serialize_graph,
)


def _read(path, parse):
    """parse(text of the UTF-8 file at path, less any byte-order mark); a file
    that cannot be read, decoded or parsed is a data error that names the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ToolkitError(f"{path}: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, ToolkitError) as exc:
        raise ToolkitError(f"{path}: {exc}") from None


def _load_scheme(path) -> VariableScheme:
    if path is None:
        return nsclc.SCHEME
    return _read(path, lambda text: scheme_from_json(json.loads(text)))


def _load_dataset(path, scheme):
    from .data import load_csv

    dataset, dropped = _read(path, lambda text: load_csv(text, scheme))
    if dropped:
        print(f"dropped {dropped} rows with missing values", file=sys.stderr)
    return dataset


def _load_graph(path, scheme):
    return _read(path, lambda text: parse_graph_json(text, scheme))


def _load_dag(path, scheme, use) -> Dag:
    """The graph file at path, which `use` needs fully directed."""
    graph = _load_graph(path, scheme)
    if isinstance(graph, Pdag):
        raise ToolkitError(f"{path}: {use} needs a fully directed graph")
    return graph


def _load_network(path):
    from .bayesnet import BayesianNetwork

    return _read(path, BayesianNetwork.from_json)


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ToolkitError(f"{path}: {exc.strerror}") from None
    print(f"wrote {path}")


def _number(kind, low, high=math.inf, closed=False):
    """An argparse type: a `kind` in (low, high), or in [low, high) if closed,
    so an out-of-range value is a usage error."""
    span = f"{'[' if closed else '('}{low:g}, {high:g})"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not (low <= value if closed else low < value) or not value < high:
            raise argparse.ArgumentTypeError(f"{text} is not in {span}")
        return value

    return parse


_POSITIVE = _number(float, 0)
_UNIT_INTERVAL = _number(float, 0, 1)
_NON_NEGATIVE_INT = _number(int, 0, closed=True)


def _ess_list(text):
    return [_POSITIVE(value) for value in text.split(",")]


def _global_flags() -> argparse.ArgumentParser:
    # Accepted before and after the subcommand. SUPPRESS defaults stop the
    # subparser pass clobbering an earlier value (use getattr). Read alone in
    # dispatch, they take exact spellings only, so that no abbreviation the
    # full parser would call ambiguous names the config file.
    flags = argparse.ArgumentParser(
        prog="causalkit", add_help=False, allow_abbrev=False
    )
    flags.add_argument(
        "--config", help="JSON config file with defaults", default=argparse.SUPPRESS
    )
    flags.add_argument("--seed", type=_NON_NEGATIVE_INT, default=argparse.SUPPRESS)
    flags.add_argument(
        "--scheme",
        help="variable scheme JSON (default: NSCLC)",
        default=argparse.SUPPRESS,
    )
    return flags


def build_parser() -> argparse.ArgumentParser:
    # The top-level parser gets its own copy of the global flags, so that a
    # config default set on it (see _apply_config) leaves the subparsers' alone.
    parser = argparse.ArgumentParser(prog="causalkit", parents=[_global_flags()])
    sub = parser.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)
    common = _global_flags()

    def add_parser(name, handler, text, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=text)
        p.set_defaults(handler=handler)
        return p

    llm = argparse.ArgumentParser(add_help=False)
    llm.add_argument("--backend", choices=("replay", "http"), default="replay")
    llm.add_argument("--replay-file")
    llm.add_argument("--url")
    llm.add_argument("--model", default="gpt-4")
    llm.add_argument("--out-graph", required=True)
    llm.add_argument("--out-transcript")
    bdeu = argparse.ArgumentParser(add_help=False)
    bdeu.add_argument("--data", required=True)
    bdeu.add_argument("--ess", type=_ess_list, default="5,10,15")
    bdeu.add_argument("--variant", choices=("paper", "canonical"), default="canonical")

    p = add_parser("ingest", _cmd_ingest, "encode a raw CSV into dataset form")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)

    p = add_parser("cohort", _cmd_cohort, "synthesize a cohort from marginals")
    p.add_argument("--n", type=_number(int, 0), default=nsclc.COHORT_SIZE)
    p.add_argument("--out", required=True)

    p = add_parser("sample", _cmd_sample, "ancestral-sample from a network file")
    p.add_argument("--network", required=True)
    p.add_argument("--n", type=_number(int, 0), required=True)
    p.add_argument("--out", required=True)

    p = add_parser("elicit", _cmd_elicit, "LLM graph elicitation", llm)
    p.add_argument("--strategy", choices=("pairwise", "single"), required=True)

    add_parser("refine", _cmd_refine, "interactive correction loop", llm)

    p = add_parser("discover", _cmd_discover, "run a discovery baseline")
    p.add_argument("--algo", choices=("pc", "notears"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=_UNIT_INTERVAL, default=0.05)
    p.add_argument("--max-cond-size", type=_NON_NEGATIVE_INT)
    p.add_argument("--ci-test", choices=("g2", "chi2"), default="g2")
    p.add_argument("--max-iter", type=_number(int, 0), default=100)
    p.add_argument("--h-tol", type=_UNIT_INTERVAL, default=1e-8)
    p.add_argument("--w-threshold", type=_POSITIVE, default=0.5)
    p.add_argument("--l1", type=_number(float, 0, closed=True), default=0.1)

    p = add_parser("score", _cmd_score, "Bdeu score a graph against data", bdeu)
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = add_parser("fit", _cmd_fit, "fit CPDs and write a network file")
    p.add_argument("--graph", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ess", type=_POSITIVE, default=10.0)
    p.add_argument("--out", required=True)

    p = add_parser("ate", _cmd_ate, "average treatment effects")
    p.add_argument("--network")
    p.add_argument("--graph")
    p.add_argument("--data")
    p.add_argument("--ess", type=_POSITIVE, default=10.0)
    p.add_argument(
        "--grid", action="store_true",
        help="accepted for compatibility: the grid is the only output of ate",
    )
    p.add_argument("--out")

    p = add_parser("compare", _cmd_compare, "side-by-side Bdeu of several graphs", bdeu)
    p.add_argument("--graphs", nargs="+", required=True)

    p = add_parser("export-dot", _cmd_export_dot, "graph JSON to graphviz DOT")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_ingest(args, scheme):
    from .data import write_csv

    _write(args.out, write_csv(_load_dataset(args.csv, scheme)))


def _cmd_cohort(args, scheme):
    from .data import write_csv
    from .synth import CohortSpec, generate_cohort

    spec = CohortSpec.nsclc_default(args.n, getattr(args, "seed", 0))
    _write(args.out, write_csv(generate_cohort(spec, scheme)))


def _cmd_sample(args, scheme):
    from .data import write_csv
    from .synth import sample_from_network

    net = _load_network(args.network)
    rows = sample_from_network(net, args.n, getattr(args, "seed", 0))
    _write(args.out, write_csv(rows))


def _make_backend(args):
    from . import fixtures
    from .llm import HttpBackend, ReplayBackend

    if args.backend == "http":
        return HttpBackend(args.url, args.model, args.out_transcript)
    if args.replay_file:
        return _read(args.replay_file, ReplayBackend.parse_jsonl)
    return fixtures.replay_backend()


def _write_transcript(args, session):
    """The session's exchanges to --out-transcript, unless the http backend
    has already appended each exchange there as it was made."""
    if args.out_transcript and args.backend != "http":
        _write(args.out_transcript, session.to_jsonl())


def _cmd_elicit(args, scheme):
    from .llm import elicit_graph

    dag, transcript = elicit_graph(args.strategy, scheme, _make_backend(args))
    _write(args.out_graph, serialize_graph(dag, "json"))
    _write_transcript(args, transcript)


def _cmd_refine(args, scheme):
    from .llm import elicit_graph, refine

    backend = _make_backend(args)
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
        (_, before), (_, after) = session.drafts[-2:]
        before, after = set(before), set(after)
        for sign, edges in ("+", after - before), ("-", before - after):
            for u, v in sorted(edges):
                print(f"  {sign} {scheme.names[u]} -> {scheme.names[v]}")
    _, edges = session.drafts[-1]
    _write(args.out_graph, serialize_graph(Dag(scheme, frozenset(edges)), "json"))
    _write_transcript(args, session)


def _cmd_discover(args, scheme):
    data = _load_dataset(args.data, scheme)
    if args.algo == "pc":
        from .pc import pc_run

        graph = pc_run(
            data,
            alpha_level=args.alpha,
            max_cond_size=args.max_cond_size,
            test=args.ci_test,
        )
    else:
        from .notears import NotearsConfig, notears_fit

        config = NotearsConfig(
            max_iter=args.max_iter,
            h_tol=args.h_tol,
            w_threshold=args.w_threshold,
            l1_penalty=args.l1,
        )
        graph = notears_fit(data, config).dag
    fmt = "dot" if args.out.endswith(".dot") else "json"
    _write(args.out, serialize_graph(graph, fmt))


def _score_table(args, scheme, paths) -> str:
    """BDeu of each graph file at each --ess value, as one printed table
    with a column per file, headed by the file's stem."""
    from .scoring import bdeu_total, score_table

    files = {}
    for path in paths:
        stem = Path(path).stem
        first = files.setdefault(stem, path)
        if Path(first).resolve() != Path(path).resolve():
            raise ToolkitError(f"{first} and {path} would share column {stem!r}")
    data = _load_dataset(args.data, scheme)
    ess_values = sorted(set(args.ess))
    reports = {}
    for stem, path in files.items():
        graph = _load_dag(path, scheme, "scoring")
        reports[stem] = [
            bdeu_total(graph, data, ess, args.variant) for ess in ess_values
        ]
    return score_table(ess_values, reports)


def _cmd_score(args, scheme):
    table = _score_table(args, scheme, [args.graph])
    print(table, end="")
    if args.out:
        _write(args.out, table)


def _cmd_compare(args, scheme):
    print(_score_table(args, scheme, args.graphs), end="")


def _fit(args, scheme):
    """The network fitted to --data on the --graph structure at --ess."""
    from .bayesnet import fit_cpds

    data = _load_dataset(args.data, scheme)
    return fit_cpds(_load_dag(args.graph, scheme, "fitting"), data, args.ess)


def _cmd_fit(args, scheme):
    _write(args.out, _fit(args, scheme).to_json())


def _cmd_ate(args, scheme):
    from .intervention import ate_grid

    grid = ate_grid(_load_network(args.network) if args.network else _fit(args, scheme))
    print(grid.to_text(), end="")
    if args.out:
        _write(args.out, grid.to_csv())


def _cmd_export_dot(args, scheme):
    _write(args.out, serialize_graph(_load_graph(args.graph, scheme), "dot"))


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if a.dest == "command").choices


def _apply_config(parser, path):
    """Config values become parser defaults, so a flag given anywhere on the
    command line overrides them. Global keys go to the top-level parser only:
    a subparser default would overwrite a global flag given before the
    subcommand."""
    subparsers = tuple(_subparsers(parser).values())
    top = {a.dest for a in parser._actions} - {"help", "command"}
    known = top | {a.dest for p in subparsers for a in p._actions} - {"help"}

    def parse(text):
        config = json.loads(text)
        if not isinstance(config, dict):
            raise ToolkitError("config must be a JSON object")
        for key in config:
            if key not in known:
                raise ToolkitError(f"unknown config key {key!r}")
        return config

    actions = [(p, a) for p in (parser, *subparsers) for a in p._actions]
    try:
        config = _read(path, parse)
    except ToolkitError:
        for _, a in actions:
            a.required = False  # the file could have stood in for any flag
        raise
    given = [
        (p, a) for p, a in actions if a.dest in config and (a.dest in top) == (p is parser)
    ]
    for _, a in given:
        a.required = False  # the file stands in for the flag
    for p, a in given:
        p.set_defaults(**{a.dest: _config_value(p, a, config[a.dest])})


def _config_value(parser, action, value):
    """A config value checked as the flag's would be. A typed value goes on as
    a string, which argparse parses with the type if the subcommand uses it."""
    if action.type is not None:
        return str(value)
    if action.nargs == 0:
        form, fits = "true or false", isinstance(value, bool)
    elif action.nargs is None:
        form, fits = "a string", isinstance(value, str)
    else:
        form = "a list of strings"
        fits = isinstance(value, list) and all(isinstance(v, str) for v in value)
        if action.nargs == "+":  # one or more values
            form, fits = "a nonempty list of strings", fits and bool(value)
    if not fits:
        raise argparse.ArgumentError(
            action, f"config value {json.dumps(value)} is not {form}"
        )
    parser._check_value(action, value)  # the choices, with argparse's message
    return value


def _missing_option(args):
    """The option that the parsed command needs but argparse cannot require
    alone: one of two inputs for ate, --url only for the http backend."""
    if args.command == "ate" and not (args.network or args.graph and args.data):
        return "ate needs --network or --graph plus --data"
    if getattr(args, "backend", None) == "http" and not args.url:
        return "http backend requires --url"
    return None


def dispatch(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        problem = None
        try:
            path = getattr(_global_flags().parse_known_args(argv)[0], "config", None)
            if path is not None:
                try:
                    _apply_config(parser, path)
                except (ToolkitError, argparse.ArgumentError) as exc:
                    problem = exc  # the command line's own errors come first
            args = parser.parse_args(argv)
            if getattr(args, "config", None) != path:
                parser.error("argument --config: give the option in full")
            if isinstance(problem, argparse.ArgumentError):
                parser.error(str(problem))
            if problem is None and (missing := _missing_option(args)):
                _subparsers(parser)[args.command].error(missing)
        except SystemExit as exc:
            return 1 if exc.code else 0
        if problem is not None:
            raise problem
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        args.handler(args, _load_scheme(getattr(args, "scheme", None)))
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
