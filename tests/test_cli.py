import io
import json
import os
import subprocess
import sys
import re
import textwrap
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import causalkit
from causalkit import nsclc
from causalkit.cli import dispatch
from causalkit.data import CategoricalDataset, write_csv
from causalkit.graph import Dag, Pdag, VariableScheme, parse_graph_json, serialize_graph
from causalkit.llm import render_single_prompt
from causalkit.synth import reference_network, sample_from_network

from conftest import binary_scheme


@pytest.fixture
def workdir(tmp_path):
    """tmp_path pre-loaded with a V1 graph file and a small sampled dataset."""
    graph_path = tmp_path / "v1.json"
    graph_path.write_text(serialize_graph(nsclc.v1_dag(), "json"))
    data = sample_from_network(reference_network(), 400, seed=0)
    (tmp_path / "data.csv").write_text(write_csv(data))
    return tmp_path


class TestExitCodes:
    def test_no_command(self, capsys):
        assert dispatch([]) == 1

    def test_unknown_command(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert dispatch(["score", "--graph", "g.json"]) == 1

    def test_toolkit_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("NOT_A_COLUMN\n1\n")
        out = tmp_path / "out.csv"
        code = dispatch(["ingest", "--csv", str(bad), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_short_csv_row_is_2(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text(",".join(nsclc.SCHEME.names) + "\n" + "x,y\n")
        out = tmp_path / "out.csv"
        code = dispatch(["ingest", "--csv", str(short), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {short}: line 2:")
        assert "Traceback" not in err
        width = len(nsclc.SCHEME.names)
        short.write_text(",".join(nsclc.SCHEME.names) + "\n" + "x," * width + "x\n")
        code = dispatch(["ingest", "--csv", str(short), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {short}: line 2: {width + 1} fields")
        assert not out.exists()

    def test_config_without_value_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = dispatch(["cohort", "--n", "10", "--out", str(out), "--config"])
        assert code == 1
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "--config" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, option",
        [
            pytest.param(["--algo", "notears", "--h-tol", "0"], "--h-tol", id="h-tol-0"),
            pytest.param(["--algo", "notears", "--h-tol", "1"], "--h-tol", id="h-tol-1"),
            pytest.param(
                ["--algo", "notears", "--max-iter", "0"], "--max-iter", id="max-iter-0"
            ),
            pytest.param(
                ["--algo", "notears", "--w-threshold", "0"], "--w-threshold",
                id="w-threshold-0",
            ),
            pytest.param(["--algo", "notears", "--l1", "-1"], "--l1", id="l1-negative"),
            pytest.param(["--algo", "pc", "--alpha", "0"], "--alpha", id="alpha-0"),
            pytest.param(["--algo", "pc", "--alpha", "1.5"], "--alpha", id="alpha-1.5"),
            pytest.param(
                ["--algo", "pc", "--max-cond-size", "-1"], "--max-cond-size",
                id="max-cond-size-negative",
            ),
            pytest.param(
                ["--algo", "pc", "--config", "alpha.json"], "--alpha",
                id="config-alpha-1.5",
            ),
            pytest.param(
                ["--algo", "pc", "--config", "null.json"], "--alpha",
                id="config-alpha-null",
            ),
            pytest.param(["--algo", "pc", "--seed", "-1"], "--seed", id="seed-negative"),
            pytest.param(["fit", "--graph", "v1.json", "--ess", "0"], "--ess", id="fit-ess-0"),
            pytest.param(
                ["score", "--graph", "v1.json", "--ess", "x"], "--ess", id="score-ess-x"
            ),
            pytest.param(
                ["score", "--graph", "v1.json", "--ess", "5,0"], "--ess",
                id="score-ess-list-0",
            ),
            pytest.param(
                ["sample", "--network", "net.json", "--n", "-3"], "--n",
                id="sample-n-negative",
            ),
            pytest.param(
                ["sample", "--network", "net.json", "--n", "0"], "--n", id="sample-n-0"
            ),
            pytest.param(["cohort", "--n", "0"], "--n", id="cohort-n-0"),
            pytest.param(["cohort", "--n", "-1"], "--n", id="cohort-n-negative"),
        ],
    )
    def test_out_of_range_option_is_usage_error(
        self, workdir, capsys, monkeypatch, argv, option
    ):
        monkeypatch.chdir(workdir)
        (workdir / "alpha.json").write_text(json.dumps({"alpha": 1.5}))
        (workdir / "null.json").write_text(json.dumps({"alpha": None}))
        if argv[0] == "--algo":
            argv = ["discover", *argv, "--data", "data.csv"]
        elif argv[0] not in ("sample", "cohort"):
            argv = [*argv, "--data", "data.csv"]
        assert dispatch([*argv, "--out", "out.json"]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {option}:" in errors[0]
        assert "Traceback" not in err
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["ate", "--out", "out.json"],
                "ate needs --network or --graph plus --data", id="ate-no-inputs",
            ),
            pytest.param(
                ["ate", "--graph", "v1.json", "--out", "out.json"],
                "ate needs --network or --graph plus --data", id="ate-graph-alone",
            ),
            pytest.param(
                ["elicit", "--strategy", "single", "--backend", "http",
                 "--out-graph", "out.json"],
                "http backend requires --url", id="http-without-url",
            ),
        ],
    )
    def test_missing_input_option_is_usage_error(
        self, workdir, capsys, monkeypatch, argv, message
    ):
        monkeypatch.chdir(workdir)
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(f"error: {message}")
        assert "Traceback" not in err
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize(
        "config, argv, option",
        [
            pytest.param(
                {"algo": "bogus"}, ["discover", "--data", "data.csv", "--out", "o.json"],
                "--algo", id="algo-bogus",
            ),
            pytest.param(
                {"strategy": "bogus"}, ["elicit", "--out-graph", "o.json"],
                "--strategy", id="strategy-bogus",
            ),
            pytest.param({"out": None}, ["cohort"], "--out", id="out-null"),
            pytest.param({"out": 3}, ["cohort"], "--out", id="out-number"),
            pytest.param(
                {"graphs": "v1.json"}, ["compare", "--data", "data.csv"], "--graphs",
                id="graphs-string",
            ),
            pytest.param(
                {"graphs": []}, ["compare", "--data", "data.csv"], "--graphs",
                id="graphs-empty",
            ),
            pytest.param(
                {"grid": "yes"}, ["ate", "--network", "net.json"], "--grid",
                id="grid-string",
            ),
            pytest.param(
                {"algo": "PC", "out": "o.json"}, ["discover", "--data", "data.csv"],
                "--algo", id="bad-value-beside-required-option",
            ),
        ],
    )
    def test_config_value_no_flag_could_give_is_usage_error(
        self, workdir, capsys, monkeypatch, config, argv, option
    ):
        monkeypatch.chdir(workdir)
        (workdir / "c.json").write_text(json.dumps(config))
        before = sorted(workdir.iterdir())
        assert dispatch([*argv, "--config", "c.json"]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {option}:" in errors[0]
        assert "Traceback" not in err
        assert sorted(workdir.iterdir()) == before

    def test_command_line_errors_come_before_config_errors(
        self, workdir, capsys, monkeypatch
    ):
        monkeypatch.chdir(workdir)
        discover = ["discover", "--algo", "pc", "--data", "data.csv", "--out", "o.json"]
        assert dispatch([*discover, "--alpha", "1.5", "--config", "missing.json"]) == 1
        assert "argument --alpha:" in capsys.readouterr().err
        assert dispatch(["cohort", "--help", "--config", "missing.json"]) == 0
        assert "usage: causalkit cohort" in capsys.readouterr().out
        assert dispatch(["cohort", "--out", "c.csv", "--config", "missing.json"]) == 2
        assert capsys.readouterr().err.startswith("error: missing.json: ")
        assert not (workdir / "c.csv").exists()

    @pytest.mark.parametrize("config", ["missing.json", "broken.json"])
    def test_unreadable_config_that_was_to_give_a_required_option_is_2(
        self, workdir, capsys, monkeypatch, config
    ):
        monkeypatch.chdir(workdir)
        (workdir / "broken.json").write_text('{"out": "x.csv",}')
        assert dispatch(["--config", config, "cohort", "--n", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and len(err.splitlines()) == 1
        # The command line's own usage errors still come first.
        assert dispatch(["discover", "--alpha", "1.5", "--config", config]) == 1
        assert "argument --alpha:" in capsys.readouterr().err
        assert not (workdir / "x.csv").exists()

    def test_config_option_is_read_only_in_full(self, workdir, capsys, monkeypatch):
        monkeypatch.chdir(workdir)
        (workdir / "c.json").write_text(json.dumps({"n": 3}))
        assert dispatch(["discover", "--c", "c.json"]) == 1
        assert "ambiguous option: --c" in capsys.readouterr().err
        assert dispatch(["cohort", "--out", "c.csv", "--conf", "c.json"]) == 1
        assert "argument --config: give the option in full" in capsys.readouterr().err
        assert not (workdir / "c.csv").exists()

    @pytest.mark.parametrize("kind", ["data", "graph", "network", "config", "scheme"])
    def test_unreadable_input_file_is_2(self, workdir, capsys, kind):
        graph, out = str(workdir / "v1.json"), workdir / "out.txt"
        argv = {
            "data": lambda p: ["score", "--graph", graph, "--data", p],
            "graph": lambda p: ["export-dot", "--graph", p, "--out", str(out)],
            "network": lambda p: ["ate", "--network", p, "--out", str(out)],
            "config": lambda p: ["cohort", "--n", "5", "--out", str(out), "--config", p],
            "scheme": lambda p: ["--scheme", p, "export-dot", "--graph", graph, "--out", str(out)],
        }[kind]
        bad = workdir / "bad"
        if kind == "data":
            bad.write_bytes(b"\xff\xfe not utf-8\n")
        else:
            bad.write_text("{not json\n")
        for path in (workdir / "missing", bad):
            assert dispatch(argv(str(path))) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ")
            assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "case",
        [
            "config-not-object",
            "scheme-without-variables",
            "graph-without-directed",
            "network-graph-without-variables",
            "edge-index-outside-scheme",
            "edge-directed-and-undirected",
            "missing-replay-file",
            "out-in-missing-directory",
        ],
    )
    def test_wrong_shape_or_path_is_2(self, workdir, capsys, case):
        graph = json.loads((workdir / "v1.json").read_text())
        bad, out = workdir / "bad.json", workdir / "out.txt"
        v1 = str(workdir / "v1.json")
        content, argv = {
            "config-not-object": (
                [1], ["cohort", "--n", "5", "--out", str(out), "--config", str(bad)]
            ),
            "scheme-without-variables": (
                {},
                ["--scheme", str(bad), "export-dot", "--graph", v1, "--out", str(out)],
            ),
            "graph-without-directed": ({"variables": []}, None),
            "network-graph-without-variables": (
                {"dag": {"directed": []}, "cpds": {}},
                ["ate", "--network", str(bad), "--out", str(out)],
            ),
            "edge-index-outside-scheme": (
                {**graph, "directed": graph["directed"] + [[0, 99]]}, None
            ),
            "edge-directed-and-undirected": (
                {**graph, "undirected": graph["directed"][:1]}, None
            ),
            "missing-replay-file": (
                None,
                ["elicit", "--strategy", "single", "--replay-file", str(bad),
                 "--out-graph", str(out)],
            ),
            "out-in-missing-directory": (
                None, ["cohort", "--n", "5", "--out", str(workdir / "nodir" / "c.csv")]
            ),
        }[case]
        if content is not None:
            bad.write_text(json.dumps(content))
        argv = argv or ["export-dot", "--graph", str(bad), "--out", str(out)]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists() and not (workdir / "nodir").exists()

    @pytest.mark.parametrize(
        "command, n_vars, card",
        [("score", 9, 256), ("score", 6, 100), ("fit", 6, 100)],
        ids=["score-256-states-8-parents", "score-100-states-5-parents",
             "fit-100-states-5-parents"],
    )
    def test_oversized_family_is_2(self, tmp_path, capsys, command, n_vars, card):
        # The last variable has every other as a parent: a family table of
        # card**n_vars cells, which 256**9 wraps to 0 in int64.  The graph
        # file, holding the variables, is the --scheme file too.
        scheme = VariableScheme.of(
            (f"V{i}", tuple(map(str, range(card)))) for i in range(n_vars)
        )
        dag = Dag(scheme, frozenset((i, n_vars - 1) for i in range(n_vars - 1)))
        graph, data, out = tmp_path / "g.json", tmp_path / "d.csv", tmp_path / "out"
        graph.write_text(serialize_graph(dag, "json"))
        rows = np.arange(2 * n_vars).reshape(2, n_vars)
        data.write_text(write_csv(CategoricalDataset(scheme, rows)))
        argv = ["--scheme", str(graph), command, "--graph", str(graph)]
        assert dispatch([*argv, "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: the count table of {list(scheme.names)} has "
            f"{card**n_vars} cells, more than {2**24}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "case",
        [
            "third-graph",
            "graph-variables-reversed",
            "config-unknown-key",
            "pdag",
            "pdag-fit",
            "pdag-ate",
            "undirected-self-loop",
            "directed-cycle-beside-an-undirected-edge",
            "network-undirected-edge",
            "network-undirected-edge-ate",
            "network-table-of-strings",
            "network-table-object",
            "network-table-of-numeric-strings",
            "network-table-of-bools",
            "network-cpd-not-in-dag",
            "network-table-mixes-floats-and-bools",
            "network-table-mixes-ints-and-bools",
            "network-parents-not-a-list",
            "scheme-states-a-string",
            "scheme-states-not-strings",
            "scheme-name-not-a-string",
            "scheme-repeated-state",
            "scheme-state-read-as-missing",
            "scheme-state-with-surrounding-space",
            "scheme-name-with-surrounding-space",
            "csv-repeated-column",
            "network-table-1-d",
            "network-table-wrong-shape",
            "replay-completion-a-number",
            "replay-completion-null",
            "replay-prompt-a-number",
            "replay-prompt-with-two-completions",
        ],
    )
    def test_data_error_names_its_file(self, workdir, capsys, case):
        graph = json.loads((workdir / "v1.json").read_text())
        v1, data = str(workdir / "v1.json"), str(workdir / "data.csv")
        v5, bad, out = workdir / "v5.json", workdir / "bad.json", workdir / "out.txt"
        v5.write_text(serialize_graph(nsclc.v5_dag(), "json"))
        compare = ["compare", "--graphs", v1, str(v5), str(bad), "--data", data]
        pdag = Pdag(nsclc.SCHEME, frozenset(), frozenset({frozenset({0, 1})}))
        net = {
            "dag": json.loads(serialize_graph(Dag(binary_scheme(3)), "json")),
            "cpds": {f"X{i}": {"parents": [], "table": [[0.5, 0.5]]} for i in range(3)},
        }
        sample = ["sample", "--network", str(bad), "--n", "5", "--out", str(out)]

        def with_cpd(name, table):
            cpd = {"parents": [], "table": table}
            return {**net, "cpds": {**net["cpds"], name: cpd}}

        not_numbers = "CPD table for X0 is not numbers"
        ab = workdir / "ab.csv"
        ab.write_text("A,B\nx,1\n")
        ingest = ["--scheme", str(bad), "ingest", "--csv", str(ab), "--out", str(out)]

        def scheme(a_name, a_states, b_states):
            variables = [{"name": a_name, "states": a_states}]
            return {"variables": variables + [{"name": "B", "states": b_states}]}

        ab_scheme = workdir / "ab_scheme.json"
        ab_scheme.write_text(json.dumps(scheme("A", ["x", "y"], ["0", "1"])))
        elicit = [
            "elicit", "--strategy", "single", "--replay-file", str(bad),
            "--out-graph", str(out),
        ]
        single = render_single_prompt(nsclc.SCHEME)
        not_a_replay = "line 1: not a JSON object with prompt and completion strings"
        repeated_state = "variable 'A' repeats a state"
        read_as_missing = (
            "variable 'A' has state 'NA', which CSV reading takes for a missing value"
        )
        stripped_state = (
            "variable 'A' has state ' x', whose surrounding whitespace CSV reading "
            "strips"
        )
        stripped_name = (
            "variable 'A ' has surrounding whitespace, which CSV reading strips"
        )

        def not_strings(variable):
            exc = TypeError(
                f"variable {variable}: a name string and a list of state strings"
            )
            return f"not a variable list of name/states objects ({exc!r})"

        content, argv, message = {
            "third-graph": ({"variables": []}, compare, None),
            "graph-variables-reversed": (
                {**graph, "variables": graph["variables"][::-1]},
                ["export-dot", "--graph", str(bad), "--out", str(out)],
                "the graph's variables differ from the scheme",
            ),
            "config-unknown-key": (
                {"seed": 3, "bogus_key": 1},
                ["cohort", "--n", "5", "--out", str(out), "--config", str(bad)],
                "unknown config key 'bogus_key'",
            ),
            "pdag": (
                json.loads(serialize_graph(pdag, "json")),
                compare,
                "scoring needs a fully directed graph",
            ),
            "pdag-fit": (
                json.loads(serialize_graph(pdag, "json")),
                ["fit", "--graph", str(bad), "--data", data, "--out", str(out)],
                "fitting needs a fully directed graph",
            ),
            "pdag-ate": (
                json.loads(serialize_graph(pdag, "json")),
                ["ate", "--graph", str(bad), "--data", data, "--out", str(out)],
                "fitting needs a fully directed graph",
            ),
            "undirected-self-loop": (
                {**graph, "undirected": [[0, 0]]},
                ["export-dot", "--graph", str(bad), "--out", str(out)],
                "undirected edge [0] is not two variables",
            ),
            "directed-cycle-beside-an-undirected-edge": (
                {**graph, "directed": [[0, 1], [1, 2], [2, 0]], "undirected": [[3, 4]]},
                ["export-dot", "--graph", str(bad), "--out", str(out)],
                "edge set contains a directed cycle",
            ),
            "network-undirected-edge": (
                {**net, "dag": {**net["dag"], "undirected": [[0, 2]]}},
                sample,
                "the network's dag has undirected edges",
            ),
            "network-undirected-edge-ate": (
                {**net, "dag": {**net["dag"], "undirected": [[0, 2]]}},
                ["ate", "--network", str(bad), "--out", str(out)],
                "the network's dag has undirected edges",
            ),
            "network-table-of-strings": (
                with_cpd("X0", [["a", "b", "c"]]), sample, not_numbers
            ),
            "network-table-object": (with_cpd("X0", {}), sample, not_numbers),
            "network-table-of-numeric-strings": (
                with_cpd("X0", [["0.5", "0.5"]]), sample, not_numbers
            ),
            "network-table-of-bools": (
                with_cpd("X0", [[True, False]]), sample, not_numbers
            ),
            "network-cpd-not-in-dag": (
                with_cpd("ZZZ", [[1.0]]),
                sample,
                "CPD for ZZZ, which the dag does not have",
            ),
            "network-table-mixes-floats-and-bools": (
                with_cpd("X0", [[0.0, True]]), sample, not_numbers
            ),
            "network-table-mixes-ints-and-bools": (
                with_cpd("X0", [[0, True]]), sample, not_numbers
            ),
            "network-parents-not-a-list": (
                {**net, "cpds": {
                    **net["cpds"], "X0": {"parents": "", "table": [[0.5, 0.5]]}
                }},
                sample,
                "CPD parents for X0 are not a list",
            ),
            "scheme-states-a-string": (
                scheme("A", "xy", ["0", "1"]), ingest, not_strings("'A'")
            ),
            "scheme-states-not-strings": (
                scheme("A", ["x", "y"], [1, 2]), ingest, not_strings("'B'")
            ),
            "scheme-name-not-a-string": (
                scheme(5, ["x", "y"], ["1", "2"]), ingest, not_strings("5")
            ),
            "scheme-repeated-state": (
                scheme("A", ["x", "x"], ["0", "1"]),
                ingest,
                "not a variable list of name/states objects "
                f"({ValueError(repeated_state)!r})",
            ),
            "scheme-state-read-as-missing": (
                scheme("A", ["NA", "x"], ["0", "1"]),
                ingest,
                "not a variable list of name/states objects "
                f"({ValueError(read_as_missing)!r})",
            ),
            "scheme-state-with-surrounding-space": (
                scheme("A", [" x", "y"], ["0", "1"]),
                ingest,
                "not a variable list of name/states objects "
                f"({ValueError(stripped_state)!r})",
            ),
            "scheme-name-with-surrounding-space": (
                scheme("A ", ["x", "y"], ["0", "1"]),
                ingest,
                "not a variable list of name/states objects "
                f"({ValueError(stripped_name)!r})",
            ),
            "csv-repeated-column": (
                "A,B,A\nx,0,y\n",
                ["--scheme", str(ab_scheme), "ingest", "--csv", str(bad), "--out", str(out)],
                "repeated columns: ['A']",
            ),
            "network-table-1-d": (
                with_cpd("X0", [0.5, 0.5]), sample, "CPD table must be 2-D"
            ),
            "network-table-wrong-shape": (
                with_cpd("X0", [[0.25, 0.25, 0.5]]),
                sample,
                "CPD for X0 has shape (1, 3), expected (1, 2)",
            ),
            "replay-completion-a-number": (
                {"prompt": single, "completion": 5}, elicit, not_a_replay
            ),
            "replay-completion-null": (
                {"prompt": single, "completion": None}, elicit, not_a_replay
            ),
            "replay-prompt-a-number": (
                {"prompt": 5, "completion": "AGE can affect the SMOKING."},
                elicit,
                not_a_replay,
            ),
            "replay-prompt-with-two-completions": (
                "".join(
                    json.dumps({"prompt": single, "completion": c}) + "\n"
                    for c in ("AGE can affect the SMOKING.", "none")
                ),
                elicit,
                "lines 1 and 2: one prompt with two different completions",
            ),
        }[case]
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1
        if message is not None:
            assert err == f"error: {bad}: {message}\n"
        assert not out.exists()


class TestConsoleScript:
    def test_entry_point_in_pyproject_runs_the_cli(self, monkeypatch, capsys):
        # pyproject.toml's [project.scripts] names the function that the
        # installed `causalkit` command calls.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]\n", 1)[1]
        target = re.match(r'causalkit = "([^"]+)"\n', scripts).group(1)
        module, _, name = target.partition(":")
        main = getattr(import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["causalkit", "--help"])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: causalkit")


class TestCohort:
    def test_writes_csv_with_default_size(self, tmp_path, capsys):
        out = tmp_path / "cohort.csv"
        assert dispatch(["cohort", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == list(nsclc.SCHEME.names)
        assert len(lines) == nsclc.COHORT_SIZE + 1

    def test_seed_flag_after_subcommand(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        dispatch(["cohort", "--out", str(a), "--seed", "9"])
        dispatch(["--seed", "9", "cohort", "--out", str(b)])
        dispatch(["cohort", "--out", str(c), "--seed", "10"])
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9}))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        dispatch(["cohort", "--out", str(a), "--config", str(config)])
        dispatch(["cohort", "--out", str(b), "--seed", "9"])
        dispatch(["cohort", "--out", str(c), f"--config={config}"])
        assert a.read_text() == b.read_text() == c.read_text()

    def test_global_flag_beats_config(self, tmp_path):
        config = tmp_path / "s9.json"
        config.write_text(json.dumps({"seed": 9}))
        a, b, c, d = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv", "d.csv"))
        cohort = ["cohort", "--n", "20", "--out"]
        assert dispatch(["--seed", "5", *cohort, str(a), "--config", str(config)]) == 0
        assert dispatch(["--config", str(config), "--seed", "5", *cohort, str(b)]) == 0
        assert dispatch([*cohort, str(c), "--seed", "5"]) == 0
        assert dispatch([*cohort, str(d), "--seed", "9"]) == 0
        assert a.read_text() == b.read_text() == c.read_text() != d.read_text()

    def test_config_sets_subcommand_options(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 12}))
        out = tmp_path / "a.csv"
        assert dispatch(["cohort", "--out", str(out), "--config", str(config)]) == 0
        assert len(out.read_text().splitlines()) == 13
        argv = ["cohort", "--out", str(out), "--n", "7", "--config", str(config)]
        assert dispatch(argv) == 0
        assert len(out.read_text().splitlines()) == 8

    def test_config_supplies_required_option(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"out": "x.csv"}))
        assert dispatch(["cohort", "--config", "c.json"]) == 0
        assert dispatch(["cohort", "--out", "y.csv"]) == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert dispatch(["cohort", "--config", "c.json", "--out", "z.csv"]) == 0
        assert (tmp_path / "z.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        (tmp_path / "x.csv").unlink()
        assert dispatch(["cohort", "--out", "z.csv", "--config", "c.json"]) == 0
        assert not (tmp_path / "x.csv").exists()


class TestIngestAndSample:
    def test_ingest_round_trip(self, workdir):
        out = workdir / "encoded.csv"
        code = dispatch(
            ["ingest", "--csv", str(workdir / "data.csv"), "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == (workdir / "data.csv").read_text()

    def test_byte_order_mark_is_read_as_encoding(self, workdir, capsys, monkeypatch):
        # Spreadsheets save "CSV UTF-8" with a UTF-8 byte-order mark first.
        text = (workdir / "data.csv").read_bytes()
        streams, written = [], []
        for mark in (b"", "\ufeff".encode()):
            run = workdir / ("marked" if mark else "plain")
            run.mkdir()
            (run / "data.csv").write_bytes(mark + text)
            (run / "config.json").write_bytes(mark + b'{"out": "out.csv"}')
            monkeypatch.chdir(run)
            argv = ["--config", "config.json", "ingest", "--csv", "data.csv"]
            assert dispatch(argv) == 0
            streams.append(capsys.readouterr())
            written.append((run / "out.csv").read_bytes())
        assert streams[0] == streams[1]
        assert written[0] == written[1] == text

    def test_sample_from_network_file(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(reference_network().to_json())
        out = tmp_path / "sampled.csv"
        code = dispatch(
            ["sample", "--network", str(net_path), "--n", "50", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 51


class TestElicit:
    def test_pairwise_replay(self, tmp_path):
        out = tmp_path / "graph.json"
        transcript = tmp_path / "transcript.jsonl"
        code = dispatch(
            [
                "elicit",
                "--strategy",
                "pairwise",
                "--out-graph",
                str(out),
                "--out-transcript",
                str(transcript),
            ]
        )
        assert code == 0
        dag = parse_graph_json(out.read_text())
        assert isinstance(dag, Dag)
        assert len(transcript.read_text().splitlines()) == 153

    def test_single_replay_gives_v1(self, tmp_path):
        out = tmp_path / "graph.json"
        code = dispatch(
            ["elicit", "--strategy", "single", "--out-graph", str(out)]
        )
        assert code == 0
        dag = parse_graph_json(out.read_text())
        assert dag.edges == nsclc.v1_dag().edges

    def test_replay_file_flag(self, tmp_path):
        from causalkit import fixtures
        from causalkit.llm import transcript_line

        replay = tmp_path / "replay.jsonl"
        exchanges = fixtures.replay_backend()._exchanges
        replay.write_text(
            "".join(transcript_line(p, c, 0.0) for p, c in exchanges.items())
        )
        out = tmp_path / "graph.json"
        code = dispatch(
            [
                "elicit",
                "--strategy",
                "single",
                "--replay-file",
                str(replay),
                "--out-graph",
                str(out),
            ]
        )
        assert code == 0

    def test_http_backend_requires_url(self, tmp_path):
        code = dispatch(
            [
                "elicit",
                "--strategy",
                "single",
                "--backend",
                "http",
                "--out-graph",
                str(tmp_path / "g.json"),
            ]
        )
        assert code == 1  # a missing option is a usage error


class TestRefine:
    def test_bundled_replay_session_in_process(self, tmp_path, capsys, monkeypatch):
        from causalkit import fixtures

        first, second, third, fourth = fixtures.REFINEMENT_CORRECTIONS
        lines = [first, "", second, "no such correction was recorded", third, fourth]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines + [":done"])))
        out = tmp_path / "v5.json"
        assert dispatch(["refine", "--out-graph", str(out)]) == 0
        captured = capsys.readouterr()
        printed = captured.out.splitlines()
        assert printed[0] == "current edges:"
        assert "  + AGE -> SMOKING" in printed
        assert "  - KRAS -> STAGEGROUP" in printed
        assert "  + SMOKING -> KRAS" in printed
        assert "  + TREATMENTPLAN -> SURVIVALMONTHS" in printed
        assert printed[-1] == f"wrote {out}"
        [rejected] = captured.err.splitlines()
        assert rejected.startswith("correction rejected: ")
        assert parse_graph_json(out.read_text()).edges == nsclc.v5_dag().edges


class TestScoreFitAte:
    def test_score_table_output(self, workdir, capsys):
        code = dispatch(
            [
                "score",
                "--graph",
                str(workdir / "v1.json"),
                "--data",
                str(workdir / "data.csv"),
                "--ess",
                "5,10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("wrote")]
        assert lines[0].startswith("Equivalent sample Size")
        assert lines[1].startswith("5") and lines[2].startswith("10")

    def test_fit_then_ate_grid(self, workdir, capsys):
        net_path = workdir / "net.json"
        assert (
            dispatch(
                [
                    "fit",
                    "--graph",
                    str(workdir / "v1.json"),
                    "--data",
                    str(workdir / "data.csv"),
                    "--out",
                    str(net_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        grid_path = workdir / "grid.csv"
        assert (
            dispatch(
                ["ate", "--network", str(net_path), "--grid", "--out", str(grid_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("Treatment Category")
        rows = grid_path.read_text().splitlines()
        assert rows[0].split(",")[1:] == list(
            ("KRAS", "EGFR", "FGFR1", "ALK", "MET", "PIK3CA", "BRAF", "RET")
        )
        assert len(rows) == 4

    def test_ate_grid_flag_changes_nothing(self, workdir, capsys):
        net_path = workdir / "net.json"
        fit = ["fit", "--graph", str(workdir / "v1.json"), "--data",
               str(workdir / "data.csv"), "--out", str(net_path)]
        assert dispatch(fit) == 0
        capsys.readouterr()
        outputs = []
        for flag in (["--grid"], []):
            out = workdir / f"ate{len(flag)}.csv"
            assert dispatch(["ate", "--network", str(net_path), *flag, "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "ate.csv")
            outputs.append((out.read_bytes(), stdout))
        assert outputs[0] == outputs[1]

    def test_network_with_nan_is_2(self, workdir, capsys):
        net_path, bad = workdir / "net.json", workdir / "bad.json"
        fit = ["fit", "--graph", str(workdir / "v1.json"), "--data",
               str(workdir / "data.csv"), "--out", str(net_path)]
        assert dispatch(fit) == 0
        payload = json.loads(net_path.read_text())
        name = next(iter(payload["cpds"]))
        payload["cpds"][name]["table"][0][0] = float("nan")
        bad.write_text(json.dumps(payload))
        assert "NaN" in bad.read_text()
        capsys.readouterr()
        assert dispatch(["ate", "--network", str(bad), "--out", str(workdir / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: CPD table for {name} is not finite\n"
        assert not (workdir / "o.csv").exists()

    def test_ate_needs_network_or_graph(self):
        assert dispatch(["ate"]) == 1  # a missing option is a usage error

    def test_compare_two_graphs(self, workdir, capsys):
        v5 = workdir / "v5.json"
        v5.write_text(serialize_graph(nsclc.v5_dag(), "json"))
        code = dispatch(
            [
                "compare",
                "--graphs",
                str(workdir / "v1.json"),
                str(v5),
                "--data",
                str(workdir / "data.csv"),
            ]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "v1" in header and "v5" in header

    @pytest.mark.parametrize("command", ["score", "compare"])
    def test_ess_rows_are_sorted_and_distinct(self, workdir, capsys, command):
        v1, v5 = workdir / "v1.json", workdir / "v5.json"
        v5.write_text(serialize_graph(nsclc.v5_dag(), "json"))
        graphs = ["--graph", str(v1)]
        if command == "compare":
            graphs = ["--graphs", str(v1), str(v5)]
        data = ["--data", str(workdir / "data.csv")]
        printed = []
        for ess in ("15,5,5", "5,15"):
            argv = [command, *graphs, *data, "--ess", ess]
            assert dispatch(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert [line.split()[0] for line in printed[0].splitlines()[1:]] == ["5", "15"]

    def test_compare_rejects_two_graph_files_with_one_stem(self, workdir, capsys):
        # One column per stem: b/g.json's scores would stand in for a/g.json's.
        first, second = workdir / "a" / "g.json", workdir / "b" / "g.json"
        for path, dag in ((first, nsclc.v1_dag()), (second, nsclc.v5_dag())):
            path.parent.mkdir()
            path.write_text(serialize_graph(dag, "json"))
        graphs = ["--graphs", str(first), str(second)]
        assert dispatch(["compare", *graphs, "--data", str(workdir / "data.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {first} and {second} would share column 'g'\n"


class TestDiscover:
    def test_pc_writes_graph(self, workdir, capsys):
        out = workdir / "pc.json"
        code = dispatch(
            [
                "discover",
                "--algo",
                "pc",
                "--data",
                str(workdir / "data.csv"),
                "--out",
                str(out),
                "--max-cond-size",
                "1",
            ]
        )
        assert code == 0
        graph = parse_graph_json(out.read_text())
        assert isinstance(graph, (Dag, Pdag))
        assert "warning:" not in capsys.readouterr().err

    def test_notears_writes_dot(self, workdir):
        out = workdir / "nt.dot"
        code = dispatch(
            [
                "discover",
                "--algo",
                "notears",
                "--data",
                str(workdir / "data.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("digraph G {")

    def test_notears_zero_edges_warns(self, workdir, caplog):
        out = workdir / "nt.json"
        argv = ["discover", "--algo", "notears", "--data", str(workdir / "data.csv")]
        with caplog.at_level("WARNING", logger="causalkit"):
            assert dispatch(argv + ["--out", str(out), "--w-threshold", "100"]) == 0
        assert out.read_text() == serialize_graph(Dag(nsclc.SCHEME), "json")
        assert [r.getMessage() for r in caplog.records] == [
            "NOTEARS learned 0 edges (largest |w| 0.44 is below w_threshold 100)"
        ]

    def test_notears_zero_edges_warning_reaches_stderr(self, workdir):
        # Under pytest the log records go to its own handlers, so only a
        # fresh process shows what logging's last-resort handler prints.
        src = str(Path(causalkit.__file__).resolve().parents[1])
        argv = ["discover", "--algo", "notears", "--data", "data.csv"]
        proc = subprocess.run(
            [sys.executable, "-m", "causalkit.cli", *argv, "--out", "nt.json",
             "--w-threshold", "100"],
            capture_output=True,
            text=True,
            cwd=workdir,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0 and proc.stdout == "wrote nt.json\n"
        assert proc.stderr == (
            "NOTEARS learned 0 edges (largest |w| 0.44 is below w_threshold 100)\n"
        )


class TestExportDot:
    def test_export(self, workdir, capsys):
        out = workdir / "v1.dot"
        code = dispatch(
            ["export-dot", "--graph", str(workdir / "v1.json"), "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert '"AGE" -> "TREATMENTPLAN";' in text


class TestImports:
    SCRIPT = textwrap.dedent(
        """
        import io, json, sys
        from causalkit import fixtures
        from causalkit.cli import dispatch

        def loaded(*names):
            return sorted(
                m for m in sys.modules
                if any(m == n or m.startswith(n + ".") for n in names)
            )

        graph, data, out = sys.argv[1:]
        seen = {"import": loaded("numpy", "scipy", *(f"causalkit.{m}" for m in
                                                     ("notears", "pc", "scoring")))}
        for strategy in ("single", "pairwise"):
            argv = ["elicit", "--strategy", strategy, "--out-graph", out + ".g.json"]
            assert dispatch(argv) == 0
            seen[f"elicit-{strategy}"] = loaded("numpy")
        corrections = [*fixtures.REFINEMENT_CORRECTIONS, ":done"]
        sys.stdin = io.StringIO("\\n".join(corrections) + "\\n")
        assert dispatch(["refine", "--out-graph", out + ".v5.json"]) == 0
        seen["refine"] = loaded("numpy")
        assert dispatch(["export-dot", "--graph", graph, "--out", out + ".dot"]) == 0
        seen["export-dot"] = loaded("numpy", "scipy")
        argv = ["fit", "--graph", graph, "--data", data, "--out", out + ".json"]
        assert dispatch(argv) == 0
        seen["fit"] = loaded("scipy")
        argv = ["score", "--graph", graph, "--data", data, "--ess", "5,10"]
        assert dispatch(argv) == 0
        seen["score"] = loaded("scipy")
        assert dispatch(["compare", "--graphs", graph, graph, "--data", data]) == 0
        seen["compare"] = loaded("scipy")
        argv = ["discover", "--algo", "pc", "--data", data, "--max-cond-size", "1"]
        assert dispatch(argv + ["--out", out + ".pc.json"]) == 0
        seen["pc"] = loaded("scipy.linalg", "scipy.optimize")
        seen["pc-ran"] = loaded("causalkit.pc", "scipy.special") != []
        print(json.dumps(seen))
        """
    )

    def test_each_subcommand_imports_only_what_it_runs(self, workdir):
        src = str(Path(causalkit.__file__).resolve().parents[1])
        argv = [str(workdir / name) for name in ("v1.json", "data.csv", "out")]
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {
            "import": [], "elicit-single": [], "elicit-pairwise": [], "refine": [],
            "export-dot": [], "fit": [], "score": [], "compare": [],
            "pc": [], "pc-ran": True,
        }


class TestDeterminism:
    def test_pipeline_byte_identical_across_runs(self, tmp_path):
        def run(base: Path):
            base.mkdir(exist_ok=True)
            cohort = base / "cohort.csv"
            graph = base / "graph.json"
            table = base / "scores.txt"
            dispatch(["cohort", "--out", str(cohort), "--seed", "3"])
            dispatch(
                ["elicit", "--strategy", "single", "--out-graph", str(graph)]
            )
            dispatch(
                [
                    "score",
                    "--graph",
                    str(graph),
                    "--data",
                    str(cohort),
                    "--out",
                    str(table),
                ]
            )
            return (
                cohort.read_bytes(),
                graph.read_bytes(),
                table.read_bytes(),
            )

        assert run(tmp_path / "a") == run(tmp_path / "b")
