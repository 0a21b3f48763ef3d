"""Structurally mutated input files fed to the CLI.

Whatever a scheme, graph, network, CSV or config file holds, a command exits
0, 1 or 2 without a traceback, and a failing command prints exactly one
`error:` line.  Each file is a mutation of a valid one over a 3-variable
`--scheme`; the other files stay valid, so a command reaches the one under
test.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit.cli import dispatch
from causalkit.data import write_csv
from causalkit.graph import Dag, VariableScheme, serialize_graph
from causalkit.synth import random_network, sample_from_network

SCHEME = VariableScheme.of(
    [
        ("AGE", ("<65", "65-75", ">=75")),
        ("SMOKING", ("Non-Smoker", "Smoker")),
        ("X", ("a", "b")),
    ]
)
NETWORK = random_network(
    Dag.from_names(SCHEME, [("AGE", "SMOKING"), ("SMOKING", "X")]), seed=1
)
_ROWS = write_csv(sample_from_network(NETWORK, 12, seed=0)).splitlines()
_ROWS[1:4] = ["70,Smoker,a", "NA,Smoker,b", "64.5,Non-Smoker,a"]

# The valid content of each file but the config, which names the others.
VALID = {
    "scheme": {"variables": json.loads(serialize_graph(Dag(SCHEME)))["variables"]},
    "graph": json.loads(serialize_graph(NETWORK.dag)),
    "network": json.loads(NETWORK.to_json()),
    "csv": [row.split(",") for row in _ROWS],
}

# What a mutation puts in place of a JSON node or a CSV cell, and the names
# it gives a JSON key.
JSON_VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, 2, 99, 10**30, 0.5, -0.5, 1e308, float("nan"),
     "", "a", "AGE", "5,10", [], {}, [0], [0, 1], [[0, 1]], [["a"]], {"a": 1}]
)
CSV_CELLS = st.sampled_from(
    ["", "NA", "nan", "70", " 70 ", "64.99", "-1", "1e999", "inf", "-inf",
     "65-75", ">=75", "Smoker", "a", "b", "AGE", "X", "x", '"', "a,b", "é"]
)
JSON_KEYS = st.sampled_from(
    ["variables", "name", "states", "directed", "undirected", "dag", "cpds",
     "parents", "table", "AGE", "ZZZ", "seed", "n", "alpha", "ess", "variant",
     "graphs", "grid", "max_cond_size", "data", "config", "scheme", "bogus"]
)

COMMANDS = {
    "scheme": [
        ["export-dot", "--graph", "{graph}", "--out", "{out}"],
        ["ingest", "--csv", "{csv}", "--out", "{out}"],
    ],
    "graph": [
        ["export-dot", "--graph", "{graph}", "--out", "{out}"],
        ["score", "--graph", "{graph}", "--data", "{csv}", "--ess", "1"],
        ["fit", "--graph", "{graph}", "--data", "{csv}", "--out", "{out}"],
    ],
    "network": [
        ["sample", "--network", "{network}", "--n", "3", "--out", "{out}"],
        ["ate", "--network", "{network}"],
    ],
    "csv": [
        ["ingest", "--csv", "{csv}", "--out", "{out}"],
        ["discover", "--algo", "pc", "--data", "{csv}", "--out", "{out}"],
        ["discover", "--algo", "notears", "--data", "{csv}", "--out", "{out}",
         "--max-iter", "2"],
        ["score", "--graph", "{graph}", "--data", "{csv}", "--ess", "1"],
    ],
    "config": [
        ["discover", "--algo", "pc", "--out", "{out}", "--config", "{config}"],
        ["score", "--config", "{config}"],
    ],
}


def mutate(data, node, leaves):
    """A copy of node, a JSON value or a CSV's rows of cells, with one part
    replaced by a draw from leaves, deleted, duplicated or renamed."""
    actions = ["replace"]
    if node and isinstance(node, (list, dict)):
        actions += ["descend"] * 6 + ["delete"]
        actions.append("rename" if isinstance(node, dict) else "duplicate")
    action = data.draw(st.sampled_from(actions))
    if action == "replace":
        return data.draw(leaves)
    keys = list(node) if isinstance(node, dict) else range(len(node))
    key, copy = data.draw(st.sampled_from(keys)), node.copy()
    if action == "descend":
        copy[key] = mutate(data, node[key], leaves)
    elif action == "delete":
        del copy[key]
    elif action == "duplicate":
        copy.insert(key, node[key])
    else:
        copy[data.draw(JSON_KEYS)] = copy.pop(key)
    return copy


def csv_text(rows) -> str:
    rows = rows if isinstance(rows, list) else [rows]
    return "".join((",".join(r) if isinstance(r, list) else r) + "\n" for r in rows)


@pytest.mark.parametrize("kind", list(COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_file_exits_0_1_or_2_with_one_error_line(kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / name) for name in [*COMMANDS, "out"]}
        files = {**VALID, "config": {
            "seed": 1, "alpha": 0.05, "max_cond_size": 1, "ess": "5,10",
            "variant": "paper", "data": paths["csv"], "graph": paths["graph"],
        }}
        leaves = CSV_CELLS if kind == "csv" else JSON_VALUES
        for _ in range(data.draw(st.integers(1, 3))):
            files[kind] = mutate(data, files[kind], leaves)
        for name, content in files.items():
            text = csv_text(content) if name == "csv" else json.dumps(content)
            Path(paths[name]).write_text(text, encoding="utf-8")
        command = data.draw(st.sampled_from(COMMANDS[kind]))
        argv = ["--scheme", paths["scheme"], *(a.format(**paths) for a in command)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = dispatch(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
