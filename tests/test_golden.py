"""Pinned outputs of the CLI pipeline, byte for byte.

The steps run in process through `cli.dispatch`: the README pipeline on a
326-row cohort (V1 from the single prompt, the pairwise draft, PC and
NOTEARS), then the V5 path (`refine` with the recorded corrections, `fit`
of V5 to a network file, and `ate` with V5 fitted in memory).  Each output
is held here as its text, when short, or as its SHA-256 digest.  What is
pinned is portable across x86-64 CPUs at a fixed numpy and scipy: Philox
draws and comparisons, graph files, IEEE add and divide written with
`repr`, and tables printed to 2 or 6 decimals.  NOTEARS' weights pass
through BLAS and L-BFGS-B, so only its edge set is pinned.  The V1 network
file is pinned twice, by the file and by the bits of the tables read back
from it, so that a change of layout alone shows as a change of the file
digest only.

A change that alters a pinned output on purpose updates its entry here and
says why in CHANGES.md.  An entry is never updated to let a defect pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

import numpy as np
import pytest

from causalkit import fixtures
from causalkit.bayesnet import BayesianNetwork
from causalkit.cli import dispatch
from causalkit.graph import parse_graph_json

STEPS = (
    ("cohort", ["cohort", "--n", "326", "--seed", "1", "--out", "cohort.csv"]),
    ("elicit-single", ["elicit", "--strategy", "single", "--out-graph", "v1.json"]),
    ("elicit-pairwise",
     ["elicit", "--strategy", "pairwise", "--out-graph", "pairwise.json"]),
    ("refine", ["refine", "--out-graph", "v5.json"]),
    ("discover-pc",
     ["discover", "--algo", "pc", "--data", "cohort.csv", "--out", "pc.json"]),
    ("discover-notears",
     ["discover", "--algo", "notears", "--data", "cohort.csv",
      "--out", "notears.json"]),
    ("score", ["score", "--graph", "v1.json", "--data", "cohort.csv",
               "--out", "score.txt"]),
    ("fit", ["fit", "--graph", "v1.json", "--data", "cohort.csv", "--ess", "10",
             "--out", "network.json"]),
    ("ate", ["ate", "--network", "network.json", "--grid", "--out", "ate.csv"]),
    ("sample", ["sample", "--network", "network.json", "--n", "2000", "--seed", "3",
                "--out", "sample.csv"]),
    ("compare", ["compare", "--graphs", "v1.json", "pairwise.json", "v5.json",
                 "notears.json", "--data", "cohort.csv"]),
    ("fit-v5", ["fit", "--graph", "v5.json", "--data", "cohort.csv", "--ess", "10",
                "--out", "network_v5.json"]),
    ("ate-v5", ["ate", "--graph", "v5.json", "--data", "cohort.csv", "--ess", "10",
                "--out", "ate_v5.csv"]),
)

CORRECTIONS = "".join(f"{c}\n" for c in (*fixtures.REFINEMENT_CORRECTIONS, ":done"))


def run_pipeline(workdir) -> dict[str, str]:
    """Run STEPS in workdir; each step's stdout by step name."""
    stdouts = {}
    cwd, stdin = os.getcwd(), sys.stdin
    try:
        os.chdir(workdir)
        for step, argv in STEPS:
            sys.stdin = io.StringIO(CORRECTIONS if step == "refine" else "")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = dispatch(argv)
            assert code == 0, f"{step}: exited {code}"
            stdouts[step] = out.getvalue()
    finally:
        os.chdir(cwd)
        sys.stdin = stdin
    return stdouts


def _table_bits(text: str) -> str:
    """Digest of each CPD's child, parents, shape, dtype and table bytes."""
    net = BayesianNetwork.from_json(text)
    digest = hashlib.sha256()
    for name in net.scheme.names:
        cpd = net.cpds[name]
        table = np.ascontiguousarray(cpd.table)
        digest.update(repr((name, cpd.parents, table.shape, table.dtype.str)).encode())
        digest.update(table.tobytes())
    return digest.hexdigest()


def _edges(text: str) -> str:
    graph = parse_graph_json(text)
    names = graph.scheme.names
    return "".join(f"{names[u]} -> {names[v]}\n" for u, v in sorted(graph.edges))


READ = {
    "text": lambda text: text,
    "sha256": lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest(),
    "tables": _table_bits,
    "edges": _edges,
}


def observe(workdir, stdouts, step, item, kind) -> str:
    """The pinned form (`kind`) of a step's stdout or of a file it wrote."""
    if item == "stdout":
        text = stdouts[step]
    else:
        with open(workdir / item, encoding="utf-8", newline="") as fh:
            text = fh.read()
    return READ[kind](text)


# (step, stdout or a file it wrote, how it is read, pinned value).  NOTEARS
# learns no edge on this cohort.
PINNED = (
    ('cohort', 'stdout', 'text',
     'wrote cohort.csv\n'),
    ('cohort', 'cohort.csv', 'sha256',
     '90e7aab272c00939d6a6f2e1bd77a7044ea24e2ca9cbedd2893cdd3f43273b73'),
    ('elicit-single', 'stdout', 'text',
     'wrote v1.json\n'),
    ('elicit-single', 'v1.json', 'sha256',
     '76ed30a38f49f212fb7952f7d709b301890eab29ff10035bfb4f0bf574b1d45d'),
    ('elicit-pairwise', 'stdout', 'text',
     'wrote pairwise.json\n'),
    ('elicit-pairwise', 'pairwise.json', 'sha256',
     '470a6de3283c98e284af974ff98e88df3255aa3c2c91250ee098519985dcdc57'),
    ('refine', 'stdout', 'sha256',
     '7593ddb24b5e4fceb69256b1df301b28f2120dcb6576921a89a2a62567ecd3bb'),
    ('refine', 'v5.json', 'sha256',
     '22fdca63296dd3a1ac6322066fe6d0434f96d2f528fc7fe86183f27f641caf38'),
    ('discover-pc', 'stdout', 'text',
     'wrote pc.json\n'),
    ('discover-pc', 'pc.json', 'sha256',
     '579dbf73d8e20ec93d61b463a21918df4021ae58bfc59ae5d6482babd1e81f68'),
    ('discover-notears', 'stdout', 'text',
     'wrote notears.json\n'),
    ('discover-notears', 'notears.json', 'edges',
     ''),
    (
        'score', 'stdout', 'text',
        'Equivalent sample Size  v1\n'
        '5                       -4651.59\n'
        '10                      -4598.35\n'
        '15                      -4573.83\n'
        'wrote score.txt\n'
    ),
    (
        'score', 'score.txt', 'text',
        'Equivalent sample Size  v1\n'
        '5                       -4651.59\n'
        '10                      -4598.35\n'
        '15                      -4573.83\n'
    ),
    ('fit', 'stdout', 'text',
     'wrote network.json\n'),
    ('fit', 'network.json', 'sha256',
     '9616a02e82fd1e8e26ce6a0c971d58b2059dad6738447f330e4bd7a0a676a40b'),
    ('fit', 'network.json', 'tables',
     '7ce9b7fcdb01b06eb298f8f3cb0f4eabee974daadb4e3624367073e1ad34bfb7'),
    (
        'ate', 'stdout', 'text',
        'Treatment Category  KRAS      EGFR      FGFR1     ALK       MET       PIK3CA    BRAF      RET\n'
        'Chemotherapy        0.000000  0.000000  0.000000  0.000000  0.000000  0.000000  0.000000  0.000000\n'
        'Targeted Therapy    0.000000  0.000000  0.000000  0.000000  0.000000  0.000000  0.000000  0.000000\n'
        'Immunotherapy       0.000000  0.000000  0.000000  0.000000  0.000000  0.000000  0.000000  0.000000\n'
        'wrote ate.csv\n'
    ),
    (
        'ate', 'ate.csv', 'text',
        'Treatment Category,KRAS,EGFR,FGFR1,ALK,MET,PIK3CA,BRAF,RET\n'
        'Chemotherapy,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n'
        'Targeted Therapy,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n'
        'Immunotherapy,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n'
    ),
    ('sample', 'stdout', 'text',
     'wrote sample.csv\n'),
    ('sample', 'sample.csv', 'sha256',
     '78480ddb3f8d8f41aaf7ee5cee2a9941da17b29873d03285fa3641d3af838ea6'),
    (
        'compare', 'stdout', 'text',
        'Equivalent sample Size  v1        pairwise  v5        notears\n'
        '5                       -4651.59  -3791.91  -4308.59  -3730.13\n'
        '10                      -4598.35  -3788.87  -4254.29  -3743.66\n'
        '15                      -4573.83  -3796.39  -4232.57  -3759.89\n'
    ),
    ('fit-v5', 'stdout', 'text',
     'wrote network_v5.json\n'),
    ('fit-v5', 'network_v5.json', 'sha256',
     '88844bd78d4f12086a93d1c676077de469f021265f444b9719aab0f92f451be6'),
    (
        'ate-v5', 'stdout', 'text',
        'Treatment Category  KRAS       EGFR      FGFR1      ALK        MET        PIK3CA     BRAF       RET\n'
        'Chemotherapy        -0.004358  0.005840  -0.004345  -0.019168  -0.001102  -0.018065  -0.002024  -0.027058\n'
        'Targeted Therapy    0.001098   0.002678  -0.004549  -0.015575  -0.003443  -0.016858  -0.001086  -0.013496\n'
        'Immunotherapy       0.000965   0.004678  -0.004560  -0.014099  0.000197   -0.015051  -0.001086  -0.020598\n'
        'wrote ate_v5.csv\n'
    ),
    (
        'ate-v5', 'ate_v5.csv', 'text',
        'Treatment Category,KRAS,EGFR,FGFR1,ALK,MET,PIK3CA,BRAF,RET\n'
        'Chemotherapy,-0.004358,0.005840,-0.004345,-0.019168,-0.001102,-0.018065,-0.002024,-0.027058\n'
        'Targeted Therapy,0.001098,0.002678,-0.004549,-0.015575,-0.003443,-0.016858,-0.001086,-0.013496\n'
        'Immunotherapy,0.000965,0.004678,-0.004560,-0.014099,0.000197,-0.015051,-0.001086,-0.020598\n'
    ),
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, run_pipeline(workdir)


@pytest.mark.parametrize(
    "step, item, kind, expected",
    PINNED,
    ids=[f"{step}-{item}-{kind}" for step, item, kind, _ in PINNED],
)
def test_output_is_pinned(pipeline, step, item, kind, expected):
    workdir, stdouts = pipeline
    observed = observe(workdir, stdouts, step, item, kind)
    assert observed == expected, f"{step}: {item} ({kind}) differs from its pin"


def test_every_step_and_file_is_pinned(pipeline):
    workdir, _ = pipeline
    pinned_steps = {step for step, *_ in PINNED}
    pinned_files = {item for _, item, *_ in PINNED if item != "stdout"}
    assert pinned_steps == {step for step, _ in STEPS}
    assert pinned_files == {p.name for p in workdir.iterdir()}
