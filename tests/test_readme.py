"""The README's library example and CLI block run as written."""

import io
import re
import shlex
import sys
from pathlib import Path

from causalkit.cli import dispatch
from causalkit.intervention import MUTATION_COLUMNS, TREATMENT_ROWS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["Treatment", "Category", *MUTATION_COLUMNS]
    assert [line.split("  ")[0] for line in lines[1:]] == list(TREATMENT_ROWS)


def test_cli_block_runs(tmp_path, monkeypatch):
    """Each `causalkit` line of the README's sh blocks, in order, in one
    directory, with `refine` told `:done` at once; every line exits 0."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("causalkit ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        monkeypatch.setattr(sys, "stdin", io.StringIO(":done\n"))
        assert dispatch(argv) == 0, shlex.join(["causalkit", *argv])
