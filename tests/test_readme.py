"""The README's library example runs as written."""

import re
from pathlib import Path

from causalkit.intervention import MUTATION_COLUMNS, TREATMENT_ROWS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["Treatment", "Category", *MUTATION_COLUMNS]
    assert [line.split("  ")[0] for line in lines[1:]] == list(TREATMENT_ROWS)
