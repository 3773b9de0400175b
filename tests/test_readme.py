"""The README's Python API block runs as written and gives what its comments
say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_block_runs_as_documented():
    block = python_api_block()
    # The two lines whose comments state a result.
    assert "sol.regular, sol.solvable    # (True, True) here\n" in block
    assert "value(sol, law)              # 0.5 for this instance\n" in block
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert eval("sol.regular, sol.solvable", scope) == (True, True)
    assert eval("value(sol, law)", scope) == pytest.approx(0.5, abs=1e-9)
