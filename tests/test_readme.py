"""The README's "Library use" example runs verbatim against the library."""

import math
import re

from tests.conftest import REPO_ROOT


def library_use_block() -> str:
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under 'Library use'"
    return match.group(1)


def test_library_use_example_runs_verbatim(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)  # the example loads configs/demo.json
    exec(compile(library_use_block(), "README.md", "exec"), {"__name__": "readme"})
    d_max, t_life_hours = (float(x) for x in capsys.readouterr().out.split())
    assert d_max > 0.0
    assert math.isfinite(t_life_hours) and t_life_hours > 0.0
