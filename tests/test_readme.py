"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_readme_quick_start_prints_finite_numbers(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        value = float(line.rsplit("=", 1)[1])
        assert math.isfinite(value), line
