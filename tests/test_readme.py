"""The README's library quick start runs as written, and its figure names
are the files the CLI writes."""

import json
import math
import re
from pathlib import Path

import vifit.cli as cli

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


def test_readme_names_every_svg_the_cli_writes(tmp_path):
    tiny = {
        "rbf": {"n_basis": 3, "n_data": 8, "ranks": [0], "steps": 5, "grid_points": 5},
        "fit-gaussian": {"dim": 2, "ranks": [0], "steps": 5, "kl_mc_samples": 100},
    }
    written = set()
    for command, doc in tiny.items():
        cfg, out = tmp_path / f"{command}.json", tmp_path / command
        cfg.write_text(json.dumps(doc))
        assert cli.main([command, "--config", str(cfg), "--out", str(out), "--formats", "svg"]) == 0
        written |= {path.name for path in out.glob("*.svg")}
    assert set(re.findall(r"[\w-]+\.svg", README.read_text())) == written
