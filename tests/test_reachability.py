"""Every module-level function and class in vifit is reached by the program.

A name defined in ``src/vifit`` must appear at least once more, outside its
own definition: elsewhere in ``src/vifit``, in the benchmark's ``bench/*.py``,
or in the acceptance gate ``tests/test_acceptance.py``.  Code that only the
unit tests call is not part of what vifit does, so it fails here; a new
abstraction has to be used by the program to stay.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "vifit").glob("*.py"))
READERS = [*SOURCES, *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def defined_names() -> list:
    return [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def test_every_definition_is_used_by_the_program():
    corpus = "\n".join(path.read_text() for path in READERS)
    unused = [
        qualified
        for qualified in defined_names()
        if len(re.findall(rf"\b{re.escape(qualified.split('.')[1])}\b", corpus)) < 2
    ]
    assert not unused, f"used nowhere outside their own definition: {', '.join(unused)}"
