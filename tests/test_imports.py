"""The library needs numpy alone: ``src/signstorm`` imports nothing beyond
the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "signstorm"
ALLOWED = {*sys.stdlib_module_names, "numpy", "signstorm"}


def outside_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every absolute import whose top-level package is
    not in ALLOWED; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_library_imports_only_stdlib_numpy_and_itself():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = [f"{path.name}:{line} imports {name}" for path in paths
               for line, name in outside_imports(path.read_text(encoding="utf-8"))]
    assert not outside, outside


def test_guard_finds_every_import_form():
    source = ("import os, scipy.stats\n"
              "from sklearn.linear_model import Ridge\n"
              "from . import harness\n"
              "def f():\n"
              "    import numpy.linalg, pandas as pd\n")
    assert outside_imports(source) == [(1, "scipy.stats"), (2, "sklearn.linear_model"),
                                       (5, "pandas")]
