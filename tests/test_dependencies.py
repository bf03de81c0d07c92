"""Every import is of the standard library, numpy or this project.

A package that is installed on one machine but not declared in
pyproject.toml (scipy, say) would import fine there and fail only where
just the declared dependencies are installed, such as the CI workflow.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = {"numpy", "jensen_stab"}
# Test code also imports the test tools and perfbench's modules, by file name.
TESTS = PACKAGE | {"pytest", "hypothesis"} | {p.stem for p in (ROOT / "perfbench").glob("*.py")}


def _stray_imports(paths: list[Path], allowed: set[str]) -> list[tuple[str, str]]:
    """(file, top-level module) for every absolute import, at any depth, of
    a module that is neither standard library nor in allowed."""
    stray = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in (name.split(".")[0] for name in names):
                if top not in sys.stdlib_module_names and top not in allowed:
                    stray.append((path.name, top))
    return stray


@pytest.mark.parametrize(
    "folder, allowed", [("src/jensen_stab", PACKAGE), ("tests", TESTS), ("perfbench", TESTS)]
)
def test_every_import_is_a_declared_dependency(folder, allowed):
    paths = sorted((ROOT / folder).glob("*.py"))
    assert paths
    assert _stray_imports(paths, allowed) == []


def test_an_undeclared_import_is_found_inside_a_function(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy\n\ndef fit():\n    from scipy.optimize import minimize\n", encoding="utf-8")
    assert _stray_imports([src], PACKAGE) == [("mod.py", "scipy")]
