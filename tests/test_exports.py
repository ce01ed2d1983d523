"""Every exported name resolves, so a deletion cannot leave a stale export;
the package imports exactly the runtime dependencies pyproject.toml names."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["comovkit", "comovkit.dynamics"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_imports_match_the_declared_runtime_dependencies():
    # every absolute import anywhere in the package, deferred ones inside
    # functions too, by its top-level name, less the standard library
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                .replace("-", "_") for dep in project["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "comovkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"comovkit"}
    assert third_party == declared == {"numpy"}
