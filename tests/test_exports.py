"""Every exported name resolves, so a deletion cannot leave a stale export;
every export and every public module-level function or class of the
package that no code outside tests/ reaches is allowlisted with a reason,
so dead code cannot come back unnoticed; the package imports
exactly the runtime dependencies pyproject.toml names; every Python example
in README.md runs, so it cannot call a deleted name."""

import ast
import importlib
import os
import re
import subprocess
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


# public names that no code outside tests/ reaches, each with its reason
# to stay
UNREACHED_EXPORTS = {
    "comoving_current": "open ROADMAP item 5 replaces it with a geometry_diag "
                        "residual",
    "comoving_kg_residual": "test oracle of acceptance gate 08",
    "kg_residual": "test oracle of acceptance gate 08",
    "laplace_beltrami": "open ROADMAP item 3 needs it (the variational "
                        "step's Laplacian)",
    "metric_compatibility_residual": "documented in README (the patch's "
                                     "Christoffel symbols' check)",
    "osmotic_four_velocity": "documented in README; open ROADMAP item 7 "
                             "gates it (the embedded diffusion)",
    "recompute_noise": "the replay half of the reproducibility contract "
                       "in the diffusion module docstring",
    "ricci_scalar": "test oracle of acceptance gate 03 (the sphere control)",
    "stochastic_action": "open ROADMAP item 3 gates it (the variational step)",
    "unit_sphere_patch": "negative control of acceptance gate 03 (the "
                         "curved slice that must fail flatness)",
}


def _reached_names():
    """Names that code under src/, perfbench/ and tools/ loads or reads as an
    attribute, and the words of the shipped scenarios. A definition, an
    import alias or an ``__all__`` string is not a load, so a name's own
    definition and export lines do not reach it."""
    reached = set()
    for folder in ("src/comovkit", "perfbench", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    reached.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reached.add(node.attr)
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        reached.update(re.findall(r"\w+", path.read_text()))
    return reached


def _public_names():
    """The exports of ``comovkit`` and ``comovkit.dynamics``, and every
    module-level function and class of the package whose name does not
    start with an underscore."""
    names = {name for module in ("comovkit", "comovkit.dynamics")
             for name in importlib.import_module(module).__all__}
    for path in sorted((ROOT / "src" / "comovkit").glob("*.py")):
        names.update(
            node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))
    return names


def test_unreached_exports_are_allowlisted():
    # a new public name that only tests call fails here until it is gated,
    # deleted or allowlisted with a reason; a reached entry must leave
    assert sorted(_public_names() - _reached_names()) \
        == sorted(UNREACHED_EXPORTS)


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


README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(),
                           flags=re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_examples_run(block, tmp_path):
    # each fenced python block on its own, against src/, in a fresh process
    # from an empty directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", README_BLOCKS[block]], cwd=tmp_path,
                   env=env, check=True, timeout=300)


def test_readme_has_python_examples():
    assert README_BLOCKS
