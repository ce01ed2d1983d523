"""Scripts under tools/ that read the test modules stay in step with them."""

import ast
import importlib
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "false_alarm_sweep.py"


def test_false_alarm_sweep_reads_existing_test_helpers():
    # the sweep is not collected by pytest, so renaming a helper it reads
    # (est.simulate_ou, dif.SLABS, conftest.family_checks, ...) would break
    # it silently
    tree = ast.parse(SWEEP.read_text())
    nodes = list(ast.walk(tree))
    modules = {alias.asname or alias.name: alias.name
               for node in nodes if isinstance(node, ast.Import)
               for alias in node.names if alias.name.startswith("test_")}
    used = {(modules[node.value.id], node.attr) for node in nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    used |= {(node.module, alias.name) for node in nodes
             if isinstance(node, ast.ImportFrom) and node.module == "conftest"
             for alias in node.names}
    assert {"test_diffusion", "test_estimators"} <= {m for m, _ in used}
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(module), name))
    assert not missing
