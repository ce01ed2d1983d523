"""Scripts under tools/ that read the test modules stay in step with them."""

import ast
import importlib
import importlib.util
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "false_alarm_sweep.py"
GOLDEN = SWEEP.with_name("golden.py")


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


def test_golden_update_names_and_rewrites_a_changed_pin(tmp_path,
                                                        monkeypatch, capsys):
    # a pin edited by hand is reported as changed, with its old and new
    # value, and --update writes the run's value back
    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    pinned = golden.load("nonrel_family")
    key = "analyses.nonrel.slope"
    true_value = pinned["values"][key]
    pinned["values"][key] = true_value + 1.0
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(golden, "SCENARIOS", {
        "nonrel_family": golden.SCENARIOS["nonrel_family"]})
    golden.write("nonrel_family", pinned)
    assert golden.main([]) == 1
    line = (f"nonrel_family: values.{key}: {true_value + 1.0!r} -> "
            f"{true_value!r}")
    assert line in capsys.readouterr().out.splitlines()
    assert golden.main(["--update"]) == 0
    assert line in capsys.readouterr().out.splitlines()
    assert golden.load("nonrel_family")["values"][key] == true_value
    assert golden.main([]) == 0
