"""Every exported name resolves, so a deletion cannot leave a stale export;
every export, public module-level function, class or UPPER_CASE constant
and public method of the package that no code outside tests/ reaches is
allowlisted with a reason, so dead code cannot come back unnoticed; so is
every defaulted parameter of a public function or method that no code
outside tests/ passes, so an option only tests set cannot come back
unnoticed, and every field of a public dataclass that no code reads, so a
write-only result cannot come back unnoticed; the package imports exactly
the runtime dependencies pyproject.toml names; every Python example in
README.md runs, so it cannot call a deleted name."""

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
    "MetricPatch.constant": "documented in README (the constant-metric "
                            "patch)",
    "PacketBundle.conjugate": "test oracle of acceptance gate 06; ROADMAP "
                              "item 15 reaches it from classify",
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
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    reached.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reached.add(node.attr)
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        reached.update(re.findall(r"\w+", path.read_text()))
    return reached


def _public_names():
    """The exports of ``comovkit`` and ``comovkit.dynamics``, and every
    module-level function, class and UPPER_CASE constant of the package
    and every method of such a class (as ``Class.method``) whose name does
    not start with an underscore."""
    names = {name for module in ("comovkit", "comovkit.dynamics")
             for name in importlib.import_module(module).__all__}
    for path in sorted((ROOT / "src" / "comovkit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name) and t.id.isupper()
                             and not t.id.startswith("_"))
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{fn.name}" for fn in node.body
                             if isinstance(fn, ast.FunctionDef)
                             and not fn.name.startswith("_"))
    return names


def test_unreached_exports_are_allowlisted():
    # a new public name that only tests call fails here until it is gated,
    # deleted or allowlisted with a reason; a reached entry must leave. A
    # method is reached by any load of its own name
    reached = _reached_names()
    unreached = {name for name in _public_names()
                 if name.rsplit(".", 1)[-1] not in reached}
    assert sorted(unreached) == sorted(UNREACHED_EXPORTS)


# defaulted parameters that no code outside tests/ passes, each with its
# reason to stay; a class's __init__, or a dataclass's defaulted fields, are
# written as a call of the class
UNPASSED_PARAMETERS = {
    "chart.ComovingChart(atol=)": "flow tolerance; tests tighten it to "
                                  "force reruns (ROADMAP item 1 adds a "
                                  "tight-tolerance workload)",
    "chart.ComovingChart(rtol=)": "flow tolerance; tests tighten it to "
                                  "force reruns (ROADMAP item 1 adds a "
                                  "tight-tolerance workload)",
    "chart.ComovingChart(validate=)": "skips the hypotheses scan of a field "
                                      "the caller trusts; cli hands over "
                                      "its report instead",
    "cli.main(argv=)": "the console-script entry point; None reads "
                       "sys.argv",
    "diffusion.DiffusionConfig(clip_box=)": "confines an ensemble, frozen "
                                            "paths flagged; ROADMAP item 2 "
                                            "may confine the packet-slice "
                                            "ensemble with it",
    "dynamics.comoving_kg_residual(patch=)": "reuses one slice patch over "
                                             "calls; ROADMAP item 15 reaches "
                                             "it from cli",
    "estimators.stochastic_action(current_sq=)": "ROADMAP item 3 gates "
                                                 "stochastic_action",
    "estimators.stochastic_action(order=)": "ROADMAP item 3 gates "
                                            "stochastic_action",
    "fields.check_theorem_hypotheses(box=)": "aims the scan at a window; "
                                             "tests aim it at a V_0 sign "
                                             "change",
    "geometry.curvature_budget(h=)": "the stencil step; a test checks that "
                                     "the budget scales as h^2",
    "geometry.laplace_beltrami(h=)": "the step override of the covariant "
                                     "helpers; ROADMAP item 3 needs the "
                                     "function",
}


def _signature(label, fn, method):
    """(label, positional names, defaulted names) of a def; a method drops
    its self or cls unless it is a staticmethod."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if method and not any(getattr(d, "id", None) == "staticmethod"
                          for d in fn.decorator_list):
        names = names[1:]
    defaulted = names[len(names) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return label, names, defaulted


def _is_dataclass(node):
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id",
                                        None)) == "dataclass"
               for d in node.decorator_list)


def _dataclass_signature(label, node):
    """(label, positional names, defaulted names) of the __init__ that a
    dataclass generates: its annotated fields in order, less those with
    ``field(init=False)``; a field with a value, or a ``field`` with a
    ``default`` or ``default_factory``, is defaulted."""
    names, defaulted = [], []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) \
                and getattr(value.func, "id", None) == "field":
            options = {kw.arg: kw.value for kw in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            if not {"default", "default_factory"} & options.keys():
                value = None
        names.append(stmt.target.id)
        if value is not None:
            defaulted.append(stmt.target.id)
    return label, names, defaulted


def _signatures():
    """Defaulted parameters of every public module-level function, every
    public method of a public class and the __init__ of every public class
    of the package, keyed by the name a call uses: a function's or a
    method's own name, and for an __init__ the name of its class or of any
    package class that inherits it. A public dataclass's generated __init__
    takes its fields, so its defaulted fields count as parameters."""
    classes, sigs, inits = {}, {}, {}
    for path in sorted((ROOT / "src" / "comovkit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                sigs.setdefault(node.name, []).append(_signature(
                    f"{path.stem}.{node.name}", node, method=False))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    inits[node.name] = _dataclass_signature(
                        f"{path.stem}.{node.name}", node)
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    label = f"{path.stem}.{node.name}"
                    if fn.name == "__init__":
                        inits[node.name] = _signature(label, fn, True)
                    elif not fn.name.startswith("_"):
                        sigs.setdefault(fn.name, []).append(_signature(
                            f"{label}.{fn.name}", fn, method=True))
    for name in classes:
        owner = name  # the class whose __init__ a call of ``name`` runs
        while owner in classes and not _is_dataclass(classes[owner]) \
                and not any(isinstance(fn, ast.FunctionDef)
                            and fn.name == "__init__"
                            for fn in classes[owner].body):
            bases = classes[owner].bases
            owner = getattr(bases[0], "id", None) if bases else None
        if owner in inits:
            sigs.setdefault(name, []).append(inits[owner])
    return sigs


def _mapping_keys(value, scope):
    """String keys of the dict literal a ``**value`` call passes: inline, or
    assigned to its name in the calling function; none when unreadable."""
    dicts = [value] if isinstance(value, ast.Dict) else [
        node.value for node in ast.walk(scope)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and any(getattr(t, "id", None) == getattr(value, "id", 0)
                for t in node.targets)]
    return {k.value for d in dicts for k in d.keys
            if isinstance(k, ast.Constant)}


def _passed_parameters(sigs):
    """(label, parameter) pairs that a call under src/, perfbench/ or
    tools/ passes by keyword, by position or in a ``**`` dict literal. A
    call resolves by name alone, so it counts for every def of that name;
    a ``*args`` call passes every positional parameter, and
    ``super().__init__`` is a call of the class's first base."""
    passed = set()

    def visit(node, cls, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                record(child, cls, scope)
            visit(child, child if isinstance(child, ast.ClassDef) else cls,
                  child if isinstance(child, ast.FunctionDef) else scope)

    def record(call, cls, scope):
        func = call.func
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "__init__" and isinstance(func.value, ast.Call) \
                and getattr(func.value.func, "id", None) == "super":
            name = getattr(cls.bases[0], "id", None)
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        for label, names, _ in sigs.get(name, []):
            passed.update((label, p) for p in
                          names[:None if starred else len(call.args)])
            for kw in call.keywords:
                keys = {kw.arg} if kw.arg else _mapping_keys(kw.value, scope)
                passed.update((label, key) for key in keys)

    for folder in ("src/comovkit", "perfbench", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text())
            visit(tree, None, tree)
    return passed


def test_unpassed_parameters_are_allowlisted():
    # a defaulted parameter that only tests pass fails here until it is
    # gated, given its one value, deleted or allowlisted with a reason; a
    # parameter that code outside tests/ starts to pass must leave the list
    sigs = _signatures()
    passed = _passed_parameters(sigs)
    unpassed = {f"{label}({p}=)" for entries in sigs.values()
                for label, _, defaulted in entries for p in defaulted
                if (label, p) not in passed}
    assert sorted(unpassed) == sorted(UNPASSED_PARAMETERS)


# fields of public package dataclasses that no code reads as an
# attribute, each with its reason to stay
UNREAD_FIELDS = {}


def _attribute_reads():
    """Attribute names that code under src/, perfbench/, tools/ or tests/
    loads, this file's own AST walking excepted: a store, such as a
    dataclass's ``__init__`` writes, is not a read."""
    reads = set()
    for folder in ("src/comovkit", "perfbench", "tools", "tests"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path == Path(__file__).resolve():
                continue
            reads.update(node.attr for node in ast.walk(ast.parse(
                path.read_text())) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load))
    return reads


def test_dataclass_fields_are_read():
    # a result that a public dataclass stores and no code reads fails here
    # until it is read, deleted or allowlisted with a reason; a field that
    # code starts to read must leave the list
    fields = set()
    for path in sorted((ROOT / "src" / "comovkit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) \
                    and not node.name.startswith("_"):
                fields.update(
                    (f"{path.stem}.{node.name}", stmt.target.id)
                    for stmt in node.body if isinstance(stmt, ast.AnnAssign))
    reads = _attribute_reads()
    unread = {f"{owner}.{name}" for owner, name in fields
              if name not in reads}
    assert sorted(unread) == sorted(UNREAD_FIELDS)


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
