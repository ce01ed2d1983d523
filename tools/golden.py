"""Pin the report values and data digests of the fast scenario documents.

    python3 tools/golden.py            # exit 1 on a change
    python3 tools/golden.py --update   # rewrite the pins

SCENARIOS holds the fast shipped scenarios and the small gaussian document
of the CLI tests (``tests/gauss_small.json``, which runs ``simulate``,
``estimate`` and ``specular`` in about a second). Each runs in process
into a temporary directory. Its ``report.json`` is flattened to dotted
keys (``analyses.chart_diag.round_trip_max``, list items by index),
leaving out the start time, the wall times and the versions; floats keep
their full ``repr`` precision as JSON numbers. The SHA-256 of every data
file the run wrote, the numpy version and the BLAS go next to them in
``tests/golden/<name>.json``. Every changed key is printed with its old
and new value, which is the record a change of numerics puts in
CHANGES.md. ``tests/test_golden.py`` reruns the same documents and fails
on the first key that differs.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from comovkit import cli  # noqa: E402

# pin name -> scenario document
SCENARIOS = {
    **{name: ROOT / "scenarios" / f"{name}.json" for name in (
        "near_standing_wave", "nonrel_family", "packet_9mode",
        "plane_wave_boost")},
    "gauss_small": ROOT / "tests" / "gauss_small.json",
}
GOLDEN_DIR = ROOT / "tests" / "golden"
# report entries that change from run to run
UNPINNED = ("started", "wall_clock_s", "analysis_wall_s", "versions")


def blas():
    """Name and version of the BLAS numpy was built against."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{deps['name']} {deps['version']}"


def flatten(obj, prefix=""):
    """Leaf values of nested dicts and lists under dotted keys."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    flat = {}
    for key, value in items:
        flat.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def snapshot(name, out_dir):
    """The pinned record of one run of the document ``SCENARIOS[name]``."""
    out_dir = Path(out_dir)
    cli.run(cli.validate(SCENARIOS[name]), out_dir=out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    for key in UNPINNED:
        report.pop(key)
    return {
        "numpy": np.__version__,
        "blas": blas(),
        "values": flatten(report),
        "data_sha256": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir()) if path.suffix == ".npy"},
    }


def changes(old, new):
    """(key, old value, new value) for every pinned key that differs, in
    key order; a key on one side only pairs with None."""
    out = []
    for part in ("values", "data_sha256"):
        a, b = old.get(part, {}), new[part]
        for key in sorted(set(a) | set(b)):
            va, vb = a.get(key), b.get(key)
            # 1 and 1.0, or True and 1, are different pinned values
            if type(va) is not type(vb) or va != vb:
                out.append((f"{part}.{key}", va, vb))
    return out


def load(name):
    path = GOLDEN_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def write(name, record):
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    (GOLDEN_DIR / f"{name}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite tests/golden/<name>.json")
    args = parser.parse_args(argv)
    changed = 0
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as out_dir:
            record = snapshot(name, out_dir)
        old = load(name)
        diff = changes(old, record)
        changed += len(diff)
        if not old:
            print(f"{name}: no pins yet, {len(diff)} new")
        for key, before, after in diff if old else ():
            print(f"{name}: {key}: {before!r} -> {after!r}")
        if args.update:
            write(name, record)
    print(f"{changed} pinned values changed"
          + (" and rewritten" if args.update and changed else ""))
    return 1 if changed and not args.update else 0


if __name__ == "__main__":
    sys.exit(main())
