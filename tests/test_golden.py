"""The fast shipped scenarios and the small gaussian document reproduce
their pinned report values and data digests exactly (``tests/golden``,
written by ``tools/golden.py``)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", golden.SCENARIOS)
def test_shipped_report_matches_its_pins(name, tmp_path):
    pinned = golden.load(name)
    assert pinned, f"tests/golden/{name}.json is missing"
    diff = golden.changes(pinned, golden.snapshot(name, tmp_path))
    if diff:
        key, old, new = diff[0]
        here = (golden.np.__version__, golden.blas())
        there = (pinned["numpy"], pinned["blas"])
        note = ("" if here == there else
                f"; pinned with numpy {there[0]} and {there[1]}, run with "
                f"numpy {here[0]} and {here[1]}, which need not round alike")
        pytest.fail(f"{name}: {len(diff)} pinned values differ, first "
                    f"{key}: {old!r} -> {new!r}{note}")
