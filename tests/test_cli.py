"""Scenario validation, run orchestration, exit codes, and plot extraction."""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from comovkit import cli
from comovkit.cli import emit_plotdata, main, run, validate
from comovkit.errors import ConfigInvalid

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def gaussian_doc(**overrides):
    doc = {
        "name": "gauss-small",
        "seed": 20260816,
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "gaussian",
            "sigma": 1.0,
            "box": {"lo": [-4.0, -4.0, -4.0], "hi": [4.0, 4.0, 4.0]},
        },
        "diffusion": {
            "dt": 0.002,
            "horizon": 2.0,
            "n_paths": 20000,
            "burn_in_fraction": 0.2,
            "n_snapshots": 12,
            "chunk_size": 4096,
            "initial": {"kind": "density"},
            "bins": {
                "lo": [-2.0, -2.0, -2.0],
                "hi": [2.0, 2.0, 2.0],
                "shape": [4, 4, 4],
            },
            "min_count": 300,
        },
        "analyses": ["simulate", "estimate", "specular"],
    }
    doc.update(overrides)
    return doc


def plane_wave_doc(**overrides):
    doc = {
        "name": "plane-small",
        "seed": 5,
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {"type": "plane_wave", "k": [0.75, 0.0, 0.0]},
        "chart": {"origin": [0.0, 0.0, 0.0, 0.0]},
        "classify": {"n_points": 6},
        "analyses": ["chart_diag", "classify"],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# validation


def test_validate_shipped_scenarios():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    names = sorted(p.name for p in root.glob("*.json"))
    assert len(names) == 5
    for name in names:
        scenario = validate(str(root / name))
        assert scenario.name


def test_validate_rejects_missing_required(tmp_path):
    path = write_scenario(tmp_path, {"name": "x"})
    with pytest.raises(ConfigInvalid) as err:
        validate(path)
    assert "/" in err.value.pointers
    assert "constants" in str(err.value)


def test_validate_rejects_unknown_analysis(tmp_path):
    doc = plane_wave_doc(analyses=["chart_diag", "frobnicate"])
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses/1" in err.value.pointers


def test_validate_rejects_short_horizon(tmp_path):
    doc = gaussian_doc()
    doc["diffusion"]["horizon"] = 0.01
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/diffusion/dt" in err.value.pointers


def test_validate_rejects_bins_outside_field_box(tmp_path):
    doc = gaussian_doc()
    doc["diffusion"]["bins"]["hi"] = [9.0, 2.0, 2.0]
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/diffusion/bins" in err.value.pointers
    # the message names both boxes so the fix is obvious
    assert "9.0" in str(err.value) and "4.0" in str(err.value)


def test_validate_rejects_estimate_without_simulate(tmp_path):
    doc = gaussian_doc(analyses=["estimate"])
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses" in err.value.pointers


def test_validate_rejects_wave_analyses_on_gaussian(tmp_path):
    doc = gaussian_doc(analyses=["classify", "simulate", "estimate"])
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses" in err.value.pointers


def test_validate_rejects_weight_count_mismatch(tmp_path):
    doc = {
        "name": "bad-packet",
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "packet",
            "wavevectors": [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]],
            "weights": [2.0],
            "domain": {"lo": [-1, -1, -1, -1], "hi": [1, 1, 1, 1]},
        },
        "analyses": ["hypotheses"],
    }
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/field/weights" in err.value.pointers


def test_validate_rejects_energy_without_section(tmp_path):
    doc = gaussian_doc(analyses=["simulate", "energy"])
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses" in err.value.pointers


def test_validate_rejects_chart_analysis_without_chart(tmp_path):
    doc = plane_wave_doc(analyses=["chart_diag"])
    del doc["chart"]
    with pytest.raises(ConfigInvalid) as err:
        validate(write_scenario(tmp_path, doc))
    assert "/analyses" in err.value.pointers


def test_validate_rejects_non_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        validate(str(path))


def test_validate_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid):
        validate(str(tmp_path / "nope.json"))


def test_validate_cli_exit_codes(tmp_path, capsys):
    good = write_scenario(tmp_path, plane_wave_doc(), "good.json")
    assert main(["validate", good]) == 0
    bad = write_scenario(tmp_path, {"name": "x"}, "bad.json")
    assert main(["validate", bad]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err


# ---------------------------------------------------------------------------
# run orchestration


def test_run_plane_wave_passes(tmp_path):
    scenario = validate(write_scenario(tmp_path, plane_wave_doc()))
    report = run(scenario, out_dir=tmp_path / "out")
    assert report["pass"] is True
    assert report["error"] is None
    names = {row["name"] for row in report["properties"]}
    assert "round_trip_max" in names
    assert "classification_unanimous" in names
    # every property row carries its tolerance and comparator
    for row in report["properties"]:
        assert row["comparator"] in ("<=", ">=")
        assert isinstance(row["tolerance"], float)
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved["pass"] is True
    assert saved["versions"]["comovkit"]


def test_run_packet_reports_flow_counters(tmp_path):
    scenario = validate(str(SCENARIOS / "packet_9mode.json"))
    run(scenario, out_dir=tmp_path / "out")
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    diag = saved["analyses"]["chart_diag"]
    steps = diag["flow_steps"]
    evaluations = diag["flow_rhs_evaluations"]
    estimate = diag["max_step_error_estimate"]
    assert all(np.isfinite([steps, evaluations, estimate]))
    assert 0 < steps < evaluations
    assert 0.0 <= estimate <= 1e-9


def test_run_exit_one_names_failed_hypothesis(tmp_path, capsys):
    doc = {
        "name": "standing-ish",
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "packet",
            "wavevectors": [[0.75, 0.0, 0.0], [-0.9, 0.0, 0.0]],
            "weights": [1.0, 0.98],
            "domain": {
                "lo": [-0.3, -2.5, -0.1, -0.1],
                "hi": [0.3, 0.5, 0.1, 0.1],
            },
        },
        "lattices": {"hypothesis_shape": [3, 161, 3, 3]},
        "analyses": ["hypotheses"],
    }
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    violated = report["analyses"]["hypotheses"]["violated"]
    assert "(i)" in violated
    assert report["pass"] is False


def test_run_exit_two_on_invalid_scenario(tmp_path, capsys):
    doc = gaussian_doc()
    doc["diffusion"]["horizon"] = 0.001
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    assert "/diffusion/dt" in capsys.readouterr().err


def test_run_exit_three_writes_partial_report(tmp_path, capsys):
    # equal-weight counterpropagating modes have modulus zeros, so the
    # bundle factory refuses the domain at runtime, after validation
    doc = {
        "name": "node-crash",
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "packet",
            "wavevectors": [[0.75, 0.0, 0.0], [-0.75, 0.0, 0.0]],
            "weights": [1.0, 1.0],
            "domain": {
                "lo": [-1.0, -6.0, -0.1, -0.1],
                "hi": [1.0, 6.0, 0.1, 0.1],
            },
        },
        "analyses": ["hypotheses"],
    }
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["analysis"] == "hypotheses"
    assert report["error"]["type"] == "NodeInDomain"
    assert report["pass"] is False
    assert "error" in capsys.readouterr().err


def test_run_exit_three_on_failed_chart_hypotheses(tmp_path, capsys):
    # the shipped negative control with the chart analysis added: the
    # chart refuses the field with a typed error after the hypothesis scan
    doc = json.loads((SCENARIOS / "near_standing_wave.json").read_text())
    doc["analyses"].append("chart_diag")
    doc["chart"] = {"origin": [0.0, 0.0, 0.0, 0.0]}
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["analysis"] == "chart_diag"
    assert report["error"]["type"] == "HypothesesFailed"
    assert report["error"]["kind"] == "domain"
    assert "hypotheses" in report["analyses"]
    assert "chart_diag" in capsys.readouterr().err


def test_run_exit_three_on_stalled_initial_sampler(tmp_path):
    # the gaussian weight underflows on the whole box: validation passes,
    # the rejection sampler gives up after its proposal budget
    doc = gaussian_doc(analyses=["simulate"])
    doc["field"]["box"] = {"lo": [20.0] * 3, "hi": [24.0] * 3}
    doc["diffusion"].update(n_paths=16, horizon=0.02, n_snapshots=2)
    doc["diffusion"]["bins"] = {"lo": [20.5] * 3, "hi": [23.5] * 3,
                                "shape": [2, 2, 2]}
    path = write_scenario(tmp_path, doc)
    assert main(["validate", path]) == 0
    start = time.perf_counter()
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 20.0
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "SamplerStalled"
    assert "[20.0, 20.0, 20.0]" in report["error"]["message"]


def test_run_exit_three_on_too_few_paths_for_variance(tmp_path):
    # 20 paths in 32 path batches leave every batch with one path: the
    # variance has no standard error, which is a typed domain error, not
    # a passing z of 0 over an infinite SE
    doc = gaussian_doc(analyses=["simulate"])
    doc["diffusion"].update(n_paths=20, chunk_size=20, horizon=0.1)
    path = write_scenario(tmp_path, doc)
    assert main(["validate", path]) == 0
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["analysis"] == "simulate"
    assert report["error"]["kind"] == "domain"
    assert report["error"]["type"] == "InsufficientSamples"
    assert report["properties"] == []
    assert "paths_pre" in report["data_files"]


def test_run_records_internal_error(tmp_path, monkeypatch, capsys):
    def broken(ctx):
        raise RuntimeError("injected fault")

    monkeypatch.setitem(cli._RUNNERS, "classify", broken)
    path = write_scenario(tmp_path, plane_wave_doc())
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    error = report["error"]
    assert "injected fault" in error.pop("traceback")
    assert error == {
        "analysis": "classify", "kind": "internal",
        "type": "RuntimeError", "message": "injected fault",
    }
    assert "chart_diag" in report["analyses"]
    assert report["pass"] is False
    assert "injected fault" in capsys.readouterr().err


def test_run_records_analysis_wall_times(tmp_path, monkeypatch):
    calls = []

    def counted(bundle, x, **kwargs):
        calls.append(np.shape(x))
        return real(bundle, x, **kwargs)

    real = cli.four_current
    monkeypatch.setattr(cli, "four_current", counted)
    run(validate(plane_wave_doc()), out_dir=tmp_path / "ok")
    saved = json.loads((tmp_path / "ok" / "report.json").read_text())
    wall = saved["analysis_wall_s"]
    assert list(wall) == ["chart_diag", "classify"]
    assert all(t > 0.0 for t in wall.values())
    assert sum(wall.values()) <= saved["wall_clock_s"]
    # classify makes one current call on all of its events
    assert calls == [(6, 4)]

    def broken(ctx):
        raise RuntimeError("injected fault")

    # the failed analysis keeps its time
    monkeypatch.setitem(cli._RUNNERS, "classify", broken)
    report = run(validate(plane_wave_doc()), out_dir=tmp_path / "failed")
    assert list(report["analysis_wall_s"]) == ["chart_diag", "classify"]
    assert "classify" not in report["analyses"]


def test_run_gaussian_diffusion_properties(tmp_path):
    scenario = validate(write_scenario(tmp_path, gaussian_doc()))
    report = run(scenario, out_dir=tmp_path / "out", threads=2)
    assert report["error"] is None
    rows = {row["name"]: row for row in report["properties"]}
    assert rows["stationary_variance_z"]["pass"]
    assert rows["osmotic_identity_fraction"]["pass"]
    assert rows["drift_antisymmetry_fraction"]["pass"]
    assert rows["involution_exact"]["pass"]
    assert rows["specular_forward_drift_fraction"]["pass"]
    assert report["pass"] is True
    # data files recorded with digests
    for key in ("paths_times", "paths_pre", "paths_post",
                "estimate_density", "estimate_osmotic"):
        entry = report["data_files"][key]
        assert (tmp_path / "out" / entry["path"]).stat().st_size \
            == entry["bytes"]


def test_run_seed_determinism_across_threads(tmp_path):
    doc = gaussian_doc(analyses=["simulate"])
    doc["diffusion"]["n_paths"] = 5000
    doc["diffusion"]["horizon"] = 0.5
    doc["diffusion"]["chunk_size"] = 1024
    scenario = validate(write_scenario(tmp_path, doc))
    rep1 = run(scenario, out_dir=tmp_path / "a", threads=1)
    rep2 = run(scenario, out_dir=tmp_path / "b", threads=4)
    for key in ("paths_times", "paths_pre", "paths_post"):
        a = (tmp_path / "a" / rep1["data_files"][key]["path"]).read_bytes()
        b = (tmp_path / "b" / rep2["data_files"][key]["path"]).read_bytes()
        assert a == b
        assert rep1["data_files"][key]["sha256"] \
            == rep2["data_files"][key]["sha256"]


def test_run_data_file_digests_match_disk(tmp_path):
    # digests are taken in blocks; paths_pre spans several of them
    doc = gaussian_doc(analyses=["simulate", "estimate"])
    doc["diffusion"]["horizon"] = 0.5
    scenario = validate(write_scenario(tmp_path, doc))
    report = run(scenario, out_dir=tmp_path / "out")
    assert report["error"] is None
    assert report["data_files"]["paths_pre"]["bytes"] > 2 << 20
    assert len(report["data_files"]) == 8
    for entry in report["data_files"].values():
        path = tmp_path / "out" / entry["path"]
        assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert entry["bytes"] == path.stat().st_size


def test_run_seed_override_changes_data(tmp_path):
    doc = gaussian_doc(analyses=["simulate"])
    doc["diffusion"]["n_paths"] = 2000
    doc["diffusion"]["horizon"] = 0.5
    scenario = validate(write_scenario(tmp_path, doc))
    rep1 = run(scenario, out_dir=tmp_path / "a")
    rep2 = run(scenario, out_dir=tmp_path / "b", seed=999)
    assert rep1["data_files"]["paths_pre"]["sha256"] \
        != rep2["data_files"]["paths_pre"]["sha256"]
    assert rep2["seed"] == 999


# ---------------------------------------------------------------------------
# plot data


def test_plotdata_nonrel_and_energy(tmp_path):
    report = {
        "analyses": {
            "nonrel": {
                "rows": [
                    {"eps_measured": 0.1, "discrepancy": 1e-2},
                    {"eps_measured": 0.05, "discrepancy": 2.5e-3},
                ],
                "slope": 2.01,
            },
            "energy": {
                "mu_direct": -0.4993,
                "mu_identity": -0.4993,
                "e_u2": 0.0014,
            },
        }
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    written = emit_plotdata(str(path))
    names = sorted(p.name for p in written)
    assert names == ["energy.csv", "nonrel.csv"]
    nonrel = (tmp_path / "nonrel.csv").read_text().splitlines()
    assert nonrel[0] == "eps,residual,slope_fit"
    assert len(nonrel) == 3
    assert nonrel[1].startswith("0.1,0.01,")
    energy = (tmp_path / "energy.csv").read_text().splitlines()
    assert energy[0] == "mu_direct,mu_identity,e_u2"
    assert len(energy) == 2


def test_plotdata_empty_report_warns(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"analyses": {}}))
    written = emit_plotdata(str(path), out_dir=tmp_path)
    assert written == []
    assert "warning" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_plotdata_cli_roundtrip(tmp_path, capsys):
    report = {"analyses": {"energy": {
        "mu_direct": -0.5, "mu_identity": -0.5, "e_u2": 0.0}}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["plotdata", str(path), "--out", str(tmp_path / "figs")]) == 0
    out = capsys.readouterr().out
    assert "energy.csv" in out
    assert main(["plotdata", str(tmp_path / "missing.json")]) == 2
