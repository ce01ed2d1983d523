"""comovkit benchmark: one workload per call, in fresh processes.

    python3 perfbench/run.py --workload packet_chart --seed 1 \
        --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (set-up time, median
round time, peak memory); with ``--trace 1`` it runs the workload once
untraced and once traced, and prints the per-layer metrics. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every check
passed. See README.md for the workloads, the checks and the metric map.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("packet_chart", "flat_ensemble", "curved_ensemble")
SETUP_PROBES = 3  # set-up-only processes; the measuring process adds one more
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _spawn(args, mode, out, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--out", str(out), "--spawned", repr(time.monotonic())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("no time left for the %s process" % mode)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s process timed out" % mode)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("%s process exited with %d"
                          % (mode, proc.returncode))
    return json.loads(lines[-1])


def _src_lines():
    return sum(1 for path in sorted((ROOT / "src" / "comovkit").glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def end_to_end(setups, measured):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(measured["rounds"]), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }


# (metric, span, field, unit): a span field read straight off the summary
SPAN_METRICS = [
    ("fields.phase.calls", "fields.FieldBundle.phase", "calls", "count"),
    ("fields.phase.self_s", "fields.FieldBundle.phase", "self_s", "s"),
    ("fields.phase_gradient.calls", "fields.FieldBundle.phase_gradient",
     "calls", "count"),
    ("fields.phase_gradient.self_s", "fields.FieldBundle.phase_gradient",
     "self_s", "s"),
    ("fields.check_theorem_hypotheses.self_s",
     "fields.check_theorem_hypotheses", "self_s", "s"),
    ("chart.forward_map.calls", "chart.ComovingChart.forward_map", "calls",
     "count"),
    ("chart.inverse_map.calls", "chart.ComovingChart.inverse_map", "calls",
     "count"),
    ("chart.flow_to_level.calls", "chart.flow_to_level", "calls", "count"),
    ("chart.flow_to_level.self_s", "chart.flow_to_level", "self_s", "s"),
    ("chart.solve_height.calls", "chart.solve_height", "calls", "count"),
    ("chart.solve_height.self_s", "chart.solve_height", "self_s", "s"),
    ("chart.jacobian.calls", "chart.ComovingChart.jacobian", "calls",
     "count"),
    ("geometry.geometry_diagnostics.self_s", "geometry.geometry_diagnostics",
     "self_s", "s"),
    ("geometry.geometry_diagnostics.s", "geometry.geometry_diagnostics",
     "incl_s", "s"),
    ("geometry.pullback_metric.calls", "geometry.pullback_metric", "calls",
     "count"),
    ("geometry.pullback_metric.self_s", "geometry.pullback_metric", "self_s",
     "s"),
    ("geometry.riemann.calls", "geometry.riemann", "calls", "count"),
    ("geometry.riemann.self_s", "geometry.riemann", "self_s", "s"),
    ("diffusion.simulate.self_s", "diffusion.simulate", "self_s", "s"),
    ("diffusion.simulate.path_steps", "diffusion.simulate", "work", "count"),
    ("diffusion.drift.calls", "diffusion.drift", "calls", "count"),
    ("diffusion.drift.self_s", "diffusion.drift", "self_s", "s"),
    ("diffusion.binned_drift.calls", "diffusion.binned_drift", "calls",
     "count"),
    ("diffusion.binned_drift.self_s", "diffusion.binned_drift", "self_s",
     "s"),
    ("estimators.osmotic_identity_report.self_s",
     "estimators.osmotic_identity_report", "self_s", "s"),
    ("estimators.estimate_density.self_s", "estimators.estimate_density",
     "self_s", "s"),
    ("estimators.velocities_from_drifts.self_s",
     "estimators.velocities_from_drifts", "self_s", "s"),
    ("estimators.energy_report.self_s", "estimators.energy_report", "self_s",
     "s"),
    ("estimators.energy_report.nodes", "estimators.energy_report", "work",
     "count"),
    ("dynamics.four_current.calls", "dynamics.four_current", "calls",
     "count"),
    ("dynamics.four_current.self_s", "dynamics.four_current", "self_s", "s"),
    ("dynamics.boost_equivalence_check.self_s",
     "dynamics.boost_equivalence_check", "self_s", "s"),
    ("cli.validate.self_s", "cli.validate", "self_s", "s"),
    ("cli.run.self_s", "cli.run", "self_s", "s"),
    ("cli.save_array.calls", "cli.save_array", "calls", "count"),
    ("cli.save_array.self_s", "cli.save_array", "self_s", "s"),
] + [
    ("cli.analysis.%s.s" % name, "cli.analysis." + name, "incl_s", "s")
    for name in ("hypotheses", "chart_diag", "geometry_diag", "classify",
                 "simulate", "estimate", "specular", "energy")
]
# every pointwise MetricPatch method, summed into geometry.metric_patch
METRIC_PATCH_METHODS = ("metric", "inverse", "sqrt_det", "noise_factor",
                        "sigma_derivatives", "christoffel",
                        "christoffel_contraction")
_ZERO = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0,
         "single_calls": 0, "single_s": 0.0}


def per_layer(summary, measured, traced):
    def span(name):
        return summary.get(name, _ZERO)

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    m = {metric: (span(name)[field], unit)
         for metric, name, field, unit in SPAN_METRICS}
    phase = span("fields.FieldBundle.phase")
    m["fields.phase.us_per_call"] = (
        per(phase["incl_s"], phase["calls"], 1e6), "us")
    m["fields.phase.scalar_us_per_point"] = (
        per(phase["single_s"], phase["single_calls"], 1e6), "us")
    m["fields.phase.batched_us_per_point"] = (
        per(phase["incl_s"] - phase["single_s"],
            phase["work"] - phase["single_calls"], 1e6), "us")
    for which in ("forward_map", "inverse_map"):
        maps = span("chart.ComovingChart." + which)
        m["chart.%s.ms_per_point" % which] = (
            per(maps["incl_s"], maps["work"], 1e3), "ms")
    patch = [span("geometry.MetricPatch." + name)
             for name in METRIC_PATCH_METHODS]
    m["geometry.metric_patch.calls"] = (sum(p["calls"] for p in patch),
                                        "count")
    m["geometry.metric_patch.self_s"] = (sum(p["self_s"] for p in patch), "s")
    sim = span("diffusion.simulate")
    m["diffusion.simulate.ns_per_path_step"] = (
        per(sim["incl_s"], sim["work"], 1e9), "ns")
    m["diffusion.ensemble_mb"] = (traced["ensemble_bytes"] / 1e6, "MB")
    m["cli.data_mb"] = (span("cli.run")["work"] / 1e6, "MB")
    m["process.import_s"] = (measured["import_s"], "s")
    m["process.cpu_s"] = (measured["cpu_per_round_s"], "s")
    m["trace.overhead_s"] = (
        traced["rounds"][0] - statistics.median(measured["rounds"]), "s")
    m["trace.spans"] = (traced["spans"], "count")
    m["package.src_lines"] = (_src_lines(), "count")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "comovkit" / "__init__.py").is_file():
        sys.exit("no comovkit sources under %s" % (ROOT / "src"))
    out = HERE / "out" / ("%s-%d" % (args.workload, args.seed))
    try:
        if args.trace == 0:
            setups = [_spawn(args, "setup", out, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            measured = _spawn(args, "measure", out, deadline)
            children = [measured]
            metrics = end_to_end(setups + [measured["setup_s"]], measured)
        else:
            measured = _spawn(args, "measure", out, deadline)
            traced = _spawn(args, "traced", out, deadline)
            children = [measured, traced]
            metrics = per_layer(traced["summary"], measured, traced)
    except ChildFailed as err:
        sys.exit("benchmark failed: %s" % err)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    checks = [c for child in children for c in child["checks"]]
    bad = [c for c in checks if not c["ok"]]
    for c in bad:
        print("CHECK FAILED %(check)s: %(value).6g > %(limit).6g" % c,
              file=sys.stderr)
    result = {
        "correct": not bad,
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
