"""Show that every benchmark check fails when the answer it checks is wrong.

    python3 perfbench/perturb.py [--seed 1]

Runs one round of each workload, confirms that every check passes, then
for each check perturbs the answer it compares (a report row, a map
result, a saved ensemble, an energy, a data-file digest) and confirms that
this check now fails. Exits 1 if any perturbation goes unnoticed.
"""

import argparse
import copy
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from comovkit import estimators  # noqa: E402
from workloads import FLAT_DT, OSMOTIC_Z, WORKLOADS, FlatEnsemble  # noqa: E402


def _add(key, amount):
    def perturb(w, raw, out):
        out[key] = out[key] + amount

    return perturb


def _metric(index, amount):
    def perturb(w, raw, out):
        out["metric_components"][(slice(None),) + index] += amount

    return perturb


def _riemann(w, raw, out):
    out["max_riemann"] = 2.0 * out["riemann_budget"]


def _leaf(w, raw, out):
    out["leaf"][:, 0] += 1e-5  # one step along the reference curve's time


def _extra_drift(anchor_key, target_key):
    """Add 30 % of the drift rate to the increments, conditioned on anchor."""
    def perturb(w, raw, out):
        a = w.constants.nu / (2.0 * w.sigma ** 2)
        sign = 1.0 if target_key == "post" else -1.0
        out[target_key] = out[target_key] + sign * 0.3 * a * FLAT_DT \
            * out[anchor_key]

    return perturb


def _scale_final(factor):
    def perturb(w, raw, out):
        out["post"] = out["post"].copy()
        out["post"][:, -1] *= factor

    return perturb


def _shift_mean(w, raw, out):
    out["final"] = out["final"] + [0.15 * w.fixture.s, 0.0, 0.0]


def _widen(w, raw, out):
    out["final"] = 1.15 * out["final"]


def _inverted_density(w, raw, out):
    """Target the density 1/rho: the measured osmotic velocity must miss it."""
    report = estimators.osmotic_identity_report(
        raw["ensemble"], w.bins, w.patch, w.constants.nu, min_count=200,
        z=OSMOTIC_Z,
        grad_log_density=lambda q: -w.fixture.grad_log_density(q))
    out["osmotic_fraction"] = report["fraction"]


PERTURBATIONS = {
    "packet_chart": {
        "packet.report_properties_failed": _add("packet_failed_rows", 1),
        "plane_wave.report_properties_failed": _add("wave_failed_rows", 1),
        "packet.g00_deviation": _metric((0, 0), 2e-4),
        "packet.g0i_max": _metric((0, 1), 2e-4),
        "packet.riemann_over_budget": _riemann,
        "packet.round_trip_max": _add("back", 1e-5),
        "packet.leaf_phase_max": _leaf,
        "packet.phase_rate_deviation_max": _add("phase_rate", 1e-4),
        "plane_wave.boost_deviation_max": _add("wave_xi", 1e-5),
    },
    "flat_ensemble": {
        "gaussian.report_error": _add("error", 1),
        "gaussian.exact_rows_failed": _add("exact_rows_failed", 1),
        "gaussian.final_variance_z": _scale_final(1.05),
        "gaussian.forward_slope_z": _extra_drift("pre", "post"),
        "gaussian.backward_slope_z": _extra_drift("post", "pre"),
        "gaussian.energy_direct_error": _add("mu_direct", 1e-5),
        "gaussian.energy_identity_error": _add("mu_identity", 1e-5),
    },
    "curved_ensemble": {
        "sheared.cartesian_mean_z": _shift_mean,
        "sheared.cartesian_variance_z": _widen,
        "sheared.e_u2_relative_error": _add("e_u2", 1e-4),
        "sheared.energy_direct_error": _add("mu_direct", 1e-5),
        "sheared.energy_identity_error": _add("mu_identity", 1e-5),
        "sheared.osmotic_identity_shortfall": _inverted_density,
        "sheared.osmotic_bins_missing": _add("osmotic_bins", -8),
    },
}


def _value(checks, name):
    return next(c for c in checks if c["check"] == name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    out_dir = HERE / "out" / "perturb"
    unnoticed = 0
    try:
        for name, perturbations in PERTURBATIONS.items():
            w = WORKLOADS[name](args.seed, out_dir / name, ROOT)
            raw = w.operate()
            out = w.collect(raw)
            base = w.check(out)
            if not all(c["ok"] for c in base):
                sys.exit("%s: unperturbed checks fail: %s" % (name, base))
            if set(perturbations) != {c["check"] for c in base}:
                sys.exit("%s: perturbations do not cover every check" % name)
            for check, perturb in perturbations.items():
                bad = copy.deepcopy(out)
                perturb(w, raw, bad)
                c = _value(w.check(bad), check)
                unnoticed += c["ok"]
                print("%-15s %-40s %-9s %.4g -> %.4g (limit %.3g)" % (
                    name, check, "ok" if not c["ok"] else "UNNOTICED",
                    _value(base, check)["value"], c["value"], c["limit"]))
            if isinstance(w, FlatEnsemble):
                digests = w.determinism()
                c = FlatEnsemble.check_determinism(digests)
                digests[1]["paths_pre"] = "0" * 64
                bad = FlatEnsemble.check_determinism(digests)
                unnoticed += not c["ok"] or bad["ok"]
                print("%-15s %-40s %-9s %.4g -> %.4g (limit %.3g)" % (
                    name, c["check"], "ok" if not bad["ok"] else "UNNOTICED",
                    c["value"], bad["value"], c["limit"]))
            del raw, out
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 1 if unnoticed else 0


if __name__ == "__main__":
    sys.exit(main())
