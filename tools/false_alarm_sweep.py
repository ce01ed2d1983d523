"""Rerun the test suite's statistical family checks on many master seeds.

    PYTHONPATH=src python3 tools/false_alarm_sweep.py [--seeds 1-50]

Each family check in ``tests/test_estimators.py`` and
``tests/test_diffusion.py`` states a false-alarm rate per seed
(``conftest.FALSE_ALARM``) and a power control, a known bias it must
reject. This rebuilds each check's ensemble on every seed in the range,
with the same builders and statistics the tests use, and prints per check
how often it rejected the truth (false alarms, next to the stated rate),
how close the truth came to each of the three limits at worst, and how often
it rejected its power-control bias. It takes about six seconds per seed on
two cores and is not part of the test suite.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_diffusion as dif  # noqa: E402
import test_estimators as est  # noqa: E402
from comovkit.diffusion import (  # noqa: E402
    backward_drift_estimate,
    forward_drift_estimate,
    specular_reverse,
    variance_report,
)
from comovkit.estimators import (  # noqa: E402
    estimate_density,
    velocities_from_drifts,
)
from comovkit.geometry import MetricPatch  # noqa: E402
from conftest import FALSE_ALARM, family_checks  # noqa: E402


# each statistic of a family check next to its limit
LIMITS = (("max_t", "t_limit"), ("chi2", "chi2_limit"),
          ("pooled_t", "pooled_limit"))


def seed_families(seed):
    """(name, dof, t at the truth, t at the power-control bias) per check,
    on the ensembles of one master seed."""
    ou = est.simulate_ou(seed)
    bins = est.OU_BINS
    density = estimate_density(ou, bins, MetricPatch.euclidean())
    vel = velocities_from_drifts(
        forward_drift_estimate(ou, bins, min_count=500),
        backward_drift_estimate(ou, bins, min_count=500))
    volume, volume_bins = est.volume_factor_estimate(seed)

    ou2 = dif.simulate_ou(seed)
    report = variance_report(ou2)
    fwd = forward_drift_estimate(ou2, dif.SLABS, min_count=2000)
    bwd = backward_drift_estimate(ou2, dif.SLABS, min_count=2000)
    rev_fwd = forward_drift_estimate(specular_reverse(ou2), dif.SLABS,
                                     min_count=2000)
    final = dif.simulate_from_origin(seed)
    init = dif.initial_states(seed)

    def volume_t(root_sig):
        return est.density_t(volume, volume_bins, min_count=1000,
                             root_sig=root_sig)

    bdof = est.BATCH_DOF
    return [
        ("estimators.density", bdof, est.density_t(density, bins),
         est.density_t(density, bins, 1.0 + est.DENSITY_WIDTH_BIAS)),
        ("estimators.volume_factor", bdof, volume_t(0.8), volume_t(1.0)),
        ("estimators.current", bdof, est.current_t(vel),
         est.current_t(vel, est.CURRENT_BIAS)),
        ("estimators.osmotic", bdof, est.osmotic_t(vel),
         est.osmotic_t(vel, est.OSMOTIC_BIAS)),
        ("diffusion.variance", bdof, dif.variance_t(report),
         dif.variance_t(report, dif.VARIANCE_BIAS)),
        ("diffusion.stationarity", bdof, dif.stationarity_t(report),
         dif.stationarity_t(report, dif.STATIONARITY_BIAS)),
        ("diffusion.forward_drift", bdof, dif.drift_t(fwd, -dif.THETA),
         dif.drift_t(fwd, -dif.THETA, dif.DRIFT_BIAS)),
        ("diffusion.backward_drift", bdof, dif.drift_t(bwd, dif.THETA),
         dif.drift_t(bwd, dif.THETA, dif.DRIFT_BIAS)),
        ("diffusion.antisymmetry", bdof, dif.antisymmetry_t(fwd, bwd),
         dif.antisymmetry_t(fwd, bwd, dif.ANTISYMMETRY_BIAS)),
        ("diffusion.specular_forward_drift", bdof,
         dif.drift_t(rev_fwd, -dif.THETA),
         dif.drift_t(rev_fwd, -dif.THETA, dif.DRIFT_BIAS)),
        ("diffusion.discrete_variance", float("inf"),
         dif.discrete_variance_t(*final),
         dif.discrete_variance_t(*final, dif.DISCRETE_VARIANCE_BIAS)),
        ("diffusion.initial_law", float("inf"), dif.initial_t(init),
         dif.initial_t(init, dif.INITIAL_VARIANCE_BIAS)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-50")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    tally = {}
    for seed in seeds:
        for name, dof, truth, biased in seed_families(seed):
            row = tally.setdefault(name, {"false": 0, "power": 0,
                                          "family": set()})
            check, power = family_checks(truth, biased, dof)
            row["false"] += check["reject"]
            row["power"] += power["reject"]
            row["family"].add(check["family"])
            # how close the truth came to each limit, as a fraction of it
            for key, limit in LIMITS:
                row[key] = max(row.get(key, 0.0), check[key] / check[limit])
            if check["reject"]:
                print("false alarm: %s seed %d %s" % (name, seed, check),
                      flush=True)
        print("seed %d done" % seed, flush=True)
    n = len(seeds)
    print("%-34s %-8s %-13s %-12s %-11s %-11s %-11s %s" % (
        "check", "family", "false alarms", "stated rate", "max|t|/lim",
        "chi2/lim", "pooled/lim", "power"))
    for name, row in tally.items():
        sizes = sorted(row["family"])
        print("%-34s %-8s %-13s %-12g %-11.2f %-11.2f %-11.2f %s" % (
            name, "%d-%d" % (sizes[0], sizes[-1]),
            "%d / %d" % (row["false"], n), FALSE_ALARM, row["max_t"],
            row["chi2"], row["pooled_t"], "%d / %d" % (row["power"], n)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
