"""Run each workload's checks once on many seeds.

    python3 perfbench/seedsweep.py [--seeds 1000-1024]
        [--workloads packet_chart,flat_ensemble,curved_ensemble]

The statistical checks (batch z-scores, the osmotic-identity fraction) are
sized to pass on any seed; this prints the largest value each check reached
over the seeds next to its limit, and exits 1 if any check failed.
"""

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1000-1024")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    out_dir = HERE / "out" / "seedsweep"
    failures = 0
    try:
        for name in args.workloads.split(","):
            worst = {}
            for seed in seeds:
                w = WORKLOADS[name](seed, out_dir / name, ROOT)
                for c in w.check(w.collect(w.operate())):
                    failures += not c["ok"]
                    if not c["ok"]:
                        print("FAIL %s seed %d %s = %.4g > %.4g" % (
                            name, seed, c["check"], c["value"], c["limit"]))
                    prev = worst.get(c["check"])
                    if prev is None or c["value"] > prev["value"]:
                        worst[c["check"]] = dict(c, seed=seed)
            for c in worst.values():
                print("%-15s %-40s max %.4g (seed %d) limit %.4g over %d seeds"
                      % (name, c["check"], c["value"], c["seed"], c["limit"],
                         len(seeds)), flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
