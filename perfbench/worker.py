"""One workload process: set up, run whole rounds, check, report JSON.

Started by ``run.py``; not meant to be run by hand. Modes:

* ``setup``: import and build the inputs, report the set-up time, exit;
* ``measure``: untraced whole rounds within ``--seconds`` (at least one);
* ``traced``: one round with every layer wrapped in spans.

The last line of standard output is one JSON object.
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"),
                        required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import comovkit
    import comovkit.cli  # noqa: F401 - part of the timed import
    import_s = time.perf_counter() - t0
    if Path(comovkit.__file__).resolve().parent != root / "src" / "comovkit":
        sys.exit("comovkit was not imported from %s" % (root / "src"))

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    from workloads import WORKLOADS

    out = Path(args.out)
    workload = WORKLOADS[args.workload](args.seed, out, root)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    rounds = []
    cpu = 0.0
    checks = []
    attempted = failed = 0
    ensemble_bytes = 0
    rss = None
    begin = time.perf_counter()
    while True:
        c0 = time.process_time()
        t0 = time.perf_counter()
        raw = workload.operate()
        rounds.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        if tracer is not None:
            spans = tracer.spans()  # set-up and the round, not the checks
        if rss is None:
            rss = _rss_mb()  # set-up plus one round, before any check runs
        attempted += raw["attempted"]
        failed += raw["failed"]
        ensemble_bytes = raw["ensemble_bytes"]
        checks.extend(workload.check(workload.collect(raw)))
        del raw
        # whole rounds only: stop before a round that would overrun
        elapsed = time.perf_counter() - begin
        if not all(c["ok"] for c in checks) or args.mode == "traced" \
                or elapsed + elapsed / len(rounds) > args.seconds:
            break
    if args.mode == "measure" and hasattr(workload, "determinism"):
        checks.append(workload.check_determinism(workload.determinism()))
        attempted += 2

    result.update(
        rounds=rounds, cpu_per_round_s=cpu / len(rounds), peak_rss_mb=rss,
        attempted=attempted, failed=failed, ensemble_bytes=ensemble_bytes,
        checks=checks,
    )
    if tracer is not None:
        from tracing import summarize

        tracer.save(out.parent / ("trace-%s-%d.npz" % (args.workload,
                                                       args.seed)), spans)
        result["spans"] = int(len(spans["name"]))
        result["summary"] = summarize(tracer.names, spans)
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
