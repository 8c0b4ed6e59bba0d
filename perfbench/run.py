"""End-to-end benchmark of the reproduction: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce-cold --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-mix --seed 7 \\
        --seconds 20 --trace 1
    python3 perfbench/run.py --make-reference

Workloads: ``reproduce-cold``, ``reproduce-warm`` (:mod:`reproduce`) and
``serve-mix`` (:mod:`serve_mix`).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes a separate traced run for the per-layer
metrics and writes its spans as Chrome trace JSON.  Every program
output is checked against ``reference.json``.  The last line of
standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

import common
from common import END_TO_END, PER_LAYER, WORK_ROOT, BenchError

WORKLOADS = ("reproduce-cold", "reproduce-warm", "serve-mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--make-reference",
        action="store_true",
        help="regenerate perfbench/reference.json from this checkout",
    )
    args = parser.parse_args(argv)
    if not args.make_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def write_trace(name: str, spans_list) -> str:
    """Write the traced run's spans as Chrome trace JSON; returns its path."""
    import spans
    from repro.obs import validate_chrome_trace

    payload = spans.chrome_trace(spans_list)
    validate_chrome_trace(payload)
    out_dir = WORK_ROOT / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (name + ".trace.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return str(path)


def report(args, result, load_1min) -> dict:
    """Print the human-readable summary and return the result object."""
    tally = result["tally"]
    info = dict(
        result["info"], load_avg_1min=load_1min, failed_pct=tally.failed_pct
    )
    name = "%s-seed%d" % (args.workload, args.seed)
    print("perfbench %s trace=%d" % (name, args.trace))
    print("  1-minute load average at start: %.2f" % load_1min)
    for key, value in sorted(info.items()):
        if key != "traced":
            print("  %s: %s" % (key, json.dumps(value)))
    print(
        "  attempted %d, failed %d (failed_pct %.3f)"
        % (tally.attempted, tally.failed, tally.failed_pct)
    )
    for problem in tally.problems:
        print("  FAILED: %s" % problem)
    if args.trace:
        metrics = common.metric_block(result["layers"], PER_LAYER)
        print("  layer self time (s):")
        for layer, seconds in result["layer_table"]:
            print("    %-24s %10.4f" % (layer, seconds))
        print("  chrome trace: %s" % write_trace(name, result["spans"]))
    else:
        metrics = common.metric_block(result["e2e"], END_TO_END)
    for name, entry in metrics.items():
        print("  %-28s %14.6g %s" % (name, entry["value"], entry["unit"]))
    sidecar = WORK_ROOT / "results"
    sidecar.mkdir(parents=True, exist_ok=True)
    path = sidecar / ("%s-trace%d.json" % (name, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        details = {"info": info, "metrics": metrics}
        json.dump(dict(details, problems=tally.problems), handle, indent=1)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks that stop program processes
    # and remove the run's directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        common.check_environment()
        common.import_program()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    import reference

    if args.make_reference:
        data = reference.make()
        print(
            "wrote %s: %d experiments, %d simulations"
            % (
                reference.PATH,
                len(data["experiments"]),
                len(data["simulations"]),
            )
        )
        return 0
    ref = reference.load()
    load_1min = os.getloadavg()[0]
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        from pathlib import Path

        if args.workload == "serve-mix":
            import serve_mix

            result = serve_mix.run(
                args.seed, args.seconds, args.trace, Path(work), ref
            )
        else:
            import reproduce

            result = reproduce.run(
                args.workload,
                args.seed,
                args.seconds,
                args.trace,
                Path(work),
                ref,
            )
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        common.stop_calibration()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(args, result, load_1min)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
