#!/usr/bin/env python3
"""spikenoc benchmark: host time to deploy and simulate fixed workloads in
both transmission modes, with every mode run checked for correctness.

    python3 perfbench/run.py                  # every workload, one table
    python3 perfbench/run.py --workload conv-congested --seed 3 \\
        --seconds 42 --trace 0

With ``--workload NAME`` the run repeats that workload for ``--seconds`` and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Without ``--workload`` every workload runs in a fresh process of its own, so
that each reports its own peak RSS.

Host times are in reference seconds: wall time scaled by a host-speed probe
run before and after each timed region (see ``measure.PROBE_REF_S``); the
wall-clock medians go to standard error.  Modeled times and traffic come
from the simulator's cycle model and are not validated against hardware.

The simulator is imported from ``src/`` next to this directory; the run
writes only under ``.perfbench-work/`` there and removes it when done.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
WORKLOAD_NAMES = ("conv-congested", "izh-quiet", "brunel-cli")
RUN_SECONDS = 42


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=3,
                    help="workload seed; 3 is the seed the pinned outputs "
                         "belong to")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="time budget for the measured repetitions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 runs traced and reports per-layer metrics")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh interpreter; prints one table."""
    failed = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += doc["failed"]
        print(f"{name} (seed {args.seed}): correct={doc['correct']} "
              f"error_rate={doc['failed'] / doc['attempted']:.4g} "
              f"({doc['failed']}/{doc['attempted']} mode runs)")
        for metric, v in doc["metrics"].items():
            print(f"  {metric:<32} {v['value']:>16.6g} {v['unit']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spikenoc", "__init__.py")):
        print(f"error: spikenoc sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.dont_write_bytecode = True      # leave the checkout as it was
    sys.path.insert(0, SRC)
    import measure
    from workloads import WORKLOADS
    doc = measure.run(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), WORK_ROOT)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
