#!/usr/bin/env python3
"""The repository benchmark: served latency, bulk throughput, cold learning.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer ledger.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKLOADS = ("interactive", "bulk", "learn")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(CHECKOUT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")) or not os.path.isdir(
        os.path.join(CHECKOUT, "models")
    ):
        print(
            f"error: {CHECKOUT} holds no repro sources (src/repro) and models/; "
            f"run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [src, CHECKOUT]
    os.environ.pop("REPRO_BACKEND", None)
    # One CPU for this process and, by inheritance, the server it starts:
    # a wake-up across virtual CPUs is what varies most on a shared host
    # (see README.md, "Noise").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from perfbench import workloads

    work_dir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), CHECKOUT, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it
    for name, entry in sorted(result["metrics"].items()):
        calls = f"  ({entry.pop('calls')} calls)" if "calls" in entry else ""
        print(f"{args.workload:12s} {name:28s} {entry['value']:14.4f} {entry['unit']}{calls}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
