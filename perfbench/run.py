"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload query_tail --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload traced and prints the per-layer metrics.  Prepared inputs
(corpus, index, oracle answers) are cached under ``.perfbench/cache``;
a missing cache is filled first, in a separate process.  The exit code
is 0 only when every answer was right.  Every process the run starts has
ended before it exits, on every path out of it (SIGTERM included).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("query_tail", "query_head", "build")
PREPARE_TIMEOUT_S = 840


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "raystorm")):
        print(f"no raystorm/ package in {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    from perfbench import raystart

    raystart.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run_workload(args)
    finally:
        raystart.reap_descendants()


def run_workload(args) -> int:
    from perfbench import inputs, prepare, workloads

    paths = prepare.paths(ROOT)
    if not prepare.ready(paths):
        subprocess.run(
            [sys.executable, os.path.join("perfbench", "prepare.py")],
            check=True,
            stdout=sys.stderr,
            timeout=PREPARE_TIMEOUT_S,
        )
    print(
        f"inputs: corpus={paths['corpus_digest']} index={paths['index_key']} "
        f"source={prepare.source_digest(ROOT)} queries={inputs.query_digest(args.seed)}"
    )
    run = workloads.Run(ROOT, paths, args.seed, args.seconds, bool(args.trace))
    try:
        result = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
