"""Run the patreid benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload std-split --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Prints one line per metric (name, value, unit), a ``details`` JSON line
(environment, input and output digests, checks), and last the result JSON
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None):
    import bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "patreid" / "__init__.py").is_file():
        print(f"error: {SRC / 'patreid'} not found; run from a checkout", file=sys.stderr)
        return 2
    for var in bench.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        line, details = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in line["metrics"].items():
        print(f"{name:<28} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
