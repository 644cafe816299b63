"""Run the benchmark on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload curve_lab [--first-seed 0]

It runs seeds first-seed .. first-seed + 9 for BENCHMARK.json's run_seconds
each.  For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of that median, next to the metric's bound in BENCHMARK.json.  Runs
are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + SEEDS):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct=false\n{out.stderr}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(json.dumps({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}}),
              flush=True)
    print(f"{'metric':<16} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{m['name']:<16} {med:>12.6g} {spread:>11.4f} {m['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
