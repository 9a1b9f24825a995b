"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tcp-bulk-sim --runs 10

Each run is a fresh ``run.py`` process with seed ``first, first+1, ...``.
For every metric it prints the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, next to the bound in ``BENCHMARK.json``.  Exits
1 if a run fails or a spread (``setup_s`` excepted) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= int(not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)

    print(f"\n{'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, status = "  OVER", 1
        print(f"{name:20s} {median:12.5g} {spread:8.3f} {bound!s:>6s}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
