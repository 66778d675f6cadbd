"""Run the benchmark once per seed and print each metric's median and spread.

    python3 perfbench/spread.py --workload oracle_sweep --seeds 1-10

Each run measures for BENCHMARK.json's run_seconds, with --trace 0.

The spread is the distance between the first and third quartile as a share
of the median (statistics.quantiles with n=4), the figure a metric's bound in
BENCHMARK.json is compared with.  Runs go one after another, never in
parallel, so they do not slow each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    shares = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed share: {sorted(set(shares))}")
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) >= 2 else float("nan")
        print(f"{name:34s} median {statistics.median(series):.6g}  "
              f"spread {spread:.4f}  min {min(series):.6g}  max {max(series):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
