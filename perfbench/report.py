"""Print every metric of every workload by name, with its unit.

Run from the repository root:

    python3 perfbench/report.py --seed 0 --seconds 30

Runs perfbench/run.py once per workload, one after the other, each in
its own process, and prints its end-to-end metrics and failed_frac.
`run.py --trace 1` prints a workload's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    status = 0
    for name in run.WORKLOADS:
        cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        frac = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} failed_frac={frac:g} "
              f"({result['failed']}/{result['attempted']} runs)")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']}")
        if not result["correct"]:
            print(proc.stderr, end="")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
