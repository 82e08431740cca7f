"""Show that the benchmark's checker counts broken runs as failed.

Run from the repository root:

    python3 perfbench/selftest.py

Two underfit seed-0 calls go through the same timing loop and checks as
the benchmark, and each must count as failed:

1. with --train.lr_base=50 the run diverges (NaN training loss) and still
   returns a RunResult;
2. a clean run checked against a deliberately corrupted pinned fingerprint.

Exits 0 when both are counted as failed, 1 otherwise.
"""

from __future__ import annotations

import sys
import tempfile

import run

SEED = 0


def main() -> int:
    if not run.import_growbench():
        return 2
    import bench
    import envfacts

    key = envfacts.pin_key(envfacts.blas_facts())
    cases = (
        ("diverged run (--train.lr_base=50)", {}, ["--train.lr_base=50"]),
        ("corrupted pinned fingerprint", {key: {"underfit": {str(SEED): "0" * 16}}}, []),
    )
    all_caught = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for label, pins, overrides in cases:
            _, _, reps = bench.run_workload("underfit", SEED, 0.0, False, workdir, pins, key, overrides)
            failed = sum(r.runs for r in reps if r.problems)
            attempted = sum(r.runs for r in reps)
            caught = failed == attempted > 0
            all_caught &= caught
            print(f"{label}: {failed}/{attempted} runs failed -> {'ok' if caught else 'NOT CAUGHT'}")
            for p in (p for r in reps for p in r.problems):
                print(f"    {p}")
    return 0 if all_caught else 1


if __name__ == "__main__":
    sys.exit(main())
