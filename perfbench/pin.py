"""Pin the fingerprints of the benchmark's seeds on this machine.

Run from the repository root, once per BLAS thread count to pin:

    python3 perfbench/pin.py                          # OpenBLAS's default count
    OPENBLAS_NUM_THREADS=1 python3 perfbench/pin.py   # 1 thread

Each workload is called once for each of the pinned seeds 0-9. A call
that fails a check is not pinned and makes the script exit 1. Fingerprints go into pinned.json
under this machine's key: numpy version, OpenBLAS kernel family and
effective BLAS thread count, because a K=784 matmul returns different
bytes with 1 and 2 threads. Re-pin only for a deliberate behaviour
change; an optimisation must leave every pinned fingerprint unchanged.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run


def main() -> int:
    if not run.import_growbench():
        return 2
    import bench
    import checks
    import envfacts

    key = envfacts.pin_key(envfacts.blas_facts())
    pins = checks.load_pins()
    table = pins.setdefault(key, {})
    status = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for name in run.WORKLOADS:
            for seed in checks.PINNED_SEEDS:
                _, _, reps = bench.run_workload(name, seed, 0.0, False, workdir, {}, key)
                rep = reps[0]
                if rep.problems:
                    print(f"{key} {name} seed {seed}: NOT PINNED: {rep.problems}", flush=True)
                    status = 1
                    continue
                table.setdefault(name, {})[str(seed)] = rep.fingerprint
                print(f"{key} {name} seed {seed}: {rep.fingerprint} ({rep.wall_s:.2f} s)", flush=True)
    with open(checks.PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
