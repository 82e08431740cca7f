"""growbench benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload underfit --seed 0 --seconds 30 --trace 0

The workload's inputs are made from --seed. After a few timed set-ups it
repeats the workload's call (`harness.run` or `harness.compare`) until
--seconds have passed, checks every call's output, and prints the
environment facts, one line per metric, and last a JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced calls and
reports the per-layer metrics. All the work happens in this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("underfit", "policy_compare", "deep_idx")
# Per-layer counts a traced run must find above 0: the paths deep_idx exists for.
TRACE_NONZERO = {"deep_idx": ("morph.ema_updates", "timing.growths_forced")}
# netcore's fwd+bwd / SGD / eval shares of an underfit run in ROADMAP's Baseline.
UNDERFIT_BASELINE_SHARES = (52, 15, 24)


def import_growbench() -> bool:
    """Import growbench from the checkout's src/.

    BLAS threading is left as the caller and the program set it; the
    effective count is recorded with the result. Returns False when the
    checkout has no src/growbench.
    """
    if not os.path.isfile(os.path.join(SRC, "growbench", "__init__.py")):
        print(f"perfbench: no growbench package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import growbench

    if not os.path.abspath(growbench.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported growbench from {growbench.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not import_growbench():
        return 2
    import bench
    import checks
    import envfacts

    blas = envfacts.blas_facts()
    facts = envfacts.facts(ROOT, blas)
    facts.update(workload=args.workload, seed=args.seed,
                 trace=args.trace, load_1min_start=envfacts.loadavg_1min())
    pins = checks.load_pins()
    facts["pinned"] = checks.is_pinned(pins, facts["pin_key"], args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl, setups, reps = bench.run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace), workdir, pins, facts["pin_key"])
    facts.update(load_1min_end=envfacts.loadavg_1min(), calls=len(reps))
    print("env " + json.dumps(facts))

    problems = [p for r in reps for p in r.problems]
    if args.trace:
        metrics, accounted = bench.per_layer(setups, reps, blas["threads"])
        units = declared_units("per_layer")
        print(f"{args.workload} layer shares + harness self = {accounted:.2f} % of traced run_s")
        if abs(accounted - 100.0) > 2.0:
            problems.append(f"layer shares account for {accounted:.2f} % of the traced run_s, not 100 %")
        problems += [f"{name} is {metrics[name]}, expected > 0"
                     for name in TRACE_NONZERO.get(args.workload, ()) if not metrics[name] > 0]
        if args.workload == "underfit":
            shares = [metrics[f"netcore.{k}_share_pct"] for k in ("fwd_bwd", "sgd", "eval")]
            print("underfit netcore fwd+bwd / SGD / eval shares = "
                  + " / ".join(f"{v:.1f}" for v in shares)
                  + " % (baseline " + " / ".join(map(str, UNDERFIT_BASELINE_SHARES)) + " %)")
    else:
        metrics = bench.end_to_end(wl, setups, reps)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        problems.append(f"reported metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
        units = {k: units.get(k, "?") for k in metrics}

    attempted = sum(r.runs for r in reps)
    failed = sum(r.runs for r in reps if r.problems)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed}/{attempted} runs)")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
