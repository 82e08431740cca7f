"""Timing loop, per-call checks and metric reduction for one workload."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import checks
import spans
import workloads
from growbench import harness

SETUP_REPS = 25


@dataclass
class Rep:
    """One call of the workload and what its checks found."""

    wall_s: float
    cpu_s: float
    runs: int
    tracer: spans.Tracer | None = None
    fingerprint: str | None = None
    test_error_pct: float = 0.0
    write_ms: float | None = None
    read_ms: float | None = None
    problems: list[str] = field(default_factory=list)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(wl: workloads.Workload, setup: workloads.Setup, metrics_path: str,
            tracer: spans.Tracer | None = None) -> Rep:
    """Time one call of the workload, then check its output.

    A single run's result goes through write_metrics/read_metrics at
    `metrics_path`, a new file: rewriting an existing file can wait on a
    flush of its old blocks, which would time the disk, not growbench.
    """
    gc.collect()  # free the previous call's cycles here, not in this call's time or peak memory
    t_cpu, t0 = _cpu_s(), time.perf_counter()
    try:
        if tracer is None:
            out = wl.call(setup.configs)
        else:
            with tracer.installed():
                out = wl.call(setup.configs)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed call is a failed check, not a crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    rep = Rep(time.perf_counter() - t0, _cpu_s() - t_cpu, wl.runs_per_call(), tracer)
    if error is not None:
        rep.problems.append(error)
    elif wl.compare_seeds is None:
        t1 = time.perf_counter()
        harness.write_metrics(out, metrics_path)
        t2 = time.perf_counter()
        reread = harness.read_metrics(metrics_path)
        rep.write_ms, rep.read_ms = (t2 - t1) * 1e3, (time.perf_counter() - t2) * 1e3
        rep.problems += checks.check_run(out, setup.configs[0][1], reread)
        rep.fingerprint = checks.fingerprint_run(out)
        rep.test_error_pct = out.final_test_error
    else:
        rep.problems += checks.check_table(out, [label for label, _ in setup.configs], wl.compare_seeds)
        rep.fingerprint = checks.fingerprint_table(out)
        medians = [r.test_error_median for r in out.rows if r.test_error_median is not None]
        rep.test_error_pct = statistics.median(medians) if medians else float("nan")
    return rep


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 pins: dict, pin_key: str, extra_overrides: list[str] | None = None):
    """Set up SETUP_REPS times, then call the workload until `seconds` pass.

    With `trace`, calls alternate untraced and traced, starting untraced.
    Returns (workload, setups, reps).
    """
    wl = workloads.make(name, seed, workdir, extra_overrides)
    setups = [wl.setup() for _ in range(SETUP_REPS)]
    reps: list[Rep] = []
    window_end = time.perf_counter() + seconds
    while True:
        tracer = spans.Tracer() if trace and len(reps) % 2 == 1 else None
        rep = measure(wl, setups[-1], os.path.join(workdir, f"metrics-{len(reps)}.jsonl"), tracer)
        if rep.fingerprint is not None:
            first = reps[0].fingerprint if reps else None
            if first is not None and rep.fingerprint != first:
                rep.problems.append(f"fingerprint {rep.fingerprint} differs from the first call's "
                                    f"{first}: same inputs, different output")
            pin_problem = checks.check_pin(pins, pin_key, name, seed, rep.fingerprint)
            if pin_problem:
                rep.problems.append(pin_problem)
        reps.append(rep)
        left = window_end - time.perf_counter()
        if len(reps) >= (2 if trace else 1) and left < statistics.median(r.wall_s for r in reps):
            break
    return wl, setups, reps


def end_to_end(wl: workloads.Workload, setups: list[workloads.Setup], reps: list[Rep]) -> dict[str, float]:
    timed = [r for r in reps if r.tracer is None]
    samples = wl.samples_per_call(setups[-1])
    return {
        "run_s": statistics.median(r.wall_s for r in timed),
        "cpu_s": statistics.median(r.cpu_s for r in timed),
        "train_samples_per_s": statistics.median(samples / r.wall_s for r in timed),
        "setup_s": statistics.median(s.total_s for s in setups),
        "peak_rss_mb": peak_rss_mb(),
        "final_test_error_pct": statistics.median(r.test_error_pct for r in timed),
    }


def per_layer(setups: list[workloads.Setup], reps: list[Rep],
              blas_threads: int | None) -> tuple[dict[str, float], float]:
    """Per-layer metrics, and the share of traced run_s the layers account for."""
    traced = [r for r in reps if r.tracer is not None]
    untraced = [r for r in reps if r.tracer is None]
    all_spans = [s for r in traced for s in r.tracer.spans]
    metrics, accounted = spans.layer_metrics(all_spans, [r.wall_s for r in traced])
    writes = [r.write_ms for r in reps if r.write_ms is not None]
    reads = [r.read_ms for r in reps if r.read_ms is not None]
    metrics.update({
        "netcore.build_ms": statistics.median(t for s in setups for t in s.build_network_s) * 1e3,
        "netcore.blas_threads": blas_threads if blas_threads is not None else 0,
        "harness.write_metrics_ms": statistics.median(writes) if writes else 0.0,
        "harness.read_metrics_ms": statistics.median(reads) if reads else 0.0,
        "cli.load_config_ms": statistics.median(t for s in setups for t in s.load_config_s) * 1e3,
        "trace.overhead_pct": 100.0 * (statistics.median(r.wall_s for r in traced)
                                       / statistics.median(r.wall_s for r in untraced) - 1.0),
    })
    return metrics, accounted
