"""Spans around growbench's layer entry points, and the per-layer metrics.

While a `Tracer` is installed it replaces the entry points as they are
bound in the `growbench.harness` namespace (plus `MomentEnsemble.update`
and the `timing.SHOULD_GROW` entries) with wrappers that record one span
per call: name, parent, start, end, self time, and an optional size
(rows evaluated, rows built, or 1 for a deadline-forced growth).
Spans stay in memory; `layer_metrics` reduces them at the end.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from growbench import harness, morph, timing

# harness-namespace entry point -> layer it belongs to
HARNESS_ENTRY_POINTS = {
    "loss_grads_logits": "netcore",
    "sgd_step": "netcore",
    "accuracy_and_loss": "netcore",
    "evaluate": "netcore",
    "lr_at": "netcore",
    "grow": "morph",
    "build_datasets": "data",
    "gen_gaussians": "data",
    "load_idx": "data",
    "run": "harness",
}
LAYER_OF = dict(HARNESS_ENTRY_POINTS, ema_update="morph", decide="timing")
LAYERS = ("netcore", "morph", "timing", "data")

_SIZES = {
    "accuracy_and_loss": lambda args, out: len(args[1]),
    "build_datasets": lambda args, out: sum(len(ds) for ds in out),
    "decide": lambda args, out: int(bool(out) and args[0].deadline_reached(args[1])),
}


@dataclass
class Span:
    name: str
    parent: str | None
    start_ns: int
    end_ns: int = 0
    self_ns: int = 0
    size: int = 0

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name: str, fn):
        spans, open_, size = self.spans, self._open, _SIZES.get(name)

        def traced(*args, **kwargs):
            span = Span(name, open_[-1].name if open_ else None, time.perf_counter_ns())
            open_.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                open_.pop()
                span.self_ns += span.dur_ns
                if open_:
                    open_[-1].self_ns -= span.dur_ns
                spans.append(span)
            if size is not None:
                span.size = size(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block, then restore."""
        saved_harness = {name: getattr(harness, name) for name in HARNESS_ENTRY_POINTS}
        saved_update = morph.MomentEnsemble.update
        saved_policies = dict(timing.SHOULD_GROW)
        try:
            for name, fn in saved_harness.items():
                setattr(harness, name, self.wrap(name, fn))
            morph.MomentEnsemble.update = self.wrap("ema_update", saved_update)
            for policy, fn in saved_policies.items():
                timing.SHOULD_GROW[policy] = self.wrap("decide", fn)
            yield self
        finally:
            for name, fn in saved_harness.items():
                setattr(harness, name, fn)
            morph.MomentEnsemble.update = saved_update
            timing.SHOULD_GROW.update(saved_policies)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 when nothing was recorded."""
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def _epoch_ms(spans: list[Span]) -> list[float]:
    """Epoch lengths: from each once-per-epoch lr_at call to the next, or to the run's end."""
    starts = sorted(s.start_ns for s in spans if s.name == "lr_at")
    out = []
    for run in (s for s in spans if s.name == "run"):
        inside = [t for t in starts if run.start_ns <= t <= run.end_ns] + [run.end_ns]
        out += [(b - a) / 1e6 for a, b in zip(inside, inside[1:])]
    return out


def layer_metrics(spans: list[Span], traced_walls: list[float]) -> tuple[dict[str, float], float]:
    """Per-layer metrics from the spans of `len(traced_walls)` traced calls.

    Returns the metrics and the share of the traced wall time that the
    layers' self times (plus harness.run's own) account for, in percent.
    """
    calls = len(traced_walls)
    wall_ns = sum(traced_walls) * 1e9
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durs(name: str, scale: float) -> list[float]:
        return [s.dur_ns / scale for s in by_name.get(name, [])]

    def per_call(name: str) -> float:
        return len(by_name.get(name, [])) / calls

    def share(names) -> float:
        return 100.0 * sum(s.self_ns for n in names for s in by_name.get(n, [])) / wall_ns

    layer_share = {layer: share([n for n, lay in LAYER_OF.items() if lay == layer]) for layer in LAYERS}
    evals = by_name.get("accuracy_and_loss", [])
    eval_s = sum(s.dur_ns for s in evals) / 1e9
    builds = by_name.get("build_datasets", [])
    epochs = _epoch_ms(spans)
    metrics = {
        "netcore.fwd_bwd_us.p50": percentile(durs("loss_grads_logits", 1e3), 50),
        "netcore.fwd_bwd_us.p99": percentile(durs("loss_grads_logits", 1e3), 99),
        "netcore.fwd_bwd_calls": per_call("loss_grads_logits"),
        "netcore.sgd_us.p50": percentile(durs("sgd_step", 1e3), 50),
        "netcore.sgd_us.p99": percentile(durs("sgd_step", 1e3), 99),
        "netcore.eval_ms.p50": percentile(durs("evaluate", 1e6), 50),
        "netcore.eval_ms.p90": percentile(durs("evaluate", 1e6), 90),
        "netcore.eval_rows_per_s": sum(s.size for s in evals) / eval_s if eval_s else 0.0,
        "netcore.share_pct": layer_share["netcore"],
        "netcore.fwd_bwd_share_pct": share(["loss_grads_logits"]),
        "netcore.sgd_share_pct": share(["sgd_step"]),
        "netcore.eval_share_pct": share(["evaluate", "accuracy_and_loss"]),
        "morph.grow_us.p50": percentile(durs("grow", 1e3), 50),
        "morph.grow_calls": per_call("grow"),
        "morph.ema_update_us.p99": percentile(durs("ema_update", 1e3), 99),
        "morph.ema_updates": per_call("ema_update"),
        "morph.share_pct": layer_share["morph"],
        "timing.decide_us.p50": percentile(durs("decide", 1e3), 50),
        "timing.decisions": per_call("decide"),
        "timing.growths_forced": sum(s.size for s in by_name.get("decide", [])) / calls,
        "timing.share_pct": layer_share["timing"],
        "data.build_ms": percentile(durs("build_datasets", 1e6), 50),
        "data.gen_ms": percentile(durs("gen_gaussians", 1e6), 50),
        "data.load_ms": percentile(durs("load_idx", 1e6), 50),
        "data.rows": statistics.median(s.size for s in builds) if builds else 0,
        "data.share_pct": layer_share["data"],
        "harness.epoch_ms.p50": percentile(epochs, 50),
        "harness.epoch_ms.p80": percentile(epochs, 80),
        "harness.self_share_pct": share(["run"]),
        "harness.runs": per_call("run"),
    }
    accounted = sum(layer_share.values()) + metrics["harness.self_share_pct"]
    return metrics, accounted
