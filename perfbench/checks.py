"""Correctness checks on every timed call, and the pinned fingerprints.

A fingerprint is a sha256 over the numeric fields of the public result
types (`RunResult`/`EpochMetrics`/`GrowthEvent`, or the rows of a
`ComparisonTable`), never over JSON text, so new fields in the metrics
file format leave it unchanged. Wall-clock fields are left out.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from growbench import harness, timing
from growbench.arch import parse_arch

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
PINNED_SEEDS = range(10)

# ComparisonRow fields that are deterministic; time_pct is wall-derived.
_ROW_VALUES = ("n_seeds", "n_failed", "test_error_median", "test_error_spread",
               "train_error_median", "train_error_spread", "e_bar_median")


def _none_as_nan(v) -> float:
    return math.nan if v is None else float(v)


def fingerprint_run(result: harness.RunResult) -> str:
    h = hashlib.sha256()
    for m in result.metrics:
        h.update(np.array([m.epoch, m.train_acc, m.val_acc, m.test_acc, m.train_loss,
                           m.orl, m.lr, *m.blocks, m.grew], dtype=np.float64).tobytes())
    for e in result.events:
        h.update(np.array([e.epoch, e.stage, e.block_index], dtype=np.float64).tobytes())
        h.update(e.init_rule.encode())
    h.update(np.array([_none_as_nan(result.e_bar), result.final_test_error,
                       result.final_train_error], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def fingerprint_table(table: harness.ComparisonTable) -> str:
    h = hashlib.sha256()
    for row in table.rows:
        h.update(row.label.encode())
        h.update(np.array([_none_as_nan(getattr(row, k)) for k in _ROW_VALUES],
                          dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def check_run(result: harness.RunResult, cfg: harness.TrainConfig,
              reread: harness.RunResult) -> list[str]:
    """Invariants every grow-train-finetune run must meet; [] when all hold."""
    problems = []
    if len(result.metrics) != cfg.total_epochs:
        problems.append(f"{len(result.metrics)} epochs recorded, expected {cfg.total_epochs}")
    bad = [m.epoch for m in result.metrics
           if not all(map(math.isfinite, (m.train_acc, m.val_acc, m.test_acc, m.train_loss, m.orl, m.lr)))]
    summary = [result.final_test_error, result.final_train_error]
    if result.e_bar is not None:
        summary.append(result.e_bar)
    if bad or not all(map(math.isfinite, summary)):
        problems.append(f"non-finite loss or accuracy (first at epoch {bad[0] if bad else 'summary'})")
    budget = harness.config_added_blocks(cfg)
    if len(result.events) != budget:
        problems.append(f"{len(result.events)} growths, budget is {budget}")
    target = parse_arch(cfg.target_arch, 1, 2).blocks_per_stage
    if not result.metrics or result.metrics[-1].blocks != target:
        problems.append(f"final blocks are not the target {target}")
    deadline = cfg.total_epochs - cfg.min_finetune_epochs
    if result.events and max(e.epoch for e in result.events) > deadline:
        problems.append(f"last growth after epoch {deadline}")
    if result.events:
        expected = timing.average_training_epochs(result.events, cfg.total_epochs)
        if result.e_bar != expected:
            problems.append(f"e_bar {result.e_bar} != average_training_epochs {expected}")
    if reread != result:
        problems.append("write_metrics -> read_metrics round trip changed the result")
    return problems


def check_table(table: harness.ComparisonTable, labels: list[str], seeds: list[int]) -> list[str]:
    """compare does not return its runs: check n_failed and the CSV without time_pct."""
    problems = []
    if [r.label for r in table.rows] != labels:
        problems.append(f"rows {[r.label for r in table.rows]} != configs {labels}")
    for r in table.rows:
        if r.n_seeds != len(seeds) or r.n_failed:
            problems.append(f"{r.label}: {r.n_failed}/{r.n_seeds} runs failed {list(r.errors)}")
    rows = list(csv.DictReader(io.StringIO(table.to_csv())))
    for row in rows:
        for key, cell in row.items():
            if key in ("config", "time_pct"):
                continue
            if cell == "" or not math.isfinite(float(cell)):
                problems.append(f"csv {row['config']}.{key} is {cell!r}")
    return problems


def load_pins() -> dict:
    with open(PINS_PATH) as f:
        return json.load(f)


def check_pin(pins: dict, key: str, workload: str, seed: int, fp: str) -> str | None:
    """Problem text if a fingerprint is pinned for (key, workload, seed) and differs."""
    want = pins.get(key, {}).get(workload, {}).get(str(seed))
    if want is not None and want != fp:
        return f"fingerprint {fp} != pinned {want} ({key}, seed {seed})"
    return None


def is_pinned(pins: dict, key: str, workload: str, seed: int) -> bool:
    return str(seed) in pins.get(key, {}).get(workload, {})
