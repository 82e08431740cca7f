"""Grow-train-finetune loop, per-epoch evaluation, metrics I/O, comparisons.

One run: train batches each epoch under the two-phase LR schedule; at each
epoch end evaluate train/val/test, feed the fitting-risk reading to the
when-to-grow policy, and insert one block when it fires. Once the network
reaches target size the remaining epochs finetune under cosine decay.
A batch loss that is not finite stops the run with an error naming the
epoch and batch, and so does a full-train loss that is not finite at an
epoch's end; numpy's own floating-point warnings are silenced there.
Runs are bit-deterministic for a fixed config and seed: `netcore` runs
numpy's OpenBLAS on one thread by default, and only an explicit
OPENBLAS_NUM_THREADS can change the bytes of a wide-input run (784 IDX
pixels).

`run` takes one config, or a list of configs that differ only in
`run_seed`, `seed_arch` and `policy`: `compare` passes each such group
for all seeds. The runs of one seed and seed net share one trajectory
until their growth decisions differ, and then it forks. Each epoch, the
trajectories whose networks have one shape train as one `netcore.Stack`,
so a target-size ("vanilla") run joins grown runs at the target shape.
Every run still gets its solo run's bytes. A run's `wall_seconds` is the
wall time of the whole `run` call; its own cost is `train_macs`, a count
that sharing does not change.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .arch import ArchSpec, parse_arch
from .config import DataConfig, PolicyConfig, TrainConfig, config_added_blocks
from .data import Dataset, gaussian_arrays, read_csv, read_idx, split_standardized
from .morph import GrowthEvent, MomentEnsemble, grow, next_stage
from .netcore import (
    Network,
    accuracy,
    accuracy_and_loss,
    build_network,
    layers,
    loss_grads_logits,
    lr_at,
    sgd_step,
    stack_networks,
)
from .rng import substream
from .timing import SHOULD_GROW, PolicyState, average_training_epochs, orl


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_acc: float
    val_acc: float
    test_acc: float
    train_loss: float
    orl: float
    lr: float
    blocks: tuple[int, ...]  # per-stage counts at epoch end, after any growth
    grew: bool


@dataclass(frozen=True)
class EvalReport:
    train_acc: float
    val_acc: float
    test_acc: float
    train_loss: float


@dataclass
class RunResult:
    metrics: list[EpochMetrics]
    events: list[GrowthEvent]
    e_bar: float | None
    final_test_error: float
    final_train_error: float
    train_macs: int  # forward multiply-accumulates over the training split, all epochs
    wall_seconds: float


# Set-up generates and loads through these two names for data's array
# readers, so a profiler can wrap them here (perfbench/spans.py does).
gen_gaussians, load_idx = gaussian_arrays, read_idx


def _read_source(cfg: DataConfig, test: bool) -> tuple[np.ndarray, np.ndarray]:
    """Fresh (features, labels) arrays of the train/val pool or of the test split."""
    if cfg.source == "gaussians":
        seed = cfg.data_seed
        if test:
            seed = int(substream(cfg.data_seed, "test-pool-seed").integers(0, 2**63))
        return gen_gaussians(cfg.classes, cfg.dim, cfg.test_per_class if test else cfg.per_class,
                             cfg.sep, cfg.label_noise, seed)
    if cfg.source == "idx":
        if test:
            return load_idx(cfg.test_images, cfg.test_labels)
        return load_idx(cfg.train_images, cfg.train_labels)
    return read_csv(cfg.test_csv if test else cfg.train_csv)


def _pool_classes(labels: np.ndarray, source: str) -> int:
    """K of a file-backed training pool, whose labels must cover every class 0..K-1, K >= 2."""
    present = np.unique(labels)  # sorted, distinct and >= 0: K is the length of 0, 1, ... in it
    k = int(np.count_nonzero(present == np.arange(len(present))))
    if k < max(len(present), 2):
        raise ValueError(f"{source}: no training row has label {k}; the labels must cover every "
                         f"class from 0 to {max(present[-1], 1)}, with at least 2 classes")
    return k


def build_datasets(cfg: DataConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Materialize (train, val, test), standardized on the train split.

    Splits the pool, fits the standardization on train and applies it to
    every split, in the arrays set-up reads or generates: train lives in
    the pool's array, val is copied out of it and test is standardized
    where it is read, so set-up peaks at about 1.07x the bytes it returns.
    A file-backed pool whose labels miss a class 0..K-1 (K >= 2) and a
    test label outside the pool's classes are rejected here, naming the
    label file, and a split that leaves a class no training row naming
    `data.val_fraction`; only the three returned splits are checked for NaN.
    """
    features, labels = _read_source(cfg, test=False)
    classes = cfg.classes
    if cfg.source != "gaussians":
        classes = _pool_classes(labels, cfg.train_labels if cfg.source == "idx" else cfg.train_csv)
    train_x, train_y, val_x, val_y, tf = split_standardized(features, labels, cfg.val_fraction,
                                                            cfg.data_seed)
    missing = np.flatnonzero(np.bincount(train_y, minlength=classes) == 0)
    if len(missing):
        raise ValueError(f"data.val_fraction = {cfg.val_fraction} leaves class {missing[0]} "
                         f"with no training row: {len(train_y)} of {len(labels)} pool rows train")
    test_x, test_y = _read_source(cfg, test=True)
    top = int(test_y.max())
    if top >= classes:
        source = cfg.test_labels if cfg.source == "idx" else cfg.test_csv
        raise ValueError(f"{source}: label {top} outside the training pool's classes "
                         f"[0, {classes})")
    tf.apply_in_place(test_x)
    return (Dataset(train_x, train_y, classes), Dataset(val_x, val_y, classes),
            Dataset(test_x, test_y, classes))


def _row_macs(arch: ArchSpec, blocks: tuple[int, ...]) -> int:
    """Weight multiply-accumulates of one row's forward pass through `arch` grown to `blocks`."""
    stages = tuple(replace(st, blocks=n) for st, n in zip(arch.stages, blocks))
    return sum(out * in_ for _, (out, in_) in layers(replace(arch, stages=stages)))


def evaluate(net: Network, train: Dataset, val: Dataset, test: Dataset) -> EvalReport:
    """Full-pass accuracies on all three splits plus full-train loss.

    Only the train split's loss is recorded, so val and test compute argmax only.
    """
    train_acc, train_loss = accuracy_and_loss(net, train.features, train.labels)
    return EvalReport(train_acc, accuracy(net, val.features, val.labels),
                      accuracy(net, test.features, test.labels), train_loss)


def _track_next(net: Network, config: TrainConfig, target: ArchSpec,
                last: int = -1) -> MomentEnsemble | None:
    """Under moment init, the EMA shadow of the block preceding the next growth, if square."""
    if config.init != "moment":
        return None
    location = next_stage(config.where, target.blocks_per_stage, net.blocks_per_stage(), last)
    return None if location is None else MomentEnsemble.track(net, location)


@dataclass
class _Branch:
    """One training trajectory and the runs on it (indices into the group's runs)."""

    seed: int
    net: Network
    ensemble: MomentEnsemble | None
    metrics: list[EpochMetrics]
    members: list[int]

    def fork(self, members: list[int]) -> _Branch:
        """An independent copy of this trajectory for `members`."""
        ensemble = self.ensemble and replace(self.ensemble, shadow=self.ensemble.shadow.copy())
        return _Branch(self.seed, self.net.copy(), ensemble, list(self.metrics), members)


def _shared_part(config: TrainConfig) -> TrainConfig:
    """`config` with the fields one `run` call may vary per run reset: seed, seed net and policy."""
    return replace(config, run_seed=0, seed_arch=config.target_arch, policy=PolicyConfig())


def run(configs: TrainConfig | list[TrainConfig]) -> RunResult | list[RunResult | Exception]:
    """Execute grow-train-finetune runs and collect per-epoch metrics.

    One config: return its RunResult, or raise the error that failed it.
    A list of configs that differ only in `run_seed`, `seed_arch` and
    `policy`: one RunResult or exception per config, in order, each its
    solo run's apart from `wall_seconds` (see the module docstring). Any
    other list, the empty one too, raises ValueError before set-up.
    """
    if isinstance(configs, TrainConfig):
        outcome = _run_group([configs])[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    if len({_shared_part(cfg) for cfg in configs}) != 1:
        raise ValueError("run needs one or more configs that differ only in run_seed, seed_arch "
                         "and policy")
    return _run_group(list(configs))


def _run_group(runs: list[TrainConfig]) -> list[RunResult | Exception]:
    """Run each config on shared, stacked trajectories (see the module docstring)."""
    t_start = time.perf_counter()
    config = runs[0]
    outcomes: list[RunResult | Exception | None] = [None] * len(runs)

    def fail(members, exc: Exception) -> None:
        for i in members:
            outcomes[i] = exc

    try:
        train, val, test = build_datasets(config.data)
        seed_archs = {c.seed_arch: parse_arch(c.seed_arch, train.dim, train.num_classes) for c in runs}
        target_arch = parse_arch(config.target_arch, train.dim, train.num_classes)
        keys = [(cfg.run_seed, cfg.seed_arch) for cfg in runs]
        branches = []
        for seed, arch in dict.fromkeys(keys):
            net = build_network(seed_archs[arch], seed)
            members = [i for i, key in enumerate(keys) if key == (seed, arch)]
            branches.append(_Branch(seed, net, _track_next(net, config, target_arch), [], members))
        states = [PolicyState(config.total_epochs, config.min_finetune_epochs,
                              config_added_blocks(cfg), cfg.policy.alpha, cfg.policy.period_scale)
                  for cfg in runs]
    except Exception as exc:  # noqa: BLE001 - a set-up failure fails every run alike
        fail(range(len(runs)), exc)
        return outcomes

    def end_epoch(branch: _Branch, epoch: int, lr: float) -> list[_Branch]:
        """Evaluate, let every run decide, fork and grow; return the live trajectories."""
        try:
            with np.errstate(all="ignore"):
                report = evaluate(branch.net, train, val, test)
            if not math.isfinite(report.train_loss):
                raise RuntimeError(f"training diverged: train loss {report.train_loss} "
                                   f"at the end of epoch {epoch}")
        except Exception as exc:  # noqa: BLE001 - fails every run on this trajectory
            fail(branch.members, exc)
            return []
        orl_pp = orl(report.train_acc, report.val_acc)

        # Every run decides; those that decide alike stay on one trajectory.
        decided: dict[bool, list[int]] = {False: [], True: []}
        for i in branch.members:
            states[i].val_history.append(report.val_acc)
            try:
                grows = (states[i].remaining > 0
                         and SHOULD_GROW[runs[i].policy.name](states[i], epoch, orl_pp))
            except Exception as exc:  # noqa: BLE001 - a failing policy fails only its run
                fail([i], exc)
                continue
            decided[bool(grows)].append(i)
        parts = [(grew, members) for grew, members in decided.items() if members]
        paths = [(grew, branch.fork(members) if k else branch)
                 for k, (grew, members) in enumerate(parts)]
        if parts:
            branch.members = parts[0][1]

        alive = []
        for grew, b in paths:
            if grew:
                try:
                    _grow(b, epoch, config, target_arch, [states[i] for i in b.members])
                except Exception as exc:  # noqa: BLE001 - fails the runs that grew here
                    fail(b.members, exc)
                    continue
            b.metrics.append(EpochMetrics(
                epoch, report.train_acc, report.val_acc, report.test_acc, report.train_loss,
                orl_pp, lr, b.net.blocks_per_stage(), grew))
            alive.append(b)
        return alive

    for epoch in range(config.total_epochs):
        groups: dict[tuple[int, ...], list[_Branch]] = {}
        for branch in branches:
            groups.setdefault(branch.net.blocks_per_stage(), []).append(branch)
        branches = []
        for group in groups.values():
            lrs = [lr_at(config.lr_base, epoch, states[b.members[0]].growth_done_epoch,
                         config.total_epochs) for b in group]
            try:
                failures = _train_epoch(group, lrs, epoch, config, train)
            except Exception as exc:  # noqa: BLE001 - a failed stack fails every run on it
                failures = [exc] * len(group)
            for branch, lr, failure in zip(group, lrs, failures):
                if failure is None:
                    branches += end_epoch(branch, epoch, lr)
                else:
                    fail(branch.members, failure)

    wall_seconds = time.perf_counter() - t_start
    for b in branches:
        remaining = states[b.members[0]].remaining
        if remaining != 0:
            fail(b.members, RuntimeError(
                f"growth budget not exhausted: {remaining} blocks left at the end "
                "(deadline rule violated)"
            ))
        elif b.net.blocks_per_stage() != target_arch.blocks_per_stage:
            fail(b.members, RuntimeError("final architecture does not match the target spec"))
        else:
            last = b.metrics[-1]
            seed_blocks = seed_archs[runs[b.members[0]].seed_arch].blocks_per_stage
            trained = [seed_blocks] + [m.blocks for m in b.metrics[:-1]]
            macs = len(train) * sum(_row_macs(target_arch, blocks) for blocks in trained)
            for i in b.members:
                events = states[i].events
                e_bar = average_training_epochs(events, config.total_epochs) if events else None
                outcomes[i] = RunResult(list(b.metrics), events, e_bar, 100.0 - last.test_acc,
                                        100.0 - last.train_acc, macs, wall_seconds)
    return outcomes


def _train_epoch(group: list[_Branch], lrs: list[float], epoch: int, config: TrainConfig,
                 train: Dataset) -> list[Exception | None]:
    """Train one epoch of same-shape trajectories as one stack; return each one's failure.

    Row s shuffles by its own seed and steps at its own learning rate. A
    row whose batch loss is not finite fails with the error its solo run
    raises; its values stay in its row, so the others train on to their
    solo bytes. The epoch stops early only when every row has failed.
    """
    n_train = len(train)
    stack = stack_networks([b.net for b in group])
    perms = np.stack([substream(b.seed, "shuffle", epoch).permutation(n_train) for b in group])
    lr = np.array(lrs)[:, None]
    ensembles = [(b.ensemble, b.net) for b in group if b.ensemble is not None]
    failures: list[Exception | None] = [None] * len(group)
    with np.errstate(all="ignore"):
        for batch, lo in enumerate(range(0, n_train, config.batch_size)):
            idx = perms[:, lo : lo + config.batch_size]
            losses, _ = loss_grads_logits(stack, train.features[idx], train.labels[idx])
            if not np.isfinite(losses).all():
                for s in np.flatnonzero(~np.isfinite(losses)):
                    if failures[s] is None:
                        failures[s] = RuntimeError(f"training diverged: loss {float(losses[s])} "
                                                   f"at epoch {epoch}, batch {batch}")
                if all(failures):
                    break
            sgd_step(stack, lr)
            for ensemble, net in ensembles:
                ensemble.update(net)
    return failures


def _grow(b: _Branch, epoch: int, config: TrainConfig, target: ArchSpec,
          states: list[PolicyState]) -> None:
    """Insert the next block on `b` and record it in the states of its runs."""
    events = states[0].events
    location = next_stage(config.where, target.blocks_per_stage, b.net.blocks_per_stage(),
                          events[-1].stage if events else -1)
    if location is None:
        raise RuntimeError("policy fired with no unsaturated stage")
    rng = substream(b.seed, "grow", len(events))
    rule = grow(b.net, location, config.init, rng=rng, ensemble=b.ensemble)
    event = GrowthEvent(epoch + 1, location, b.net.blocks_per_stage()[location] - 1, rule)
    for state in states:
        state.record_growth(event)
    b.ensemble = _track_next(b.net, config, target, location)


# --- metrics file I/O -------------------------------------------------------

# A metrics file holds one JSON object per EpochMetrics, then a footer of RunResult's fields
# after `metrics`, with one object per GrowthEvent in `events`. Keys are field names in field
# order, except GrowthEvent's init_rule, which is written as "init".
_KEY = {"init_rule": "init"}

# record field annotation -> (check, what its JSON value must be)
_JSON_TYPES = {
    "int": (lambda v: type(v) is int, "an int"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "float | None": (lambda v: v is None or type(v) in (int, float), "a number or null"),
    "bool": (lambda v: type(v) is bool, "a bool"),
    "str": (lambda v: type(v) is str, "a string"),
    "tuple[int, ...]": (lambda v: type(v) is list and all(type(b) is int for b in v),
                        "a list of ints"),
    "list[GrowthEvent]": (lambda v: type(v) is list, "a list"),
}


def _to_json(record) -> dict:
    return {_KEY.get(f.name, f.name): getattr(record, f.name) for f in fields(record)}


def write_metrics(result: RunResult, path: str) -> None:
    """One JSON object per epoch plus a footer with events and summary."""
    footer = _to_json(result)
    del footer["metrics"]
    footer["events"] = [_to_json(e) for e in result.events]
    text = "".join(json.dumps(rec, allow_nan=False) + "\n"
                   for rec in [*map(_to_json, result.metrics), footer])
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


def _from_json(cls, rec, where: str, **given):
    """A `cls` of `given` and of its other fields, read by key from `rec` and type-checked."""
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(rec).__name__}")
    keyed = [(f, _KEY.get(f.name, f.name)) for f in fields(cls) if f.name not in given]
    missing = [key for _, key in keyed if key not in rec]
    if missing:
        raise ValueError(f"{where}: missing key(s) {', '.join(missing)}")
    for f, key in keyed:
        check, what = _JSON_TYPES[f.type]
        if not check(rec[key]):
            raise ValueError(f"{where}: {key}: expected {what}, got {rec[key]!r}")
    return cls(**given, **{f.name: tuple(rec[key]) if f.type.startswith("tuple") else rec[key]
                           for f, key in keyed})


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def read_metrics(path: str) -> RunResult:
    """Reconstruct a RunResult from a metrics file written by write_metrics.

    Invalid JSON, a non-finite number, a record that is no object or lacks
    a key, and a value of the wrong type raise ValueError("<path>:<line>: ...").
    """
    records = []
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                try:
                    if line.strip():
                        rec = json.loads(line, parse_float=_finite, parse_constant=_finite)
                        records.append((f"{path}:{lineno}", rec))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise OSError(f"cannot read metrics from {path}: {exc}") from exc
    if not records or not isinstance(records[-1][1], dict) or "events" not in records[-1][1]:
        raise ValueError(f"{path}: missing footer line")
    metrics = [_from_json(EpochMetrics, rec, where) for where, rec in records[:-1]]
    where, footer = records[-1]
    result = _from_json(RunResult, footer, where, metrics=metrics)
    result.events = [_from_json(GrowthEvent, e, f"{where}: event {i}")
                     for i, e in enumerate(result.events)]
    return result


# --- multi-run comparison ---------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    label: str
    n_seeds: int
    n_failed: int
    test_error_median: float | None
    test_error_spread: float | None
    train_error_median: float | None
    train_error_spread: float | None
    e_bar_median: float | None
    cost_pct: float | None
    errors: tuple[str, ...] = ()


# numeric columns of a comparison: (text title, text width, ComparisonRow field = CSV header)
_COLUMNS = (
    ("test err %", 12, "test_error_median"),
    ("spread", 8, "test_error_spread"),
    ("train err %", 12, "train_error_median"),
    ("spread", 8, "train_error_spread"),
    ("e_bar", 8, "e_bar_median"),
    ("cost %", 8, "cost_pct"),
)


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]
    seeds: tuple[int, ...]

    def to_text(self) -> str:
        def fmt(v):
            return "-" if v is None else f"{v:.2f}"
        header = f"{'config':<24}" + "".join(f" {title:>{w}}" for title, w, _ in _COLUMNS)
        out = [header, "-" * len(header)]
        for r in self.rows:
            line = f"{r.label:<24}" + "".join(f" {fmt(getattr(r, name)):>{w}}"
                                              for _, w, name in _COLUMNS)
            if r.n_failed:
                line += f"  [{r.n_failed}/{r.n_seeds} runs failed]"
            out.append(line)
        return "\n".join(out)

    def to_csv(self) -> str:
        def cell(v):
            return "" if v is None else f"{v:.6g}"
        names = [name for _, _, name in _COLUMNS]
        out = [",".join(["config", *names, "n_seeds", "n_failed"])]
        for r in self.rows:
            cells = [cell(getattr(r, name)) for name in names]
            out.append(",".join([r.label, *cells, str(r.n_seeds), str(r.n_failed)]))
        return "\n".join(out) + "\n"


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    return max(values) - min(values)


def compare(configs: list[tuple[str, TrainConfig]], seeds: list[int],
            anchor: str | None = None) -> ComparisonTable:
    """Run every config for every seed; report per-config medians.

    Configs that differ only in `policy` and `seed_arch` run as one `run`
    call for all seeds: each seed and seed net trains one trajectory until
    growth decisions differ, and same-shape trajectories train as one
    stack. `cost %` is the median `train_macs`, normalized so the median
    of the row labelled `anchor` is 100%. When no row has that label, the
    first zero-growth ("vanilla") config anchors, and without one the
    first config.
    A failed run annotates its row and is excluded from the medians. An
    empty config or seed list, a repeated seed and a repeated label raise
    ValueError before set-up.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    if not seeds:
        raise ValueError("compare needs at least one seed")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ValueError(f"seed {repeated} is listed twice: each seed is one run of every config")

    labels = [label for label, _ in configs]
    dup = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if dup is not None:
        raise ValueError(f"duplicate config label {dup!r}: every row needs its own label")

    results: dict[str, list[RunResult]] = {label: [] for label in labels}
    errors: dict[str, list[str]] = {label: [] for label in labels}
    groups: dict[TrainConfig, list[tuple[str, TrainConfig]]] = {}
    for seed in seeds:
        for label, cfg in configs:
            groups.setdefault(_shared_part(cfg), []).append((label, replace(cfg, run_seed=seed)))
    for group in groups.values():
        for (label, cfg), out in zip(group, run([cfg for _, cfg in group])):
            if isinstance(out, Exception):
                errors[label].append(f"seed {cfg.run_seed}: {out}")
            else:
                results[label].append(out)

    if anchor not in results:
        anchor = next((label for label, cfg in configs if config_added_blocks(cfg) == 0),
                      configs[0][0])
    anchor_costs = [r.train_macs for r in results[anchor]]
    anchor_median = statistics.median(anchor_costs) if anchor_costs else None

    rows = []
    for label, _ in configs:
        ok = results[label]
        test_errs = [r.final_test_error for r in ok]
        train_errs = [r.final_train_error for r in ok]
        e_bars = [r.e_bar for r in ok if r.e_bar is not None]
        costs = [r.train_macs for r in ok]
        rows.append(ComparisonRow(
            label=label,
            n_seeds=len(seeds),
            n_failed=len(errors[label]),
            test_error_median=statistics.median(test_errs) if test_errs else None,
            test_error_spread=_spread(test_errs),
            train_error_median=statistics.median(train_errs) if train_errs else None,
            train_error_spread=_spread(train_errs),
            e_bar_median=statistics.median(e_bars) if e_bars else None,
            cost_pct=(
                100.0 * statistics.median(costs) / anchor_median
                if costs and anchor_median else None
            ),
            errors=tuple(errors[label]),
        ))
    return ComparisonTable(rows=rows, seeds=tuple(seeds))
