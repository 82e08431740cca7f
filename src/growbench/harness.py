"""Grow-train-finetune loop, per-epoch evaluation, metrics I/O, comparisons.

One run: train batches each epoch under the two-phase LR schedule; at each
epoch end evaluate train/val/test, feed the fitting-risk reading to the
when-to-grow policy, and insert one block when it fires. Once the network
reaches target size the remaining epochs finetune under cosine decay.
A batch loss that is not finite stops the run with an error naming the
epoch and batch. Runs are bit-deterministic for a fixed config and seed:
`netcore` runs numpy's OpenBLAS on one thread by default, and only an
explicit OPENBLAS_NUM_THREADS can change the bytes of a wide-input run
(784 IDX pixels).

`compare` runs the configs that differ only in `policy` as one `run` call
per seed. The runs share one trajectory, bit for bit their solo runs,
until their growth decisions differ, and then it forks. Each run's
`wall_seconds` is its set-up plus every epoch its trajectory rode.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field, fields, replace

from .arch import parse_arch
from .data import Dataset, SplitSpec, Standardizer, gen_gaussians, load_csv, load_idx, split
from .morph import (
    GrowthEvent,
    MomentEnsemble,
    USER_INIT_RULES,
    WherePolicy,
    count_added_blocks,
    grow,
    resolve_init_rule,
)
from .netcore import (
    BlockKind,
    Network,
    accuracy_and_loss,
    build_network,
    loss_grads_logits,
    lr_at,
    sgd_step,
)
from .rng import substream
from .timing import SHOULD_GROW, PolicyState, average_training_epochs, i_max, orl


@dataclass(frozen=True)
class PolicyConfig:
    name: str = "fragrow"
    alpha: float = 4.0
    period_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.name not in SHOULD_GROW:
            raise ValueError(f"unknown policy {self.name!r}, expected one of {tuple(SHOULD_GROW)}")
        if not 0.0 < self.period_scale <= 1.0:
            raise ValueError(f"period_scale must be in (0, 1], got {self.period_scale}")


@dataclass(frozen=True)
class DataConfig:
    """Dataset recipe: one synthetic generator or file-backed source.

    For `gaussians` the train/val pool and the held-out test pool are
    generated from `data_seed` with distinct derived seeds.
    """

    source: str = "gaussians"
    classes: int = 5
    dim: int = 20
    per_class: int = 400
    test_per_class: int = 400
    sep: float = 6.0
    label_noise: float = 0.0
    data_seed: int = 1234
    val_fraction: float = 0.01
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_csv: str = ""
    test_csv: str = ""

    def __post_init__(self) -> None:
        if self.source not in ("gaussians", "idx", "csv"):
            raise ValueError(f"unknown data source {self.source!r}")


@dataclass(frozen=True)
class TrainConfig:
    seed_arch: str = "res:32x1-32x1-32x1"
    target_arch: str = "res:32x3-32x3-32x3"
    where: str = "sequential"
    init: str = "copy"
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    data: DataConfig = field(default_factory=DataConfig)
    total_epochs: int = 66
    min_finetune_epochs: int = 30
    lr_base: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 128
    run_seed: int = 0

    def __post_init__(self) -> None:
        if self.total_epochs <= self.min_finetune_epochs:
            raise ValueError("total_epochs must exceed min_finetune_epochs")
        if self.init not in USER_INIT_RULES:
            raise ValueError(f"unknown init rule {self.init!r}, expected one of {USER_INIT_RULES}")
        if self.where not in ("sequential", "circulation"):
            raise ValueError(f"unknown where-policy {self.where!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


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
    wall_seconds: float


def build_datasets(cfg: DataConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Materialize (train, val, test), standardized on the train split."""
    if cfg.source == "gaussians":
        pool = gen_gaussians(cfg.classes, cfg.dim, cfg.per_class, cfg.sep,
                             cfg.label_noise, cfg.data_seed)
        test_seed = int(substream(cfg.data_seed, "test-pool-seed").integers(0, 2**63))
        test = gen_gaussians(cfg.classes, cfg.dim, cfg.test_per_class, cfg.sep,
                             cfg.label_noise, test_seed)
    elif cfg.source == "idx":
        pool = load_idx(cfg.train_images, cfg.train_labels)
        test = load_idx(cfg.test_images, cfg.test_labels)
    else:
        pool = load_csv(cfg.train_csv)
        test = load_csv(cfg.test_csv)
    train, val = split(pool, SplitSpec(cfg.val_fraction, split_seed=cfg.data_seed))
    tf = Standardizer.fit(train)
    return tf.apply(train), tf.apply(val), tf.apply(test)


def config_added_blocks(config: TrainConfig) -> int:
    """Growth budget implied by the config (independent of the dataset)."""
    return count_added_blocks(parse_arch(config.seed_arch, 1, 2),
                              parse_arch(config.target_arch, 1, 2))


def evaluate(net: Network, train: Dataset, val: Dataset, test: Dataset) -> EvalReport:
    """Full-pass accuracies on all three splits plus full-train loss."""
    train_acc, train_loss = accuracy_and_loss(net, train.features, train.labels)
    val_acc, _ = accuracy_and_loss(net, val.features, val.labels)
    test_acc, _ = accuracy_and_loss(net, test.features, test.labels)
    return EvalReport(train_acc, val_acc, test_acc, train_loss)


def _track_next(net: Network, where: WherePolicy) -> MomentEnsemble | None:
    """EMA shadow of the block preceding the next growth location, if square."""
    location = where.peek(net.blocks_per_stage())
    if location is None:
        return None
    preceding = net.stages[location].blocks[-1]
    if preceding.kind is BlockKind.DOWNSAMPLE:
        return None
    return MomentEnsemble.track(preceding)


@dataclass
class _Branch:
    """One training trajectory and the runs on it (indices into the policies)."""

    net: Network
    where: WherePolicy
    ensemble: MomentEnsemble | None
    growth_done_epoch: int | None
    metrics: list[EpochMetrics]
    seconds: float  # set-up plus every epoch this trajectory rode
    members: list[int]

    def fork(self, members: list[int]) -> _Branch:
        """An independent copy of this trajectory for `members`."""
        net, ensemble = self.net.copy(), None
        if self.ensemble is not None:
            block = net.blocks()[self.net.blocks().index(self.ensemble.block)]
            ensemble = MomentEnsemble(block, self.ensemble.shadow.copy(), self.ensemble.updates)
        return _Branch(net, replace(self.where), ensemble, self.growth_done_epoch,
                       list(self.metrics), self.seconds, members)


def run(config: TrainConfig,
        policies: list[PolicyConfig] | None = None) -> RunResult | list[RunResult | Exception]:
    """Execute one grow-train-finetune run and collect per-epoch metrics.

    With `policies`, run `config` once per policy in place of its own and
    return one RunResult or exception per policy. The runs share one
    trajectory until their growth decisions differ, and each result equals
    its solo run's apart from `wall_seconds`: set-up plus the epochs of
    the trajectory it rode.
    """
    outcomes = _run_policies(config, [config.policy] if policies is None else policies)
    if policies is not None:
        return outcomes
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def _run_policies(config: TrainConfig, policies: list[PolicyConfig]) -> list[RunResult | Exception]:
    t_start = time.perf_counter()
    outcomes: list[RunResult | Exception | None] = [None] * len(policies)

    def fail(members, exc: Exception) -> None:
        for i in members:
            outcomes[i] = exc

    try:
        train, val, test = build_datasets(config.data)
        seed_arch = parse_arch(config.seed_arch, train.dim, train.num_classes)
        target_arch = parse_arch(config.target_arch, train.dim, train.num_classes)
        budget = count_added_blocks(seed_arch, target_arch)
        max_interval = (i_max(config.total_epochs, config.min_finetune_epochs, budget)
                        if budget > 0 else 1.0)
        net = build_network(seed_arch, config.run_seed)
        where = WherePolicy(config.where, target_arch.blocks_per_stage)
        ensemble = _track_next(net, where) if config.init == "moment" else None
    except Exception as exc:  # noqa: BLE001 - a set-up failure fails every run alike
        fail(range(len(policies)), exc)
        return outcomes

    states = [PolicyState(total_epochs=config.total_epochs,
                          min_finetune_epochs=config.min_finetune_epochs,
                          remaining=budget, max_interval=max_interval,
                          alpha=pol.alpha, period_scale=pol.period_scale)
              for pol in policies]
    should_grow = [SHOULD_GROW[pol.name] for pol in policies]
    branches = [_Branch(net, where, ensemble, 0 if budget == 0 else None, [],
                        time.perf_counter() - t_start, list(range(len(policies))))]
    n_train = len(train)

    for epoch in range(config.total_epochs):
        alive = []
        for branch in branches:
            t0, net, ensemble = time.perf_counter(), branch.net, branch.ensemble
            try:
                lr = lr_at(config.lr_base, epoch, branch.growth_done_epoch, config.total_epochs)
                perm = substream(config.run_seed, "shuffle", epoch).permutation(n_train)
                for batch, lo in enumerate(range(0, n_train, config.batch_size)):
                    idx = perm[lo : lo + config.batch_size]
                    loss, _ = loss_grads_logits(net, train.features[idx], train.labels[idx])
                    if not math.isfinite(loss):
                        raise RuntimeError(
                            f"training diverged: loss {loss} at epoch {epoch}, batch {batch}"
                        )
                    sgd_step(net, lr, config.momentum, config.weight_decay)
                    if ensemble is not None:
                        ensemble.update()
                report = evaluate(net, train, val, test)
            except Exception as exc:  # noqa: BLE001 - a failed trunk fails every run on it
                fail(branch.members, exc)
                continue
            orl_pp = orl(report.train_acc, report.val_acc)

            # Every run decides; those that decide alike stay on one trajectory.
            decided: dict[bool, list[int]] = {False: [], True: []}
            for i in branch.members:
                states[i].val_history.append(report.val_acc)
                try:
                    grows = states[i].remaining > 0 and should_grow[i](states[i], epoch, orl_pp)
                except Exception as exc:  # noqa: BLE001 - a failing policy fails only its run
                    fail([i], exc)
                    continue
                decided[bool(grows)].append(i)
            parts = [(grew, members) for grew, members in decided.items() if members]
            paths = [(grew, branch.fork(members) if k else branch)
                     for k, (grew, members) in enumerate(parts)]
            if parts:
                branch.members = parts[0][1]

            for grew, b in paths:
                if grew:
                    try:
                        _grow(b, epoch, config, [states[i] for i in b.members])
                    except Exception as exc:  # noqa: BLE001 - fails the runs that grew here
                        fail(b.members, exc)
                        continue
                b.metrics.append(EpochMetrics(
                    epoch, report.train_acc, report.val_acc, report.test_acc, report.train_loss,
                    orl_pp, lr, b.net.blocks_per_stage(), grew))
                alive.append(b)
            dt = time.perf_counter() - t0
            for _, b in paths:
                b.seconds += dt
        branches = alive

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
            for i in b.members:
                events = states[i].events
                e_bar = average_training_epochs(events, config.total_epochs) if events else None
                outcomes[i] = RunResult(list(b.metrics), events, e_bar, 100.0 - last.test_acc,
                                        100.0 - last.train_acc, b.seconds)
    return outcomes


def _grow(b: _Branch, epoch: int, config: TrainConfig, states: list[PolicyState]) -> None:
    """Insert the next block on `b` and record it in the states of its runs."""
    location = b.where.advance(b.net.blocks_per_stage())
    if location is None:
        raise RuntimeError("policy fired with no unsaturated stage")
    rule = resolve_init_rule(b.net, location, config.init)
    rng = substream(config.run_seed, "grow", len(states[0].events))
    grow(b.net, location, rule, rng=rng, ensemble=b.ensemble)
    event = GrowthEvent(epoch + 1, location, len(b.net.stages[location].blocks) - 1, rule)
    for state in states:
        state.record_growth(event)
    if states[0].remaining == 0:
        b.growth_done_epoch = epoch + 1
    b.ensemble = _track_next(b.net, b.where) if config.init == "moment" else None


# --- metrics file I/O -------------------------------------------------------

def _metric_line(m: EpochMetrics) -> str:
    return json.dumps(vars(m), allow_nan=False)  # field order; blocks as a list


def _footer_line(result: RunResult) -> str:
    return json.dumps({
        "events": [
            {"epoch": e.epoch, "stage": e.stage, "block_index": e.block_index, "init": e.init_rule}
            for e in result.events
        ],
        "e_bar": result.e_bar,
        "final_test_error": result.final_test_error,
        "final_train_error": result.final_train_error,
        "wall_seconds": result.wall_seconds,
    }, allow_nan=False)


def write_metrics(result: RunResult, path: str) -> None:
    """One JSON object per epoch plus a footer with events and summary."""
    try:
        with open(path, "w") as f:
            for m in result.metrics:
                f.write(_metric_line(m) + "\n")
            f.write(_footer_line(result) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


_EVENT_KEYS = ("epoch", "stage", "block_index", "init")


def _values(rec, keys, where: str) -> list:
    """rec's values for `keys`; ValueError naming `where` if it is no object or lacks one."""
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(rec).__name__}")
    missing = [k for k in keys if k not in rec]
    if missing:
        raise ValueError(f"{where}: missing key(s) {', '.join(missing)}")
    return [rec[k] for k in keys]


def read_metrics(path: str) -> RunResult:
    """Reconstruct a RunResult from a metrics file written by write_metrics.

    Invalid JSON, a record that is no object or lacks a key, and a value
    of the wrong type raise ValueError("<path>:<line>: ...").
    """
    records = []
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                try:
                    if line.strip():
                        records.append((f"{path}:{lineno}", json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
    except OSError as exc:
        raise OSError(f"cannot read metrics from {path}: {exc}") from exc
    if not records or not isinstance(records[-1][1], dict) or "events" not in records[-1][1]:
        raise ValueError(f"{path}: missing footer line")
    epoch_keys = [f.name for f in fields(EpochMetrics)]
    where = path
    try:
        metrics = []
        for where, rec in records[:-1]:
            *values, blocks, grew = _values(rec, epoch_keys, where)
            metrics.append(EpochMetrics(*values, tuple(blocks), grew))
        where, footer = records[-1]
        events, *summary = _values(footer, [f.name for f in fields(RunResult)][1:], where)
        events = [GrowthEvent(*_values(e, _EVENT_KEYS, f"{where}: event {i}"))
                  for i, e in enumerate(events)]
    except TypeError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    return RunResult(metrics, events, *summary)


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
    time_pct: float | None
    errors: tuple[str, ...] = ()


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]
    seeds: tuple[int, ...]

    def to_text(self) -> str:
        header = (
            f"{'config':<24} {'test err %':>12} {'spread':>8} {'train err %':>12} "
            f"{'spread':>8} {'e_bar':>8} {'time %':>8}"
        )
        out = [header, "-" * len(header)]
        for r in self.rows:
            def fmt(v, nd=2):
                return f"{v:.{nd}f}" if v is not None else "-"
            line = (
                f"{r.label:<24} {fmt(r.test_error_median):>12} {fmt(r.test_error_spread):>8} "
                f"{fmt(r.train_error_median):>12} {fmt(r.train_error_spread):>8} "
                f"{fmt(r.e_bar_median):>8} {fmt(r.time_pct):>8}"
            )
            if r.n_failed:
                line += f"  [{r.n_failed}/{r.n_seeds} runs failed]"
            out.append(line)
        return "\n".join(out)

    def to_csv(self) -> str:
        out = ["config,test_error_median,test_error_spread,train_error_median,"
               "train_error_spread,e_bar_median,time_pct,n_seeds,n_failed"]
        for r in self.rows:
            def cell(v):
                return "" if v is None else f"{v:.6g}"
            out.append(",".join([
                r.label, cell(r.test_error_median), cell(r.test_error_spread),
                cell(r.train_error_median), cell(r.train_error_spread),
                cell(r.e_bar_median), cell(r.time_pct), str(r.n_seeds), str(r.n_failed),
            ]))
        return "\n".join(out) + "\n"


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    return max(values) - min(values)


def compare(configs: list[tuple[str, TrainConfig]], seeds: list[int],
            anchor: str | None = None) -> ComparisonTable:
    """Run every config for every seed; report per-config medians.

    Configs that differ only in `policy` run as one shared `run` call per
    seed: they train one trajectory until their growth decisions differ.
    Each run's `wall_seconds` is the set-up time plus every epoch its
    trajectory rode, so it is what that run alone would cost.
    Training time is normalized so the median of the row labelled
    `anchor` is 100%. When no row has that label, the first zero-growth
    ("vanilla") config anchors, and without one the first config.
    A failed run annotates its row and is excluded from the medians.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    if not seeds:
        raise ValueError("compare needs at least one seed")

    labels = [label for label, _ in configs]
    dup = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if dup is not None:
        raise ValueError(f"duplicate config label {dup!r}: every row needs its own label")

    results: dict[str, list[RunResult]] = {label: [] for label in labels}
    errors: dict[str, list[str]] = {label: [] for label in labels}
    groups: dict[TrainConfig, list[tuple[str, TrainConfig]]] = {}
    for label, cfg in configs:
        groups.setdefault(replace(cfg, policy=PolicyConfig()), []).append((label, cfg))
    for group in groups.values():
        for seed in seeds:
            outcomes = run(replace(group[0][1], run_seed=seed),
                           policies=[cfg.policy for _, cfg in group])
            for (label, _), out in zip(group, outcomes):
                if isinstance(out, Exception):
                    errors[label].append(f"seed {seed}: {out}")
                else:
                    results[label].append(out)

    if anchor not in results:
        anchor = next((label for label, cfg in configs if config_added_blocks(cfg) == 0),
                      configs[0][0])
    anchor_times = [r.wall_seconds for r in results[anchor]]
    anchor_median = statistics.median(anchor_times) if anchor_times else None

    rows = []
    for label, _ in configs:
        ok = results[label]
        test_errs = [r.final_test_error for r in ok]
        train_errs = [r.final_train_error for r in ok]
        e_bars = [r.e_bar for r in ok if r.e_bar is not None]
        times = [r.wall_seconds for r in ok]
        rows.append(ComparisonRow(
            label=label,
            n_seeds=len(seeds),
            n_failed=len(errors[label]),
            test_error_median=statistics.median(test_errs) if test_errs else None,
            test_error_spread=_spread(test_errs),
            train_error_median=statistics.median(train_errs) if train_errs else None,
            train_error_spread=_spread(train_errs),
            e_bar_median=statistics.median(e_bars) if e_bars else None,
            time_pct=(
                100.0 * statistics.median(times) / anchor_median
                if times and anchor_median else None
            ),
            errors=tuple(errors[label]),
        ))
    return ComparisonTable(rows=rows, seeds=tuple(seeds))
