"""Grow-train-finetune loop, per-epoch evaluation, metrics I/O, comparisons.

One run: train batches each epoch under the two-phase LR schedule; at each
epoch end evaluate train/val/test, feed the fitting-risk reading to the
when-to-grow policy, and insert one block when it fires. Once the network
reaches target size the remaining epochs finetune under cosine decay.
A batch loss that is not finite stops the run with an error naming the
epoch and batch. Runs are bit-deterministic for a fixed config, seed and
BLAS thread count; wide inputs (784 IDX pixels) can round differently at
another thread count.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace

from .arch import ArchSpec, parse_arch
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
    OptState,
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


def resolve_archs(config: TrainConfig, input_dim: int, num_classes: int) -> tuple[ArchSpec, ArchSpec]:
    seed = parse_arch(config.seed_arch, input_dim, num_classes)
    target = parse_arch(config.target_arch, input_dim, num_classes)
    count_added_blocks(seed, target)  # validates compatibility
    return seed, target


def config_added_blocks(config: TrainConfig) -> int:
    """Growth budget implied by the config (independent of the dataset)."""
    seed, target = resolve_archs(config, 1, 2)
    return count_added_blocks(seed, target)


def evaluate(net: Network, train: Dataset, val: Dataset, test: Dataset) -> EvalReport:
    """Full-pass accuracies on all three splits plus full-train loss."""
    train_acc, train_loss = accuracy_and_loss(net, train.features, train.labels)
    val_acc, _ = accuracy_and_loss(net, val.features, val.labels)
    test_acc, _ = accuracy_and_loss(net, test.features, test.labels)
    return EvalReport(train_acc, val_acc, test_acc, train_loss)


def _track_next(net: Network, where: WherePolicy) -> MomentEnsemble | None:
    """EMA shadow of the block preceding the next growth location, if square."""
    location = where.peek(net.arch_spec())
    if location is None:
        return None
    preceding = net.stages[location].blocks[-1]
    if preceding.kind is BlockKind.DOWNSAMPLE:
        return None
    return MomentEnsemble.track(preceding)


def run(config: TrainConfig) -> RunResult:
    """Execute one grow-train-finetune run and collect per-epoch metrics."""
    t_start = time.perf_counter()
    train, val, test = build_datasets(config.data)
    seed_arch, target_arch = resolve_archs(config, train.dim, train.num_classes)
    budget = count_added_blocks(seed_arch, target_arch)

    net = build_network(seed_arch, config.run_seed)
    opt = OptState.for_network(net, config.momentum, config.weight_decay)

    pol = config.policy
    state = PolicyState(
        total_epochs=config.total_epochs,
        min_finetune_epochs=config.min_finetune_epochs,
        remaining=budget,
        max_interval=(
            i_max(config.total_epochs, config.min_finetune_epochs, budget)
            if budget > 0 else 1.0
        ),
        alpha=pol.alpha,
        period_scale=pol.period_scale,
    )
    should_grow = SHOULD_GROW[pol.name]

    where = WherePolicy(config.where, target_arch)
    # After the last growth the shadow is not retargeted but still updated.
    ensemble = _track_next(net, where) if config.init == "moment" and budget > 0 else None

    growth_done_epoch: int | None = 0 if budget == 0 else None
    metrics: list[EpochMetrics] = []
    n_train = len(train)

    for epoch in range(config.total_epochs):
        lr = lr_at(config.lr_base, epoch, growth_done_epoch, config.total_epochs)

        perm = substream(config.run_seed, "shuffle", epoch).permutation(n_train)
        for batch, lo in enumerate(range(0, n_train, config.batch_size)):
            idx = perm[lo : lo + config.batch_size]
            loss, grads, _ = loss_grads_logits(net, train.features[idx], train.labels[idx])
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: loss {loss} at epoch {epoch}, batch {batch}"
                )
            sgd_step(net, grads, opt, lr)
            if ensemble is not None:
                ensemble.update()

        report = evaluate(net, train, val, test)
        orl_pp = orl(report.train_acc, report.val_acc)
        state.record_epoch(epoch, report.val_acc)

        grew = False
        if state.remaining > 0 and should_grow(state, epoch, orl_pp):
            location = where.advance(net.arch_spec())
            if location is None:
                raise RuntimeError("policy fired with no unsaturated stage")
            rule = resolve_init_rule(net, location, config.init)
            rng = substream(config.run_seed, "grow", len(state.events))
            grow(net, opt, location, rule, rng=rng, ensemble=ensemble)
            event = GrowthEvent(
                epoch=epoch + 1,
                stage=location,
                block_index=len(net.stages[location].blocks) - 1,
                init_rule=rule,
            )
            state.record_growth(event)
            state.last_growth_epoch = epoch
            if state.remaining == 0:
                growth_done_epoch = epoch + 1
            elif config.init == "moment":
                ensemble = _track_next(net, where)
            grew = True

        metrics.append(EpochMetrics(
            epoch=epoch,
            train_acc=report.train_acc,
            val_acc=report.val_acc,
            test_acc=report.test_acc,
            train_loss=report.train_loss,
            orl=orl_pp,
            lr=lr,
            blocks=net.blocks_per_stage(),
            grew=grew,
        ))

    if state.remaining != 0:
        raise RuntimeError(
            f"growth budget not exhausted: {state.remaining} blocks left at the end "
            "(deadline rule violated)"
        )
    if net.blocks_per_stage() != target_arch.blocks_per_stage:
        raise RuntimeError("final architecture does not match the target spec")

    e_bar = average_training_epochs(state.events, config.total_epochs) if state.events else None
    last = metrics[-1]
    return RunResult(
        metrics=metrics,
        events=state.events,
        e_bar=e_bar,
        final_test_error=100.0 - last.test_acc,
        final_train_error=100.0 - last.train_acc,
        wall_seconds=time.perf_counter() - t_start,
    )


# --- metrics file I/O -------------------------------------------------------

def _metric_line(m: EpochMetrics) -> str:
    return json.dumps({
        "epoch": m.epoch,
        "train_acc": m.train_acc,
        "val_acc": m.val_acc,
        "test_acc": m.test_acc,
        "train_loss": m.train_loss,
        "orl": m.orl,
        "lr": m.lr,
        "blocks": list(m.blocks),
        "grew": m.grew,
    }, allow_nan=False)


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


def read_metrics(path: str) -> RunResult:
    """Reconstruct a RunResult from a metrics file written by write_metrics."""
    try:
        with open(path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
    except OSError as exc:
        raise OSError(f"cannot read metrics from {path}: {exc}") from exc
    if not lines or "events" not in lines[-1]:
        raise ValueError(f"{path}: missing footer line")
    footer = lines[-1]
    metrics = [
        EpochMetrics(
            epoch=rec["epoch"],
            train_acc=rec["train_acc"],
            val_acc=rec["val_acc"],
            test_acc=rec["test_acc"],
            train_loss=rec["train_loss"],
            orl=rec["orl"],
            lr=rec["lr"],
            blocks=tuple(rec["blocks"]),
            grew=rec["grew"],
        )
        for rec in lines[:-1]
    ]
    events = [
        GrowthEvent(epoch=e["epoch"], stage=e["stage"],
                    block_index=e["block_index"], init_rule=e["init"])
        for e in footer["events"]
    ]
    return RunResult(
        metrics=metrics,
        events=events,
        e_bar=footer["e_bar"],
        final_test_error=footer["final_test_error"],
        final_train_error=footer["final_train_error"],
        wall_seconds=footer["wall_seconds"],
    )


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

    Training time is normalized so the median of the row labelled
    `anchor` is 100%. When no row has that label, the first zero-growth
    ("vanilla") config anchors, and without one the first config.
    A failed run annotates its row and is excluded from the medians.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    if not seeds:
        raise ValueError("compare needs at least one seed")

    results: dict[str, list[RunResult]] = {}
    errors: dict[str, list[str]] = {}
    for label, cfg in configs:
        results[label] = []
        errors[label] = []
        for seed in seeds:
            try:
                results[label].append(run(replace(cfg, run_seed=seed)))
            except Exception as exc:  # noqa: BLE001 - isolate per-cell failures
                errors[label].append(f"seed {seed}: {exc}")

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
