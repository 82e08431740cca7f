"""Command-line entry point: train, compare, sweep-alpha, plot.

A config is a file (see `config`) or a preset name, and any of its keys
can be overridden with --section.key=value.
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import (
    CliConfig,
    ConfigError,
    _build_config,
    _config_to_values,
    _finite_float,
    apply_overrides,
    parse_config_text,
    render_config,
)
from .harness import RunResult, compare, read_metrics, run, write_metrics
from .presets import preset_config, preset_names
from .svgplot import Series, render_chart
from .timing import interval


def load_config(source: str, overrides: list[str] | None = None) -> CliConfig:
    """Resolve a config path or preset name, then apply overrides."""
    if os.path.exists(source):
        with open(source) as f:
            values = parse_config_text(f.read(), source)
    else:
        try:
            cfg = preset_config(source)
        except KeyError:
            raise ConfigError(
                f"{source!r} is neither a readable config file nor a preset name "
                f"(presets: {', '.join(preset_names())})"
            ) from None
        values = _config_to_values(CliConfig(train=cfg))
    apply_overrides(values, overrides or [])
    return _build_config(values)


def _check_output_dir(path: str, name: str) -> None:
    """Refuse an output path that is a directory or lies in a missing one; "" (no --csv) passes."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"{name} = {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"{name} = {path}: is a directory")


def _summarize(result: RunResult) -> str:
    lines = [
        f"final test error:  {result.final_test_error:.2f} %",
        f"final train error: {result.final_train_error:.2f} %",
        f"avg block training epochs: "
        + (f"{result.e_bar:.3f}" if result.e_bar is not None else "n/a (no growth)"),
        f"wall time: {result.wall_seconds:.2f} s",
    ]
    if result.events:
        lines.append("growth events (epoch, stage, block, init):")
        for e in result.events:
            lines.append(f"  {e.epoch:>4}  stage {e.stage}  block {e.block_index}  {e.init_rule}")
    return "\n".join(lines)


def cmd_train(args: argparse.Namespace, overrides: list[str]) -> int:
    cfg = load_config(args.config, overrides)
    if args.print_config:
        print(render_config(cfg), end="")
        return 0
    _check_output_dir(cfg.output.metrics_path, "output.metrics_path")
    result = run(cfg.train)
    write_metrics(result, cfg.output.metrics_path)
    print(f"metrics written to {cfg.output.metrics_path}")
    print(_summarize(result))
    return 0


def cmd_compare(args: argparse.Namespace, overrides: list[str]) -> int:
    if len(args.configs) < 2:
        raise ConfigError("compare needs at least two configs")
    labels = [os.path.splitext(os.path.basename(source))[0] for source in args.configs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            first = args.configs[labels.index(label)]
            raise ConfigError(f"{first} and {args.configs[i]} give the same row label {label!r}; "
                              "rename one of the files")
    labeled = [(label, load_config(source, overrides).train)
               for label, source in zip(labels, args.configs)]
    _check_output_dir(args.csv, "--csv")
    table = compare(labeled, list(range(args.seeds)))
    print(table.to_text())
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(table.to_csv())
        print(f"csv written to {args.csv}")
    return 0


def _parse_float_list(text: str, what: str) -> list[float]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"empty {what} list")
    try:
        return [_finite_float(p) for p in items]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}: {exc}") from exc


def cmd_sweep_alpha(args: argparse.Namespace, overrides: list[str]) -> int:
    alphas = _parse_float_list(args.alphas, "alpha")
    labels = [f"alpha={a:g}" for a in alphas]
    dup = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if dup is not None:
        raise ConfigError(f"--alphas {args.alphas!r}: two values give the row label {dup!r}")
    base = load_config(args.config, overrides)
    if base.train.policy.name != "fragrow":
        raise ConfigError("sweep-alpha requires policy.name = fragrow")
    labeled = [(label, replace(base.train, policy=replace(base.train.policy, alpha=a)))
               for label, a in zip(labels, alphas)]
    _check_output_dir(args.csv, "--csv")
    # training cost is relative to the alpha=4 row when there is one
    table = compare(labeled, list(range(args.seeds)), anchor="alpha=4")
    print(table.to_text())
    csv_text = table.to_csv()
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(csv_text)
        print(f"csv written to {args.csv}")
    else:
        print(csv_text, end="")
    return 0


# curve name -> its value at one epoch's metrics `m`, given the plot's arguments `a`
_CURVES = {
    "train_err": lambda m, a: 100.0 - m.train_acc,
    "val_err": lambda m, a: 100.0 - m.val_acc,
    "test_err": lambda m, a: 100.0 - m.test_acc,
    "train_acc": lambda m, a: m.train_acc,
    "val_acc": lambda m, a: m.val_acc,
    "test_acc": lambda m, a: m.test_acc,
    "train_loss": lambda m, a: m.train_loss,
    "lr": lambda m, a: m.lr,
    "blocks": lambda m, a: float(sum(m.blocks)),
    "orl": lambda m, a: m.orl,
    "interval": lambda m, a: interval(a.i_max, a.alpha, m.orl),
}


def _parse_range(text: str | None, what: str) -> tuple[float, float] | None:
    if text is None:
        return None
    try:
        lo, hi = (_finite_float(v) for v in text.split(":"))
        if lo >= hi:
            raise ValueError
    except ValueError:
        raise ConfigError(f"bad {what} {text!r}; expected LO:HI") from None
    return lo, hi


def cmd_plot(args: argparse.Namespace, overrides: list[str]) -> int:
    if overrides:
        raise ConfigError(f"plot takes no config overrides, got {overrides[0]!r}")
    curves = [c.strip() for c in args.curves.split(",") if c.strip()]
    if not curves:
        raise ConfigError("empty curve list")
    for c in curves:
        if c not in _CURVES:
            raise ConfigError(f"unknown curve {c!r}; available: {', '.join(_CURVES)}")
    if "interval" in curves and (args.alpha is None or args.i_max is None):
        raise ConfigError("curve 'interval' is derived from orl and needs --alpha and --i-max")
    _check_output_dir(args.out, "--out")

    series: list[Series] = []
    events_x: tuple[float, ...] = ()
    for path in args.metrics:
        result = read_metrics(path)
        label_prefix = ""
        if len(args.metrics) > 1:
            label_prefix = os.path.splitext(os.path.basename(path))[0] + ":"
        xs = tuple(float(m.epoch) for m in result.metrics)
        for curve in curves:
            ys = tuple(_CURVES[curve](m, args) for m in result.metrics)
            series.append(Series(f"{label_prefix}{curve}", xs, ys))
        if len(args.metrics) == 1:
            events_x = tuple(float(e.epoch) for e in result.events)

    svg = render_chart(
        series,
        title=args.title,
        ylabel=args.ylabel,
        events_x=events_x,
        x_range=_parse_range(args.x_range, "--x-range"),
        y_range=_parse_range(args.y_range, "--y-range"),
    )
    with open(args.out, "w") as f:
        f.write(svg)
    print(f"svg written to {args.out}")
    return 0


def _seed_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _finite_number(text: str) -> float:
    try:
        return _finite_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _positive_number(text: str) -> float:
    value = _finite_number(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growbench",
        description="Grow a seed staged network into a target network during "
                    "training, with selectable growth-timing policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one grow-train-finetune experiment")
    p_train.add_argument("config", help="config file path or preset name "
                                        f"({', '.join(preset_names())})")
    p_train.add_argument("--print-config", action="store_true",
                         help="echo the effective config and exit")

    p_cmp = sub.add_parser("compare", help="run several configs over shared seeds")
    p_cmp.add_argument("configs", nargs="+", help="config paths or preset names")
    p_cmp.add_argument("--seeds", type=_seed_count, default=3, help="number of seeds (0..k-1)")
    p_cmp.add_argument("--csv", default="", help="also write the table as CSV here")

    p_sweep = sub.add_parser("sweep-alpha", help="sweep the risk-sensitivity alpha")
    p_sweep.add_argument("config", help="config path or preset name (fragrow policy)")
    p_sweep.add_argument("--alphas", default="2,4,6", help="comma-separated alpha values")
    p_sweep.add_argument("--seeds", type=_seed_count, default=3, help="number of seeds (0..k-1)")
    p_sweep.add_argument("--csv", default="", help="write the summary CSV here")

    p_plot = sub.add_parser("plot", help="render metrics files to an SVG chart")
    p_plot.add_argument("metrics", nargs="+", help="metrics JSONL file(s)")
    p_plot.add_argument("--curves", default="train_err,val_err,test_err",
                        help=f"comma-separated curves from: {', '.join(_CURVES)}")
    p_plot.add_argument("--out", default="curves.svg")
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--ylabel", default="")
    p_plot.add_argument("--x-range", dest="x_range", default=None)
    p_plot.add_argument("--y-range", dest="y_range", default=None)
    p_plot.add_argument("--alpha", type=_finite_number, default=None,
                        help="policy alpha (needed for the interval curve)")
    p_plot.add_argument("--i-max", dest="i_max", type=_positive_number, default=None,
                        help="interval cap (needed for the interval curve)")

    return parser


_COMMANDS = {
    "train": cmd_train,
    "compare": cmd_compare,
    "sweep-alpha": cmd_sweep_alpha,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
