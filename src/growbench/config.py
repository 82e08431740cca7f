"""Run configuration: the config dataclasses, their checks and their text codec.

Configs are line-oriented text with [section] headers and key = value
pairs; every field of the training configuration is addressable and any
key can be overridden on the command line with --section.key=value.
A value the run could not use raises ConfigError when the config is
built, before any data is read.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field

from .arch import ArchError, parse_arch
from .morph import INIT_RULES, WHERE_RULES, count_added_blocks
from .timing import SHOULD_GROW


class ConfigError(ValueError):
    """Config-file, override or config-value problem; maps to exit code 2."""


def _check_text(cfg: object, section: str) -> None:
    """Refuse a str field the echo cannot hold: one with a line break or surrounding whitespace.

    A field's section is its `section` metadata, else `section`.
    """
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
            raise ConfigError(f"{f.metadata.get('section', section)}.{f.name} must be one line "
                              f"with no surrounding whitespace, got {value!r}")


@dataclass(frozen=True)
class PolicyConfig:
    name: str = "fragrow"
    alpha: float = 4.0
    period_scale: float = 1.0

    def __post_init__(self) -> None:
        _check_text(self, "policy")
        if self.name not in SHOULD_GROW:
            raise ConfigError(f"unknown policy {self.name!r}, expected one of {tuple(SHOULD_GROW)}")
        if not 0.0 < self.period_scale <= 1.0:
            raise ConfigError(f"policy.period_scale must be in (0, 1], got {self.period_scale}")


# data source -> the path keys it reads
_SOURCE_PATHS = {
    "gaussians": (),
    "idx": ("train_images", "train_labels", "test_images", "test_labels"),
    "csv": ("train_csv", "test_csv"),
}


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
        _check_text(self, "data")
        if self.source not in _SOURCE_PATHS:
            raise ConfigError(f"unknown data source {self.source!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"data.val_fraction must be in (0, 1), got {self.val_fraction}")
        for name in ("per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"data.{name} must be positive, got {getattr(self, name)}")
        if self.data_seed < 0:
            raise ConfigError(f"data.data_seed must be non-negative, got {self.data_seed}")
        for name in _SOURCE_PATHS[self.source]:
            if not getattr(self, name):
                raise ConfigError(f"data.{name} must be set when data.source = {self.source}")
        if self.source != "gaussians":
            return
        if self.classes < 2:
            raise ConfigError(f"data.classes must be at least 2, got {self.classes}")
        if self.dim < self.classes:
            raise ConfigError(f"data.dim must be at least data.classes {self.classes}, got {self.dim}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError(f"data.label_noise must be in [0, 0.5), got {self.label_noise}")


_MODEL = {"section": "model"}  # field metadata of a [model] key; the other scalars are [train]


@dataclass(frozen=True)
class TrainConfig:
    seed_arch: str = field(default="res:32x1-32x1-32x1", metadata=_MODEL)
    target_arch: str = field(default="res:32x3-32x3-32x3", metadata=_MODEL)
    where: str = field(default="sequential", metadata=_MODEL)
    init: str = field(default="copy", metadata=_MODEL)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    data: DataConfig = field(default_factory=DataConfig)
    total_epochs: int = 66
    min_finetune_epochs: int = 30
    lr_base: float = 0.1
    batch_size: int = 128
    run_seed: int = 0

    def __post_init__(self) -> None:
        _check_text(self, "train")
        if not 0 <= self.min_finetune_epochs < self.total_epochs:
            raise ConfigError(f"train.min_finetune_epochs must be in [0, total_epochs), got "
                              f"{self.min_finetune_epochs} with total_epochs {self.total_epochs}")
        if self.init not in INIT_RULES:
            raise ConfigError(f"unknown init rule {self.init!r}, expected one of {INIT_RULES}")
        if self.where not in WHERE_RULES:
            raise ConfigError(f"unknown where-policy {self.where!r}, expected one of {WHERE_RULES}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be positive, got {self.batch_size}")
        if not self.lr_base > 0.0:
            raise ConfigError(f"train.lr_base must be positive, got {self.lr_base}")
        if self.run_seed < 0:
            raise ConfigError(f"train.run_seed must be non-negative, got {self.run_seed}")
        try:
            budget = config_added_blocks(self)
        except ArchError as exc:
            raise ConfigError(f"seed_arch {self.seed_arch!r}, target_arch {self.target_arch!r}: "
                              f"{exc}") from None
        if budget > self.total_epochs - self.min_finetune_epochs:
            raise ConfigError(f"train.min_finetune_epochs = {self.min_finetune_epochs}: cannot add "
                              f"{budget} blocks, one per epoch at most, in {self.total_epochs} "
                              f"epochs and keep {self.min_finetune_epochs} to finetune")


def config_added_blocks(config: TrainConfig) -> int:
    """Growth budget implied by the config (independent of the dataset)."""
    return count_added_blocks(parse_arch(config.seed_arch, 1, 2),
                              parse_arch(config.target_arch, 1, 2))


@dataclass(frozen=True)
class OutputConfig:
    metrics_path: str = "metrics.jsonl"

    def __post_init__(self) -> None:
        _check_text(self, "output")
        if not self.metrics_path:
            raise ConfigError("output.metrics_path must be set")


@dataclass(frozen=True)
class CliConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# section name -> description used in echo output
_SECTIONS = {
    "model": "architecture and growth mechanics",
    "policy": "when-to-grow policy",
    "data": "dataset recipe and split",
    "train": "optimization schedule",
    "output": "artifact paths",
}


def _config_to_values(cfg: CliConfig | TrainConfig) -> dict[str, dict[str, object]]:
    """Section -> key -> value of `cfg`; a TrainConfig leaves [output] empty."""
    values: dict[str, dict[str, object]] = {s: {} for s in _SECTIONS}
    for f in dataclasses.fields(TrainConfig):
        v = getattr(cfg.train if isinstance(cfg, CliConfig) else cfg, f.name)
        if dataclasses.is_dataclass(v):  # policy and data are sections of their own
            values[f.name] = dataclasses.asdict(v)
        else:
            values[f.metadata.get("section", "train")][f.name] = v
    if isinstance(cfg, CliConfig):
        values["output"] = dataclasses.asdict(cfg.output)
    return values


# section -> key -> the type of its default, in echo order
_TYPES: dict[str, dict[str, type]] = {
    section: {key: type(v) for key, v in values.items()}
    for section, values in _config_to_values(CliConfig()).items()
}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _assign(values: dict[str, dict[str, object]], section: str, key: str, raw: str,
            where: str) -> None:
    """Set values[section][key] from its text, or raise ConfigError naming `where`."""
    if section not in _SECTIONS:
        raise ConfigError(f"{where}: unknown section [{section}]")
    if key not in _TYPES[section]:
        raise ConfigError(f"{where}: unknown key {section}.{key}")
    ty, raw = _TYPES[section][key], raw.strip()
    if len(raw.splitlines()) > 1:  # the echo and a metrics header hold one value per line
        raise ConfigError(f"{where}: bad value for {section}.{key}: {raw!r} spans lines")
    try:
        values[section][key] = int(raw) if ty is int else _finite_float(raw) if ty is float else raw
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {section}.{key}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict[str, dict[str, object]]:
    """Parse section/key/value lines, rejecting unknown keys by line number."""
    values: dict[str, dict[str, object]] = {s: {} for s in _SECTIONS}
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        m = re.match(r"^\[([A-Za-z_]+)\]$", stripped)
        if m:
            section = m.group(1)
            if section not in _SECTIONS:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in values[section]:
            raise ConfigError(f"{where}: duplicate key {section}.{key}")
        _assign(values, section, key, raw, where)
    return values


def _build_config(values: dict[str, dict[str, object]]) -> CliConfig:
    policy = PolicyConfig(**values["policy"])
    data = DataConfig(**values["data"])
    train = TrainConfig(policy=policy, data=data, **values["model"], **values["train"])
    return CliConfig(train=train, output=OutputConfig(**values["output"]))


def render_config(cfg: CliConfig | TrainConfig) -> str:
    """Echo the effective config (a TrainConfig's has no [output]); re-parsing it reproduces cfg."""
    values = _config_to_values(cfg)
    out = []
    for section, desc in _SECTIONS.items():
        if values[section]:  # empty only for a TrainConfig's [output]
            out += [f"# {desc}", f"[{section}]"]
            # a float prints as its repr, which parses back exactly
            out += [f"{key} = {v}" for key, v in values[section].items()] + [""]
    return "\n".join(out)


_OVERRIDE_RE = re.compile(r"^--([A-Za-z_]+)\.([A-Za-z_0-9]+)=(.*)$", re.DOTALL)


def apply_overrides(values: dict[str, dict[str, object]], overrides: list[str]) -> None:
    for token in overrides:
        m = _OVERRIDE_RE.match(token)
        if m is None:
            raise ConfigError(
                f"bad override {token!r}; expected --section.key=value"
            )
        _assign(values, m.group(1), m.group(2), m.group(3), f"override {token!r}")
