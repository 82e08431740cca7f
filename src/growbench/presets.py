"""Named experiment presets.

Two synthetic regimes, sized so growth-timing effects are visible on a
desk machine:

  overfit   a small 5-class task with 45% label noise and a target net
            roomy enough to memorize it. Training accuracy races past
            validation within the first epochs, so the fitting-risk
            reading jumps over alpha and risk-aware growth immediately
            falls back to the slow periodic pace.
  underfit  20 overlapping classes, 18k samples, a narrow target net
            whose parameter count is a tiny fraction of the sample size.
            The net is too narrow (16 units for 20 classes), not too
            shallow: the grown target fits no better than its seed net
            trained alone. The risk reading is not near zero: within a
            run it climbs to 2-7 pp, around alpha, so risk-aware growth
            makes its last insertion at completed epochs 4-12 (seeds
            0-19), not always at the earliest possible epoch 4.

Both presets use the plain family: without normalization layers a deep
residual stack doubles its activation variance per block under He init,
which makes the from-scratch ("vanilla") baseline diverge at useful
depths, while plain ReLU stacks are variance-preserving. Both keep
(total - min finetune) divisible by the growth budget, so the periodic
baseline's rounded period equals the interval cap exactly and
inter-growth gaps compare cleanly across policies. The dataset constants
are tuning parameters validated by the acceptance runs, not quantities
with any outside meaning.
"""

from __future__ import annotations

from dataclasses import replace

from .config import DataConfig, PolicyConfig, TrainConfig

BASE_PRESETS: dict[str, TrainConfig] = {
    "overfit": TrainConfig(
        seed_arch="plain:48x1-48x1-48x1",
        target_arch="plain:48x2-48x2-48x2",  # growth budget 3, interval cap 12
        where="sequential",
        init="copy",
        policy=PolicyConfig(name="fragrow", alpha=4.0),
        data=DataConfig(
            source="gaussians",
            classes=5,
            dim=40,
            per_class=1200,
            test_per_class=600,
            sep=6.0,
            label_noise=0.45,
            data_seed=20240801,
            val_fraction=0.05,
        ),
        total_epochs=66,
        min_finetune_epochs=30,
        lr_base=0.05,
        batch_size=64,
    ),
    "underfit": TrainConfig(
        seed_arch="plain:16x1-16x1-16x1",
        target_arch="plain:16x2-16x2-16x2",  # growth budget 3, interval cap 12
        where="sequential",
        init="copy",
        policy=PolicyConfig(name="fragrow", alpha=4.0),
        data=DataConfig(
            source="gaussians",
            classes=20,
            dim=24,
            per_class=900,
            test_per_class=250,
            sep=3.0,
            label_noise=0.0,
            data_seed=20240802,
            val_fraction=0.03,
        ),
        total_epochs=66,
        min_finetune_epochs=30,
        lr_base=0.05,
        batch_size=128,
    ),
}

# period_scale for the deliberately fast periodic variant: half the cap,
# i.e. a 6-epoch period on both presets. Fast growth still spaces its
# insertions, it just reaches target size in half the epochs.
_FAST_SCALE = 0.5

# preset name suffix -> its variant of the base preset: the risk-aware policy
# (""), either baseline policy, periodic at half the interval cap, or the
# target net trained from scratch ("_vanilla")
_VARIANTS = {
    "": lambda cfg: cfg,
    "_periodic": lambda cfg: replace(cfg, policy=replace(cfg.policy, name="periodic")),
    "_convergent": lambda cfg: replace(cfg, policy=replace(cfg.policy, name="convergent")),
    "_periodic_fast": lambda cfg: replace(
        cfg, policy=replace(cfg.policy, name="periodic", period_scale=_FAST_SCALE)),
    "_vanilla": lambda cfg: replace(cfg, seed_arch=cfg.target_arch),
}


def preset_names() -> tuple[str, ...]:
    return tuple(base + suffix for base in BASE_PRESETS for suffix in _VARIANTS)


def preset_config(name: str) -> TrainConfig:
    """Resolve `<base><suffix>`; KeyError for an unknown base or suffix."""
    base = name.partition("_")[0]
    variant = _VARIANTS.get(name[len(base):])
    if base not in BASE_PRESETS or variant is None:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return variant(BASE_PRESETS[base])
