"""Growth bookkeeping and execution.

Where-to-grow policies pick the stage; init rules build the new block's
weights; `grow` splices the block into the network's flat parameter
store with zero momentum. New blocks are always appended at the end of a
stage and are never downsample blocks: downsampling exists only at stage
boundaries of the seed network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ArchSpec, check_compatible
from .netcore import BlockKind, Network, he_weight

INIT_RULES = ("copy", "moment", "random")

EMA_DECAY = 0.99

WHERE_RULES = ("sequential", "circulation")


class GrowthError(ValueError):
    """Invalid growth request (saturated stage, bad init rule, ...)."""


@dataclass(frozen=True)
class GrowthEvent:
    """One growth: `epoch` counts completed training epochs at insert time."""

    epoch: int
    stage: int
    block_index: int
    init_rule: str


def count_added_blocks(seed: ArchSpec, target: ArchSpec) -> int:
    """Total blocks the run must add to turn `seed` into `target`."""
    check_compatible(seed, target)
    return sum(t.blocks - s.blocks for s, t in zip(seed.stages, target.stages))


def _square_block(flat: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) of a copy of a square block's weight-then-bias vector."""
    flat = flat.copy()
    return flat[: width * width].reshape(width, width), flat[width * width :]


def init_copy_preceding(net: Network, stage: int) -> tuple[np.ndarray, np.ndarray]:
    """New block's (weight, bias), deep-copied from `stage`'s last block."""
    kind, span = net.block(stage)
    if kind is BlockKind.DOWNSAMPLE:
        raise GrowthError(
            "cannot copy from a downsample block (in/out widths differ); "
            "use random init for this location"
        )
    return _square_block(net.params[span], net.arch.stages[stage].width)


@dataclass
class MomentEnsemble:
    """Exponential moving average of the parameters of `net`'s block `index` of `stage`.

    The shadow starts as a copy of the block's slice of `net.params` and is
    refreshed once per optimizer step: shadow <- d*shadow + (1-d)*current,
    d = EMA_DECAY. Each update reads the slice of whatever vector
    `net.params` is then, so it follows stacking and growth; growth only
    appends at stage ends, so (stage, index) keeps naming the same block.
    """

    net: Network
    stage: int
    index: int
    shadow: np.ndarray
    updates: int = 0

    @classmethod
    def track(cls, net: Network, stage: int) -> "MomentEnsemble":
        """Track `stage`'s last block, the one a growth there would copy."""
        index = net.blocks_per_stage()[stage] - 1
        kind, span = net.block(stage, index)
        if kind is BlockKind.DOWNSAMPLE:
            raise GrowthError("moment ensembles track square blocks only")
        return cls(net, stage, index, net.params[span].copy())

    def update(self) -> None:
        d = EMA_DECAY
        self.shadow *= d
        self.shadow += (1.0 - d) * self.net.params[self.net.block(self.stage, self.index)[1]]
        self.updates += 1


def init_moment(ensemble: MomentEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """New block's (weight, bias) from the EMA shadow of its predecessor."""
    if ensemble.updates < 1:
        raise GrowthError("moment ensemble has never been updated")
    return _square_block(ensemble.shadow, ensemble.net.arch.stages[ensemble.stage].width)


def grow(net: Network, stage: int, init_rule: str,
         rng: np.random.Generator | None = None,
         ensemble: MomentEnsemble | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Append one block to `stage`, with zero momentum.

    All pre-existing parameter and momentum values keep their bits. The new
    block's input width equals the stage width, so it is always square.
    Returns the inserted block's (weight, bias).
    """
    if not 0 <= stage < len(net.arch.stages):
        raise GrowthError(f"stage index {stage} out of range")
    if init_rule not in INIT_RULES:
        raise GrowthError(f"unknown init rule {init_rule!r}")
    width = net.arch.stages[stage].width

    if init_rule == "copy":
        block = init_copy_preceding(net, stage)
    elif init_rule == "moment":
        if ensemble is None:
            raise GrowthError("moment init requires an ensemble")
        block = init_moment(ensemble)
    else:  # random
        if rng is None:
            raise GrowthError("random init requires a generator")
        block = he_weight(rng, width, width), np.zeros(width)

    net.insert_block(stage, *block)
    return block


def resolve_init_rule(net: Network, stage: int, requested: str) -> str:
    """Effective init rule for growing `stage` next.

    Copy and moment both derive from the preceding block, which must be
    square; when the predecessor is a downsample block the new block falls
    back to random init.
    """
    if requested in ("copy", "moment") and net.block(stage)[0] is BlockKind.DOWNSAMPLE:
        return "random"
    return requested


def next_stage(where: str, target: tuple[int, ...], current: tuple[int, ...],
               last: int = -1) -> int | None:
    """Stage the next growth goes to under where-to-grow rule `where`, or None at target.

    Both rules scan the stages cyclically for the first one below its target
    count: "sequential" from stage 0, so stages fill front to back, and
    "circulation" from the stage after `last`, the run's last growth (-1: none).
    """
    if where not in WHERE_RULES:
        raise GrowthError(f"unknown where-policy {where!r}, expected one of {WHERE_RULES}")
    n = len(target)
    start = last + 1 if where == "circulation" else 0
    for i in (k % n for k in range(start, start + n)):
        if current[i] < target[i]:
            return i
    return None
