"""Growth bookkeeping and execution.

Where-to-grow policies pick the stage; `grow` alone builds the new block
by its init rule (copy and moment become random after a downsample
block), splices it into the flat parameter store with zero momentum and
returns the rule it used. A `MomentEnsemble` is a value, updated from the
network it is given. New blocks are appended at stage ends and never
downsample: downsampling exists only at stage boundaries of the seed net.
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


@dataclass
class MomentEnsemble:
    """EMA of the parameters of `stage`'s block `index`, refreshed once per optimizer step.

    `update(net)` reads that block's slice of `net.params`: shadow <-
    d*shadow + (1-d)*current, d = EMA_DECAY. Growth only appends at stage
    ends, so (stage, index) keeps naming the same block.
    """

    stage: int
    index: int
    shadow: np.ndarray
    updates: int = 0

    @classmethod
    def track(cls, net: Network, stage: int) -> MomentEnsemble | None:
        """Track `stage`'s last block, which growth there derives from; None if it downsamples."""
        index = net.arch.blocks_per_stage[stage] - 1
        kind, span = net.block(stage, index)
        return None if kind is BlockKind.DOWNSAMPLE else cls(stage, index, net.params[span].copy())

    def update(self, net: Network) -> None:
        d = EMA_DECAY
        self.shadow *= d
        self.shadow += (1.0 - d) * net.params[net.block(self.stage, self.index)[1]]
        self.updates += 1


def grow(net: Network, stage: int, init_rule: str,
         rng: np.random.Generator | None = None,
         ensemble: MomentEnsemble | None = None) -> str:
    """Append one block to `stage`, with zero momentum; return the init rule used.

    Copy takes `stage`'s last block, moment the `ensemble` tracking it, and
    random a He-normal draw from `rng` with zero bias. Copy and moment need
    a square predecessor, so after a downsample block they become random.
    All pre-existing parameter and momentum values keep their bits.
    """
    if not 0 <= stage < len(net.arch.stages):
        raise GrowthError(f"stage index {stage} out of range")
    if init_rule not in INIT_RULES:
        raise GrowthError(f"unknown init rule {init_rule!r}")
    width = net.arch.stages[stage].width
    kind, span = net.block(stage)
    if kind is BlockKind.DOWNSAMPLE:
        init_rule = "random"

    if init_rule == "copy":
        flat = net.params[span]
    elif init_rule == "moment":
        if ensemble is None:
            raise GrowthError("moment init requires an ensemble")
        if ensemble.updates < 1:
            raise GrowthError("moment ensemble has never been updated")
        if (ensemble.stage, ensemble.index) != (stage, net.arch.blocks_per_stage[stage] - 1):
            raise GrowthError(f"stale moment ensemble: tracks ({ensemble.stage}, {ensemble.index})")
        flat = ensemble.shadow
    else:  # random
        if rng is None:
            raise GrowthError("random init requires a generator")
        flat = np.concatenate((he_weight(rng, width, width).ravel(), np.zeros(width)))

    net.insert_block(stage, flat[: width * width].reshape(width, width), flat[width * width :])
    return init_rule


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
