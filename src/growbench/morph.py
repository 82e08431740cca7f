"""Growth bookkeeping and execution.

Where-to-grow policies pick the stage; init rules build the new block's
weights; `grow` splices the block into the live network and keeps the
optimizer state aligned. New blocks are always appended at the end of a
stage and are never downsample blocks: downsampling exists only at stage
boundaries of the seed network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ArchSpec, check_compatible
from .netcore import Block, BlockKind, Network, OptState, ParamPair, he_weight

# "zero" is test-only: it makes a residual block an exact identity, which
# pins the growth-is-non-destructive invariant. It is not offered in configs.
USER_INIT_RULES = ("copy", "moment", "random")
ALL_INIT_RULES = USER_INIT_RULES + ("zero",)

EMA_DECAY = 0.99


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


def next_location_sequential(current: ArchSpec, target: ArchSpec) -> int | None:
    """Lowest unsaturated stage index, or None when current == target.

    Fills stages front to back: a stage receives blocks until it reaches
    its target count, then growth moves to the next stage.
    """
    check_compatible(current, target)
    for i, (c, t) in enumerate(zip(current.stages, target.stages)):
        if c.blocks < t.blocks:
            return i
    return None


def next_location_circulation(last_visited: int | None, current: ArchSpec,
                              target: ArchSpec) -> int | None:
    """Cyclic scan over stages starting after `last_visited`.

    Returns the first unsaturated stage encountered, or None when the
    network is at target size everywhere.
    """
    check_compatible(current, target)
    n_stages = len(current.stages)
    start = 0 if last_visited is None else (last_visited + 1) % n_stages
    for k in range(n_stages):
        i = (start + k) % n_stages
        if current.stages[i].blocks < target.stages[i].blocks:
            return i
    return None


def init_copy_preceding(preceding: Block) -> Block:
    """New block with weights and bias deep-copied from its predecessor."""
    if preceding.kind is BlockKind.DOWNSAMPLE:
        raise GrowthError(
            "cannot copy from a downsample block (in/out widths differ); "
            "use random init for this location"
        )
    return Block(preceding.kind, preceding.weight.copy(), preceding.bias.copy())


@dataclass
class MomentEnsemble:
    """Exponential moving average of one tracked block's parameters.

    The shadow starts as a copy of the tracked block and is refreshed once
    per optimizer step: shadow <- d*shadow + (1-d)*current, d = EMA_DECAY.
    """

    block: Block
    shadow: ParamPair
    updates: int = 0

    @classmethod
    def track(cls, block: Block) -> "MomentEnsemble":
        if block.kind is BlockKind.DOWNSAMPLE:
            raise GrowthError("moment ensembles track square blocks only")
        return cls(block, ParamPair(block.weight.copy(), block.bias.copy()))

    def update(self) -> None:
        d = EMA_DECAY
        self.shadow.weight *= d
        self.shadow.weight += (1.0 - d) * self.block.weight
        self.shadow.bias *= d
        self.shadow.bias += (1.0 - d) * self.block.bias
        self.updates += 1


def init_moment(ensemble: MomentEnsemble) -> Block:
    """New block from the EMA shadow of its predecessor."""
    if ensemble.updates < 1:
        raise GrowthError("moment ensemble has never been updated")
    return Block(ensemble.block.kind, ensemble.shadow.weight.copy(), ensemble.shadow.bias.copy())


def _square_kind(family: str) -> BlockKind:
    return BlockKind.RESIDUAL if family == "res" else BlockKind.PLAIN


def grow(net: Network, opt: OptState, stage: int, init_rule: str,
         rng: np.random.Generator | None = None,
         ensemble: MomentEnsemble | None = None) -> Block:
    """Append one block to `stage` and zero-init its momentum buffers.

    All pre-existing parameters and buffers are left untouched. The new
    block's input width equals the stage width, so it is always square.
    Returns the inserted block.
    """
    if not 0 <= stage < len(net.stages):
        raise GrowthError(f"stage index {stage} out of range")
    if init_rule not in ALL_INIT_RULES:
        raise GrowthError(f"unknown init rule {init_rule!r}")
    st = net.stages[stage]
    preceding = st.blocks[-1]
    width = st.width

    if init_rule == "copy":
        block = init_copy_preceding(preceding)
    elif init_rule == "moment":
        if ensemble is None:
            raise GrowthError("moment init requires an ensemble")
        block = init_moment(ensemble)
        if block.out_width != width:
            raise GrowthError("ensemble shape does not match the stage width")
    elif init_rule == "random":
        if rng is None:
            raise GrowthError("random init requires a generator")
        block = Block(_square_kind(net.family), he_weight(rng, width, width), np.zeros(width))
    else:  # zero (test-only)
        block = Block(_square_kind(net.family), np.zeros((width, width)), np.zeros(width))

    if block.in_width != width or block.out_width != width:
        raise GrowthError(
            f"new block shape {block.weight.shape} does not fit stage width {width}"
        )
    st.blocks.append(block)
    opt.stages[stage].append(ParamPair.zeros_like(block.weight, block.bias))
    return block


def resolve_init_rule(net: Network, stage: int, requested: str) -> str:
    """Effective init rule for growing `stage` next.

    Copy and moment both derive from the preceding block, which must be
    square; when the predecessor is a downsample block the new block falls
    back to random init.
    """
    if requested not in ALL_INIT_RULES:
        raise GrowthError(f"unknown init rule {requested!r}")
    preceding = net.stages[stage].blocks[-1]
    if requested in ("copy", "moment") and preceding.kind is BlockKind.DOWNSAMPLE:
        return "random"
    return requested


@dataclass
class WherePolicy:
    """Stateful wrapper over the where-to-grow rules ("sequential"/"circulation")."""

    name: str
    target: ArchSpec
    last_visited: int | None = None

    def __post_init__(self) -> None:
        if self.name not in ("sequential", "circulation"):
            raise GrowthError(f"unknown where-policy {self.name!r}")

    def peek(self, current: ArchSpec) -> int | None:
        if self.name == "sequential":
            return next_location_sequential(current, self.target)
        return next_location_circulation(self.last_visited, current, self.target)

    def advance(self, current: ArchSpec) -> int | None:
        """Pick the stage for the growth that is about to happen."""
        loc = self.peek(current)
        if loc is not None and self.name == "circulation":
            self.last_visited = loc
        return loc
