"""Architecture descriptors for staged networks.

An architecture is a family ("plain" or "res") plus an ordered list of
stages, each with a fixed width and a block count. Growth changes block
counts only; widths and stage count are fixed for a run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

FAMILIES = ("plain", "res")

_ARCH_RE = re.compile(r"^(plain|res):(\d+x\d+(?:-\d+x\d+)*)$")


class ArchError(ValueError):
    """Malformed or incompatible architecture description."""


@dataclass(frozen=True)
class StageSpec:
    width: int
    blocks: int


@dataclass(frozen=True)
class ArchSpec:
    """Static description of a staged network.

    `input_dim` and `num_classes` are attached when the dataset is known;
    the textual form (see `parse_arch`) carries family/widths/blocks only.
    """

    family: str
    stages: tuple[StageSpec, ...]
    input_dim: int
    num_classes: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ArchError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not self.stages:
            raise ArchError("architecture needs at least one stage")
        for i, st in enumerate(self.stages):
            if st.width <= 0:
                raise ArchError(f"stage {i} has non-positive width {st.width}")
            if st.blocks <= 0:
                raise ArchError(f"stage {i} has non-positive block count {st.blocks}")
        if self.input_dim <= 0:
            raise ArchError(f"non-positive input_dim {self.input_dim}")
        if self.num_classes < 2:
            raise ArchError(f"need at least 2 classes, got {self.num_classes}")

    @property
    def blocks_per_stage(self) -> tuple[int, ...]:
        return tuple(st.blocks for st in self.stages)


def parse_arch(text: str, input_dim: int, num_classes: int) -> ArchSpec:
    """Parse the textual form, e.g. "res:64x2-64x2-64x2-64x2"."""
    m = _ARCH_RE.match(text.strip())
    if m is None:
        raise ArchError(
            f"bad architecture string {text!r}; expected family:WxB-WxB-... "
            f"with family in {FAMILIES}"
        )
    family, body = m.group(1), m.group(2)
    stages = []
    for part in body.split("-"):
        w, b = part.split("x")
        stages.append(StageSpec(int(w), int(b)))
    return ArchSpec(family, tuple(stages), input_dim, num_classes)


def check_compatible(seed: ArchSpec, target: ArchSpec) -> None:
    """Raise unless target is a valid growth target for seed.

    Same family, same stage count and widths, and target block counts
    at least the seed's in every stage.
    """
    if seed.family != target.family:
        raise ArchError(f"family mismatch: {seed.family} vs {target.family}")
    if seed.input_dim != target.input_dim or seed.num_classes != target.num_classes:
        raise ArchError("input_dim/num_classes mismatch between seed and target")
    if len(seed.stages) != len(target.stages):
        raise ArchError(
            f"stage count mismatch: {len(seed.stages)} vs {len(target.stages)}"
        )
    for i, (s, t) in enumerate(zip(seed.stages, target.stages)):
        if s.width != t.width:
            raise ArchError(f"stage {i} width mismatch: {s.width} vs {t.width}")
        if t.blocks < s.blocks:
            raise ArchError(
                f"stage {i}: target has fewer blocks ({t.blocks}) than seed ({s.blocks})"
            )
