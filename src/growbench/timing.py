"""When-to-grow policies and the growth-regularization diagnostic.

Units matter here: accuracies and the overfitting risk level (orl) are in
percentage points, never fractions. orl = train accuracy - validation
accuracy, so a model memorizing noise reads high (e.g. 31.35) while an
underfit model reads near 0 (possibly negative). The dynamic interval

    interval = max_interval / (1 + exp(alpha - orl))

is scale-sensitive in orl; feeding fractions would pin every run to the
fastest growth speed.

All policies are checked once per epoch end. A run of `total_epochs`
epochs with `remaining` blocks still to add must finish growing by epoch
`total_epochs - min_finetune_epochs - remaining`; past that deadline every
policy grows one block per epoch so the finetuning floor is honored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .morph import GrowthEvent

# exp() overflows float64 near 709; clamping keeps interval() total.
_EXP_CLAMP = 700.0

# Convergent baseline: a plateau is PLATEAU_WINDOW epochs whose best
# validation accuracy beats the best before them by at most PLATEAU_EPS pp.
PLATEAU_WINDOW = 5
PLATEAU_EPS = 0.05


class PolicyError(ValueError):
    """Invalid policy inputs (out-of-range accuracies, bad budgets, ...)."""


def orl(train_acc: float, val_acc: float) -> float:
    """Overfitting risk level: train minus validation accuracy (pp).

    Negative values are meaningful (validation ahead of train) and are
    deliberately not clamped: they drive the growth interval below its
    underfit plateau, i.e. maximal growth speed.
    """
    for name, v in (("train_acc", train_acc), ("val_acc", val_acc)):
        if not 0.0 <= v <= 100.0:
            raise PolicyError(f"{name} must be a percentage in [0, 100], got {v}")
    return train_acc - val_acc


def i_max(total_epochs: int, min_finetune_epochs: int, added_blocks: int) -> float:
    """Largest admissible growth interval (epochs per block).

    (total - min finetune) / blocks-to-add: spacing growths wider than
    this could not finish the budget in time to finetune.
    """
    if added_blocks < 1:
        raise PolicyError("i_max is undefined when no blocks are added")
    if not total_epochs > min_finetune_epochs >= 0:
        raise PolicyError(
            f"need total_epochs > min_finetune_epochs >= 0, "
            f"got {total_epochs} and {min_finetune_epochs}"
        )
    return (total_epochs - min_finetune_epochs) / added_blocks


def interval(max_interval: float, alpha: float, orl_pp: float) -> float:
    """Dynamic growth interval: max_interval / (1 + exp(alpha - orl)).

    Strictly increasing in orl and bounded by (0, max_interval) in exact
    arithmetic; in float64 it saturates to max_interval exactly once
    exp(alpha - orl) drops below 1 ulp (orl above alpha + ~36). High
    overfitting risk slows growth toward max_interval, underfitting
    accelerates it toward 0. At orl == alpha the interval is exactly
    max_interval / 2.
    """
    if max_interval <= 0.0:
        raise PolicyError(f"max_interval must be positive, got {max_interval}")
    exponent = min(max(alpha - orl_pp, -_EXP_CLAMP), _EXP_CLAMP)
    return max_interval / (1.0 + math.exp(exponent))


def round_half_up(x: float) -> int:
    """Round with halves going up (6.25 -> 6, 6.5 -> 7), unlike banker's round()."""
    return math.floor(x + 0.5)


def average_training_epochs(events: list[GrowthEvent], total_epochs: int) -> float:
    """Mean number of epochs the added blocks were trained.

    A block inserted after t completed epochs trains for total - t epochs;
    the mean over added blocks measures how much regularization the growth
    schedule imposed (smaller mean = stronger regularization).
    """
    if not events:
        raise PolicyError("average_training_epochs needs at least one growth event")
    if any(e.epoch > total_epochs for e in events):
        raise PolicyError("growth event after the end of the run")
    return sum(total_epochs - e.epoch for e in events) / len(events)


@dataclass
class PolicyState:
    """Mutable when-to-grow state owned by the training loop.

    `val_history` holds one (epoch, val_acc) pair per completed epoch and
    must be current before the policy is consulted.
    """

    total_epochs: int
    min_finetune_epochs: int
    remaining: int
    max_interval: float
    alpha: float = 4.0
    period_scale: float = 1.0
    last_growth_epoch: int = 0
    events: list[GrowthEvent] = field(default_factory=list)
    val_history: list[tuple[int, float]] = field(default_factory=list)

    def record_epoch(self, epoch: int, val_acc: float) -> None:
        self.val_history.append((epoch, val_acc))

    def record_growth(self, event: GrowthEvent) -> None:
        self.events.append(event)
        self.remaining -= 1
        if self.remaining < 0:
            raise PolicyError("grew more blocks than the budget allows")

    def deadline_reached(self, epoch: int) -> bool:
        """Past this epoch the remaining growths must happen back to back."""
        return epoch >= self.total_epochs - self.min_finetune_epochs - self.remaining


def fragrow_should_grow(state: PolicyState, epoch: int, orl_pp: float) -> bool:
    """Fitting-risk-aware rule: grow once the dynamic interval has elapsed.

    The interval is re-evaluated from the latest orl each epoch, floored
    at one epoch, and always bounded by max_interval, so this policy
    never grows slower than the periodic baseline.
    """
    if state.deadline_reached(epoch):
        return True
    needed = interval(state.max_interval, state.alpha, orl_pp)
    return epoch - state.last_growth_epoch >= max(1.0, needed)


def periodic_period(state: PolicyState) -> int:
    """Integer period of the periodic baseline.

    round-half-up of max_interval, scaled by period_scale (< 1 gives the
    deliberately-fast growth used in regularization experiments), floored
    at one epoch.
    """
    return max(1, round_half_up(state.max_interval * state.period_scale))


def periodic_should_grow(state: PolicyState, epoch: int) -> bool:
    """Fixed-interval rule: grow every periodic_period(state) epochs."""
    if state.deadline_reached(epoch):
        return True
    return epoch - state.last_growth_epoch >= periodic_period(state)


def convergent_should_grow(state: PolicyState, epoch: int) -> bool:
    """Plateau rule: grow when validation accuracy has stagnated.

    Stagnation means the best val accuracy of the last PLATEAU_WINDOW
    epochs does not beat the best seen before that window by more than
    PLATEAU_EPS pp. Requires a full window since the last growth and a
    non-empty history before the window.
    """
    if state.deadline_reached(epoch):
        return True
    p = PLATEAU_WINDOW
    if epoch - state.last_growth_epoch < p:
        return False
    if len(state.val_history) <= p:
        return False
    window = [acc for _, acc in state.val_history[-p:]]
    before = [acc for _, acc in state.val_history[:-p]]
    return max(window) <= max(before) + PLATEAU_EPS


# Every entry takes (state, epoch, orl_pp).
SHOULD_GROW = {
    "fragrow": fragrow_should_grow,
    "periodic": lambda state, epoch, orl_pp: periodic_should_grow(state, epoch),
    "convergent": lambda state, epoch, orl_pp: convergent_should_grow(state, epoch),
}

POLICY_NAMES = tuple(SHOULD_GROW)
