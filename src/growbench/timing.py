"""When-to-grow policies and the growth-regularization diagnostic.

Units matter here: accuracies and the overfitting risk level (orl) are in
percentage points, never fractions. orl = train accuracy - validation
accuracy, so a model memorizing noise reads high (e.g. 31.35) while an
underfit model reads near 0 (possibly negative). The dynamic interval

    interval = max_interval / (1 + exp(alpha - orl))

is scale-sensitive in orl; feeding fractions would pin every run to the
fastest growth speed.

Every when-to-grow policy is a function `(state, epoch, orl_pp) -> bool`
in `SHOULD_GROW`, consulted once at the end of 0-based epoch `epoch`; the
periodic and convergent baselines ignore `orl_pp`. A run of
`total_epochs` epochs with `remaining` blocks still to add must finish
growing by epoch `total_epochs - min_finetune_epochs - remaining`; past
that deadline every policy grows one block per epoch so the finetuning
floor is honored.
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
    if added_blocks > total_epochs - min_finetune_epochs:
        raise PolicyError(
            f"cannot add {added_blocks} blocks, one per epoch at most, in "
            f"{total_epochs} epochs and keep {min_finetune_epochs} to finetune"
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

    `val_history` holds the val accuracy of every completed epoch and
    must be current before the policy is consulted. `remaining`,
    `last_growth_epoch` and `max_interval` are derived from the schedule,
    `budget` and `events`, so the state cannot disagree with its events.
    """

    total_epochs: int
    min_finetune_epochs: int
    budget: int  # blocks the run adds in all
    alpha: float = 4.0
    period_scale: float = 1.0
    events: list[GrowthEvent] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)
    max_interval: float = field(init=False)  # the interval cap; 1.0 when nothing is added

    def __post_init__(self) -> None:
        self.max_interval = (i_max(self.total_epochs, self.min_finetune_epochs, self.budget)
                             if self.budget > 0 else 1.0)

    @property
    def remaining(self) -> int:
        return self.budget - len(self.events)

    @property
    def last_growth_epoch(self) -> int:
        """0-based epoch at whose end the last growth was decided; 0 before any."""
        return self.events[-1].epoch - 1 if self.events else 0

    def record_growth(self, event: GrowthEvent) -> None:
        if self.remaining <= 0:
            raise PolicyError("grew more blocks than the budget allows")
        self.events.append(event)

    @property
    def growth_done_epoch(self) -> int | None:
        """Epochs completed when the last growth happened: 0 with no budget, None while growing."""
        if self.remaining:
            return None
        return self.events[-1].epoch if self.events else 0

    def deadline_reached(self, epoch: int) -> bool:
        """Past this epoch the remaining growths must happen back to back."""
        return epoch >= self.total_epochs - self.min_finetune_epochs - self.remaining


def fragrow_should_grow(state: PolicyState, epoch: int, orl_pp: float) -> bool:
    """Fitting-risk-aware rule: grow once the dynamic interval has elapsed.

    The interval is re-evaluated from the latest orl each epoch, floored
    at one epoch and bounded by max_interval: no gap exceeds ceil(max_interval),
    which is one more than periodic's period at a cap of 2.4 (3 vs 2).
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


def periodic_should_grow(state: PolicyState, epoch: int, orl_pp: float) -> bool:
    """Fixed-interval rule: grow every periodic_period(state) epochs."""
    if state.deadline_reached(epoch):
        return True
    return epoch - state.last_growth_epoch >= periodic_period(state)


def convergent_should_grow(state: PolicyState, epoch: int, orl_pp: float) -> bool:
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
    history = state.val_history
    return max(history[-p:]) <= max(history[:-p]) + PLATEAU_EPS


SHOULD_GROW = {
    "fragrow": fragrow_should_grow,
    "periodic": periodic_should_grow,
    "convergent": convergent_should_grow,
}
