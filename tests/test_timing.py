import math

import numpy as np
import pytest

from growbench.morph import GrowthEvent
from growbench.timing import (
    PolicyError,
    PolicyState,
    average_training_epochs,
    convergent_should_grow,
    fragrow_should_grow,
    i_max,
    interval,
    orl,
    periodic_period,
    periodic_should_grow,
    round_half_up,
)


def make_state(**kw):
    defaults = dict(total_epochs=180, min_finetune_epochs=30, remaining=24,
                    max_interval=6.25, alpha=4.0)
    defaults.update(kw)
    return PolicyState(**defaults)


# --- orl ----------------------------------------------------------------------

def test_orl_matches_reported_example():
    assert orl(98.88, 67.53) == pytest.approx(31.35, abs=1e-9)


def test_orl_zero_and_sign():
    assert orl(42.0, 42.0) == 0.0
    assert orl(60.0, 65.0) == -5.0


def test_orl_rejects_out_of_range():
    with pytest.raises(PolicyError):
        orl(101.0, 50.0)
    with pytest.raises(PolicyError):
        orl(50.0, -0.1)


def test_orl_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(0, 100, size=2)
        assert orl(a, b) == -orl(b, a)


# --- i_max --------------------------------------------------------------------

def test_i_max_worked_examples():
    assert i_max(180, 30, 24) == 6.25
    assert i_max(120, 30, 24) == 3.75
    assert i_max(100, 0, 1) == 100.0


def test_i_max_rejects_degenerate_inputs():
    with pytest.raises(PolicyError):
        i_max(180, 30, 0)
    with pytest.raises(PolicyError):
        i_max(30, 30, 4)
    with pytest.raises(PolicyError):
        i_max(30, -1, 4)


# --- interval -----------------------------------------------------------------

def test_interval_midpoint_exact():
    for cap in (1.0, 4.0, 6.25, 100.0):
        assert interval(cap, 4.0, 4.0) == cap / 2


def test_interval_overfit_regime_saturates():
    assert abs(interval(6.25, 4.0, 31.35) - 6.25) < 1e-10


def test_interval_reported_value():
    v = interval(6.25, 4.0, 4.30)
    assert v == pytest.approx(6.25 / (1.0 + math.exp(-0.3)), abs=1e-12)
    assert round(v, 4) == 3.5903


def test_interval_monotone_and_bounded():
    # strictly below the cap in exact arithmetic; float64 saturates to the
    # cap once exp(alpha - orl) underflows below 1 ulp, hence <=
    rng = np.random.default_rng(7)
    for _ in range(500):
        cap = rng.uniform(0.5, 50)
        alpha = rng.uniform(0, 8)
        a, b = sorted(rng.uniform(-100, 100, size=2))
        ia, ib = interval(cap, alpha, a), interval(cap, alpha, b)
        assert 0.0 < ia <= cap and 0.0 < ib <= cap
        if a < b:
            assert ia <= ib
            if alpha - a < 30 and alpha - b > -30:
                assert ia < ib  # strict where the sigmoid is representable
    assert interval(5.0, 4.0, 10.0) < interval(8.0, 4.0, 10.0)


def test_interval_is_total_under_extreme_orl():
    assert interval(6.25, 4.0, -1e9) > 0.0
    assert interval(6.25, 4.0, 1e9) == pytest.approx(6.25, abs=1e-12)
    with pytest.raises(PolicyError):
        interval(0.0, 4.0, 1.0)


def test_round_half_up():
    assert round_half_up(6.25) == 6
    assert round_half_up(6.5) == 7
    assert round_half_up(5.0) == 5
    assert round_half_up(0.5) == 1


# --- fragrow ------------------------------------------------------------------

def test_fragrow_waits_for_dynamic_interval():
    state = make_state()
    orl_pp = orl(79.25, 74.95)  # 4.30 -> I ~ 3.59
    state.last_growth_epoch = 10
    assert not fragrow_should_grow(state, 13, orl_pp)  # 3 elapsed
    assert fragrow_should_grow(state, 14, orl_pp)  # 4 elapsed


def test_fragrow_saturated_interval():
    state = make_state()
    orl_pp = orl(98.88, 67.53)  # 31.35 -> I ~ 6.25
    state.last_growth_epoch = 0
    assert not fragrow_should_grow(state, 6, orl_pp)
    assert fragrow_should_grow(state, 7, orl_pp)


def test_fragrow_floor_one_epoch():
    state = make_state()
    orl_pp = orl(50.0, 50.0)  # 0 -> tiny I
    state.last_growth_epoch = 5
    assert not fragrow_should_grow(state, 5, orl_pp)
    assert fragrow_should_grow(state, 6, orl_pp)


def test_fragrow_forced_completion_deadline():
    state = make_state(remaining=3)
    orl_pp = orl(99.0, 50.0)  # would wait ~6.25
    state.last_growth_epoch = 146
    assert 180 - 30 - 3 == 147
    assert not fragrow_should_grow(state, 146, orl_pp)
    assert fragrow_should_grow(state, 147, orl_pp)


# --- periodic -----------------------------------------------------------------

def test_periodic_period_rounding():
    assert periodic_period(make_state(max_interval=6.25)) == 6
    assert periodic_period(make_state(max_interval=6.5)) == 7
    assert periodic_period(make_state(max_interval=0.3)) == 1
    assert periodic_period(make_state(max_interval=6.25, period_scale=0.2)) == 1


def test_periodic_grows_on_schedule():
    state = make_state(max_interval=6.25)
    state.last_growth_epoch = 0
    assert not periodic_should_grow(state, 0)
    assert not periodic_should_grow(state, 5)
    assert periodic_should_grow(state, 6)


def test_periodic_deadline_cascade():
    state = make_state(total_epochs=40, min_finetune_epochs=10, remaining=24,
                       max_interval=0.625)
    state.last_growth_epoch = 6
    assert periodic_should_grow(state, 6)  # деadline 40-10-24 = 6


# --- convergent ---------------------------------------------------------------

def _with_history(state, accs, start_epoch=0):
    for i, acc in enumerate(accs):
        state.record_epoch(start_epoch + i, acc)
    return state


def test_convergent_ignores_rising_accuracy():
    state = make_state(remaining=4)
    _with_history(state, [50 + 0.5 * i for i in range(12)])
    state.last_growth_epoch = 0
    assert not convergent_should_grow(state, 11)


def test_convergent_fires_on_flat_window():
    state = make_state(remaining=4)
    _with_history(state, [60.0] * 6)
    state.last_growth_epoch = 0
    assert convergent_should_grow(state, 5)


def test_convergent_needs_full_window_since_growth():
    state = make_state(remaining=4)
    _with_history(state, [60.0] * 6)
    state.last_growth_epoch = 3
    assert not convergent_should_grow(state, 5)  # only 2 epochs since growth


def test_convergent_tolerates_small_wiggle():
    state = make_state(remaining=4)  # PLATEAU_EPS is 0.05
    _with_history(state, [60.0, 60.0, 60.0, 60.04, 60.02, 60.01, 60.03, 60.0])
    state.last_growth_epoch = 0
    assert convergent_should_grow(state, 7)


# --- average_training_epochs ----------------------------------------------------

def _events(epochs):
    return [GrowthEvent(epoch=t, stage=0, block_index=1, init_rule="copy")
            for t in epochs]


def test_average_epochs_worked_example():
    assert average_training_epochs(_events([2, 4, 6]), 10) == 6.0


def test_average_epochs_single_event_at_start():
    assert average_training_epochs(_events([0]), 10) == 10.0


def test_average_epochs_rejects_empty_or_late():
    with pytest.raises(PolicyError):
        average_training_epochs([], 10)
    with pytest.raises(PolicyError):
        average_training_epochs(_events([11]), 10)


def test_fragrow_never_slower_than_periodic_interval():
    # the dynamic interval never exceeds the cap, and the cap in any
    # integer-cap configuration equals the periodic period
    state = make_state(max_interval=5.0)
    rng = np.random.default_rng(1)
    for _ in range(300):
        orl_pp = orl(*sorted(rng.uniform(0, 100, size=2))[::-1])
        assert interval(state.max_interval, state.alpha, orl_pp) <= 5.0


def test_budget_invariant_via_record_growth():
    state = make_state(remaining=1)
    state.record_growth(GrowthEvent(epoch=3, stage=0, block_index=1, init_rule="copy"))
    assert state.remaining == 0
    with pytest.raises(PolicyError):
        state.record_growth(GrowthEvent(epoch=4, stage=0, block_index=2, init_rule="copy"))
