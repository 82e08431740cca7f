import numpy as np
import pytest

from growbench.arch import ArchError, ArchSpec, StageSpec, parse_arch
from growbench.morph import (
    GrowthError,
    MomentEnsemble,
    WherePolicy,
    count_added_blocks,
    grow,
    init_copy_preceding,
    init_moment,
    next_location_circulation,
    next_location_sequential,
    resolve_init_rule,
)
from growbench.netcore import BlockKind, OptState, build_network, forward, loss_and_grads
from growbench.rng import substream


def arch(blocks, family="res", width=8, input_dim=6, classes=3):
    stages = tuple(StageSpec(width, b) for b in blocks)
    return ArchSpec(family, stages, input_dim, classes)


def flat_params(net):
    return np.concatenate([a.ravel() for _, w, b in net.iter_params() for a in (w, b)])


# --- count_added_blocks -----------------------------------------------------

def test_count_resnet_analogue():
    assert count_added_blocks(arch((2, 2, 2, 2)), arch((8, 8, 8, 8))) == 24


def test_count_vgg_analogue():
    seed = parse_arch("plain:8x1-8x1-8x1-8x1-8x2", 6, 3)
    target = parse_arch("plain:8x2-8x2-8x4-8x4-8x4", 6, 3)
    assert count_added_blocks(seed, target) == 10


def test_count_zero_when_equal():
    assert count_added_blocks(arch((2, 2)), arch((2, 2))) == 0


def test_count_rejects_incompatible():
    with pytest.raises(ArchError):
        count_added_blocks(arch((2, 2)), arch((2, 2), family="plain"))
    with pytest.raises(ArchError):
        count_added_blocks(arch((2, 2)), arch((2, 2, 2)))
    with pytest.raises(ArchError):
        count_added_blocks(arch((3, 2)), arch((2, 8)))  # negative per-stage diff


# --- where policies ---------------------------------------------------------

def test_sequential_picks_first_unsaturated():
    target = arch((8, 8, 8, 8))
    assert next_location_sequential(arch((2, 2, 2, 2)), target) == 0
    assert next_location_sequential(arch((8, 3, 2, 2)), target) == 1
    assert next_location_sequential(target, target) is None


def test_sequential_order_non_decreasing():
    target = arch((3, 2, 4))
    current = arch((1, 1, 1))
    order = []
    counts = list(current.blocks_per_stage)
    while True:
        loc = next_location_sequential(current.with_blocks(tuple(counts)), target)
        if loc is None:
            break
        order.append(loc)
        counts[loc] += 1
    assert order == sorted(order)
    assert tuple(counts) == target.blocks_per_stage


def test_circulation_scans_after_last_visited():
    target = arch((8, 8, 8, 8))
    assert next_location_circulation(0, arch((3, 2, 2, 2)), target) == 1
    assert next_location_circulation(3, arch((3, 2, 2, 2)), target) == 0
    only_two = arch((8, 8, 2, 8))
    for last in (None, 0, 1, 2, 3):
        assert next_location_circulation(last, only_two, target) == 2


def test_circulation_fairness_over_cycles():
    target = arch((9, 9, 9))
    counts = [1, 1, 1]
    policy = WherePolicy("circulation", target)
    added = [0, 0, 0]
    for _ in range(3 * 5):  # 5 full cycles, nothing saturates
        loc = policy.advance(target.with_blocks(tuple(counts)))
        counts[loc] += 1
        added[loc] += 1
    assert max(added) - min(added) <= 1


# --- init rules -------------------------------------------------------------

def test_copy_init_duplicates_and_detaches():
    net = build_network(arch((2,)), 5)
    src = net.stages[0].blocks[-1]
    new = init_copy_preceding(src)
    np.testing.assert_array_equal(new.weight, src.weight)
    np.testing.assert_array_equal(new.bias, src.bias)
    src.weight[0, 0] += 1.0
    assert new.weight[0, 0] != src.weight[0, 0]


def test_copy_init_rejects_downsample():
    net = build_network(arch((1,), input_dim=6, width=8), 5)
    assert net.stages[0].blocks[0].kind is BlockKind.DOWNSAMPLE
    with pytest.raises(GrowthError):
        init_copy_preceding(net.stages[0].blocks[0])


def test_resolve_init_rule_falls_back_to_random():
    net = build_network(arch((1,), input_dim=6, width=8), 5)
    assert resolve_init_rule(net, 0, "copy") == "random"
    assert resolve_init_rule(net, 0, "moment") == "random"
    assert resolve_init_rule(net, 0, "random") == "random"


def test_moment_fixed_point_on_constant_source():
    net = build_network(arch((2,)), 5)
    blk = net.stages[0].blocks[1]
    ens = MomentEnsemble.track(blk)
    for _ in range(10):
        ens.update()
    new = init_moment(ens)
    np.testing.assert_allclose(new.weight, blk.weight, atol=1e-12)


def test_moment_single_update_recurrence():
    net = build_network(arch((2,)), 5)
    blk = net.stages[0].blocks[1]
    s0 = blk.weight.copy()
    ens = MomentEnsemble.track(blk)
    blk.weight[:] = s0 + 2.0
    ens.update()
    np.testing.assert_allclose(ens.shadow.weight, 0.99 * s0 + 0.01 * (s0 + 2.0), atol=1e-12)


def test_moment_requires_an_update():
    net = build_network(arch((2,)), 5)
    ens = MomentEnsemble.track(net.stages[0].blocks[1])
    with pytest.raises(GrowthError):
        init_moment(ens)


def test_second_growth_tracks_new_preceding_block():
    net = build_network(arch((2,)), 5)
    opt = OptState.for_network(net)
    first = grow(net, opt, 0, "zero")
    # re-tracking after growth must shadow the block just inserted
    ens = MomentEnsemble.track(net.stages[0].blocks[-1])
    ens.update()
    second = init_moment(ens)
    np.testing.assert_array_equal(second.weight, first.weight)


# --- grow -------------------------------------------------------------------

def test_grow_zero_init_preserves_function():
    net = build_network(arch((2, 2)), 9)
    opt = OptState.for_network(net)
    x = np.random.default_rng(0).normal(size=(7, 6))
    before = forward(net, x)
    grow(net, opt, 1, "zero")
    np.testing.assert_array_equal(forward(net, x), before)


def test_grow_increments_counts_and_buffers():
    net = build_network(arch((2, 2)), 9)
    opt = OptState.for_network(net)
    grow(net, opt, 0, "copy")
    assert net.blocks_per_stage() == (3, 2)
    assert len(opt.stages[0]) == 3
    assert not opt.stages[0][-1].weight.any()


def test_grow_is_non_destructive():
    net = build_network(arch((2, 2)), 9)
    opt = OptState.for_network(net)
    opt.stages[0][0].weight[:] = 0.25  # pre-existing momentum survives
    before = flat_params(net).copy()
    grow(net, opt, 0, "copy")
    # existing params bit-identical: compare everything except the new block
    after = [a for (path, w, b) in net.iter_params() for a in (w, b)
             if path != (0, 2)]
    np.testing.assert_array_equal(np.concatenate([a.ravel() for a in after]), before)
    assert opt.stages[0][0].weight[0, 0] == 0.25


def test_grow_copy_keeps_training_stable():
    net = build_network(arch((2, 2)), 9)
    opt = OptState.for_network(net)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(16, 6))
    y = rng.integers(0, 3, size=16)
    grow(net, opt, 0, "copy")
    loss, _ = loss_and_grads(net, x, y)
    assert np.isfinite(loss)
    assert np.isfinite(forward(net, x)).all()


def test_grow_random_uses_given_stream():
    net1 = build_network(arch((2, 2)), 9)
    net2 = build_network(arch((2, 2)), 9)
    for net in (net1, net2):
        grow(net, OptState.for_network(net), 0, "random", rng=substream(4, "grow", 0))
    np.testing.assert_array_equal(net1.stages[0].blocks[-1].weight,
                                  net2.stages[0].blocks[-1].weight)


def test_grow_rejects_bad_requests():
    net = build_network(arch((2, 2)), 9)
    opt = OptState.for_network(net)
    with pytest.raises(GrowthError):
        grow(net, opt, 5, "copy")
    with pytest.raises(GrowthError):
        grow(net, opt, 0, "sideways")
    with pytest.raises(GrowthError):
        grow(net, opt, 0, "random")  # no rng provided
    with pytest.raises(GrowthError):
        grow(net, opt, 0, "moment")  # no ensemble provided


def test_budget_exactness_full_growth():
    seed = arch((1, 1, 1))
    target = arch((4, 3, 2))
    net = build_network(seed, 2)
    opt = OptState.for_network(net)
    n = count_added_blocks(seed, target)
    policy = WherePolicy("sequential", target)
    events = 0
    while True:
        loc = policy.advance(net.arch_spec())
        if loc is None:
            break
        rule = resolve_init_rule(net, loc, "copy")  # stage 0 starts downsample
        grow(net, opt, loc, rule, rng=substream(0, "grow", events))
        events += 1
    assert events == n
    assert net.blocks_per_stage() == target.blocks_per_stage
