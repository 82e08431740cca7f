import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growbench.arch import ArchError, ArchSpec, StageSpec, parse_arch
from growbench.morph import (
    INIT_RULES,
    GrowthError,
    MomentEnsemble,
    count_added_blocks,
    grow,
    next_stage,
)
from growbench.netcore import BlockKind, build_network, stack_networks
from growbench.rng import substream
from test_netcore import solo_step


def arch(blocks, family="res", width=8, input_dim=6, classes=3):
    stages = tuple(StageSpec(width, b) for b in blocks)
    return ArchSpec(family, stages, input_dim, classes)


def flat_params(net):
    return np.concatenate([a.ravel() for w, b in net.views(net.params) for a in (w, b)])


def paths(net):
    """(stage, block) of every block in forward order, then ("clf",): the order of `views`."""
    return [(s, b) for s, n in enumerate(net.arch.blocks_per_stage) for b in range(n)] + [("clf",)]


def block_views(net, stage, index):
    """(weight, bias) views of `stage`'s block `index` in `net.params`."""
    return net.views(net.params)[paths(net).index((stage, index))]


def insert_zero_block(net, stage):
    """Append an all-zero square block to `stage`: an exact identity in a residual net."""
    width = net.arch.stages[stage].width
    net.insert_block(stage, np.zeros((width, width)), np.zeros(width))
    return net.views(net.params)[paths(net).index((stage, net.arch.blocks_per_stage[stage] - 1))]


def logits(net, x):
    """The training pass's logits (labels do not affect them)."""
    return solo_step(net, x, np.zeros(len(x), dtype=np.int64))[1]


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
    target = (8, 8, 8, 8)
    assert next_stage("sequential", target, (2, 2, 2, 2)) == 0
    assert next_stage("sequential", target, (8, 3, 2, 2)) == 1
    assert next_stage("sequential", target, (8, 3, 2, 2), last=2) == 1  # ignores the last growth
    assert next_stage("sequential", target, target) is None


def test_sequential_order_non_decreasing():
    target = (3, 2, 4)
    order = []
    counts = [1, 1, 1]
    while True:
        loc = next_stage("sequential", target, tuple(counts), order[-1] if order else -1)
        if loc is None:
            break
        order.append(loc)
        counts[loc] += 1
    assert order == sorted(order)
    assert tuple(counts) == target


def test_circulation_scans_after_last_visited():
    target = (8, 8, 8, 8)
    assert next_stage("circulation", target, (3, 2, 2, 2), last=0) == 1
    assert next_stage("circulation", target, (3, 2, 2, 2), last=3) == 0
    only_two = (8, 8, 2, 8)
    for last in (-1, 0, 1, 2, 3):  # -1: nothing grown yet
        assert next_stage("circulation", target, only_two, last) == 2


def test_circulation_fairness_over_cycles():
    target = (9, 9, 9)
    counts = [1, 1, 1]
    added = [0, 0, 0]
    loc = -1
    for _ in range(3 * 5):  # 5 full cycles, nothing saturates
        loc = next_stage("circulation", target, tuple(counts), loc)
        counts[loc] += 1
        added[loc] += 1
    assert max(added) - min(added) <= 1


def test_unknown_where_rule_is_a_growth_error():
    with pytest.raises(GrowthError, match="unknown where-policy 'random'"):
        next_stage("random", (2,), (1,))


@st.composite
def seed_target_counts(draw):
    """(seed, target) per-stage block counts, 1-5 stages, seed <= target."""
    n = draw(st.integers(1, 5))
    seed = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return tuple(seed), tuple(s + e for s, e in zip(seed, extra))


@settings(max_examples=300, deadline=None)
@given(counts=seed_target_counts(), name=st.sampled_from(("sequential", "circulation")))
def test_property_where_policy_fills_to_target(counts, name):
    """Each call passes the previous pick as `last`; the picks add exactly target - seed."""
    seed, target = counts
    current = list(seed)
    picks = []
    for _ in range(sum(target) - sum(seed)):
        loc = next_stage(name, target, tuple(current), picks[-1] if picks else -1)
        assert loc is not None and current[loc] < target[loc]
        if name == "circulation" and picks and loc == picks[-1]:
            assert all(c == t for k, (c, t) in enumerate(zip(current, target)) if k != loc)
        current[loc] += 1
        picks.append(loc)
        if name == "circulation":
            added = [c - s for c, s, t in zip(current, seed, target) if c < t]
            assert not added or max(added) - min(added) <= 1
    assert next_stage(name, target, tuple(current), picks[-1] if picks else -1) is None
    assert tuple(current) == target
    assert [picks.count(k) for k in range(len(seed))] == [t - s for s, t in zip(seed, target)]
    if name == "sequential":
        assert picks == sorted(picks)


# --- init rules -------------------------------------------------------------

def test_copy_init_duplicates_and_detaches():
    net = build_network(arch((2,)), 5)
    src_w, src_b = (a.copy() for a in block_views(net, 0, 1))
    assert grow(net, 0, "copy") == "copy"
    new_w, new_b = block_views(net, 0, 2)
    np.testing.assert_array_equal(new_w, src_w)
    np.testing.assert_array_equal(new_b, src_b)
    block_views(net, 0, 1)[0][0, 0] += 1.0
    assert new_w[0, 0] == src_w[0, 0]


@pytest.mark.parametrize("rule", INIT_RULES)
def test_growth_after_a_downsample_block_is_random(rule):
    net = build_network(arch((1,), input_dim=6, width=8), 5)
    assert net.block(0, 0)[0] is BlockKind.DOWNSAMPLE
    assert MomentEnsemble.track(net, 0) is None
    with pytest.raises(GrowthError, match="random init requires a generator"):
        grow(net, 0, rule)
    assert net.arch.blocks_per_stage == (1,)
    explicit = net.copy()
    assert grow(explicit, 0, "random", rng=substream(4, "grow", 0)) == "random"
    assert grow(net, 0, rule, rng=substream(4, "grow", 0)) == "random"
    assert net.params.tobytes() == explicit.params.tobytes()
    assert net.momentum.tobytes() == explicit.momentum.tobytes()


def test_moment_fixed_point_on_constant_source():
    net = build_network(arch((2,)), 5)
    ens = MomentEnsemble.track(net, 0)
    assert (ens.stage, ens.index) == (0, 1)
    for _ in range(10):
        ens.update(net)
    assert grow(net, 0, "moment", ensemble=ens) == "moment"
    np.testing.assert_allclose(block_views(net, 0, 2)[0], block_views(net, 0, 1)[0], atol=1e-12)


def test_moment_single_update_recurrence():
    net = build_network(arch((2,)), 5)
    weight = block_views(net, 0, 1)[0]
    s0 = weight.copy()
    ens = MomentEnsemble.track(net, 0)
    weight[:] = s0 + 2.0
    ens.update(net)
    np.testing.assert_allclose(ens.shadow[: s0.size].reshape(s0.shape),
                               0.99 * s0 + 0.01 * (s0 + 2.0), atol=1e-12)


def test_moment_ensemble_follows_reallocation():
    net = build_network(arch((2, 2)), 5)
    ens = MomentEnsemble.track(net, 1)
    s0 = net.params[net.block(1, 1)[1]].copy()
    other = net.copy()
    insert_zero_block(net, 0)  # reallocates the parameter store and moves the tracked block
    insert_zero_block(net, 1)  # appends after the tracked block
    assert (ens.stage, ens.index) == (1, 1)
    net.params[net.block(1, 1)[1]] += 2.0
    ens.update(net)
    np.testing.assert_allclose(ens.shadow, 0.99 * s0 + 0.01 * (s0 + 2.0), atol=1e-12)
    ens.update(other)  # another network of the same shape: its own block's values
    np.testing.assert_allclose(ens.shadow, 0.99 * (0.99 * s0 + 0.01 * (s0 + 2.0)) + 0.01 * s0,
                               atol=1e-12)


def test_moment_requires_an_update():
    net = build_network(arch((2,)), 5)
    ens = MomentEnsemble.track(net, 0)
    with pytest.raises(GrowthError, match="never been updated"):
        grow(net, 0, "moment", ensemble=ens)
    assert net.arch.blocks_per_stage == (2,)


def test_stale_moment_ensemble_is_refused():
    net = build_network(arch((2, 2)), 5)
    ens = MomentEnsemble.track(net, 0)
    ens.update(net)
    with pytest.raises(GrowthError, match=r"stale moment ensemble: tracks \(0, 1\)"):
        grow(net, 1, "moment", ensemble=ens)  # another stage
    grow(net, 0, "copy")
    before = net.params.copy()
    with pytest.raises(GrowthError, match=r"stale moment ensemble: tracks \(0, 1\)"):
        grow(net, 0, "moment", ensemble=ens)  # stage 0's last block is now block 2
    assert net.params.tobytes() == before.tobytes() and net.arch.blocks_per_stage == (3, 2)


def test_second_growth_tracks_new_preceding_block():
    net = build_network(arch((2,)), 5)
    first_w = insert_zero_block(net, 0)[0].copy()
    # re-tracking after growth must shadow the block just inserted
    ens = MomentEnsemble.track(net, 0)
    ens.update(net)
    grow(net, 0, "moment", ensemble=ens)
    np.testing.assert_array_equal(block_views(net, 0, 3)[0], first_w)


# --- grow -------------------------------------------------------------------

def test_grow_zero_init_preserves_function():
    net = build_network(arch((2, 2)), 9)
    x = np.random.default_rng(0).normal(size=(7, 6))
    before = logits(net, x)
    insert_zero_block(net, 1)
    np.testing.assert_array_equal(logits(net, x), before)


def test_grow_increments_counts_and_buffers():
    net = build_network(arch((2, 2)), 9)
    grow(net, 0, "copy")
    assert net.arch.blocks_per_stage == (3, 2)
    assert net.momentum.size == net.params.size == stack_networks([net]).grads.size
    new_w, new_b = net.views(net.momentum)[2]  # stage 0, block 2
    assert new_w.shape == (8, 8)
    assert not new_w.any() and not new_b.any()


def test_grow_is_non_destructive():
    net = build_network(arch((2, 2)), 9)
    net.views(net.momentum)[0][0][:] = 0.25  # pre-existing momentum survives
    before = flat_params(net).copy()
    grow(net, 0, "copy")
    # existing params bit-identical: compare everything except the new block
    after = [a for path, (w, b) in zip(paths(net), net.views(net.params)) for a in (w, b)
             if path != (0, 2)]
    np.testing.assert_array_equal(np.concatenate([a.ravel() for a in after]), before)
    assert net.views(net.momentum)[0][0][0, 0] == 0.25


def test_grow_copy_keeps_training_stable():
    net = build_network(arch((2, 2)), 9)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(16, 6))
    y = rng.integers(0, 3, size=16)
    grow(net, 0, "copy")
    loss, _, _ = solo_step(net, x, y)
    assert np.isfinite(loss)
    assert np.isfinite(logits(net, x)).all()


def test_grow_random_uses_given_stream():
    net1 = build_network(arch((2, 2)), 9)
    net2 = build_network(arch((2, 2)), 9)
    for net in (net1, net2):
        assert grow(net, 0, "random", rng=substream(4, "grow", 0)) == "random"
    np.testing.assert_array_equal(block_views(net1, 0, 2)[0], block_views(net2, 0, 2)[0])


def test_grow_rejects_bad_requests():
    net = build_network(arch((2, 2)), 9)
    with pytest.raises(GrowthError):
        grow(net, 5, "copy")
    for rule in ("sideways", "zero"):
        with pytest.raises(GrowthError):
            grow(net, 0, rule)
    with pytest.raises(GrowthError):
        grow(net, 0, "random")  # no rng provided
    with pytest.raises(GrowthError):
        grow(net, 0, "moment")  # no ensemble provided


def test_budget_exactness_full_growth():
    seed = arch((1, 1, 1))
    target = arch((4, 3, 2))
    net = build_network(seed, 2)
    n = count_added_blocks(seed, target)
    rules = []
    while True:
        loc = next_stage("sequential", target.blocks_per_stage, net.arch.blocks_per_stage)
        if loc is None:
            break
        rules.append(grow(net, loc, "copy", rng=substream(0, "grow", len(rules))))
    assert len(rules) == n
    assert rules == ["random"] + ["copy"] * (n - 1)  # stage 0 starts downsample
    assert net.arch.blocks_per_stage == target.blocks_per_stage


def _address(a):
    return a.__array_interface__["data"][0]


def assert_flat_store(net):
    """Every view lies in its vector, contiguous, back to back in forward order."""
    stores = {name: (vec, net.views(vec))
              for name, vec in (("params", net.params), ("momentum", net.momentum),
                                ("grads", stack_networks([net]).grads[0]))}
    for name, (vec, views) in stores.items():
        off = 0
        for w, b in views:
            for a in (w, b):
                assert a.flags.c_contiguous and np.shares_memory(a, vec), name
                assert _address(a) - _address(vec) == off * vec.itemsize, name
                off += a.size
        assert off == vec.size, name
    for path, (w, b) in zip(paths(net)[:-1], net.views(net.params)):
        chunk = net.params[net.block(*path)[1]]
        assert np.shares_memory(chunk, net.params)
        assert _address(chunk) == _address(w)
        assert chunk.size == w.size + b.size


def _snapshot(net):
    """path -> (weight, bias, momentum weight, momentum bias), copied."""
    return {path: (w.copy(), b.copy(), mw.copy(), mb.copy())
            for path, (w, b), (mw, mb) in zip(paths(net), net.views(net.params),
                                              net.views(net.momentum))}


@pytest.mark.parametrize("family", ("plain", "res"))
@pytest.mark.parametrize("where", ("sequential", "circulation"))
@pytest.mark.parametrize("rule", INIT_RULES + ("zero",))  # zero: Network.insert_block of zeros
def test_flat_store_views_after_every_growth(rule, where, family):
    seed, target = arch((1, 1, 1), family), arch((3, 2, 2), family)
    net = build_network(seed, 4)
    assert_flat_store(net)
    rng = np.random.default_rng(0)
    loc = -1
    for k in range(count_added_blocks(seed, target)):
        net.momentum[:] = rng.normal(size=net.momentum.size)
        loc = next_stage(where, target.blocks_per_stage, net.arch.blocks_per_stage, loc)
        ensemble = MomentEnsemble.track(net, loc) if rule == "moment" else None
        if ensemble is not None:
            ensemble.update(net)
        before = _snapshot(net)
        if rule == "zero":
            insert_zero_block(net, loc)
        else:
            grow(net, loc, rule, rng=substream(4, "grow", k), ensemble=ensemble)
        assert_flat_store(net)
        after = _snapshot(net)
        new_path = (loc, net.arch.blocks_per_stage[loc] - 1)
        assert set(after) == set(before) | {new_path}
        for path, arrays in before.items():
            for old, new in zip(arrays, after[path]):
                assert old.tobytes() == new.tobytes(), path
        assert not after[new_path][2].any() and not after[new_path][3].any()
    assert net.arch.blocks_per_stage == target.blocks_per_stage
