import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import growbench
from growbench import netcore
from growbench.arch import ArchError, ArchSpec, StageSpec, parse_arch
from growbench.data import Dataset, gaussian_arrays
from growbench.netcore import (
    BlockKind,
    _log_softmax,
    accuracy,
    accuracy_and_loss,
    build_network,
    layers,
    loss_grads_logits,
    lr_at,
    sgd_step,
    stack_networks,
)


def small_arch(family="res", widths=(6, 6), blocks=(2, 1), input_dim=5, classes=3):
    stages = tuple(StageSpec(w, b) for w, b in zip(widths, blocks))
    return ArchSpec(family, stages, input_dim, classes)


def flatten_params(net):
    return np.concatenate([w.ravel() for w, b in net.views(net.params) for w in (w, b)])


def blocks(net):
    """(kind, weight, bias) of every block in forward order, weight and bias as views."""
    return [(kind, w, b) for (kind, _), (w, b) in zip(layers(net.arch)[:-1], net.views(net.params))]


def classifier(net):
    """The classifier's (weight, bias) views."""
    return net.views(net.params)[-1]


def solo_step(net, x, labels, lr=None):
    """(loss, logits, grads) of one network's (B, K) batch, run as a stack of one.

    With `lr`, an SGD step follows; the stack shares the network's params
    and momentum, so the step moves the network.
    """
    st = stack_networks([net])
    losses, logits = loss_grads_logits(st, np.asarray(x)[None], np.asarray(labels)[None])
    if lr is not None:
        sgd_step(st, lr)
    return float(losses[0]), logits[0], st.grads[0]


def numeric_grads(net, feats, labels, eps=1e-5):
    """Central finite differences over every parameter, in place."""
    def loss():
        return solo_step(net, feats, labels)[0]

    out = []
    for w, b in net.views(net.params):
        for arr in (w, b):
            g = np.zeros_like(arr)
            flat = arr.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                gflat[i] = (lp - lm) / (2 * eps)
            out.append(g.ravel())
    return np.concatenate(out)


def max_rel_err(a, b, floor=1e-3):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# --- build_network ----------------------------------------------------------

def test_build_deterministic_for_fixed_seed():
    a = build_network(small_arch(), 7)
    b = build_network(small_arch(), 7)
    assert flatten_params(a).tobytes() == flatten_params(b).tobytes()


def test_build_differs_across_seeds():
    a = build_network(small_arch(), 7)
    b = build_network(small_arch(), 8)
    assert flatten_params(a).tobytes() != flatten_params(b).tobytes()


def test_first_block_shape_maps_input_dim():
    arch = ArchSpec("plain", (StageSpec(8, 1),), input_dim=5, num_classes=3)
    net = build_network(arch, 0)
    kind, weight, _ = blocks(net)[0]
    assert weight.shape == (8, 5)
    assert kind is BlockKind.DOWNSAMPLE


def test_he_std_formula_and_sample():
    assert math.sqrt(2 / 50) == 0.2
    arch = ArchSpec("plain", (StageSpec(50, 2),), input_dim=50, num_classes=2)
    net = build_network(arch, 3)
    w = blocks(net)[1][1]  # square 50x50, in_width 50
    assert abs(w.std() - 0.2) < 0.015
    assert not blocks(net)[0][2].any()


def test_build_rejects_bad_arch():
    with pytest.raises(ArchError):
        ArchSpec("res", (StageSpec(0, 1),), 4, 2)
    with pytest.raises(ArchError):
        ArchSpec("res", (StageSpec(4, 0),), 4, 2)
    with pytest.raises(ArchError):
        ArchSpec("res", (), 4, 2)


def test_parse_arch_round_trip():
    spec = parse_arch("res:64x2-64x2-64x2-64x2", 32, 10)
    assert spec.family == "res"
    assert spec.stages == (StageSpec(64, 2),) * 4  # family + stages spell the text
    assert spec.blocks_per_stage == (2, 2, 2, 2)
    with pytest.raises(ArchError):
        parse_arch("res:64x2-", 32, 10)
    with pytest.raises(ArchError):
        parse_arch("dense:64x2", 32, 10)


# --- forward ----------------------------------------------------------------

def chunked_reference(net, x, y):
    """(accuracy %, mean loss) from reference_logits + _log_softmax + argmax, per 4096 rows."""
    correct, loss_sum = 0, 0.0
    for i in range(0, len(x), 4096):
        ref = reference_logits(net, x[i : i + 4096])
        correct += int((np.argmax(ref, axis=1) == y[i : i + 4096]).sum())
        loss_sum += float(-_log_softmax(ref)[np.arange(len(ref)), y[i : i + 4096]].sum())
    return 100.0 * correct / len(x), loss_sum / len(x)


def reference_logits(net, x):
    """The allocating forward: relu(x @ W.T + b) per block, plus x for residual blocks."""
    for kind, w, b in blocks(net):
        a = np.maximum(x @ w.T + b, 0.0)
        x = x + a if kind is BlockKind.RESIDUAL else a
    clf_w, clf_b = classifier(net)
    return x @ clf_w.T + clf_b


def logits(net, x):
    """The training pass's logits (labels do not affect them)."""
    return solo_step(net, x, np.zeros(len(x), dtype=np.int64))[1]


def test_residual_zero_block_is_identity():
    net = build_network(small_arch(widths=(5,), blocks=(1,), input_dim=5), 0)
    kind, w, b = blocks(net)[0]
    assert kind is BlockKind.RESIDUAL
    w[:] = 0.0
    b[:] = 0.0
    clf_w, clf_b = classifier(net)
    clf_w[:] = np.eye(3, 5)
    clf_b[:] = 0.0
    x = np.arange(10, dtype=float).reshape(2, 5)
    np.testing.assert_array_equal(logits(net, x), x[:, :3])


def test_forward_batch_independence():
    net = build_network(small_arch(), 11)
    rng = np.random.default_rng(1)
    big = rng.normal(size=(32, 5))
    row = big[17:18]
    np.testing.assert_allclose(logits(net, row)[0], logits(net, big)[17], rtol=0, atol=1e-12)


def test_forward_finite_on_random_inputs():
    net = build_network(small_arch(widths=(16, 16), blocks=(3, 3), input_dim=8), 2)
    x = np.random.default_rng(5).normal(size=(64, 8))
    assert np.isfinite(logits(net, x)).all()


@pytest.mark.parametrize("family", ("plain", "res"))
def test_forward_matches_reference_bitwise(family):
    # training keeps one output view per block, evaluation reuses two by
    # turns; both must give the allocating forward's bits, with a width change.
    arch = small_arch(family=family, widths=(7, 7, 4), blocks=(2, 1, 2), input_dim=7, classes=4)
    net = build_network(arch, 3)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 7))
    y = rng.integers(0, 4, size=20)
    assert logits(net, x).tobytes() == reference_logits(net, x).tobytes()
    assert accuracy_and_loss(net, Dataset(x, y, 4)) == chunked_reference(net, x, y)


def test_evaluation_runs_in_4096_row_chunks(monkeypatch):
    # two full chunks and a partial last one, each with the reference's bits
    arch = small_arch(family="res", widths=(4, 3), blocks=(1, 1), input_dim=3, classes=3)
    net = build_network(arch, 5)
    rng = np.random.default_rng(9)
    n = 2 * 4096 + 5
    x = rng.normal(size=(n, 3))
    y = rng.integers(0, 3, size=n)
    acc, loss = chunked_reference(net, x, y)
    rows = []
    forward = netcore._forward

    def counting_forward(st, x, *args, **kwargs):
        rows.append(x.shape[1])
        return forward(st, x, *args, **kwargs)

    monkeypatch.setattr(netcore, "_forward", counting_forward)
    ds = Dataset(x, y, 3)
    assert accuracy_and_loss(net, ds) == (acc, loss)
    assert rows == [4096, 4096, 5]
    rows.clear()
    assert accuracy(net, ds) == acc
    assert rows == [4096, 4096, 5]


@st.composite
def eval_nets(draw):
    """Plain or residual nets of 2-20 classes, downsampling where a stage's width changes."""
    family = draw(st.sampled_from(("plain", "res")))
    widths = draw(st.lists(st.sampled_from((4, 16)), min_size=1, max_size=2))
    blocks = [draw(st.integers(1, 2)) for _ in widths]
    return small_arch(family, tuple(widths), tuple(blocks), input_dim=draw(st.sampled_from((3, 24))),
                      classes=draw(st.integers(2, 20)))


@pytest.mark.parametrize("n", (1, 4095, 4096, 4097, 2 * 4096 + 5))
@settings(max_examples=8, deadline=None)
@given(arch=eval_nets(), seed=st.integers(0, 2**16), ties=st.booleans())
@example(arch=small_arch("res", (4,), (1,), input_dim=3, classes=7), seed=3, ties=True)
def test_property_evaluation_equals_log_softmax_reference(n, arch, seed, ties):
    """accuracy_and_loss and accuracy give the reference's Python floats, bit for bit.

    With `ties` the classifier is zeroed, so every logit is 0 and every
    row's argmax is class 0.
    """
    net = build_network(arch, seed)
    if ties:
        for a in classifier(net):
            a[:] = 0.0
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, arch.input_dim))
    y = rng.integers(0, arch.num_classes, size=n)
    acc, loss = chunked_reference(net, x, y)
    if ties:
        assert acc == 100.0 * np.count_nonzero(y == 0) / n
    ds = Dataset(x, y, arch.num_classes)
    assert accuracy_and_loss(net, ds) == (acc, loss)
    assert accuracy(net, ds) == acc


@pytest.mark.parametrize("evaluate", (accuracy_and_loss, accuracy))
def test_evaluation_rejects_a_dataset_with_more_classes_than_the_net(evaluate):
    # every label is one the net can score, but the split's classes are not the net's
    net = build_network(small_arch(classes=3), 0)
    ds = Dataset(np.zeros((4, 5)), np.array([0, 1, 2, 0]), 4)
    with pytest.raises(ValueError, match=r"^dataset has 4 classes, the net 3$"):
        evaluate(net, ds)


def test_forward_rejects_dim_mismatch():
    net = build_network(small_arch(), 0)
    with pytest.raises(ValueError):
        logits(net, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        accuracy_and_loss(net, Dataset(np.zeros((2, 4)), np.zeros(2, dtype=np.int64), 3))


# --- loss_grads_logits ------------------------------------------------------

def test_uniform_logits_loss_is_log_k():
    arch = ArchSpec("res", (StageSpec(6, 1),), input_dim=6, num_classes=10)
    net = build_network(arch, 0)
    for a in classifier(net):
        a[:] = 0.0
    loss, _, _ = solo_step(net, np.random.default_rng(0).normal(size=(4, 6)),
                           np.array([0, 3, 9, 5]))
    assert loss == pytest.approx(math.log(10), abs=1e-12)


def test_label_out_of_range_rejected():
    net = build_network(small_arch(), 0)
    x = np.zeros((2, 5))
    with pytest.raises(ValueError):
        solo_step(net, x, np.array([0, 3]))
    with pytest.raises(ValueError):
        solo_step(net, x, np.array([-1, 0]))
    with pytest.raises(ValueError, match="labels have shape"):
        solo_step(net, x, np.array([0, 1, 2]))


def test_grads_match_finite_differences_two_stage():
    # 2 stages, 3 blocks total, 4-sample batch
    arch = small_arch(family="res", widths=(6, 6), blocks=(2, 1), input_dim=5, classes=3)
    net = build_network(arch, 13)
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(4, 5))
    labels = rng.integers(0, 3, size=4)
    analytic = solo_step(net, feats, labels)[2]
    numeric = numeric_grads(net, feats, labels)
    assert max_rel_err(analytic, numeric) < 1e-5


def test_grads_match_finite_differences_plain_family():
    arch = small_arch(family="plain", widths=(7, 4), blocks=(2, 2), input_dim=6, classes=4)
    net = build_network(arch, 21)
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(5, 6))
    labels = rng.integers(0, 4, size=5)
    analytic = solo_step(net, feats, labels)[2]
    assert max_rel_err(analytic, numeric_grads(net, feats, labels)) < 1e-5


def test_zero_residual_net_classifier_grads_equal_softmax_regression():
    # with all block weights zero, residual stages pass features through
    arch = ArchSpec("res", (StageSpec(5, 2),), input_dim=5, num_classes=3)
    net = build_network(arch, 1)
    for _, w, b in blocks(net):
        w[:] = 0.0
        b[:] = 0.0
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(6, 5))
    labels = rng.integers(0, 3, size=6)
    grads = solo_step(net, feats, labels)[2]

    # closed-form softmax regression gradient on raw features
    w, b = classifier(net)
    logits = feats @ w.T + b
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(6), labels] -= 1.0
    p /= 6.0
    clf_w, clf_b = net.views(grads)[-1]
    np.testing.assert_allclose(clf_w, p.T @ feats, atol=1e-12)
    np.testing.assert_allclose(clf_b, p.sum(axis=0), atol=1e-12)
    # every pre-activation is exactly 0, where the ReLU subgradient is 0
    assert not any(w.any() or b.any() for w, b in net.views(grads)[:-1])


# --- sgd_step ---------------------------------------------------------------
# The recipe is momentum 0.9 and weight decay 1e-4, folded into the buffer:
# v <- 0.9 v + g + 1e-4 theta; theta <- theta - lr v.

def _step(net, g, lr):
    """One sgd_step of `net` as a stack of one, with every gradient set to `g`."""
    st = stack_networks([net])
    st.grads[:] = g
    sgd_step(st, lr)


def test_sgd_first_step_from_zero_momentum():
    net = build_network(small_arch(), 0)
    before = flatten_params(net).copy()
    _step(net, 0.5, lr=0.1)
    np.testing.assert_allclose(flatten_params(net), before - 0.1 * (0.5 + 1e-4 * before),
                               rtol=0, atol=1e-15)


def test_sgd_zero_lr_updates_buffers_only():
    net = build_network(small_arch(), 0)
    before = net.params.copy()
    _step(net, 1.0, lr=0.0)
    np.testing.assert_array_equal(net.params, before)
    np.testing.assert_allclose(net.momentum, 1.0 + 1e-4 * before, rtol=0, atol=1e-15)
    _step(net, 1.0, lr=0.0)
    np.testing.assert_allclose(net.momentum, 1.9 * (1.0 + 1e-4 * before), rtol=0, atol=1e-15)


def test_sgd_two_steps_momentum_unrolled():
    net = build_network(small_arch(), 0)
    g, lr = 0.25, 0.1
    t0 = net.params.copy()
    v1 = g + 1e-4 * t0
    t1 = t0 - lr * v1
    v2 = 0.9 * v1 + g + 1e-4 * t1
    _step(net, g, lr)
    _step(net, g, lr)
    np.testing.assert_allclose(net.params, t1 - lr * v2, rtol=0, atol=1e-14)
    np.testing.assert_allclose(net.momentum, v2, rtol=0, atol=1e-14)


def test_sgd_weight_decay_in_buffer():
    net = build_network(small_arch(), 0)
    w0 = classifier(net)[0].copy()
    _step(net, 0.0, lr=1.0)
    np.testing.assert_allclose(classifier(net)[0], w0 - 1e-4 * w0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(net.views(net.momentum)[-1][0], 1e-4 * w0, rtol=0, atol=1e-16)


def test_copy_has_same_bits_and_trains_independently():
    net = build_network(small_arch(), 0)
    x = np.linspace(-1.0, 1.0, 20).reshape(4, 5)
    labels = np.array([0, 1, 2, 0])
    for _ in range(2):
        solo_step(net, x, labels, 0.1)
    twin = net.copy()
    np.testing.assert_array_equal(twin.params, net.params)
    np.testing.assert_array_equal(twin.momentum, net.momentum)
    for a in (net, twin):
        solo_step(a, x, labels, 0.1)
    np.testing.assert_array_equal(twin.params, net.params)
    solo_step(twin, x, labels, 0.1)
    assert not np.array_equal(twin.params, net.params)
    twin_arrays = [a for w, b in twin.views(twin.params) for a in (w, b)]
    assert not any(np.shares_memory(a, net.params) for a in twin_arrays)


@pytest.mark.parametrize("weight, bias", [
    (np.zeros((6, 5)), np.zeros(6)),  # not square
    (np.zeros((6, 6)), np.zeros(5)),  # bias length differs from weight rows
    (np.zeros(36), np.zeros(6)),  # weight not 2-d
    (np.zeros((6, 6)), np.zeros((6, 1))),  # bias not 1-d
    (np.zeros((5, 5)), np.zeros(5)),  # square, but not the stage's width
])
def test_insert_block_rejects_wrong_shape(weight, bias):
    net = build_network(small_arch(), 0)
    before = net.params.copy()
    with pytest.raises(ValueError, match="does not fit stage 1 of width 6"):
        net.insert_block(1, weight, bias)
    assert net.arch.blocks_per_stage == (2, 1)
    assert net.params.tobytes() == before.tobytes()


def test_insert_block_appends_to_arch_and_vectors():
    net = build_network(small_arch(), 0)
    before = net.params.copy()
    net.insert_block(0, np.full((6, 6), 2.0), np.full(6, 3.0))
    assert net.arch == small_arch(blocks=(3, 1))
    w, b = net.views(net.params)[2]
    assert (w == 2.0).all() and (b == 3.0).all()
    assert net.params.size == net.momentum.size == before.size + 42
    assert stack_networks([net]).grads.shape == (1, net.params.size)
    assert not net.momentum.any()


# --- stacks -----------------------------------------------------------------

def reference_step(net, x, labels):
    """(loss, flat grads) of a (B, K) batch from allocating 2-D products alone."""
    acts, masks = [x], []
    for kind, w, b in blocks(net):
        z = acts[-1] @ w.T + b
        masks.append(z > 0.0)
        a = np.maximum(z, 0.0)
        acts.append(acts[-1] + a if kind is BlockKind.RESIDUAL else a)
    clf_w, clf_b = classifier(net)
    ls = _log_softmax(acts[-1] @ clf_w.T + clf_b)
    n = len(x)
    loss = float(-ls[np.arange(n), labels].mean())
    dlogits = np.exp(ls)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = [(dlogits.T @ acts[-1], dlogits.sum(axis=0))]
    dx = dlogits @ clf_w
    for k, (kind, w, _) in reversed(list(enumerate(blocks(net)))):
        dz = dx * masks[k]
        grads.append((dz.T @ acts[k], dz.sum(axis=0)))
        dx = dx + dz @ w if kind is BlockKind.RESIDUAL else dz @ w
    ordered = [*reversed(grads[1:]), grads[0]]  # views order: blocks, then classifier
    return loss, np.concatenate([a.ravel() for pair in ordered for a in pair])


@st.composite
def stack_cases(draw):
    """Plain or residual nets, downsampling where a stage's width differs from its input."""
    family = draw(st.sampled_from(("plain", "res")))
    widths = draw(st.lists(st.sampled_from((16, 48)), min_size=1, max_size=3))
    blocks = [draw(st.integers(1, 2)) for _ in widths]
    k = draw(st.sampled_from((24, 40, 48, 784)))
    batch = draw(st.sampled_from((16, 64, 128)))
    return (small_arch(family, tuple(widths), tuple(blocks), input_dim=k, classes=draw(st.integers(2, 10))),
            draw(st.integers(1, 5)), batch, draw(st.sampled_from((1, 7, batch))))


@settings(max_examples=40, deadline=None)
@given(case=stack_cases(), seed=st.integers(0, 2**16))
def test_property_stacked_step_equals_solo_steps(case, seed):
    """Row s of a stacked step has network s's loss, grads, params and momentum as a stack of one,
    bit for bit.

    Two steps per net, a full batch then a ragged last one (down to B = 1),
    so the second reads a momentum the first wrote and a workspace cut for
    more rows than it uses.
    """
    arch, size, full, last = case
    rng = np.random.default_rng(seed)
    solo = [build_network(arch, seed + s) for s in range(size)]
    stack = stack_networks([build_network(arch, seed + s) for s in range(size)])
    lrs = rng.uniform(0.01, 0.1, size=(size, 1))
    for n in (full, last):
        x = rng.normal(size=(size, n, arch.input_dim))
        labels = rng.integers(0, arch.num_classes, size=(size, n))
        losses, _ = loss_grads_logits(stack, x, labels)
        sgd_step(stack, lrs)
        for s, net in enumerate(solo):
            ref_loss, ref_grads = reference_step(net, x[s], labels[s])
            loss, _, grads = solo_step(net, x[s], labels[s], float(lrs[s, 0]))
            assert float(losses[s]) == loss == ref_loss
            assert stack.grads[s].tobytes() == grads.tobytes() == ref_grads.tobytes()
            assert stack.params[s].tobytes() == net.params.tobytes()
            assert stack.momentum[s].tobytes() == net.momentum.tobytes()


def test_stack_rebinds_each_network_to_its_row():
    arch = small_arch()
    nets = [build_network(arch, s) for s in range(3)]
    before = [net.params.copy() for net in nets]
    stack = stack_networks(nets)
    for s, net in enumerate(nets):
        np.testing.assert_array_equal(stack.params[s], before[s])
        assert np.shares_memory(net.params, stack.params[s])
        assert np.shares_memory(blocks(net)[0][1], stack.params[s])
    stack.params[1] += 1.0
    np.testing.assert_array_equal(classifier(nets[1])[1], before[1][-3:] + 1.0)
    lone = build_network(arch, 0)
    stack = stack_networks([lone])
    assert np.shares_memory(stack.params, lone.params)
    assert np.shares_memory(stack.momentum, lone.momentum)


def test_package_trains_a_lone_network_as_a_stack_of_one():
    net = growbench.build_network(small_arch(), 0)
    before = net.params.copy()
    stack = growbench.stack_networks([net])
    growbench.loss_grads_logits(stack, np.ones((1, 4, 5)), np.zeros((1, 4), dtype=np.int64))
    growbench.sgd_step(stack, 0.1)
    assert not np.array_equal(net.params, before)
    assert sorted(f.name for f in fields(growbench.Network)) == ["arch", "momentum", "params"]


def test_stack_rejects_networks_of_two_shapes():
    nets = [build_network(small_arch(), 0), build_network(small_arch(blocks=(1, 1)), 0)]
    with pytest.raises(ValueError, match="one shape"):
        stack_networks(nets)


# --- lr schedule ------------------------------------------------------------

def test_lr_constant_while_growing():
    assert lr_at(0.5, 10, None, 100) == 0.5
    assert lr_at(0.5, 10, 40, 100) == 0.5


def test_lr_cosine_endpoints_and_midpoint():
    base, t_e, total = 0.5, 40, 100
    assert lr_at(base, t_e, t_e, total) == base  # cos(0) term
    mid = t_e + (total - t_e) / 2
    assert lr_at(base, int(mid), t_e, total) == pytest.approx(base / 2, abs=1e-12)
    last = lr_at(base, total - 1, t_e, total)
    assert 0.0 <= last < base


def test_lr_vanilla_decays_from_start():
    assert lr_at(0.1, 0, 0, 50) == 0.1
    assert lr_at(0.1, 25, 0, 50) == pytest.approx(0.05, abs=1e-12)


# --- accuracy ---------------------------------------------------------------

def test_accuracy_all_correct_and_tie_rule():
    arch = ArchSpec("res", (StageSpec(4, 1),), input_dim=4, num_classes=3)
    net = build_network(arch, 0)
    blocks(net)[0][1][:] = 0.0
    for a in classifier(net):
        a[:] = 0.0
    feats = np.random.default_rng(0).normal(size=(10, 4))
    labels = np.zeros(10, dtype=np.int64)
    # identical logits everywhere: ties resolve to class 0
    assert accuracy_and_loss(net, Dataset(feats, labels, 3))[0] == 100.0
    labels_mixed = np.array([0, 0, 1, 2, 0, 1, 0, 0, 2, 0])
    assert accuracy_and_loss(net, Dataset(feats, labels_mixed, 3))[0] == pytest.approx(60.0)


def test_error_accuracy_complement():
    assert 100.0 - 1.12 == pytest.approx(98.88)


# --- training sanity --------------------------------------------------------

def test_loss_drops_on_separable_task():
    # Linearly separable 2-class blobs: 50 epochs cut the loss to <10%
    # of its start (median over seeds).
    ratios = []
    for seed in (0, 1, 2):
        ds = Dataset(*gaussian_arrays(2, 8, 60, sep=10.0, label_noise=0.0, seed=seed), 2)
        arch = ArchSpec("res", (StageSpec(8, 1),), input_dim=8, num_classes=2)
        net = build_network(arch, seed)
        first = solo_step(net, ds.features, ds.labels)[0]
        for _ in range(50):
            solo_step(net, ds.features, ds.labels, lr=0.05)
        final = solo_step(net, ds.features, ds.labels)[0]
        ratios.append(final / first)
    assert sorted(ratios)[1] < 0.1
