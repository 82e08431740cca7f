import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growbench.harness import (
    ComparisonRow,
    ComparisonTable,
    DataConfig,
    EpochMetrics,
    PolicyConfig,
    RunResult,
    TrainConfig,
    _Branch,
    _track_next,
    _train_epoch,
    build_datasets,
    compare,
    config_added_blocks,
    evaluate,
    read_metrics,
    run,
    write_metrics,
)
from growbench import harness
from growbench.data import Dataset, write_idx
from growbench.morph import GrowthEvent
from growbench.netcore import EVAL_CHUNK, build_network, layers
from growbench.presets import preset_config
from growbench.arch import ArchSpec, StageSpec, parse_arch
from growbench.config import ConfigError, render_config
from growbench.timing import SHOULD_GROW, i_max, round_half_up


def tiny_config(**kw):
    """Fast end-to-end config: ~1500 samples, 12 epochs, 2 growths."""
    defaults = dict(
        seed_arch="res:8x1-8x1",
        target_arch="res:8x2-8x2",
        where="sequential",
        init="copy",
        policy=PolicyConfig(name="periodic"),
        data=DataConfig(source="gaussians", classes=3, dim=8, per_class=160,
                        test_per_class=80, sep=4.0, label_noise=0.0,
                        data_seed=99, val_fraction=0.05),
        total_epochs=12,
        min_finetune_epochs=4,
        lr_base=0.05,
        batch_size=64,
        run_seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_vanilla_run_has_no_events():
    cfg = tiny_config(seed_arch="res:8x2-8x2")
    res = run(cfg)
    assert res.events == []
    assert res.e_bar is None
    assert res.metrics[0].lr == cfg.lr_base  # cosine starts at base
    assert res.metrics[-1].lr < cfg.lr_base
    assert all(m.blocks == (2, 2) for m in res.metrics)


def test_growth_reaches_target_with_finetune_floor():
    cfg = tiny_config()
    res = run(cfg)
    assert len(res.events) == config_added_blocks(cfg) == 2
    assert res.metrics[-1].blocks == (2, 2)
    t_e = max(e.epoch for e in res.events)
    assert cfg.total_epochs - t_e >= cfg.min_finetune_epochs
    # blocks never decrease
    seq = [m.blocks for m in res.metrics]
    assert all(a <= b for pair in zip(seq, seq[1:]) for a, b in zip(*pair))


def test_budget_beyond_finetune_floor_is_rejected():
    # 8 growths need 8 epochs, but total 10 - min finetune 5 leaves 5
    with pytest.raises(ConfigError, match=r"8 blocks.* 10 epochs.* 5 to finetune"):
        tiny_config(seed_arch="plain:8x1", target_arch="plain:8x9",
                    total_epochs=10, min_finetune_epochs=5)


def test_periodic_growth_epochs_match_schedule():
    # cap = (12-4)/2 = 4: first growth after 4 elapsed epochs (5 completed);
    # the second would land at 9 completed, leaving only 3 finetune epochs,
    # so the completion deadline pulls it forward by one.
    cfg = tiny_config()
    res = run(cfg)
    assert i_max(cfg.total_epochs, cfg.min_finetune_epochs, 2) == 4.0
    assert [e.epoch for e in res.events] == [5, 8]
    assert cfg.total_epochs - res.events[-1].epoch == cfg.min_finetune_epochs


def test_periodic_untrimmed_spacing_with_slack():
    # cap 4.25 rounds to period 4 and the schedule fits without trimming
    cfg = tiny_config(target_arch="res:8x3-8x3", total_epochs=21)
    res = run(cfg)
    assert [e.epoch for e in res.events] == [5, 9, 13, 17]
    period = round_half_up(i_max(21, 4, 4))
    gaps = [res.events[0].epoch - 1] + [
        b.epoch - a.epoch for a, b in zip(res.events, res.events[1:])
    ]
    assert all(g == period for g in gaps)


def test_lr_schedule_two_phase():
    cfg = tiny_config()
    res = run(cfg)
    t_e = max(e.epoch for e in res.events)
    for m in res.metrics:
        if m.epoch < t_e:
            assert m.lr == cfg.lr_base
    assert res.metrics[-1].lr < cfg.lr_base


def test_deterministic_metrics_for_same_seed():
    a, b = run(tiny_config()), run(tiny_config())
    assert a.metrics == b.metrics
    assert a.events == b.events
    c = run(tiny_config(run_seed=1))
    assert c.metrics != a.metrics


def test_metrics_file_round_trip(tmp_path):
    res = run(tiny_config())
    path = str(tmp_path / "m.jsonl")
    write_metrics(res, path)
    back = read_metrics(path)
    assert back == res
    assert back.metrics == res.metrics
    assert back.events == res.events
    assert back.e_bar == res.e_bar
    assert back.final_test_error == res.final_test_error
    assert back.wall_seconds == res.wall_seconds
    assert back.config == res.config == tiny_config()
    lines = Path(path).read_text().splitlines()
    assert len(lines) == tiny_config().total_epochs + 2
    assert json.loads(lines[0]) == {"config": render_config(tiny_config())}
    assert "[output]" not in lines[0]
    footer = json.loads(lines[-1])
    assert set(footer) == {"events", "e_bar", "final_test_error",
                           "final_train_error", "train_macs", "wall_seconds"}
    rec = json.loads(lines[1])
    assert list(rec) == ["epoch", "train_acc", "val_acc", "test_acc",
                         "train_loss", "orl", "lr", "blocks", "grew"]


@st.composite
def small_configs(draw):
    """A TrainConfig of 1-3 stages of width <= 8 on tiny Gaussian data."""
    family = draw(st.sampled_from(("plain", "res")))
    widths = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    seed = [draw(st.integers(1, 2)) for _ in widths]
    target = [b + draw(st.integers(0, 2)) for b in seed]
    budget = sum(target) - sum(seed)
    finetune = draw(st.integers(0, 3))
    total = finetune + budget + draw(st.integers(0 if budget else 1, 3))
    classes = draw(st.integers(2, 3))
    return TrainConfig(
        seed_arch=family + ":" + "-".join(f"{w}x{b}" for w, b in zip(widths, seed)),
        target_arch=family + ":" + "-".join(f"{w}x{b}" for w, b in zip(widths, target)),
        where=draw(st.sampled_from(("sequential", "circulation"))),
        init=draw(st.sampled_from(("copy", "moment", "random"))),
        policy=PolicyConfig(name=draw(st.sampled_from(("fragrow", "periodic", "convergent"))),
                            period_scale=draw(st.floats(0.05, 1.0))),
        data=DataConfig(source="gaussians", classes=classes, dim=draw(st.integers(classes, 6)),
                        per_class=12, test_per_class=6, sep=3.0,
                        data_seed=draw(st.integers(0, 2**16)), val_fraction=0.2),
        total_epochs=total,
        min_finetune_epochs=finetune,
        lr_base=0.05,
        batch_size=draw(st.integers(4, 16)),
        run_seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=small_configs())
def test_property_whole_run_invariants(cfg):
    res = run(cfg)
    assert res.config == cfg
    total, budget = cfg.total_epochs, config_added_blocks(cfg)
    seed, target = (parse_arch(a, 1, 2).blocks_per_stage for a in (cfg.seed_arch, cfg.target_arch))
    grown = [e.epoch for e in res.events]
    assert len(grown) == budget
    assert grown == sorted(set(grown))  # at most one growth per epoch
    assert res.metrics[-1].blocks == target
    assert [m.grew for m in res.metrics] == [m.epoch + 1 in grown for m in res.metrics]
    trained = [seed] + [m.blocks for m in res.metrics[:-1]]  # the net each epoch trains
    assert sum(b == target for b in trained) >= cfg.min_finetune_epochs
    t_e = grown[-1] if grown else 0
    for m in res.metrics:
        if m.epoch < t_e:
            assert m.lr == cfg.lr_base
        else:
            frac = (m.epoch - t_e) / (total - t_e)
            assert m.lr == cfg.lr_base * 0.5 * (1.0 + math.cos(math.pi * frac))
    if budget:
        assert res.e_bar == sum(total - e for e in grown) / budget
    else:
        assert res.e_bar is None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.jsonl")
        write_metrics(res, path)
        assert read_metrics(path) == res


def _sans_wall(result):
    return replace(result, wall_seconds=0.0)


@st.composite
def policy_lists(draw):
    """2-4 policies: fresh draws, exact duplicates, and variants in alpha or period_scale."""
    policies = []
    for _ in range(draw(st.sampled_from((2, 3, 4)))):
        kind = draw(st.sampled_from(("fresh", "duplicate", "variant"))) if policies else "fresh"
        if kind == "fresh":
            name = draw(st.sampled_from(("fragrow", "periodic", "convergent")))
            policies.append(PolicyConfig(name, alpha=draw(st.sampled_from((1.0, 4.0, 16.0))),
                                         period_scale=draw(st.floats(0.05, 1.0))))
        elif kind == "duplicate":
            policies.append(draw(st.sampled_from(policies)))
        else:
            base = draw(st.sampled_from(policies))
            policies.append(draw(st.sampled_from((
                replace(base, alpha=base.alpha * 2.0),
                replace(base, period_scale=base.period_scale / 2.0),
            ))))
    return policies


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(cfg=small_configs(), policies=policy_lists(), lr_base=st.sampled_from((0.05, 0.05, 1e3)))
@example(cfg=replace(tiny_config(init="moment", where="circulation"), target_arch="res:8x3-8x2"),
         policies=[PolicyConfig("convergent"), PolicyConfig("fragrow", alpha=1.0),
                   PolicyConfig("fragrow", alpha=1.0), PolicyConfig("periodic", period_scale=0.5)],
         lr_base=0.05)
def test_property_shared_run_equals_solo_runs(cfg, policies, lr_base):
    cfg = replace(cfg, lr_base=lr_base)
    shared = run([replace(cfg, policy=pol) for pol in policies])
    assert len(shared) == len(policies)
    for pol, got in zip(policies, shared):
        try:
            solo = run(replace(cfg, policy=pol))
        except Exception as exc:  # noqa: BLE001 - the shared run must fail alike
            assert isinstance(got, Exception) and str(got) == str(exc)
        else:
            assert not isinstance(got, Exception), got
            assert _sans_wall(got) == _sans_wall(solo)


@settings(max_examples=40, deadline=None)
@given(cfg=small_configs(), policies=policy_lists(),
       seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
       lr_base=st.sampled_from((0.05, 0.05, 1e3)), vanilla=st.booleans())
@example(cfg=replace(tiny_config(init="moment", where="circulation"), target_arch="res:8x3-8x2"),
         policies=[PolicyConfig("convergent"), PolicyConfig("fragrow", alpha=1.0),
                   PolicyConfig("periodic", period_scale=0.5)],
         seeds=[0, 1, 0], lr_base=0.05, vanilla=True)
def test_property_multi_seed_run_equals_solo_runs(cfg, policies, seeds, lr_base, vanilla):
    """Every (seed, variant) of one stacked call has its solo run's result or error.

    The variants are the policies and, with `vanilla`, the target net trained from scratch.
    """
    variants = [replace(cfg, policy=pol) for pol in policies]
    if vanilla:
        variants.append(replace(cfg, seed_arch=cfg.target_arch))
    configs = [replace(v, lr_base=lr_base, run_seed=seed) for seed in seeds for v in variants]
    stacked = run(configs)
    assert len(stacked) == len(variants) * len(seeds)
    for config, got in zip(configs, stacked):
        try:
            solo = run(config)
        except Exception as exc:  # noqa: BLE001 - the stacked run must fail alike
            assert isinstance(got, Exception) and str(got) == str(exc)
        else:
            assert not isinstance(got, Exception), got
            assert _sans_wall(got) == _sans_wall(solo)


def _branches(cfg, seeds):
    """One fresh trajectory per seed, as `run` starts them, and the training split."""
    train, _, _ = build_datasets(cfg.data)
    arch = parse_arch(cfg.seed_arch, train.dim, train.num_classes)
    return [_Branch(seed, build_network(arch, seed), None, [], [k])
            for k, seed in enumerate(seeds)], train


@pytest.mark.filterwarnings("error")
def test_diverged_row_fails_only_itself_quietly():
    cfg = tiny_config()
    group, train = _branches(cfg, [0, 1, 2])
    solo, _ = _branches(cfg, [0, 1, 2])
    group[1].net.params[:] = np.inf
    failures = _train_epoch(group, [0.05] * 3, 2, cfg, train)
    assert failures[0] is None and failures[2] is None
    assert str(failures[1]) == "training diverged: loss nan at epoch 2, batch 0"
    for k in (0, 2):
        assert _train_epoch([solo[k]], [0.05], 2, cfg, train) == [None]
        assert group[k].net.params.tobytes() == solo[k].net.params.tobytes()
        assert group[k].net.momentum.tobytes() == solo[k].net.momentum.tobytes()


def test_branch_fork_is_an_independent_copy():
    net = build_network(parse_arch("res:8x1-8x1", 8, 3), 0)
    config = tiny_config(init="moment", where="circulation")
    ensemble = _track_next(net, config, parse_arch(config.target_arch, 8, 3), last=0)
    ensemble.update(net)
    metrics = [EpochMetrics(0, 50.0, 50.0, 50.0, 1.0, 0.0, 0.05, (1, 1), False)]
    branch = _Branch(0, net, ensemble, metrics, [0, 1, 2])
    fork = branch.fork([2])
    assert (fork.seed, fork.members, fork.metrics) == (0, [2], metrics)
    assert fork.net is not net and fork.ensemble is not ensemble
    assert not np.shares_memory(fork.ensemble.shadow, ensemble.shadow)  # its own array
    assert (fork.ensemble.stage, fork.ensemble.index) == (ensemble.stage, ensemble.index) == (1, 0)
    np.testing.assert_array_equal(fork.net.params, net.params)
    np.testing.assert_array_equal(fork.ensemble.shadow, ensemble.shadow)
    assert fork.ensemble.updates == ensemble.updates
    before = fork.net.params.copy(), fork.ensemble.shadow.copy()
    net.params += 1.0
    ensemble.update(net)
    branch.metrics.append(metrics[0])
    np.testing.assert_array_equal(fork.net.params, before[0])
    np.testing.assert_array_equal(fork.ensemble.shadow, before[1])
    assert len(fork.metrics) == 1

def _corrupt(tmp_path, edit, header=True):
    """Write a tiny run's metrics file, pass its lines after the header through `edit`."""
    path = tmp_path / "m.jsonl"
    write_metrics(run(tiny_config()), str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] * header + edit(lines[1:])) + "\n")
    return str(path)


def _drop_key(line, key):
    rec = json.loads(line)
    del rec[key]
    return json.dumps(rec)


def _drop_event_key(line):
    rec = json.loads(line)
    del rec["events"][1]["stage"]
    return json.dumps(rec)


def _set_key(line, key, value):
    rec = json.loads(line)
    rec[key] = value
    return json.dumps(rec)


def _set_event_key(line, key, value):
    rec = json.loads(line)
    rec["events"][1][key] = value
    return json.dumps(rec)


@pytest.mark.parametrize("edit, line, message", [
    (lambda ls: [ls[0], "{not json"] + ls[2:], 2, "invalid JSON"),
    (lambda ls: [ls[0], _drop_key(ls[1], "val_acc")] + ls[2:], 2, "missing key.s. val_acc"),
    (lambda ls: ls[:3] + ["[1, 2]"] + ls[4:], 4, "expected a JSON object, got list"),
    (lambda ls: ls[:-1] + [_drop_key(ls[-1], "e_bar")], 13, "missing key.s. e_bar"),
    (lambda ls: ls[:-1] + [_drop_event_key(ls[-1])], 13, "event 1: missing key.s. stage"),
    pytest.param(lambda ls: [ls[0].replace('"blocks": [1, 1]', '"blocks": 2')] + ls[1:], 1,
                 "blocks: expected a list of ints, got 2", id="blocks-not-a-list"),
    (lambda ls: [ls[0], _set_key(ls[1], "train_acc", math.nan)] + ls[2:], 2,
     "'NaN' is not a finite number"),
    (lambda ls: [ls[0], _set_key(ls[1], "orl", math.inf)] + ls[2:], 2,
     "'Infinity' is not a finite number"),
    (lambda ls: ls[:-1] + [_set_key(ls[-1], "e_bar", -math.inf)], 13,
     "'-Infinity' is not a finite number"),
    (lambda ls: ls[:-1] + [_set_key(ls[-1], "events", 3)], 13, "events: expected a list, got 3"),
    (lambda ls: [ls[0].replace('"lr": 0.05', '"lr": 1e999')] + ls[1:], 1,
     "'1e999' is not a finite number"),
    (lambda ls: [_set_key(ls[0], "train_acc", "abc")] + ls[1:], 1,
     "train_acc: expected a number, got 'abc'"),
    (lambda ls: [_set_key(ls[0], "epoch", 0.5)] + ls[1:], 1, "epoch: expected an int, got 0.5"),
    (lambda ls: [_set_key(ls[0], "epoch", True)] + ls[1:], 1, "epoch: expected an int, got True"),
    (lambda ls: [_set_key(ls[0], "blocks", [1, "1"])] + ls[1:], 1,
     "blocks: expected a list of ints"),
    (lambda ls: [_set_key(ls[0], "grew", 0)] + ls[1:], 1, "grew: expected a bool, got 0"),
    (lambda ls: [_set_key(ls[0], "lr", None)] + ls[1:], 1, "lr: expected a number, got None"),
    (lambda ls: ls[:-1] + [_set_key(ls[-1], "e_bar", "oops")], 13,
     "e_bar: expected a number or null, got 'oops'"),
    (lambda ls: ls[:-1] + [_set_key(ls[-1], "train_macs", 1.5)], 13,
     "train_macs: expected an int, got 1.5"),
    (lambda ls: ls[:-1] + [_set_key(ls[-1], "wall_seconds", False)], 13,
     "wall_seconds: expected a number, got False"),
    (lambda ls: ls[:-1] + [_set_event_key(ls[-1], "stage", "zero")], 13,
     "event 1: stage: expected an int, got 'zero'"),
    (lambda ls: ls[:-1] + [_set_event_key(ls[-1], "block_index", None)], 13,
     "event 1: block_index: expected an int, got None"),
    (lambda ls: ls[:-1] + [_set_event_key(ls[-1], "init", 3)], 13,
     "event 1: init: expected a string, got 3"),
    # the tiny run's 12 epoch lines must be epochs 0..11, one each, in order
    (lambda ls: ls[-1:], 1, r"expected epoch 0, got the footer \(total_epochs = 12\)$"),
    (lambda ls: [ls[1], ls[0]] + ls[2:], 1, "expected epoch 0, got epoch 1 "),
    (lambda ls: ls[:5] + ls[6:], 6, "expected epoch 5, got epoch 6 "),
    (lambda ls: ls[:-2] + ls[-1:], 12, "expected epoch 11, got the footer "),
    (lambda ls: ls[:-1] + ls[-2:], 13, "expected the footer, got epoch 11 "),
    (lambda ls: ls[:-1] + [_set_key(ls[-2], "epoch", 12), ls[-1]], 13,
     "expected the footer, got epoch 12 "),
])
def test_read_metrics_names_path_and_line(tmp_path, edit, line, message):
    path = _corrupt(tmp_path, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line + 1}: {message}"):
        read_metrics(path)


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls, 'missing header line {"config": <config text>}'),
    (lambda ls: [json.dumps({"config": 3})] + ls, "missing header line"),
    (lambda ls: ["[1]"] + ls, "missing header line"),
    (lambda ls: ["{not json"] + ls, "invalid JSON"),
    (lambda ls: [json.dumps({"config": "[train]\nbatch_size = 0\n"})] + ls,
     "train.batch_size must be positive, got 0"),
    (lambda ls: [json.dumps({"config": "[model]\nwidth = 3\n"})] + ls,
     "config:2: unknown key model.width"),
    (lambda ls: [json.dumps({"config": "[policy]\nalpha = nan\n"})] + ls,
     "config:2: bad value for policy.alpha"),
], ids=["headerless", "config-not-text", "not-an-object", "invalid-json", "bad-value",
        "unknown-key", "non-finite"])
def test_read_metrics_refuses_a_missing_or_bad_header_naming_line_1(tmp_path, edit, message):
    """The header is line 1: without it, or with a config that does not parse, the file fails."""
    path = _corrupt(tmp_path, edit, header=False)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}:1: {re.escape(message)}"):
        read_metrics(path)


def test_read_metrics_refuses_an_empty_file_naming_line_1(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: missing header line"):
        read_metrics(str(path))


@pytest.fixture(scope="module")
def tiny_result():
    return run(tiny_config())


@settings(max_examples=40, deadline=None)
@given(cfg=st.one_of(small_configs(), st.sampled_from(("overfit", "underfit")).map(preset_config)))
def test_property_metrics_header_rebuilds_the_config(tiny_result, cfg):
    """read_metrics(write_metrics(r)) == r for any config, the presets too, with no run.

    The epoch lines are copies of the tiny run's first, one per epoch of the config.
    """
    metrics = [replace(tiny_result.metrics[0], epoch=e) for e in range(cfg.total_epochs)]
    result = replace(tiny_result, config=cfg, metrics=metrics)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.jsonl")
        write_metrics(result, path)
        back = read_metrics(path)
    assert back == result and back.config == cfg


# First 16 hex digits of the sha256 of tiny_config()'s metrics file with
# wall_seconds set to 0: every byte of the format, key order and number text;
# and of the same file's lines after the config header.
METRICS_FILE_PINNED = "b0fbce03b376f98d"
METRICS_BODY_PINNED = "d75783ae468937fe"


def test_metrics_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "m.jsonl"
    write_metrics(replace(run(tiny_config()), wall_seconds=0.0), str(path))
    text = path.read_bytes()
    assert hashlib.sha256(text).hexdigest()[:16] == METRICS_FILE_PINNED
    assert hashlib.sha256(text.split(b"\n", 1)[1]).hexdigest()[:16] == METRICS_BODY_PINNED


def test_every_metrics_field_has_a_json_checker():
    """read_metrics checks each field by its annotation: a new annotation needs a checker."""
    records = [*fields(EpochMetrics), *fields(GrowthEvent), *fields(RunResult)[2:]]
    assert [f.name for f in records if f.type not in harness._JSON_TYPES] == []


def test_read_metrics_requires_footer(tmp_path):
    path = _corrupt(tmp_path, lambda ls: ls[:-1])
    with pytest.raises(ValueError, match="missing footer line"):
        read_metrics(path)


def test_metrics_files_byte_identical_sans_wall(tmp_path):
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    write_metrics(run(tiny_config()), p1)
    write_metrics(run(tiny_config()), p2)
    l1, l2 = Path(p1).read_text().splitlines(), Path(p2).read_text().splitlines()
    assert l1[:-1] == l2[:-1]
    f1, f2 = json.loads(l1[-1]), json.loads(l2[-1])
    f1.pop("wall_seconds"), f2.pop("wall_seconds")
    assert f1 == f2


def test_train_macs_is_the_hand_count():
    # 456 train rows; growth after epochs 5 and 8 takes a row's forward pass
    # from 152 (8*8 + 8*8 + 3*8) to 216, then 280 multiply-accumulates.
    res = run(tiny_config())
    assert [e.epoch for e in res.events] == [5, 8]
    assert res.train_macs == 456 * (5 * 152 + 3 * 216 + 4 * 280) == 1_152_768


def test_footer_e_bar_consistent_with_events(tmp_path):
    cfg = tiny_config()
    res = run(cfg)
    expected = sum(cfg.total_epochs - e.epoch for e in res.events) / len(res.events)
    assert res.e_bar == pytest.approx(expected)


def test_orl_field_is_exact_difference():
    res = run(tiny_config())
    for m in res.metrics:
        assert m.orl == m.train_acc - m.val_acc


def test_policies_all_complete_growth():
    for name in ("fragrow", "periodic", "convergent"):
        cfg = tiny_config(policy=PolicyConfig(name=name))
        res = run(cfg)
        assert len(res.events) == 2, name
        assert res.metrics[-1].blocks == (2, 2), name


def test_where_circulation_and_inits():
    for where in ("sequential", "circulation"):
        for init in ("copy", "moment", "random"):
            cfg = tiny_config(where=where, init=init)
            res = run(cfg)
            assert res.metrics[-1].blocks == (2, 2), (where, init)
            assert np.isfinite(res.final_test_error)


def test_circulation_alternates_stages():
    cfg = tiny_config(where="circulation", target_arch="res:8x3-8x3",
                      total_epochs=14, min_finetune_epochs=2)
    res = run(cfg)
    stages = [e.stage for e in res.events]
    assert stages[:2] == [0, 1]  # strict alternation while unsaturated
    assert sorted(stages) == [0, 0, 1, 1]


def test_moment_init_records_rule():
    cfg = tiny_config(init="moment", seed_arch="res:8x2-8x1", target_arch="res:8x3-8x1")
    res = run(cfg)
    assert [e.init_rule for e in res.events] == ["moment"]


def test_copy_falls_back_to_random_after_downsample():
    # stage 0 holds only its downsample block (width 8 != input dim 6)
    cfg = tiny_config(
        data=replace(tiny_config().data, dim=6),
        seed_arch="res:8x1-8x1",
        target_arch="res:8x3-8x1",
    )
    res = run(cfg)
    assert res.events[0].init_rule == "random"
    assert res.events[1].init_rule == "copy"


def test_evaluate_chance_level_and_degenerate_val():
    # signal-free data (coincident class means): an untrained net can only
    # sit at chance level
    cfg = tiny_config(data=replace(tiny_config().data, sep=0.0))
    train, val, test = build_datasets(cfg.data)
    arch = ArchSpec("res", (StageSpec(8, 1), StageSpec(8, 1)), train.dim, train.num_classes)
    net = build_network(arch, 123)
    report = evaluate(net, train, val, test)
    assert abs(report.test_acc - 100.0 / 3) < 10.0
    same = evaluate(net, train, train, test)
    assert same.train_acc == same.val_acc


def test_evaluate_peak_memory_is_one_set_of_chunk_buffers():
    # underfit's splits on its target net. Each split's evaluation holds a
    # two-slab workspace and one (chunk, C) logits buffer, plus vectors of
    # one value per row, and peaks near 1.12x those bytes; a loss through
    # a (chunk, C) log-softmax and its temporaries peaks near 2.2x.
    cfg = preset_config("underfit")
    train, val, test = build_datasets(cfg.data)
    net = build_network(parse_arch(cfg.target_arch, train.dim, train.num_classes), 0)
    width = max(shape[0] for _, shape in layers(net.arch)[:-1])
    buffers = 8 * EVAL_CHUNK * (2 * width + train.num_classes)
    tracemalloc.start()
    try:
        evaluate(net, train, val, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * buffers, f"peak {peak / buffers:.2f}x the chunk buffers"


@pytest.mark.filterwarnings("error")
def test_diverging_run_raises_naming_epoch_and_batch():
    with pytest.raises(RuntimeError, match=r"diverged: loss nan at epoch 1, batch 1$"):
        run(tiny_config(lr_base=50.0))


def test_non_finite_epoch_end_loss_fails_the_run(monkeypatch):
    reports = []

    def nan_loss_second_epoch(*args):
        reports.append(evaluate(*args))
        return replace(reports[-1], train_loss=math.nan) if len(reports) == 2 else reports[-1]

    monkeypatch.setattr(harness, "evaluate", nan_loss_second_epoch)
    with pytest.raises(RuntimeError, match=r"^training diverged: train loss nan at the end of epoch 1$"):
        run(tiny_config())


def test_write_metrics_rejects_non_finite_values(tmp_path):
    res = run(tiny_config())
    res.metrics[0] = replace(res.metrics[0], train_loss=float("nan"))
    with pytest.raises(ValueError):
        write_metrics(res, str(tmp_path / "m.jsonl"))
    assert not (tmp_path / "m.jsonl").exists()  # nothing is written, not even part of the file


def test_run_propagates_dataset_errors():
    cfg = tiny_config(data=replace(tiny_config().data, source="idx",
                                   train_images="/nonexistent/i",
                                   train_labels="/nonexistent/l",
                                   test_images="/nonexistent/ti",
                                   test_labels="/nonexistent/tl"))
    with pytest.raises(OSError):
        run(cfg)


def _write_labelled_pair(tmp_path, source, name, labels):
    """A tiny IDX pair or CSV file with the given labels; returns its config fields."""
    labels = np.array(labels, dtype=np.int64)
    feats = np.random.default_rng(len(labels)).integers(0, 256, size=(len(labels), 4)) / 255.0
    if source == "idx":
        images, label_file = str(tmp_path / f"{name}-images"), str(tmp_path / f"{name}-labels")
        write_idx(Dataset(feats, labels, int(labels.max()) + 1), images, label_file, rows=2, cols=2)
        return {f"{name}_images": images, f"{name}_labels": label_file}, label_file
    path = tmp_path / f"{name}.csv"
    path.write_text("a,b,c,d,label\n" + "".join(
        ",".join(map(str, row)) + f",{y}\n" for row, y in zip(feats, labels)))
    return {f"{name}_csv": str(path)}, str(path)


@pytest.mark.parametrize("source", ["idx", "csv"])
def test_test_label_outside_pool_classes_fails_at_setup(tmp_path, monkeypatch, source):
    train_fields, _ = _write_labelled_pair(tmp_path, source, "train", [0, 1, 2] * 20)
    test_fields, test_file = _write_labelled_pair(tmp_path, source, "test", [0, 1, 2, 3] * 5)
    cfg = tiny_config(data=DataConfig(source=source, **train_fields, **test_fields))

    def no_network(*args):
        raise AssertionError("the network was built")

    monkeypatch.setattr(harness, "build_network", no_network)
    message = f"^{re.escape(test_file)}: label 3 outside the training pool's classes \\[0, 3\\)$"
    with pytest.raises(ValueError, match=message):
        build_datasets(cfg.data)
    with pytest.raises(ValueError, match=message):
        run(cfg)


_UNCOVERED_POOLS = [  # (labels, first missing label, largest label or 1)
    ([0] * 21, 1, 1),  # one class
    ([0, 2, 3] * 7, 1, 3),
    ([0, 1, 2] * 6 + [1, 5000000, 0], 3, 5000000),  # one stray label; IDX cannot hold it
]


@pytest.mark.parametrize("source, labels, missing, top", [
    (source, *case) for source in ("idx", "csv") for case in _UNCOVERED_POOLS
    if source == "csv" or case[2] < 256])
def test_pool_labels_must_cover_every_class(tmp_path, monkeypatch, source, labels, missing, top):
    train_fields, train_file = _write_labelled_pair(tmp_path, source, "train", labels)
    test_fields, _ = _write_labelled_pair(tmp_path, source, "test", [0, 1] * 5)
    cfg = tiny_config(data=DataConfig(source=source, **train_fields, **test_fields))

    def no_network(*args):
        raise AssertionError("the network was built")

    monkeypatch.setattr(harness, "build_network", no_network)
    message = (f"{train_file}: no training row has label {missing}; the labels must cover every "
               f"class from 0 to {top}, with at least 2 classes")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(cfg)


@pytest.mark.parametrize("source", ["idx", "csv"])
def test_file_backed_run_writes_its_metrics(tmp_path, source):
    train_fields, _ = _write_labelled_pair(tmp_path, source, "train", [0, 1, 2] * 20)
    test_fields, _ = _write_labelled_pair(tmp_path, source, "test", [2, 1, 0] * 5)
    cfg = tiny_config(data=DataConfig(source=source, **train_fields, **test_fields))
    assert [type(ds.num_classes) for ds in build_datasets(cfg.data)] == [int] * 3
    result = run(cfg)
    write_metrics(result, str(tmp_path / "m.jsonl"))
    assert read_metrics(str(tmp_path / "m.jsonl")) == result


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(total_epochs=4, min_finetune_epochs=4)
    with pytest.raises(ValueError):
        tiny_config(init="zero")  # an all-zero block is no init rule
    with pytest.raises(ConfigError, match=r"^train\.lr_base must be positive, got nan$"):
        tiny_config(lr_base=math.nan)  # no override can give NaN, but a caller can
    with pytest.raises(ConfigError, match=r"^seed_arch 'res:8x1-8x1', target_arch 'res:8x2': "
                                          r"stage count mismatch: 2 vs 1$"):
        tiny_config(target_arch="res:8x2")
    with pytest.raises(ValueError):
        PolicyConfig(name="lipgrow")
    with pytest.raises(ValueError):
        PolicyConfig(period_scale=0.0)


# --- compare -----------------------------------------------------------------

def test_compare_identical_configs_identical_medians():
    cfg = tiny_config()
    table = compare([("first", cfg), ("second", cfg)], seeds=[0, 1])
    rows = {r.label: r for r in table.rows}
    assert rows["first"].test_error_median == rows["second"].test_error_median
    assert rows["first"].train_error_median == rows["second"].train_error_median
    assert rows["first"].e_bar_median == rows["second"].e_bar_median


def test_compare_vanilla_anchor_is_100():
    grow_cfg = tiny_config()
    vanilla = tiny_config(seed_arch="res:8x2-8x2")
    table = compare([("grow", grow_cfg), ("vanilla", vanilla)], seeds=[0])
    rows = {r.label: r for r in table.rows}
    assert rows["vanilla"].cost_pct == 100.0
    # 5, 3 and 4 epochs at 152, 216 and 280 MACs a row, against 12 at 280
    assert rows["grow"].cost_pct == 100.0 * 2528 / 3360


def test_compare_named_anchor_is_100():
    vanilla = tiny_config(seed_arch="res:8x2-8x2")
    table = compare([("vanilla", vanilla), ("grow", tiny_config())], seeds=[0],
                    anchor="grow")
    rows = {r.label: r for r in table.rows}
    assert rows["grow"].cost_pct == 100.0
    assert rows["vanilla"].cost_pct == 100.0 * 3360 / 2528


def test_compare_output_is_identical_between_calls():
    configs = [("grow", tiny_config()), ("vanilla", tiny_config(seed_arch="res:8x2-8x2"))]
    first, second = compare(configs, seeds=[0, 1]), compare(configs, seeds=[0, 1])
    assert first.to_csv() == second.to_csv()
    assert first.to_text() == second.to_text()


def test_compare_single_seed_empty_spread():
    table = compare([("a", tiny_config()), ("b", tiny_config())], seeds=[0])
    assert table.rows[0].test_error_spread is None
    assert "spread" in table.to_text().splitlines()[0]
    assert table.to_csv().count("\n") == 3


def test_comparison_csv_quotes_labels_that_hold_a_comma_or_quote():
    """A label comes from a file name, so it may hold the CSV delimiter or quote."""
    cells = dict(n_seeds=2, n_failed=1, test_error_median=12.5, test_error_spread=0.25,
                 train_error_median=3.0, train_error_spread=None, e_bar_median=4.0,
                 cost_pct=100.0)
    labels = ["a,b", 'q"x', "plain"]
    text = ComparisonTable([ComparisonRow(label=label, **cells) for label in labels]).to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [row["config"] for row in rows] == labels
    for row in rows:
        assert row == {"config": row["config"], "test_error_median": "12.5",
                       "test_error_spread": "0.25", "train_error_median": "3",
                       "train_error_spread": "", "e_bar_median": "4", "cost_pct": "100",
                       "n_seeds": "2", "n_failed": "1"}
    assert text.splitlines()[1:] == ['"a,b",12.5,0.25,3,,4,100,2,1',
                                     '"q""x",12.5,0.25,3,,4,100,2,1',
                                     "plain,12.5,0.25,3,,4,100,2,1"]


def test_compare_marks_failed_runs():
    bad = tiny_config(data=replace(tiny_config().data, source="csv",
                                   train_csv="/nope.csv", test_csv="/nope.csv"))
    table = compare([("ok", tiny_config()), ("bad", bad)], seeds=[0, 1])
    rows = {r.label: r for r in table.rows}
    assert rows["bad"].n_failed == 2
    assert rows["bad"].test_error_median is None
    assert rows["ok"].n_failed == 0
    assert "failed" in table.to_text()


def test_compare_counts_diverged_seeds_as_failed():
    table = compare([("ok", tiny_config()), ("diverged", tiny_config(lr_base=50.0))],
                    seeds=[0, 1])
    rows = {r.label: r for r in table.rows}
    assert rows["diverged"].n_failed == 2
    assert rows["diverged"].test_error_median is None
    assert all("diverged" in e for e in rows["diverged"].errors)
    assert rows["ok"].n_failed == 0


def test_compare_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate config label 'x'"):
        compare([("x", tiny_config()), ("y", tiny_config()), ("x", tiny_config(lr_base=0.1))],
                seeds=[0])


def test_compare_refuses_a_repeated_seed_before_setup(monkeypatch):
    def no_setup(*args):
        raise AssertionError("the data was set up")

    monkeypatch.setattr(harness, "build_datasets", no_setup)
    with pytest.raises(ValueError, match=r"^seed 3 is listed twice: each seed is one run of "
                                         r"every config$"):
        compare([("a", tiny_config())], [3, 0, 3])


def test_compare_isolates_a_failing_policy(monkeypatch):
    labeled = [(name, tiny_config(policy=PolicyConfig(name)))
               for name in ("fragrow", "periodic", "convergent")]
    without = compare(labeled[:2], seeds=[0, 1]).rows
    solo_runs = [run(cfg) for _, cfg in labeled[:2]]
    convergent = SHOULD_GROW["convergent"]

    def broken_at_epoch_3(state, epoch, orl_pp):
        if epoch == 3:
            raise RuntimeError("policy broke at epoch 3")
        return convergent(state, epoch, orl_pp)

    # At epoch 3 convergent still shares its trunk with periodic on both seeds.
    monkeypatch.setitem(SHOULD_GROW, "convergent", broken_at_epoch_3)
    table = compare(labeled, seeds=[0, 1])
    rows = {r.label: r for r in table.rows}
    assert rows["convergent"].n_failed == 2
    assert rows["convergent"].errors == ("seed 0: policy broke at epoch 3",
                                         "seed 1: policy broke at epoch 3")
    assert table.rows[:2] == without
    shared = run([cfg for _, cfg in labeled])
    assert str(shared[2]) == "policy broke at epoch 3"
    assert [_sans_wall(r) for r in shared[:2]] == [_sans_wall(r) for r in solo_runs]


@pytest.mark.parametrize("configs", [
    [],
    [tiny_config(), tiny_config(data=replace(tiny_config().data, data_seed=7))],
    [tiny_config(), tiny_config(target_arch="res:8x3-8x2")],
], ids=["empty", "mixed-data-seed", "mixed-target-arch"])
def test_run_list_refused_before_setup(monkeypatch, configs):
    def no_setup(*args):
        raise AssertionError("the data was set up")

    monkeypatch.setattr(harness, "build_datasets", no_setup)
    with pytest.raises(ValueError, match="^run needs one or more configs that differ only in "
                                         "run_seed, seed_arch and policy$"):
        run(configs)


def test_compare_calls_harness_run_once_per_config_group(monkeypatch):
    """A profiler that wraps `harness.run` sees each group of `compare` as one call."""
    calls = []
    real_run = harness.run

    def counting_run(configs):
        calls.append(len(configs))
        return real_run(configs)

    monkeypatch.setattr(harness, "run", counting_run)
    labeled = [("fragrow", tiny_config(policy=PolicyConfig("fragrow"))),
               ("vanilla", tiny_config(seed_arch="res:8x2-8x2")), ("periodic", tiny_config())]
    table = compare(labeled, seeds=[0, 1])
    assert calls == [6]  # all three share one call for both seeds: only policy and seed net differ
    assert [r.n_failed for r in table.rows] == [0, 0, 0]


def _perfbench_spans(monkeypatch):
    """The benchmark's tracer module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_reads_only_names_the_harness_has(monkeypatch):
    """Every name the benchmark wraps (spans.py) or reads (checks.py, workloads.py) exists."""
    spans = _perfbench_spans(monkeypatch)
    read = ("config_added_blocks", "TrainConfig", "RunResult", "ComparisonTable",
            "build_datasets", "compare", "run")
    assert [name for name in (*spans.HARNESS_ENTRY_POINTS, *read)
            if not callable(getattr(harness, name, None))] == []


def test_benchmark_tracer_accounts_for_a_short_run(monkeypatch):
    """The benchmark's tracer sizes every policy decision and accounts for a run's wall time."""
    spans = _perfbench_spans(monkeypatch)
    tracer = spans.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        outcomes = harness.run([tiny_config(policy=PolicyConfig(name))
                                for name in ("fragrow", "periodic")])
        wall = time.perf_counter() - t0
    assert harness.run is run and SHOULD_GROW["periodic"].__name__ == "periodic_should_grow"
    decides = [s for s in tracer.spans if s.name == "decide"]
    # each run decides at the end of every epoch up to its last growth
    assert len(decides) == sum(r.events[-1].epoch for r in outcomes)
    assert {s.size for s in decides} == {0, 1}  # periodic's second growth is deadline-forced
    metrics, accounted = spans.layer_metrics(tracer.spans, [wall])
    assert metrics["timing.growths_forced"] == sum(s.size for s in decides)
    assert 98.0 <= accounted <= 102.0
