import json
from dataclasses import replace

import numpy as np
import pytest

from growbench.harness import (
    DataConfig,
    PolicyConfig,
    TrainConfig,
    build_datasets,
    compare,
    config_added_blocks,
    evaluate,
    read_metrics,
    run,
    write_metrics,
)
from growbench.netcore import build_network
from growbench.arch import ArchSpec, StageSpec
from growbench.timing import i_max, round_half_up


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
    assert back.metrics == res.metrics
    assert back.events == res.events
    assert back.e_bar == res.e_bar
    assert back.final_test_error == res.final_test_error
    assert back.wall_seconds == res.wall_seconds
    lines = open(path).read().splitlines()
    assert len(lines) == tiny_config().total_epochs + 1
    footer = json.loads(lines[-1])
    assert set(footer) == {"events", "e_bar", "final_test_error",
                           "final_train_error", "wall_seconds"}
    rec = json.loads(lines[0])
    assert list(rec) == ["epoch", "train_acc", "val_acc", "test_acc",
                         "train_loss", "orl", "lr", "blocks", "grew"]


def test_metrics_files_byte_identical_sans_wall(tmp_path):
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    write_metrics(run(tiny_config()), p1)
    write_metrics(run(tiny_config()), p2)
    l1, l2 = open(p1).read().splitlines(), open(p2).read().splitlines()
    assert l1[:-1] == l2[:-1]
    f1, f2 = json.loads(l1[-1]), json.loads(l2[-1])
    f1.pop("wall_seconds"), f2.pop("wall_seconds")
    assert f1 == f2


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_raises_naming_epoch_and_batch():
    with pytest.raises(RuntimeError, match=r"diverged: loss nan at epoch 1, batch 1$"):
        run(tiny_config(lr_base=50.0))


def test_write_metrics_rejects_non_finite_values(tmp_path):
    res = run(tiny_config())
    res.metrics[0] = replace(res.metrics[0], train_loss=float("nan"))
    with pytest.raises(ValueError):
        write_metrics(res, str(tmp_path / "m.jsonl"))


def test_run_propagates_dataset_errors():
    cfg = tiny_config(data=replace(tiny_config().data, source="idx",
                                   train_images="/nonexistent/i",
                                   train_labels="/nonexistent/l",
                                   test_images="/nonexistent/ti",
                                   test_labels="/nonexistent/tl"))
    with pytest.raises(OSError):
        run(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(total_epochs=4, min_finetune_epochs=4)
    with pytest.raises(ValueError):
        tiny_config(init="zero")  # test-only rule is not user-facing
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
    assert rows["vanilla"].time_pct == pytest.approx(100.0)


def test_compare_named_anchor_is_100():
    vanilla = tiny_config(seed_arch="res:8x2-8x2")
    table = compare([("vanilla", vanilla), ("grow", tiny_config())], seeds=[0],
                    anchor="grow")
    rows = {r.label: r for r in table.rows}
    assert rows["grow"].time_pct == pytest.approx(100.0)
    assert rows["vanilla"].time_pct != pytest.approx(100.0)


def test_compare_single_seed_empty_spread():
    table = compare([("a", tiny_config()), ("b", tiny_config())], seeds=[0])
    assert table.rows[0].test_error_spread is None
    assert "spread" in table.to_text().splitlines()[0]
    assert table.to_csv().count("\n") == 3


def test_compare_marks_failed_runs():
    bad = tiny_config(data=replace(tiny_config().data, source="csv",
                                   train_csv="/nope.csv", test_csv="/nope.csv"))
    table = compare([("ok", tiny_config()), ("bad", bad)], seeds=[0, 1])
    rows = {r.label: r for r in table.rows}
    assert rows["bad"].n_failed == 2
    assert rows["bad"].test_error_median is None
    assert rows["ok"].n_failed == 0
    assert "failed" in table.to_text()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compare_counts_diverged_seeds_as_failed():
    table = compare([("ok", tiny_config()), ("diverged", tiny_config(lr_base=50.0))],
                    seeds=[0, 1])
    rows = {r.label: r for r in table.rows}
    assert rows["diverged"].n_failed == 2
    assert rows["diverged"].test_error_median is None
    assert all("diverged" in e for e in rows["diverged"].errors)
    assert rows["ok"].n_failed == 0
