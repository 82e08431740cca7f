import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from growbench.cli import (
    CliConfig,
    ConfigError,
    load_config,
    main,
    parse_config_text,
    render_config,
    _build_config,
)
from growbench.data import Dataset, write_idx
from growbench import cli, harness, netcore
from growbench.harness import DataConfig, TrainConfig, run, write_metrics
from growbench.presets import BASE_PRESETS, preset_config, preset_names

TINY_CFG = """
[model]
seed_arch = res:8x1-8x1
target_arch = res:8x2-8x2
[policy]
name = periodic
[data]
classes = 3
dim = 8
per_class = 160
test_per_class = 80
sep = 4.0
data_seed = 99
val_fraction = 0.05
[train]
total_epochs = 12
min_finetune_epochs = 4
lr_base = 0.05
batch_size = 64
[output]
metrics_path = {metrics}
"""


def write_tiny(tmp_path, name="tiny.cfg", metrics="metrics.jsonl"):
    p = tmp_path / name
    p.write_text(TINY_CFG.format(metrics=tmp_path / metrics))
    return str(p)


# --- config parsing -----------------------------------------------------------

def test_echo_round_trip_is_lossless():
    for name in preset_names():
        cfg = CliConfig(train=preset_config(name))
        text = render_config(cfg)
        back = _build_config(parse_config_text(text, "echo"))
        assert back == cfg


def test_unknown_key_reports_line():
    text = "[policy]\nname = fragrow\nalhpa = 4\n"
    with pytest.raises(ConfigError, match=r"cfg:3: unknown key policy\.alhpa"):
        parse_config_text(text, "cfg")


@pytest.mark.parametrize("section, key", [
    ("model", "moment_decay"), ("policy", "plateau_window"), ("policy", "plateau_eps"),
    ("policy", "recompute_each_epoch"), ("data", "standardize"), ("train", "eval_train_full"),
    ("train", "momentum"), ("train", "weight_decay"),
])
def test_removed_key_reports_file_and_line(tmp_path, section, key):
    p = tmp_path / "old.cfg"
    p.write_text(f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match=rf"old\.cfg:2: unknown key {section}\.{key}$"):
        load_config(str(p))


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError, match=r"cfg:1: unknown section"):
        parse_config_text("[poilcy]\n", "cfg")


def test_duplicate_key_rejected():
    text = "[train]\nlr_base = 0.1\nlr_base = 0.2\n"
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(text, "cfg")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside any"):
        parse_config_text("lr_base = 0.1\n", "cfg")


def test_bad_value_type_reported():
    with pytest.raises(ConfigError, match=r"cfg:2: bad value"):
        parse_config_text("[train]\ntotal_epochs = soon\n", "cfg")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_float_rejected_with_key_and_place(tmp_path, raw):
    p = tmp_path / "nf.cfg"
    p.write_text(f"[policy]\nalpha = {raw}\n")
    with pytest.raises(ConfigError, match=rf"nf\.cfg:2: bad value for policy\.alpha: .*not a finite"):
        load_config(str(p))
    with pytest.raises(ConfigError, match=rf"override '--policy\.alpha={raw}': bad value for policy\.alpha"):
        load_config("overfit", [f"--policy.alpha={raw}"])


@pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.1"])
def test_val_fraction_outside_unit_interval_exits_2(capsys, fraction):
    assert main(["train", "overfit", f"--data.val_fraction={fraction}", "--print-config"]) == 2
    captured = capsys.readouterr()
    assert "val_fraction must be in (0, 1)" in captured.err
    assert captured.out == ""
    with pytest.raises(ValueError, match=r"val_fraction must be in \(0, 1\)"):
        DataConfig(val_fraction=float(fraction))


def test_comments_and_blank_lines_ignored(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# hello\n\n[train]\n# inline section comment\nrun_seed = 5\n")
    cfg = load_config(str(p))
    assert cfg.train.run_seed == 5


def test_defaults_match_published_hyperparameters():
    cfg = TrainConfig()
    assert netcore.MOMENTUM == 0.9
    assert netcore.WEIGHT_DECAY == 1e-4
    assert cfg.min_finetune_epochs == 30
    assert cfg.policy.alpha == 4.0
    assert cfg.data.val_fraction == 0.01


def test_overrides_apply_and_reject_bad_keys(tmp_path):
    path = write_tiny(tmp_path)
    cfg = load_config(path, ["--policy.alpha=2.5", "--train.run_seed=7"])
    assert cfg.train.policy.alpha == 2.5
    assert cfg.train.run_seed == 7
    with pytest.raises(ConfigError, match="polcy"):
        load_config(path, ["--polcy.alpha=2.5"])
    with pytest.raises(ConfigError, match="expected --section.key=value"):
        load_config(path, ["--policy.alpha"])


def test_preset_names_resolve():
    cfg = load_config("underfit_periodic")
    assert cfg.train.policy.name == "periodic"
    van = load_config("overfit_vanilla")
    assert van.train.seed_arch == van.train.target_arch
    with pytest.raises(ConfigError, match="neither a readable config file nor a preset"):
        load_config("no_such_preset")


def test_every_preset_name_resolves_and_bad_variants_raise():
    names = preset_names()
    assert len(names) == len(set(names)) == 5 * len(BASE_PRESETS)
    for name in names:
        assert isinstance(preset_config(name), TrainConfig)
    for bad in ("overfit_", "underfit_fast", "overfit_vanilla_", "_periodic", "nobase"):
        with pytest.raises(KeyError, match="unknown preset"):
            preset_config(bad)


# --- subcommands ----------------------------------------------------------------

def test_train_command_end_to_end(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert main(["train", path]) == 0
    out = capsys.readouterr().out
    assert "final test error" in out
    assert (tmp_path / "metrics.jsonl").exists()


def test_train_print_config_round_trip(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert main(["train", path, "--print-config"]) == 0
    text = capsys.readouterr().out
    echoed = _build_config(parse_config_text(text, "echo"))
    assert echoed == load_config(path)


def test_train_policy_switch_changes_events(tmp_path):
    path = write_tiny(tmp_path)
    frag = run(load_config(path, ["--policy.name=fragrow"]).train)
    peri = run(load_config(path, ["--policy.name=periodic"]).train)
    assert [e.epoch for e in frag.events] != [e.epoch for e in peri.events]


def test_train_unknown_override_exit_2(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert main(["train", path, "--polcy.alpha=4"]) == 2
    assert "polcy" in capsys.readouterr().err


def test_train_missing_config_exit_2(capsys):
    assert main(["train", "/does/not/exist.cfg"]) == 2


def test_train_runtime_error_exit_1(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert main(["train", path, "--train.lr_base=1e6"]) == 1
    assert capsys.readouterr().err == "error: training diverged: loss nan at epoch 0, batch 6\n"
    assert not (tmp_path / "metrics.jsonl").exists()


_OUTPUT_FLAGS = [
    (["train", "underfit_vanilla", "--output.metrics_path={}"], "output.metrics_path"),
    (["compare", "underfit", "underfit_vanilla", "--csv", "{}"], "--csv"),
    (["sweep-alpha", "underfit", "--csv", "{}"], "--csv"),
    (["plot", "never-read.jsonl", "--out", "{}"], "--out"),
]
_OUTPUT_IDS = ["train", "compare", "sweep-alpha", "plot"]


@pytest.mark.parametrize("argv, name, missing",
                         [(argv, name, m) for m in (True, False) for argv, name in _OUTPUT_FLAGS],
                         ids=_OUTPUT_IDS + [f"{c}-directory" for c in _OUTPUT_IDS])
def test_output_path_in_missing_directory_exit_2_before_setup(tmp_path, monkeypatch, capsys, argv,
                                                              name, missing):
    """A path in a missing directory, or naming a directory, is refused before any set-up."""
    def no_setup(*args):
        raise AssertionError("the data was set up")

    monkeypatch.setattr(harness, "build_datasets", no_setup)
    monkeypatch.setattr(cli, "read_metrics", no_setup)
    if missing:
        directory = tmp_path / "no" / "such"
        path, why = str(directory / "out"), f"directory {directory} does not exist"
    else:
        path, why = str(tmp_path), "is a directory"
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {name} = {path}: {why}\n"
    assert captured.out == ""


def test_print_config_writes_nothing_so_checks_no_output_directory(tmp_path, capsys):
    missing = tmp_path / "no" / "such"
    assert main(["train", "underfit", f"--output.metrics_path={missing / 'm.jsonl'}",
                 "--print-config"]) == 0
    assert f"metrics_path = {missing / 'm.jsonl'}" in capsys.readouterr().out


@pytest.mark.parametrize("print_config", [False, True])
@pytest.mark.parametrize("override, message", [
    ("--model.seed_arch=foo", "bad architecture string 'foo'"),
    ("--model.target_arch=plain:16x2-16x2", "stage count mismatch: 3 vs 2"),
    ("--model.target_arch=res:16x2-16x2-16x2", "family mismatch: plain vs res"),
    ("--model.seed_arch=plain:16x3-16x1-16x1", "stage 0: target has fewer blocks (2) than seed (3)"),
])
def test_train_incompatible_archs_exit_2_before_setup(tmp_path, monkeypatch, capsys, override,
                                                      message, print_config):
    def no_setup(*args):
        raise AssertionError("the data was set up")

    monkeypatch.setattr(harness, "build_datasets", no_setup)
    argv = ["train", "underfit", override, f"--output.metrics_path={tmp_path / 'm.jsonl'}"]
    assert main(argv + ["--print-config"] * print_config) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: seed_arch ")
    assert message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("print_config", [False, True])
@pytest.mark.parametrize("preset, override, message", [
    ("underfit", "--data.test_per_class=0", "data.test_per_class must be positive, got 0"),
    ("underfit", "--data.per_class=-3", "data.per_class must be positive, got -3"),
    ("underfit_vanilla", "--train.min_finetune_epochs=-1",
     "train.min_finetune_epochs must be in [0, total_epochs), got -1 with total_epochs 66"),
    ("underfit", "--train.min_finetune_epochs=-1",
     "train.min_finetune_epochs must be in [0, total_epochs), got -1 with total_epochs 66"),
    ("underfit", "--train.min_finetune_epochs=66",
     "train.min_finetune_epochs must be in [0, total_epochs), got 66 with total_epochs 66"),
    ("underfit", "--data.classes=1", "data.classes must be at least 2, got 1"),
    ("underfit", "--data.dim=3", "data.dim must be at least data.classes 20, got 3"),
    ("underfit", "--data.label_noise=0.7", "data.label_noise must be in [0, 0.5), got 0.7"),
    ("underfit", "--train.run_seed=-1", "train.run_seed must be non-negative, got -1"),
    ("underfit", "--data.data_seed=-5", "data.data_seed must be non-negative, got -5"),
    ("underfit", "--train.lr_base=0", "train.lr_base must be positive, got 0.0"),
    ("underfit", "--train.lr_base=-0.1", "train.lr_base must be positive, got -0.1"),
    ("underfit", "--train.min_finetune_epochs=64",
     "train.min_finetune_epochs = 64: cannot add 3 blocks, one per epoch at most, in 66 epochs "
     "and keep 64 to finetune"),
    ("underfit", "--data.source=idx", "data.train_images must be set when data.source = idx"),
    ("underfit", "--data.source=csv", "data.train_csv must be set when data.source = csv"),
    ("underfit", "--train.batch_size=0", "train.batch_size must be positive, got 0"),
    ("underfit", "--policy.period_scale=0", "policy.period_scale must be in (0, 1], got 0.0"),
    ("underfit", "--data.val_fraction=1", "data.val_fraction must be in (0, 1), got 1.0"),
])
def test_train_bad_count_exit_2_names_key_before_setup(tmp_path, monkeypatch, capsys, preset,
                                                        override, message, print_config):
    def no_setup(*args):
        raise AssertionError("the data was set up")

    monkeypatch.setattr(harness, "build_datasets", no_setup)
    argv = ["train", preset, override, f"--output.metrics_path={tmp_path / 'm.jsonl'}"]
    assert main(argv + ["--print-config"] * print_config) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "m.jsonl").exists()


def test_train_split_leaving_a_class_no_training_row_exit_1(tmp_path, monkeypatch, capsys):
    def no_network(*args):
        raise AssertionError("the network was built")

    monkeypatch.setattr(harness, "build_network", no_network)
    argv = ["train", "underfit", "--data.val_fraction=0.99999",
            f"--output.metrics_path={tmp_path / 'm.jsonl'}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: data.val_fraction = 0.99999 leaves class 1 with no training "
                            "row: 1 of 18000 pool rows train\n")
    assert not (tmp_path / "m.jsonl").exists()


def test_train_budget_beyond_finetune_floor_exit_2_before_setup(tmp_path, monkeypatch, capsys):
    def no_setup(*args):
        raise AssertionError("the data was set up")

    monkeypatch.setattr(harness, "build_datasets", no_setup)
    path = write_tiny(tmp_path)  # 2 growths, 12 epochs
    assert main(["train", path, "--train.min_finetune_epochs=11"]) == 2
    assert "train.min_finetune_epochs = 11: cannot add 2 blocks" in capsys.readouterr().err
    assert not (tmp_path / "metrics.jsonl").exists()


def test_train_test_label_outside_pool_exit_1(tmp_path, capsys):
    paths = {}
    for name, labels in (("train", [0, 1, 2] * 20), ("test", [0, 1, 2, 3] * 5)):
        feats = np.random.default_rng(len(labels)).integers(0, 256, size=(len(labels), 4)) / 255.0
        paths[name] = (str(tmp_path / f"{name}-images"), str(tmp_path / f"{name}-labels"))
        write_idx(Dataset(feats, np.array(labels), max(labels) + 1), *paths[name], rows=2, cols=2)
    path = write_tiny(tmp_path)
    data = ["--data.source=idx",
            f"--data.train_images={paths['train'][0]}", f"--data.train_labels={paths['train'][1]}",
            f"--data.test_images={paths['test'][0]}", f"--data.test_labels={paths['test'][1]}"]
    assert main(["train", path, *data]) == 1
    err = capsys.readouterr().err
    assert f"{paths['test'][1]}: label 3 outside the training pool's classes [0, 3)" in err
    assert not (tmp_path / "metrics.jsonl").exists()


def test_compare_command(tmp_path, capsys):
    a = write_tiny(tmp_path, "a.cfg", "a.jsonl")
    b = write_tiny(tmp_path, "b.cfg", "b.jsonl")
    csv_path = tmp_path / "cmp.csv"
    assert main(["compare", a, b, "--seeds", "1", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "a" in out and "b" in out
    assert csv_path.read_text().startswith("config,")


def test_compare_same_label_twice_exit_2_names_both_paths(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = write_tiny(tmp_path / "a", "x.cfg")
    b = write_tiny(tmp_path / "b", "x.cfg")
    assert main(["compare", a, b, "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert f"{a} and {b} give the same row label 'x'" in captured.err
    assert captured.out == ""


def test_compare_needs_two_configs(tmp_path, capsys):
    a = write_tiny(tmp_path)
    assert main(["compare", a, "--seeds", "1"]) == 2


@pytest.mark.parametrize("command", ["compare", "sweep-alpha"])
@pytest.mark.parametrize("seeds", ["0", "-1", "two"])
def test_seed_count_below_one_exit_2_names_flag(tmp_path, capsys, command, seeds):
    a = write_tiny(tmp_path)
    configs = [a, a] if command == "compare" else [a]
    assert main([command, *configs, "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert f"argument --seeds: expected a positive integer, got '{seeds}'" in captured.err
    assert captured.out == ""


def test_sweep_alpha_command(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert main(["sweep-alpha", path, "--alphas", "4", "--seeds", "1",
                 "--policy.name=fragrow"]) == 0
    out = capsys.readouterr().out
    assert "alpha=4" in out


def test_sweep_alpha_empty_list_exit_2(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert main(["sweep-alpha", path, "--alphas", ",", "--seeds", "1"]) == 2
    assert "empty alpha list" in capsys.readouterr().err


def test_sweep_alpha_non_finite_alpha_exit_2(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert main(["sweep-alpha", path, "--alphas", "2,nan", "--seeds", "1",
                 "--policy.name=fragrow"]) == 2
    assert "'nan' is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("alphas", ["4,4.0", "2,4,4.0000001"])
def test_sweep_alpha_duplicate_row_label_exit_2_names_flag(tmp_path, capsys, alphas):
    path = write_tiny(tmp_path)
    assert main(["sweep-alpha", path, "--alphas", alphas, "--seeds", "1",
                 "--policy.name=fragrow"]) == 2
    captured = capsys.readouterr()
    assert f"--alphas '{alphas}': two values give the row label 'alpha=4'" in captured.err
    assert captured.out == ""


def test_sweep_alpha_requires_fragrow(tmp_path):
    path = write_tiny(tmp_path)  # periodic policy in file
    assert main(["sweep-alpha", path, "--alphas", "2,4", "--seeds", "1"]) == 2


# --- plot -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def metrics_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plots")
    cfg = load_config(write_tiny(tmp)).train
    result = run(cfg)
    path = str(tmp / "run.jsonl")
    write_metrics(result, path)
    return path, result


def test_plot_blocks_step_function(metrics_file, tmp_path, capsys):
    path, result = metrics_file
    out = str(tmp_path / "blocks.svg")
    assert main(["plot", path, "--curves", "blocks", "--out", out]) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    # one polyline for the curve; step count equals growth events
    blocks = [sum(m.blocks) for m in result.metrics]
    steps = sum(1 for a, b in zip(blocks, blocks[1:]) if b > a)
    assert steps == len(result.events)
    text = Path(out).read_text()
    assert text.count("<polyline") == 1
    # growth events drawn as dashed vertical markers
    assert text.count('stroke-dasharray') == len(result.events)


def test_plot_overlay_two_files(metrics_file, tmp_path):
    path, _ = metrics_file
    other = str(tmp_path / "copy.jsonl")
    Path(other).write_text(Path(path).read_text())
    out = str(tmp_path / "overlay.svg")
    assert main(["plot", path, other, "--curves", "test_err", "--out", out]) == 0
    text = Path(out).read_text()
    assert text.count("<polyline") == 2
    assert "run:test_err" in text and "copy:test_err" in text


def test_plot_deterministic_bytes(metrics_file, tmp_path):
    path, _ = metrics_file
    o1, o2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    assert main(["plot", path, "--curves", "lr,orl", "--out", o1]) == 0
    assert main(["plot", path, "--curves", "lr,orl", "--out", o2]) == 0
    assert Path(o1).read_text() == Path(o2).read_text()


def test_plot_interval_curve_needs_params(metrics_file, tmp_path, capsys):
    path, _ = metrics_file
    out = str(tmp_path / "i.svg")
    assert main(["plot", path, "--curves", "interval", "--out", out]) == 2
    assert "interval" in capsys.readouterr().err
    assert main(["plot", path, "--curves", "interval", "--out", out,
                 "--alpha", "4", "--i-max", "4"]) == 0


def test_plot_unknown_curve_named(metrics_file, tmp_path, capsys):
    path, _ = metrics_file
    assert main(["plot", path, "--curves", "wloss"]) == 2
    assert "wloss" in capsys.readouterr().err


def test_plot_ranges(metrics_file, tmp_path):
    path, _ = metrics_file
    out = str(tmp_path / "r.svg")
    assert main(["plot", path, "--curves", "test_err", "--out", out,
                 "--x-range", "0:12", "--y-range", "0:100"]) == 0
    assert main(["plot", path, "--curves", "test_err", "--out", out,
                 "--x-range", "zero:12"]) == 2


@pytest.mark.parametrize("flag", ["--x-range", "--y-range"])
@pytest.mark.parametrize("text", ["1..2:3", "1:2:3", "1", "nan:1", "0:inf", "5:1", "3:3"])
def test_plot_malformed_range_exit_2_names_flag(metrics_file, tmp_path, capsys, flag, text):
    path, _ = metrics_file
    out = tmp_path / "bad.svg"
    assert main(["plot", path, "--curves", "test_err", "--out", str(out), flag, text]) == 2
    assert f"bad {flag} '{text}'; expected LO:HI" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, text, expected", [
    ("--alpha", "nan", "a finite number"), ("--alpha", "-inf", "a finite number"),
    ("--alpha", "four", "a finite number"), ("--i-max", "inf", "a finite number"),
    ("--i-max", "nan", "a finite number"), ("--i-max", "0", "a positive number"),
    ("--i-max", "-2.5", "a positive number"),
])
def test_plot_bad_interval_flag_exit_2_names_flag(metrics_file, tmp_path, capsys, flag, text,
                                                   expected):
    path, _ = metrics_file
    out = tmp_path / "bad.svg"
    flags = {"--alpha": "4", "--i-max": "3", flag: text}
    argv = ["plot", path, "--curves", "interval", "--out", str(out)]
    assert main(argv + [f"{k}={v}" for k, v in flags.items()]) == 2
    assert f"argument {flag}: expected {expected}, got '{text}'" in capsys.readouterr().err
    assert not out.exists()


def test_plot_refuses_non_finite_metrics_exit_1(metrics_file, tmp_path, capsys):
    path, _ = metrics_file
    lines = Path(path).read_text().splitlines()
    rec = json.loads(lines[1])
    rec["train_acc"] = math.nan
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
    out = tmp_path / "bad.svg"
    assert main(["plot", str(bad), "--curves", "train_err", "--out", str(out)]) == 1
    assert f"{bad}:2: non-finite number NaN" in capsys.readouterr().err
    assert not out.exists()
