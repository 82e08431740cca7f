"""The benchmark's workloads: inputs made from the seed, set-up, timed call.

Every workload goes through growbench's public API as a user would:
`cli.load_config`, then `harness.run` or `harness.compare`. Functions are
looked up on their modules at call time, so the tracer's wrappers apply.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from growbench import cli, data, harness, netcore
from growbench.arch import parse_arch

# deep_idx data: MNIST-shaped (28x28 u8 pixels, 10 classes). Class
# prototypes sit close together around mid-grey and pixels carry Gaussian
# noise, so the net memorizes the train split and test error lands near
# 28 %, well clear of 0.
_IDX_SIDE = 28
_IDX_CLASSES = 10
_IDX_TRAIN_PER_CLASS = 600
_IDX_TEST_PER_CLASS = 200
_IDX_LABEL_NOISE = 0.1
_IDX_PROTO_SPREAD = 0.12
_IDX_PIXEL_NOISE = 0.25

_DEEP_IDX_CONFIG = """\
[model]
seed_arch = res:32x1-32x1-32x1
target_arch = res:32x6-32x6-32x6
where = circulation
init = moment

[policy]
name = fragrow
alpha = 4.0

[data]
source = idx
train_images = {dir}/train-images.idx3-ubyte
train_labels = {dir}/train-labels.idx1-ubyte
test_images = {dir}/test-images.idx3-ubyte
test_labels = {dir}/test-labels.idx1-ubyte
val_fraction = 0.05
data_seed = {seed}

[train]
lr_base = 0.02
batch_size = 64
run_seed = {seed}
"""


@dataclass
class Setup:
    """One timed set-up: the loaded configs and where the time went."""

    configs: list[tuple[str, harness.TrainConfig]]
    n_train: list[int]
    load_config_s: list[float] = field(default_factory=list)
    build_network_s: list[float] = field(default_factory=list)
    total_s: float = 0.0


@dataclass
class Workload:
    name: str
    sources: list[tuple[str, str]]  # (label, preset name or config file path)
    overrides: list[str]
    compare_seeds: list[int] | None  # None: one harness.run of the single config

    def setup(self) -> Setup:
        """cli.load_config + harness.build_datasets + netcore.build_network per config."""
        out = Setup(configs=[], n_train=[])
        t_start = time.perf_counter()
        for label, source in self.sources:
            t0 = time.perf_counter()
            cfg = cli.load_config(source, self.overrides).train
            t1 = time.perf_counter()
            train, _, _ = harness.build_datasets(cfg.data)
            t2 = time.perf_counter()
            netcore.build_network(parse_arch(cfg.seed_arch, train.dim, train.num_classes), cfg.run_seed)
            t3 = time.perf_counter()
            out.configs.append((label, cfg))
            out.n_train.append(len(train))
            out.load_config_s.append(t1 - t0)
            out.build_network_s.append(t3 - t2)
        out.total_s = time.perf_counter() - t_start
        return out

    def call(self, configs: list[tuple[str, harness.TrainConfig]]):
        """The timed call: a RunResult, or a ComparisonTable for compare workloads."""
        if self.compare_seeds is None:
            return harness.run(configs[0][1])
        return harness.compare(configs, self.compare_seeds)

    def runs_per_call(self) -> int:
        return len(self.sources) * (1 if self.compare_seeds is None else len(self.compare_seeds))

    def samples_per_call(self, setup: Setup) -> int:
        """Sum of epochs x n_train over the runs of one call."""
        reps = 1 if self.compare_seeds is None else len(self.compare_seeds)
        return sum(cfg.total_epochs * n * reps for (_, cfg), n in zip(setup.configs, setup.n_train))


def _idx_split(rng: np.random.Generator, protos: np.ndarray, per_class: int) -> data.Dataset:
    labels = np.repeat(np.arange(_IDX_CLASSES, dtype=np.int64), per_class)
    pixels = protos[labels] + rng.normal(0.0, _IDX_PIXEL_NOISE, size=(len(labels), protos.shape[1]))
    features = np.clip(np.rint(pixels * 255.0), 0.0, 255.0) / 255.0
    k = int(round(_IDX_LABEL_NOISE * len(labels)))
    noisy = rng.choice(len(labels), size=k, replace=False)
    labels[noisy] = rng.integers(0, _IDX_CLASSES, size=k)
    return data.Dataset(features, labels, _IDX_CLASSES)


def write_deep_idx_inputs(seed: int, workdir: str) -> str:
    """Write synthetic IDX files and the deep_idx config file; return its path."""
    rng = np.random.default_rng([seed, 0])
    protos = 0.5 + _IDX_PROTO_SPREAD * (rng.random((_IDX_CLASSES, _IDX_SIDE * _IDX_SIDE)) - 0.5)
    for split, per_class, stream in (("train", _IDX_TRAIN_PER_CLASS, 1), ("test", _IDX_TEST_PER_CLASS, 2)):
        ds = _idx_split(np.random.default_rng([seed, stream]), protos, per_class)
        data.write_idx(ds, os.path.join(workdir, f"{split}-images.idx3-ubyte"),
                       os.path.join(workdir, f"{split}-labels.idx1-ubyte"), _IDX_SIDE, _IDX_SIDE)
    path = os.path.join(workdir, "deep_idx.cfg")
    with open(path, "w") as f:
        f.write(_DEEP_IDX_CONFIG.format(dir=workdir, seed=seed))
    return path


def make(name: str, seed: int, workdir: str, extra_overrides: list[str] | None = None) -> Workload:
    """Build workload `name` for `seed`, writing any input files into `workdir`."""
    extra = list(extra_overrides or [])
    if name == "underfit":
        return Workload(name, [("underfit", "underfit")], [f"--train.run_seed={seed}"] + extra, None)
    if name == "policy_compare":
        presets = ("overfit", "overfit_periodic", "overfit_convergent")
        return Workload(name, [(p, p) for p in presets], extra, [seed, seed + 1])
    if name == "deep_idx":
        return Workload(name, [("deep_idx", write_deep_idx_inputs(seed, workdir))], extra, None)
    raise ValueError(f"unknown workload {name!r}")
