"""Golden fingerprints: one short run per policy x init x where x family.

Each case pins the first 16 hex digits of a sha256 over the numeric
fields of the run's `EpochMetrics`, `GrowthEvent`s and summary (`e_bar`
and the final errors), packed as float64 bytes. JSON text and wall time
are never hashed, so a change to the metrics file format leaves the pins
alone, while a change of one bit in any recorded number breaks them. A
refactor that keeps every pin has not changed what a run computes.

Inputs and widths are narrow (K <= 8), so the bytes do not depend on the
BLAS thread count.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from growbench.harness import DataConfig, PolicyConfig, TrainConfig, run
from growbench.presets import preset_config

POLICIES = ("fragrow", "periodic", "convergent")
INITS = ("copy", "moment", "random")
WHERES = ("sequential", "circulation")
FAMILIES = ("plain", "res")
AXES = (POLICIES, INITS, WHERES, FAMILIES)


def fingerprint(result) -> str:
    h = hashlib.sha256()
    for m in result.metrics:
        h.update(np.array([m.epoch, m.train_acc, m.val_acc, m.test_acc, m.train_loss,
                           m.orl, m.lr, *m.blocks, m.grew], dtype=np.float64).tobytes())
    for e in result.events:
        h.update(np.array([e.epoch, e.stage, e.block_index], dtype=np.float64).tobytes())
        h.update(e.init_rule.encode())
    e_bar = math.nan if result.e_bar is None else result.e_bar
    h.update(np.array([e_bar, result.final_test_error, result.final_train_error],
                      dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def case_config(policy: str, init: str, where: str, family: str) -> TrainConfig:
    """20 epochs, 4 growths over 3 stages of width 8, 270 training rows."""
    return TrainConfig(
        seed_arch=f"{family}:8x1-8x1-8x1",
        target_arch=f"{family}:8x3-8x2-8x2",
        where=where,
        init=init,
        policy=PolicyConfig(name=policy),
        data=DataConfig(source="gaussians", classes=3, dim=8, per_class=100,
                        test_per_class=50, sep=3.0, label_noise=0.2,
                        data_seed=7, val_fraction=0.1),
        total_epochs=20,
        min_finetune_epochs=4,
        lr_base=0.05,
        batch_size=32,
        run_seed=3,
    )


PINNED = {
    ("fragrow", "copy", "sequential", "plain"): "c46184fad9fd2b83",
    ("fragrow", "copy", "sequential", "res"): "ae2ef8a754fb3cdb",
    ("fragrow", "copy", "circulation", "plain"): "f51622c5a4869008",
    ("fragrow", "copy", "circulation", "res"): "02931355325117a4",
    ("fragrow", "moment", "sequential", "plain"): "fa355c61c88d3b95",
    ("fragrow", "moment", "sequential", "res"): "e7f921af54247981",
    ("fragrow", "moment", "circulation", "plain"): "3a520af112420c31",
    ("fragrow", "moment", "circulation", "res"): "0e694ceb5506f2c3",
    ("fragrow", "random", "sequential", "plain"): "abe8af6feb788495",
    ("fragrow", "random", "sequential", "res"): "615dd17d922e7f65",
    ("fragrow", "random", "circulation", "plain"): "4f7afd85a9d50963",
    ("fragrow", "random", "circulation", "res"): "9ffea27589a66f21",
    ("periodic", "copy", "sequential", "plain"): "f745202a97611153",
    ("periodic", "copy", "sequential", "res"): "9478aab852ddfa9a",
    ("periodic", "copy", "circulation", "plain"): "4222371968a31919",
    ("periodic", "copy", "circulation", "res"): "519bea365ba63a7b",
    ("periodic", "moment", "sequential", "plain"): "27fd2239fbc878ab",
    ("periodic", "moment", "sequential", "res"): "b4b63d1ddc574a1f",
    ("periodic", "moment", "circulation", "plain"): "2f872310d01584f9",
    ("periodic", "moment", "circulation", "res"): "b4f448260eddcac2",
    ("periodic", "random", "sequential", "plain"): "a73bcb4c491a21ea",
    ("periodic", "random", "sequential", "res"): "3c1f68351e5c95ee",
    ("periodic", "random", "circulation", "plain"): "7fbca358dbb8db54",
    ("periodic", "random", "circulation", "res"): "5f28f07e82bbb16c",
    ("convergent", "copy", "sequential", "plain"): "6ff1676e43ce27a2",
    ("convergent", "copy", "sequential", "res"): "9066e438d7802d21",
    ("convergent", "copy", "circulation", "plain"): "73e5afa24011790c",
    ("convergent", "copy", "circulation", "res"): "3616d391cbfef035",
    ("convergent", "moment", "sequential", "plain"): "a59084b8e5112f7d",
    ("convergent", "moment", "sequential", "res"): "c92a68da79fc0221",
    ("convergent", "moment", "circulation", "plain"): "adf8e69d91e17947",
    ("convergent", "moment", "circulation", "res"): "d0e5b87228e8746f",
    ("convergent", "random", "sequential", "plain"): "c04996bb32a309f8",
    ("convergent", "random", "sequential", "res"): "80fe3cf8c8a651f0",
    ("convergent", "random", "circulation", "plain"): "f3d474c6680a1c93",
    ("convergent", "random", "circulation", "res"): "de03951c5792f5be",
}


@pytest.mark.parametrize("case", list(itertools.product(*AXES)), ids="-".join)
def test_run_fingerprint_is_pinned(case):
    assert fingerprint(run(case_config(*case))) == PINNED[case]


# The two preset runs, seed 0, about 5 s each. Their inputs are at most
# 40 wide, and the pins hold at 1 and at 2 OpenBLAS threads.
PRESET_PINNED = {
    "underfit": "bc86c5a086cc6e68",
    "overfit": "53208efaae72ad39",
}


@pytest.mark.slow
@pytest.mark.parametrize("preset", sorted(PRESET_PINNED))
def test_preset_fingerprint_is_pinned(preset):
    assert fingerprint(run(preset_config(preset))) == PRESET_PINNED[preset]


@pytest.mark.parametrize("case", list(itertools.product(INITS, WHERES, FAMILIES)), ids="-".join)
def test_shared_run_fingerprints_are_pinned(case):
    """The three policies as one shared run reproduce each policy's solo pin."""
    results = run(case_config(POLICIES[0], *case),
                  policies=[PolicyConfig(name=p) for p in POLICIES])
    assert [fingerprint(r) for r in results] == [PINNED[(p, *case)] for p in POLICIES]
