"""Seedable named random streams.

All randomness in the project (weight init, data generation, shuffling,
growth-time init) flows through `substream`, so that consuming randomness
in one place never perturbs another. The underlying bit generator is
numpy's PCG64, which is the single PRNG algorithm used project-wide.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(name: str) -> tuple[int, ...]:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "big") for i in (0, 4, 8, 12))


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Return an independent generator for (seed, name, indices).

    The same triple always yields the same stream; distinct names or
    indices yield statistically independent streams under one seed.
    """
    key = _name_key(name) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))
