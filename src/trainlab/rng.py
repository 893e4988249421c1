"""Named, replayable random streams.

Every random draw in the package comes from a stream keyed by
``(base_seed, purpose_tag, *indices)``.  Adding or removing one consumer
(say, a curvature probe) therefore never shifts the randomness seen by
another (the batch shuffler, the label randomizer, ...).
"""

from __future__ import annotations

import zlib

import numpy as np


def _entropy(base_seed: int, tag: str, indices: tuple[int, ...]) -> list[int]:
    return [int(base_seed), zlib.crc32(tag.encode("utf-8")), *map(int, indices)]


def stream(base_seed: int, tag: str, *indices: int) -> np.random.Generator:
    """A fresh generator for the named purpose, independent of all others."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(base_seed, tag, indices)))


def derive_seed(base_seed: int, tag: str, *indices: int) -> int:
    """A 64-bit integer seed for consumers that take a plain seed."""
    ss = np.random.SeedSequence(_entropy(base_seed, tag, indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
