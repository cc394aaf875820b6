"""Seed-derived random substreams.

Every stochastic step draws from a generator keyed by (seed, stream tag,
context ints). Streams for independent pieces of work never overlap, so
results do not depend on the order in which that work runs.
"""
from __future__ import annotations

import numpy as np

from .errors import as_count

# Tags 3 and 8 are unused. Renumbering the others would change every
# seeded reference and corpus.
STREAM_GENERATE = 1
STREAM_CALIBRATE = 2
STREAM_NOISE = 4
STREAM_SPLIT = 5
STREAM_CORPUS = 6
STREAM_PAIRS = 7


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and context path."""
    return np.random.default_rng(_entropy(seed, *path))


def fold_seed(seed: int, *path: int) -> int:
    """Collapse a context path into a plain non-negative integer seed."""
    return int(np.random.SeedSequence(_entropy(seed, *path)).generate_state(1)[0])


def _entropy(seed: int, *path: int) -> list[int]:
    parts = [as_count(seed, "seed", 0), *(as_count(p, "stream path", 0) for p in path)]
    # Fold the path length in so encodings are prefix-free: numpy's
    # SeedSequence treats [s, a] and [s, a, 0] as the same entropy, which
    # would let two distinct context paths share a stream.
    return [parts[0], len(path), *parts[1:]]
