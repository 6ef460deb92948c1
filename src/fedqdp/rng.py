"""Derivation of independent random streams from a single root seed.

Every source of randomness in a run (data synthesis, partitioning, weight
init, client selection, stochastic rounding, noise, batch shuffling) gets
its own generator keyed on the root seed plus a fixed integer path. Streams
never share state, so clients can be processed in any order, or in
parallel, and still reproduce the serial run bit for bit.
"""

from __future__ import annotations

import numpy as np

# Stream purposes. First path element after the root seed.
DATA = 0
PARTITION = 1
INIT = 2
SELECTION = 3
SERVER_ROUNDING = 4
CLIENT_ROUNDING = 5
CLIENT_NOISE = 6
CLIENT_BATCHING = 7


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the stream identified by (seed, *path).

    Every entry must be a non-negative integer; SeedSequence raises
    ValueError for a negative one.
    """
    return np.random.default_rng([seed, *path])
