"""Seeded, counter-based random number generation.

Every stochastic routine in this package draws from a Philox counter-based
bit generator keyed by an integer seed.  Parallel or logically independent
sampling tasks derive child generators by jumping the counter
(``stream`` offsets), so results are bit-reproducible regardless of how
work is partitioned.
"""

from __future__ import annotations

import operator

import numpy as np

STREAM_COUNT = 1 << 128   # the 256-bit counter holds 2^128 streams of 2^128 blocks


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the Philox generator for ``seed``, advanced to ``stream``.

    Distinct ``stream`` values yield non-overlapping counter ranges of the
    same keyed sequence; ``(seed, stream)`` fully determines the draws.
    Stream s starts at counter s * 2^128, which is where
    ``Philox(key=seed).jumped(s)`` starts, without the cost of the jump.
    """
    stream = operator.index(stream)
    if not 0 <= stream < STREAM_COUNT:
        raise ValueError(f"stream must be in [0, 2**128), got {stream}")
    return np.random.Generator(np.random.Philox(counter=stream << 128,
                                                key=np.uint64(seed)))
