"""Seeded, counter-based random number generation: the one derivation rule.

Every generator comes from ``make_rng(seed, *path)``, Philox (Salmon et al.,
SC'11) keyed by the seed and a 64-bit BLAKE2b digest of the path, a tuple of
unsigned 64-bit ints; the empty path keys it with 0, the seed's root stream.
A routine handed ``(seed, path)`` draws at ``path`` and hands each part
``path + (Tag.<PART>, i, ...)``, so no two parts share a stream.
"""

from __future__ import annotations

import enum
import operator
import struct

# path components naming the parts of a routine's draws, numbered from 1; a new
# tag goes last, since renumbering one moves every stream it keys
Tag = enum.IntEnum("Tag", "FACTOR ATTEMPT QUERY TASK STEP SOURCE TARGET LOCATION "
                          "EPOCH NOISE INIT SEEN BAND FULL FINAL PLATEAU")


def make_rng(seed: int, *path: int):
    """The Philox ``numpy.random.Generator`` of ``seed`` at ``path``, from counter 0."""
    import numpy as np   # imported here so the CLI's text-only commands never load it

    words = [operator.index(w) for w in (seed, *path)]
    if not all(0 <= w < 1 << 64 for w in words):
        raise ValueError(f"seed and path components must be in [0, 2**64), got {words}")
    key = words[0]
    if path:
        import hashlib   # only derived streams pay for the import

        digest = hashlib.blake2b(struct.pack(f"<{len(path)}Q", *words[1:]), digest_size=8)
        key = np.array([key, int.from_bytes(digest.digest(), "little")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def replicate_seed(seed: int, replicate: int) -> int:
    """Root seed of a sweep's replicate, written as an integer to gotu's summary.csv."""
    return seed + 1000 + replicate
