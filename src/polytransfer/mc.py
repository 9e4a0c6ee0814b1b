"""Monte Carlo plumbing shared across modules: sample budgets and estimates.

Every Monte Carlo mean and standard error in the package comes from
:func:`mean_and_stderr`, which also decides the two edge cases: fewer than
two values, and values or a spread too large to represent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class McSpec:
    """A Monte Carlo budget: sample count plus the seed and path that fix the draws."""

    n_samples: int
    seed: int = 0
    path: tuple = ()

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def child(self, *components) -> "McSpec":
        """The same budget drawn from ``path + components``."""
        return McSpec(self.n_samples, self.seed, (*self.path, *components))


@dataclass(frozen=True)
class McEstimate:
    """An estimate with its standard error and an optional diagnostic flag."""

    value: float
    stderr: float
    flag: str = ""

    def __float__(self) -> float:
        return self.value


def mean_and_stderr(values) -> McEstimate:
    """Sample mean and standard error (ddof = 1) of ``values``.

    With fewer than two values the standard error is nan.  Non-finite
    values, or a spread whose square overflows, give
    ``McEstimate(inf, nan, flag="overflow")``; no floating-point warning
    escapes.
    """
    import numpy as np

    v = np.asarray(values, dtype=float)
    n = v.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(v))
        se = float(np.std(v, ddof=1) / math.sqrt(n)) if n >= 2 else math.nan
    if not math.isfinite(mean) or (n >= 2 and not math.isfinite(se)):
        return McEstimate(math.inf, math.nan, flag="overflow")
    return McEstimate(mean, se)
