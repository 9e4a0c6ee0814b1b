"""Boolean hypercube toolkit: Walsh-Hadamard transforms, influences, and
the seen/unseen transfer check from Fourier coefficients.

Functions live on {-1, 1}^n with n <= 24 (a full coefficient array is at
most 128 MiB).  Index convention: point index b encodes x_i = 1 - 2 * bit_i(b),
i.e. a set bit means the coordinate is -1, so the parity character is
chi_S(x(b)) = (-1)^popcount(b & S) and the fast transform is the plain
butterfly.  The dense kernels are whole-array numpy: the butterfly works
in place on one copy, and influences and restrictions read bit i as the
middle axis of a (2^(n-1-i), 2, 2^i) reshape, with no 2^n index array.

The transfer check follows the invariance-principle route: under the
uniform measure Q, a degree-d function f with unit variance and maximum
influence tau transfers from the conditional distribution on a seen set S
with coefficient K_d * Q(S)^(-2d), provided Q(S) exceeds the invariance
gap c * d * beta^(1/3) * tau^(1/(8d)).  The seen set is a subcube with one
frozen coordinate, so every moment of the report is a closed form in the
coefficients (restriction and Parseval) and no value table is formed.
When the hypothesis fails the report says so instead of asserting the
bound (dictators are the canonical failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_N = 24


class EnumerationTooLargeError(ValueError):
    pass


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise EnumerationTooLargeError(f"n={n} outside 1..{MAX_N}")


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly, O(n 2^n); self-inverse up to 2^n."""
    v = np.array(values, dtype=float).reshape(-1)
    size = v.size
    if size & (size - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < size:
        pairs = v.reshape(-1, 2, h)   # a view: stage h works in place on v
        top = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(top, pairs[:, 1], out=pairs[:, 1])
        h *= 2
    return v


@dataclass
class BooleanFn:
    """Real function on {-1,1}^n held as a value table and/or coefficients.

    ``coeff_array[S]`` is the Fourier coefficient of the parity on the
    bitmask S.  Either representation may be absent until a transform call
    populates it.
    """

    n: int
    table: np.ndarray | None = None
    coeff_array: np.ndarray | None = None

    def __post_init__(self):
        _check_n(self.n)
        size = 1 << self.n
        for name in ("table", "coeff_array"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a, dtype=float)
                if a.size != size:
                    raise ValueError(f"{name} must have length 2^{self.n}")
                setattr(self, name, a)
        if self.table is None and self.coeff_array is None:
            raise ValueError("need a table or coefficients")

    @staticmethod
    def from_fourier(n: int, coeffs: dict) -> "BooleanFn":
        _check_n(n)
        arr = np.zeros(1 << n)
        for mask, c in coeffs.items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"bitmask {mask} out of range for n={n}")
            arr[mask] = c
        return BooleanFn(n, coeff_array=arr)

    def coefficients(self) -> np.ndarray:
        """The coefficient array; a table-only f is transformed (not cached)."""
        if self.coeff_array is not None:
            return self.coeff_array
        return fourier_transform(self).coeff_array

    @property
    def degree(self) -> int:
        c = np.abs(self.coefficients())
        nz = np.flatnonzero(c > 1e-12 * max(1.0, c.max()))
        return int(np.bitwise_count(nz).max(initial=0))

    def variance(self) -> float:
        c = self.coefficients()
        return float(np.sum(c * c) - c[0] * c[0])


def fourier_transform(f: BooleanFn) -> BooleanFn:
    """``f`` with both representations: the absent one is computed."""
    table, coeffs = f.table, f.coeff_array
    if coeffs is None:
        coeffs = fwht(table) / (1 << f.n)
    if table is None:
        table = fwht(coeffs)
    return BooleanFn(f.n, table=table, coeff_array=coeffs)


# ---------------------------------------------------------------------------
# Influences and normalization
# ---------------------------------------------------------------------------


def influences(f: BooleanFn):
    """Per-direction influences Inf_i = sum_{Sni} c_S^2 and their max."""
    c2 = f.coefficients() ** 2
    # masks with bit i set, in index order (at i = n - 1 a view of c2: read only)
    inf = np.array([c2.reshape(-1, 2, 1 << i)[:, 1].ravel().sum() for i in range(f.n)])
    return inf, float(inf.max())


def normalize_variance(f: BooleanFn):
    """Scale the nonconstant part to unit variance; returns (fn, scale)."""
    g = BooleanFn(f.n, coeff_array=f.coefficients())
    var = g.variance()
    if var <= 0:
        raise ValueError("constant function cannot be variance-normalized")
    scale = 1.0 / math.sqrt(var)
    c = g.coeff_array * scale
    c[0] = g.coeff_array[0]
    return BooleanFn(g.n, coeff_array=c), scale


def invariance_gap(d: int, third_moment: float, max_influence: float,
                   c_gap: float = 1.0) -> float:
    """Additive CLT error for low-influence degree-d multilinear functions:
    c * d * beta^(1/3) * tau^(1/(8d))."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 <= max_influence <= 1.0:
        raise ValueError("max influence must be in [0, 1]")
    if third_moment < 1.0:
        raise ValueError("third absolute moment is >= 1 for unit-variance variables")
    if max_influence == 0.0:
        return 0.0
    return c_gap * d * third_moment ** (1.0 / 3.0) * max_influence ** (1.0 / (8.0 * d))


# ---------------------------------------------------------------------------
# Seen set and conditional moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenCoordinateSet:
    """{x : x[index] == value}, the seen set: one frozen coordinate."""

    index: int
    value: int
    mass = 0.5   # Q(x[index] == value) under the uniform measure

    def __post_init__(self):
        if self.value not in (-1, 1):
            raise ValueError("value must be +-1")


def conditional_moments(f: BooleanFn, seen: FrozenCoordinateSet):
    """Exact (E_P f, E_P f^2, E_Q f, E_Q f^2) with Q uniform, P = Q|seen.

    Restricting x_k = v maps chi_S to v * chi_{S - {k}}, so the restriction
    has coefficients r_S = c_S + v * c_{S | {k}} over S not holding k, and
    both pairs of moments follow by Parseval.
    """
    k, n = seen.index, f.n
    if not 0 <= k < n:
        raise ValueError("index out of range")
    c = f.coefficients()
    pairs = c.reshape(1 << (n - 1 - k), 2, 1 << k)   # middle axis: bit k
    r = pairs[:, 0] + seen.value * pairs[:, 1]
    return float(r[0, 0]), float(np.sum(r * r)), float(c[0]), float(np.sum(c * c))


# ---------------------------------------------------------------------------
# Transfer report
# ---------------------------------------------------------------------------


def default_degree_constant(d: int) -> float:
    """Stand-in for the d^O(d) factor: d^(2d), with K_1 = 1."""
    return 1.0 if d <= 1 else float(d) ** (2 * d)


@dataclass
class BooleanTransferReport:
    degree: int
    tau: float
    mass: float
    gap: float
    c_gap: float
    k_d: float
    condition_holds: bool
    lhs: float              # E_Q f^2
    source_moment: float    # E_P f^2
    coefficient: float      # K_d * Q(S)^(-2d)
    satisfied: bool | None  # None when the hypothesis fails


def transfer_report(f: BooleanFn, seen: FrozenCoordinateSet, c_gap: float = 1.0,
                    k_d: float | None = None,
                    tau_override: float | None = None) -> BooleanTransferReport:
    """Check the seen/unseen transfer inequality with exact moments.

    Requires a variance-normalized f.  If the uniform mass of the seen set
    is below the invariance gap the hypothesis fails and the bound is not
    asserted.  ``tau_override`` substitutes a synthetic maximum influence in
    the gap computation (diagnostic use; the moments stay exact).
    """
    g = BooleanFn(f.n, coeff_array=f.coefficients())
    if abs(g.variance() - 1.0) > 1e-9:
        raise ValueError("f must be variance-normalized (unit nonconstant mass)")
    d = g.degree
    _, tau = influences(g)
    tau_eff = tau if tau_override is None else float(tau_override)
    mass = seen.mass
    gap = invariance_gap(max(d, 1), 1.0, tau_eff, c_gap)
    holds = mass >= gap
    kd = default_degree_constant(max(d, 1)) if k_d is None else float(k_d)
    e_p, e_p2, e_q, e_q2 = conditional_moments(g, seen)
    coefficient = kd * mass ** (-2 * max(d, 1))
    satisfied = (e_q2 <= coefficient * e_p2) if holds else None
    return BooleanTransferReport(
        degree=d, tau=tau_eff, mass=mass, gap=gap, c_gap=c_gap, k_d=kd,
        condition_holds=holds, lhs=e_q2, source_moment=e_p2,
        coefficient=coefficient, satisfied=satisfied,
    )
