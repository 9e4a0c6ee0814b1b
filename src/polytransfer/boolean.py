"""Boolean hypercube toolkit: Walsh-Hadamard transforms, influences, and
the seen/unseen transfer check by exact enumeration.

Functions live on {-1, 1}^n with n <= 24 (a full value table is at most
128 MiB).  Index convention: point index b encodes x_i = 1 - 2 * bit_i(b),
i.e. a set bit means the coordinate is -1, so the parity character is
chi_S(x(b)) = (-1)^popcount(b & S) and the fast transform is the plain
butterfly.  The dense kernels are whole-array numpy: the butterfly works
in place on one copy, and influences and subcube indicators read bit i as
the middle axis of a (2^(n-1-i), 2, 2^i) reshape, with no 2^n index array.

The transfer check follows the invariance-principle route: under the
uniform measure Q, a degree-d function f with unit variance and maximum
influence tau transfers from the conditional distribution on a seen set S
with coefficient K_d * Q(S)^(-2d), provided Q(S) exceeds the invariance
gap c * d * beta^(1/3) * tau^(1/(8d)).  When the hypothesis fails the
report says so instead of asserting the bound (dictators are the canonical
failure).
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


def points(n: int) -> np.ndarray:
    """All 2^n points as a (2^n, n) array of +-1, index convention above."""
    _check_n(n)
    idx = np.arange(1 << n, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    return 1.0 - 2.0 * bits.astype(float)


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

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_table(values) -> "BooleanFn":
        values = np.asarray(values, dtype=float)
        n = int(round(math.log2(values.size)))
        return BooleanFn(n, table=values)

    @staticmethod
    def from_fourier(n: int, coeffs: dict) -> "BooleanFn":
        _check_n(n)
        arr = np.zeros(1 << n)
        for mask, c in coeffs.items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"bitmask {mask} out of range for n={n}")
            arr[mask] = c
        return BooleanFn(n, coeff_array=arr)

    @staticmethod
    def from_callable(n: int, fn) -> "BooleanFn":
        pts = points(n)
        return BooleanFn(n, table=np.array([float(fn(p)) for p in pts]))

    # -- representations ----------------------------------------------------

    @property
    def fourier(self) -> dict:
        """Sparse view of the nonzero Fourier coefficients."""
        f = self if self.coeff_array is not None else fourier_transform(self)
        (nz,) = np.nonzero(f.coeff_array)
        return {int(s): float(f.coeff_array[s]) for s in nz}

    @property
    def degree(self) -> int:
        f = self if self.coeff_array is not None else fourier_transform(self)
        c = np.abs(f.coeff_array)
        nz = np.flatnonzero(c > 1e-12 * max(1.0, c.max()))
        return int(np.bitwise_count(nz).max(initial=0))

    def variance(self) -> float:
        f = self if self.coeff_array is not None else fourier_transform(self)
        c = f.coeff_array
        return float(np.sum(c * c) - c[0] * c[0])

    def eval(self, x) -> float:
        """Evaluate at a +-1 vector via the table (index from signs)."""
        f = self if self.table is not None else fourier_transform(self)
        x = np.asarray(x, dtype=float)
        bits = ((1.0 - x) / 2.0).astype(np.uint64)
        idx = int(np.sum(bits << np.arange(self.n, dtype=np.uint64)))
        return float(f.table[idx])


def fourier_transform(f: BooleanFn, direction: str = "both") -> BooleanFn:
    """Populate the missing representation (or refresh both).

    direction: "to-fourier", "to-table", or "both" (fill whatever is absent).
    """
    if direction not in ("to-fourier", "to-table", "both"):
        raise ValueError(f"direction must be 'to-fourier', 'to-table' or 'both', not {direction!r}")
    table, coeffs = f.table, f.coeff_array
    if direction == "to-fourier" and table is None:
        raise ValueError("no table to transform")
    if direction == "to-table" and coeffs is None:
        raise ValueError("no coefficients to transform")
    if direction != "to-table" and coeffs is None:
        coeffs = fwht(table) / (1 << f.n)
    if direction != "to-fourier" and table is None:
        table = fwht(coeffs)
    return BooleanFn(f.n, table=table, coeff_array=coeffs)


# ---------------------------------------------------------------------------
# Influences and normalization
# ---------------------------------------------------------------------------


def influences(f: BooleanFn):
    """Per-direction influences Inf_i = sum_{Sni} c_S^2 and their max."""
    g = f if f.coeff_array is not None else fourier_transform(f)
    c2 = g.coeff_array ** 2
    # masks with bit i set, in index order (at i = n - 1 a view of c2: read only)
    inf = np.array([c2.reshape(-1, 2, 1 << i)[:, 1].ravel().sum() for i in range(g.n)])
    return inf, float(inf.max())


def total_influence(f: BooleanFn) -> float:
    """sum_i Inf_i = sum_S |S| c_S^2."""
    g = f if f.coeff_array is not None else fourier_transform(f)
    sizes = np.bitwise_count(np.arange(1 << g.n, dtype=np.uint32)).astype(float)
    return float(np.sum(sizes * g.coeff_array ** 2))


def normalize_variance(f: BooleanFn):
    """Scale the nonconstant part to unit variance; returns (fn, scale)."""
    g = f if f.coeff_array is not None else fourier_transform(f)
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
# Seen sets and conditional moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeenSet:
    """Subset of the hypercube the source distribution is conditioned on."""

    def indicator(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def mass(self, n: int) -> float:
        ind = self.indicator(n)
        return float(ind.sum()) / ind.size


@dataclass(frozen=True)
class FrozenCoordinateSet(SeenSet):
    """{x : x[index] == value}; the canonical holdout freezes one coordinate."""

    index: int
    value: int

    def __post_init__(self):
        if self.value not in (-1, 1):
            raise ValueError("value must be +-1")

    def indicator(self, n: int) -> np.ndarray:
        if not 0 <= self.index < n:
            raise ValueError("index out of range")
        ind = np.zeros((1 << (n - 1 - self.index), 2, 1 << self.index), dtype=bool)
        ind[:, 1 if self.value == -1 else 0] = True   # middle axis: bit `index`
        return ind.reshape(-1)


@dataclass(frozen=True)
class BitmaskSet(SeenSet):
    """Explicit subset given as a boolean indicator over all 2^n points."""

    mask: tuple

    @staticmethod
    def from_indicator(ind) -> "BitmaskSet":
        return BitmaskSet(tuple(bool(v) for v in np.asarray(ind).reshape(-1)))

    def indicator(self, n: int) -> np.ndarray:
        ind = np.asarray(self.mask, dtype=bool)
        if ind.size != (1 << n):
            raise ValueError("indicator length must be 2^n")
        if not ind.any():
            raise ValueError("seen set must be nonempty")
        return ind


def conditional_moments(f: BooleanFn, seen: SeenSet):
    """Exact (E_P f, E_P f^2, E_Q f, E_Q f^2) with Q uniform, P = Q|seen."""
    g = f if f.table is not None else fourier_transform(f)
    ind = seen.indicator(g.n)
    if not ind.any():
        raise ValueError("seen set is empty")
    t = g.table
    e_q = float(np.mean(t))
    e_q2 = float(np.mean(t * t))
    sel = t[ind]
    e_p = float(np.mean(sel))
    e_p2 = float(np.mean(sel * sel))
    return e_p, e_p2, e_q, e_q2


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


def transfer_report(f: BooleanFn, seen: SeenSet, c_gap: float = 1.0,
                    k_d: float | None = None,
                    tau_override: float | None = None) -> BooleanTransferReport:
    """Check the seen/unseen transfer inequality by exact enumeration.

    Requires a variance-normalized f.  If the uniform mass of the seen set
    is below the invariance gap the hypothesis fails and the bound is not
    asserted.  ``tau_override`` substitutes a synthetic maximum influence in
    the gap computation (diagnostic use; the moments stay exact).
    """
    g = fourier_transform(f)
    if abs(g.variance() - 1.0) > 1e-9:
        raise ValueError("f must be variance-normalized (unit nonconstant mass)")
    d = g.degree
    _, tau = influences(g)
    tau_eff = tau if tau_override is None else float(tau_override)
    mass = seen.mass(g.n)
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
