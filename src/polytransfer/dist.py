"""Probability distribution catalog.

Provides the closed set of densities used throughout the package: Gaussians,
uniform boxes, 1-D truncated Gaussians, 1-D products, and the log-concave
"bridge" densities that interpolate between a base density (a Gaussian or a
product) and its translate: one ``Bridge`` envelope sup_{t in [0, gamma]}
base(x - t v) / Z (``bridge_1d(mu)`` is ``bridge_nd([mu])``).
On top of the catalog it implements density-ratio sups over adaptive grids,
Rényi divergences and bridge construction.

All densities are evaluable (``pdf``), samplable (``sample``), and carry a
bounding box used as the default search region for ratio sups.  A subclass
evaluates rows: its ``_pdf`` maps (m, dim) points to an (m,) array, and the
base class's ``pdf`` accepts a point (returning a float) or rows (returning
that array).  Code inside the package calls ``_pdf`` on rows.  Sampling is
deterministic given ``(seed, path)`` (:mod:`polytransfer.rng`); factor i of a
product draws at ``path + (Tag.FACTOR, i)``; a bridge draws its base at
``path`` and its plateau uniforms at ``path + (Tag.PLATEAU,)``.
``blocks(n, seed, path, size)`` yields row blocks of at most ``size`` that
concatenate to ``sample(n, seed, path)`` bit for bit; Gaussians, uniform boxes
and their products hold one block at a time (bounded memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mc import McEstimate, McSpec, mean_and_stderr
from .rng import Tag, make_rng

SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Half-width of a bounding box, in standard deviations per coordinate.
BOX_SIGMAS = 8.0


class DimensionMismatchError(ValueError):
    pass


class NotSPDError(ValueError):
    pass


def _as_points(x, dim: int) -> np.ndarray:
    """Normalize input to shape (m, dim); scalars allowed when dim == 1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if dim != 1:
            raise DimensionMismatchError(f"scalar point for dim={dim}")
        return a.reshape(1, 1)
    if a.ndim == 1:
        if dim == 1:
            return a.reshape(-1, 1)
        if a.shape[0] != dim:
            raise DimensionMismatchError(f"point has dim {a.shape[0]}, expected {dim}")
        return a.reshape(1, dim)
    if a.ndim == 2:
        if a.shape[1] != dim:
            raise DimensionMismatchError(f"points have dim {a.shape[1]}, expected {dim}")
        return a
    raise DimensionMismatchError("points must be at most 2-D")


def _block_sizes(n: int, size: int) -> list:
    if size < 1:
        raise ValueError("block size must be >= 1")
    return [min(size, n - start) for start in range(0, n, size)]


def rowwise_matmul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` for a 2-D ``m``, summed term by term over the last axis of ``a``.

    BLAS may round a row of a product differently with the number of rows
    (a single row, for one, takes another kernel), so draws evaluated in
    blocks would not match one whole batch.  Here every row sees the same
    operations in the same order whatever the row count; with one term (a
    1-D density, a scalar feature) it is a single product, the same bits as
    the matmul.
    """
    if m.shape[0] == 1:
        return a * m[0]
    cols = []
    for j in range(m.shape[1]):
        col = a[..., 0] * m[0, j]
        for k in range(1, a.shape[-1]):
            col += a[..., k] * m[k, j]
        cols.append(col)
    return np.stack(cols, axis=-1)


def _maybe_scalar(values: np.ndarray, x) -> float | np.ndarray:
    a = np.asarray(x)
    if a.ndim == 0 or (a.ndim == 1 and values.size == 1):
        return float(values[0])
    return values


# ---------------------------------------------------------------------------
# Truncation sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint ordered union of closed intervals on the real line."""

    intervals: tuple

    def __post_init__(self):
        ints = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ints)
        for a, b in ints:
            if not a < b:
                raise ValueError(f"empty or reversed interval [{a}, {b}]")
        for (_, b0), (a1, _) in zip(ints, ints[1:]):
            if not b0 < a1:
                raise ValueError("intervals must be disjoint and ordered")

    def contains(self, x):
        pts = _as_points(x, 1)[:, 0]
        out = np.zeros(pts.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (pts >= a) & (pts <= b)
        return out


# ---------------------------------------------------------------------------
# Density catalog
# ---------------------------------------------------------------------------


class Density:
    """Base class for catalog densities on R^n."""

    dim: int
    label: str = "density"

    #: True when the density is log-concave by construction.
    log_concave: bool = False

    def pdf(self, x):
        """Density at a point (a float) or at (m, dim) rows (an (m,) array)."""
        return _maybe_scalar(self._pdf(_as_points(x, self.dim)), x)

    def _pdf(self, pts: np.ndarray) -> np.ndarray:
        """Density at (m, dim) rows, as an (m,) array."""
        raise NotImplementedError

    def sample(self, n: int, seed: int, path: tuple = ()) -> np.ndarray:
        """``n`` draws as one block of ``blocks``; densities that cannot draw
        row by row override this instead (and inherit ``blocks``)."""
        return next(self.blocks(n, seed, path, max(n, 1)), np.empty((0, self.dim)))

    def blocks(self, n: int, seed: int, path: tuple, size: int):
        """Successive row blocks of at most ``size`` rows that concatenate to
        ``sample(n, seed, path)`` bit for bit.

        This default slices one full sample, which keeps the bridge and
        inverse-CDF samplers exact; densities that draw row by row override
        it to hold only one block.
        """
        sizes = _block_sizes(n, size)
        full = self.sample(n, seed, path)
        return (full[i * size:i * size + m] for i, m in enumerate(sizes))

    def bounding_box(self):
        """(lo, hi) box covering essentially all of the mass."""
        raise NotImplementedError


class Gaussian(Density):
    """Multivariate normal with a (dim, dim) SPD covariance."""

    log_concave = True

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.cov = cov = np.asarray(cov, dtype=float)
        self.dim = self.mean.size
        if cov.shape != (self.dim, self.dim):
            raise DimensionMismatchError("covariance must be (dim, dim) for the mean's dim")
        if not np.allclose(cov, cov.T):
            raise NotSPDError("covariance must be symmetric")
        try:
            self._chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as e:
            raise NotSPDError("covariance must be positive definite") from e
        self._log_norm = -0.5 * self.dim * math.log(2 * math.pi) - float(
            np.sum(np.log(np.diag(self._chol)))
        )
        self.label = f"gaussian(dim={self.dim})"

    def log_pdf(self, x):
        pts = _as_points(x, self.dim)
        y = np.linalg.solve(self._chol, (pts - self.mean).T).T
        return self._log_norm - 0.5 * np.sum(y * y, axis=1)

    def _pdf(self, pts):
        return np.exp(self.log_pdf(pts))

    def blocks(self, n, seed, path, size):
        rng = make_rng(seed, *path)
        return (self.mean + rowwise_matmul(rng.standard_normal((m, self.dim)), self._chol.T)
                for m in _block_sizes(n, size))

    def bounding_box(self):
        sd = np.sqrt(np.diag(self.cov))
        return self.mean - BOX_SIGMAS * sd, self.mean + BOX_SIGMAS * sd


class UniformBox(Density):
    log_concave = True

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatchError("lo/hi shapes disagree")
        if not np.all(self.lo < self.hi):
            raise ValueError("lo < hi must hold componentwise")
        self.dim = self.lo.size
        self._density = float(1.0 / np.prod(self.hi - self.lo))
        self.label = f"uniform[{np.array2string(self.lo)}..{np.array2string(self.hi)}]"

    def _pdf(self, pts):
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        return np.where(inside, self._density, 0.0)

    def blocks(self, n, seed, path, size):
        rng = make_rng(seed, *path)
        return (self.lo + rng.random((m, self.dim)) * (self.hi - self.lo)
                for m in _block_sizes(n, size))

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()


class Product(Density):
    """Product of independent 1-D factor densities."""

    def __init__(self, factors):
        self.factors = list(factors)
        if any(f.dim != 1 for f in self.factors):
            raise DimensionMismatchError("product factors must be 1-D")
        self.dim = len(self.factors)
        self.log_concave = all(f.log_concave for f in self.factors)
        self.label = f"product({', '.join(f.label for f in self.factors)})"

    def _pdf(self, pts):
        out = np.ones(pts.shape[0])
        for i, f in enumerate(self.factors):
            out *= f._pdf(pts[:, i:i + 1])
        return out

    def blocks(self, n, seed, path, size):
        per_factor = [f.blocks(n, seed, (*path, Tag.FACTOR, i), size)
                      for i, f in enumerate(self.factors)]
        return (np.column_stack([b[:, 0] for b in cols]) for cols in zip(*per_factor))

    def bounding_box(self):
        los, his = zip(*(f.bounding_box() for f in self.factors))
        return np.concatenate(los), np.concatenate(his)


class TruncatedGaussian(Density):
    """N(mean, var) on the line conditioned on an ``IntervalUnion``.

    The normalizing mass is ``gaussian_mass``, and draws invert the CDF
    exactly at any mass.  Any other set raises ``ValueError`` at
    construction, before a mass is computed.
    """

    dim = 1

    def __init__(self, mean: float, var: float, s: IntervalUnion):
        self.base = Gaussian([mean], [[var]])
        if not isinstance(s, IntervalUnion):
            raise ValueError("a truncated Gaussian needs an interval union")
        self.trunc_set = s
        self.mass = gaussian_mass(mean, var, s)
        if self.mass <= 0:
            raise ValueError("truncation set has zero mass")
        self.label = f"trunc-gaussian(dim={self.dim}, mass={self.mass:.3g})"

    def _pdf(self, pts):
        return np.where(self.trunc_set.contains(pts), self.base._pdf(pts) / self.mass, 0.0)

    def sample(self, n, seed, path=()):
        """Exact draws on the intervals by the inverse CDF, at any mass.

        Each interval is split at the mean and its upper half reflected, so
        every piece [lo, hi] (standard units, hi <= 0) inverts a lower-tail
        mass, which ``normal_interval_mass`` and ``NormalDist.inv_cdf``
        (Wichura's AS241) keep to full relative accuracy however deep the
        tail.  A draw picks a piece by its mass, then inverts
        Phi(lo) + u (Phi(hi) - Phi(lo)) with u in the open interval (0, 1).
        """
        from statistics import NormalDist   # only truncated draws pay for the import

        mu = float(self.base.mean[0])
        sd = math.sqrt(float(self.base.cov[0, 0]))
        pieces = []   # (lo, hi, sign, a, b): [lo, hi] in standard units, hi <= 0
        for a, b in self.trunc_set.intervals:
            za, zb = (a - mu) / sd, (b - mu) / sd
            if za < 0:
                pieces.append((za, min(zb, 0.0), 1.0, a, b))
            if zb > 0:
                pieces.append((-zb, -max(za, 0.0), -1.0, a, b))
        lo, hi, sign, a, b = np.array(pieces).T
        below = np.array([normal_interval_mass(-math.inf, z) for z in lo])
        mass = np.array([normal_interval_mass(*z) for z in zip(lo, hi)])
        rng = make_rng(seed, *path)
        k = rng.choice(mass.size, n, p=mass / mass.sum())   # never a piece of mass 0
        u = (rng.integers(0, 1 << 52, n) + 0.5) / (1 << 52)
        # a piece of subnormal mass can round its quantile to 0
        q = np.maximum(below[k] + u * mass[k], np.finfo(float).smallest_subnormal)
        z = np.fromiter(map(NormalDist().inv_cdf, q.tolist()), float, n)
        # rounding may step past an end of the piece; the set is closed
        return np.clip(mu + sd * sign[k] * z, a[k], b[k]).reshape(-1, 1)

    def bounding_box(self):
        lo, hi = self.base.bounding_box()
        ints = self.trunc_set.intervals
        return np.maximum(lo, ints[0][0]), np.minimum(hi, ints[-1][1])


class Bridge(Density):
    """Bridge between a base density and its translate by ``gamma * v``.

    The normalized envelope ``sup_{t in [0, gamma]} base(x - t v) / Z`` of
    the translates along the unit direction v.  The base's coordinate along
    v is c(x) = row . x / row . v, and x - c(x) v is independent of it; with
    f_c, the density of c, peaking at 0 the sup is at t = clip(c(x), 0,
    gamma), which defines the density: the base's ridge held across the gap,
    and Z = 1 + gamma * f_c(0).  Draws take the base at ``path`` and two
    uniforms per row at ``path + (Tag.PLATEAU,)``: with probability
    (Z - 1)/Z the row's c moves to a uniform point of [0, gamma], otherwise
    a c > 0 moves to c + gamma.  The mass 1/Z off the plateau puts f_c on
    each side of it, so the draws are exact for any f_c.
    """

    def __init__(self, base: Density, gamma: float, direction, row, peak: float):
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        if peak <= 0:
            raise ValueError("the base's coordinate must have positive density at 0")
        self.base, self.dim, self.gamma = base, base.dim, float(gamma)
        self.direction = np.asarray(direction, dtype=float)
        self._row = np.asarray(row, dtype=float)
        self._row_v = float(self._row @ self.direction)
        self.z_const = 1.0 + self.gamma * peak

    def _coordinate(self, pts):
        return (pts @ self._row) / self._row_v

    def _pdf(self, pts):
        t = np.clip(self._coordinate(pts), 0.0, self.gamma)
        return self.base._pdf(pts - np.outer(t, self.direction)) / self.z_const

    def sample(self, n, seed, path=()):
        x = self.base.sample(n, seed, path)
        c = self._coordinate(x)
        u, spot = make_rng(seed, *path, Tag.PLATEAU).random((2, n))
        p_mid = (self.z_const - 1.0) / self.z_const
        moved = np.where(u < p_mid, self.gamma * spot, np.where(c > 0, c + self.gamma, c))
        return x + np.outer(moved - c, self.direction)

    def bounding_box(self):
        lo, hi = self.base.bounding_box()
        shift = self.gamma * self.direction
        return np.minimum(lo, lo + shift), np.maximum(hi, hi + shift)


class GaussianBridge(Bridge):
    """Bridge between N(0, cov) and its translate by ``gamma * direction``
    (a unit vector, e1 by default); ``Z = 1 + gamma * sqrt(v' cov^-1 v / (2 pi))``."""

    log_concave = True

    def __init__(self, gamma: float, cov, direction=None, label: str | None = None):
        base = Gaussian(np.zeros(len(np.atleast_1d(cov))), cov)
        v = np.eye(base.dim)[0] if direction is None else np.asarray(direction, dtype=float)
        row = v @ np.linalg.inv(base.cov)
        super().__init__(base, gamma, v, row, math.sqrt(float(row @ v) / (2 * math.pi)))
        self.label = label or f"gaussian-bridge(gamma={self.gamma:.4g}, dim={self.dim})"


class ProductBridge(Bridge):
    """Bridge from a product of 1-D factor densities to its translate along e1.

    The bridge is log-concave when the factors are, with their modes at 0.
    The first coordinate's density is frozen at its value at 0 across the
    gap ``(0, gamma)``; the normalizer is ``Z = 1 + gamma * phi1(0)``.
    """

    def __init__(self, factors, gamma: float):
        base = Product(factors)
        self.factors = base.factors
        self.log_concave = base.log_concave
        e1 = np.eye(base.dim)[0]
        super().__init__(base, gamma, e1, e1, self.factors[0].pdf(0.0))
        self.label = f"product-bridge(gamma={self.gamma:.4g}, dim={self.dim})"


def bridge_1d(mu: float) -> Density:
    """Bridge between N(0,1) and N(mu,1) on the line, ``bridge_nd([mu])``;
    Z = 1 + |mu|/sqrt(2 pi)."""
    return bridge_nd([mu])


def bridge_nd(mu) -> Density:
    """Bridge between N(0,I) and N(mu,I): the shift runs along mu / |mu|."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    gamma = float(np.linalg.norm(mu))
    if gamma == 0:
        return Gaussian(np.zeros(mu.size), np.eye(mu.size))
    return GaussianBridge(gamma, np.eye(mu.size), direction=mu / gamma,
                          label=f"bridgeNd(|mu|={gamma:.4g}, dim={mu.size})")


def bridge_construct(kind: str, **params) -> Density:
    """Construct a catalog bridge density.

    Kinds: ``gaussian1d(mu)``, ``gaussianNd(mu)`` (both ``bridge_nd``),
    ``translated_product(factors, gamma)``, ``gaussian_general_cov(cov, gamma)``.
    A zero shift returns the base density itself.
    """
    if kind in ("gaussian1d", "gaussianNd"):
        return bridge_nd(params["mu"])
    if kind == "translated_product":
        gamma = float(params["gamma"])
        return ProductBridge(params["factors"], gamma) if gamma else Product(params["factors"])
    if kind == "gaussian_general_cov":
        bridge = GaussianBridge(float(params["gamma"]), params["cov"])
        return bridge if bridge.gamma else bridge.base
    raise ValueError(f"unknown bridge kind {kind!r}")


# ---------------------------------------------------------------------------
# Ratio sups, divergences, Gaussian mass
# ---------------------------------------------------------------------------


@dataclass
class RatioSupResult:
    value: float
    box_lo: np.ndarray
    box_hi: np.ndarray
    argmax: np.ndarray | None

    def __float__(self):
        return self.value


def _default_points(dim: int) -> int:
    return {1: 4001, 2: 201, 3: 41}.get(dim, 15)


def _grid_axes(lo, hi, m):
    return [np.linspace(lo[j], hi[j], m) for j in range(lo.size)]


def _eval_ratio_on_grid(P, Q, axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in mesh])
    p, q = P._pdf(pts), Q._pdf(pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, p / q, 0.0)
    if np.any((p > 0) & (q == 0)):
        return math.inf, None
    if ratio.size == 0:
        raise ValueError("empty grid")
    i = int(np.argmax(ratio))
    return float(ratio[i]), pts[i]


def density_ratio_sup(P: Density, Q: Density, points_per_dim: int | None = None,
                      details: bool = False):
    """sup_x P(x)/Q(x) over an adaptive grid (one refinement pass).

    The grid has ``points_per_dim`` points per axis (a default by dimension
    when None) over the union of the two densities' bounding boxes (mean +-
    ``BOX_SIGMAS`` sd per coordinate), which is reported with the result.
    Exact for uniform-box pairs.  Returns +inf when P has mass where Q
    vanishes on the searched grid.
    """
    if P.dim != Q.dim:
        raise DimensionMismatchError("densities must share a dimension")

    if isinstance(P, UniformBox) and isinstance(Q, UniformBox):
        if np.all(P.lo >= Q.lo) and np.all(P.hi <= Q.hi):
            value = float(np.prod(Q.hi - Q.lo) / np.prod(P.hi - P.lo))
        else:
            value = math.inf
        res = RatioSupResult(value, P.lo, P.hi, None)
        return res if details else res.value

    plo, phi = P.bounding_box()
    qlo, qhi = Q.bounding_box()
    lo = np.minimum(plo, qlo)
    hi = np.maximum(phi, qhi)
    m = points_per_dim or _default_points(P.dim)
    if m < 2:
        raise ValueError("empty grid")

    axes = _grid_axes(lo, hi, m)
    best, arg = _eval_ratio_on_grid(P, Q, axes)
    if math.isfinite(best) and arg is not None:
        # one refinement pass: a factor-10 finer grid around the argmax cell
        widths = (hi - lo) / (m - 1)
        sub_lo = np.maximum(lo, arg - widths)
        sub_hi = np.minimum(hi, arg + widths)
        fine = _grid_axes(sub_lo, sub_hi, max(21, m // 5))
        best2, arg2 = _eval_ratio_on_grid(P, Q, fine)
        if best2 > best:
            best, arg = best2, arg2
    res = RatioSupResult(best, lo, hi, arg)
    return res if details else res.value


def renyi_divergence(P: Density, Q: Density, alpha: float, mc: McSpec,
                     points_per_dim: int | None = None) -> McEstimate:
    """D_alpha(P || Q) = (E_{x~Q} [(P(x)/Q(x))^alpha])^(1/alpha).

    alpha = +inf routes to the density-ratio sup.  An infinite ratio at a
    sampled point yields +inf with a flag rather than a silent average.
    D_alpha(Q || Q) = 1 exactly, with no draws.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if P.dim != Q.dim:
        raise DimensionMismatchError("densities must share a dimension")
    if P is Q:
        return McEstimate(1.0, 0.0)
    if math.isinf(alpha):
        val = density_ratio_sup(P, Q, points_per_dim)
        return McEstimate(float(val), 0.0)
    x = Q.sample(mc.n_samples, mc.seed, mc.path)
    p, q = P._pdf(x), Q._pdf(x)
    bad = (p > 0) & (q == 0)
    if np.any(bad):
        return McEstimate(math.inf, math.nan, flag="infinite-ratio")
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(q > 0, p / q, 0.0)
    est = mean_and_stderr(r ** alpha)
    if est.flag:
        return est
    if est.value <= 0:
        return McEstimate(0.0, 0.0, flag="degenerate")
    value = est.value ** (1.0 / alpha)
    stderr = est.stderr * value / (alpha * est.value)  # delta method on m^(1/alpha)
    return McEstimate(value, stderr)


def normal_interval_mass(za: float, zb: float) -> float:
    """Standard normal mass of [za, zb]; right of the mean it takes the upper
    tail, where Phi(zb) - Phi(za) would cancel."""
    if za > 0:
        return 0.5 * (math.erfc(za / _SQRT_2) - math.erfc(zb / _SQRT_2))
    return 0.5 * (math.erfc(-zb / _SQRT_2) - math.erfc(-za / _SQRT_2))


def gaussian_mass(mean: float, var: float, s: IntervalUnion) -> float:
    """Mass of the interval union ``s`` under N(mean, var): the sum of
    ``normal_interval_mass`` over its intervals, clamped to [0, 1].  A
    variance that is not > 0 raises ``NotSPDError``."""
    if not var > 0:
        raise NotSPDError("variance must be > 0")
    mu, sd = float(mean), math.sqrt(var)
    total = 0.0
    for a, b in s.intervals:
        total += normal_interval_mass((a - mu) / sd, (b - mu) / sd)
    return min(max(total, 0.0), 1.0)
