"""Probability distribution catalog.

Provides the closed set of densities used throughout the package: Gaussians,
uniform boxes, truncated Gaussians, 1-D products, and the log-concave
"bridge" densities that interpolate between a base density and its translate.
On top of the catalog it implements density-ratio sups over adaptive grids,
Rényi divergences, Gaussian mass of truncation sets, and bridge construction.

All densities are evaluable (``pdf``), samplable (``sample``), and carry a
bounding box used as the default search region for ratio sups.  Sampling is
deterministic given ``(seed, path)`` (:mod:`polytransfer.rng`); factor i of a
product draws at ``path + (Tag.FACTOR, i)``, rejection round i at ``path +
(Tag.ATTEMPT, i)``.  ``blocks(n, seed, path, size)`` yields row blocks of at
most ``size`` that concatenate to ``sample(n, seed, path)`` bit for bit; Gaussians,
uniform boxes and their products hold one block at a time (bounded memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mc import McEstimate, McSpec, mean_and_stderr
from .rng import Tag, make_rng

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Mass floors below which truncated sampling refuses to run.
REJECTION_FALLBACK_ACCEPTANCE = 1e-3
REJECTION_FAILURE_ACCEPTANCE = 1e-6


class DimensionMismatchError(ValueError):
    pass


class NotSPDError(ValueError):
    pass


class RejectionBudgetError(RuntimeError):
    """Raised when rejection sampling would silently bias results."""


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


class TruncationSet:
    """Measurable subset with a deterministic membership test."""

    def contains(self, x) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Halfspace(TruncationSet):
    """{x : normal . x <= offset}"""

    normal: tuple
    offset: float

    def contains(self, x):
        pts = _as_points(x, len(self.normal))
        return pts @ np.asarray(self.normal, dtype=float) <= self.offset + 0.0


@dataclass(frozen=True)
class IntervalUnion(TruncationSet):
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


@dataclass(frozen=True)
class BoxSet(TruncationSet):
    lo: tuple
    hi: tuple

    def contains(self, x):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        pts = _as_points(x, lo.size)
        return np.all((pts >= lo) & (pts <= hi), axis=1)


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
        raise NotImplementedError

    def sample(self, n: int, seed: int, path: tuple = ()) -> np.ndarray:
        raise NotImplementedError

    def blocks(self, n: int, seed: int, path: tuple, size: int):
        """Successive row blocks of at most ``size`` rows that concatenate to
        ``sample(n, seed, path)`` bit for bit.

        This default slices one full sample, which keeps the rejection and
        inverse-CDF samplers exact; densities that draw row by row override
        it to hold only one block.
        """
        sizes = _block_sizes(n, size)
        full = self.sample(n, seed, path)
        return (full[i * size:i * size + m] for i, m in enumerate(sizes))

    def bounding_box(self, k_sigma: float = 8.0):
        """(lo, hi) box covering essentially all of the mass."""
        raise NotImplementedError


class Gaussian(Density):
    """Multivariate normal with SPD covariance."""

    log_concave = True

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        if cov.ndim == 1:
            cov = np.diag(cov)
        self.cov = cov
        self.dim = self.mean.size
        if cov.shape != (self.dim, self.dim):
            raise DimensionMismatchError("mean/cov shapes disagree")
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
        from scipy.linalg import solve_triangular

        pts = _as_points(x, self.dim)
        y = solve_triangular(self._chol, (pts - self.mean).T, lower=True).T
        return self._log_norm - 0.5 * np.sum(y * y, axis=1)

    def pdf(self, x):
        return _maybe_scalar(np.exp(self.log_pdf(x)), x)

    def sample(self, n, seed, path=()):
        z = make_rng(seed, *path).standard_normal((n, self.dim))
        return self.mean + rowwise_matmul(z, self._chol.T)

    def blocks(self, n, seed, path, size):
        rng = make_rng(seed, *path)
        return (self.mean + rowwise_matmul(rng.standard_normal((m, self.dim)), self._chol.T)
                for m in _block_sizes(n, size))

    def bounding_box(self, k_sigma=8.0):
        sd = np.sqrt(np.diag(self.cov))
        return self.mean - k_sigma * sd, self.mean + k_sigma * sd


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

    def pdf(self, x):
        pts = _as_points(x, self.dim)
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        return _maybe_scalar(np.where(inside, self._density, 0.0), x)

    def sample(self, n, seed, path=()):
        return self.lo + make_rng(seed, *path).random((n, self.dim)) * (self.hi - self.lo)

    def blocks(self, n, seed, path, size):
        rng = make_rng(seed, *path)
        return (self.lo + rng.random((m, self.dim)) * (self.hi - self.lo)
                for m in _block_sizes(n, size))

    def bounding_box(self, k_sigma=8.0):
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

    def pdf(self, x):
        pts = _as_points(x, self.dim)
        out = np.ones(pts.shape[0])
        for i, f in enumerate(self.factors):
            out *= np.asarray(f.pdf(pts[:, i]))
        return _maybe_scalar(out, x)

    def sample(self, n, seed, path=()):
        return np.column_stack([f.sample(n, seed, (*path, Tag.FACTOR, i))[:, 0]
                                for i, f in enumerate(self.factors)])

    def blocks(self, n, seed, path, size):
        per_factor = [f.blocks(n, seed, (*path, Tag.FACTOR, i), size)
                      for i, f in enumerate(self.factors)]
        return (np.column_stack([b[:, 0] for b in cols]) for cols in zip(*per_factor))

    def bounding_box(self, k_sigma=8.0):
        los, his = zip(*(f.bounding_box(k_sigma) for f in self.factors))
        return np.concatenate(los), np.concatenate(his)


class TruncatedGaussian(Density):
    """N(mean, cov) conditioned on a truncation set.

    The normalizing mass is computed exactly for 1-D interval unions,
    halfspaces, and boxes with diagonal covariance; otherwise by Monte Carlo
    with a fixed internal seed so the pdf stays deterministic.
    """

    def __init__(self, mean, cov, trunc_set: TruncationSet, mass_mc: McSpec | None = None):
        self.base = Gaussian(mean, cov)
        self.dim = self.base.dim
        self.trunc_set = trunc_set
        est = gaussian_mass(self.base.mean, self.base.cov, trunc_set, mass_mc)
        self.mass = float(est)
        if self.mass <= 0:
            raise ValueError("truncation set has zero mass")
        self.label = f"trunc-gaussian(dim={self.dim}, mass={self.mass:.3g})"

    def pdf(self, x):
        pts = _as_points(x, self.dim)
        vals = np.asarray(self.base.pdf(pts), dtype=float).reshape(-1)
        inside = self.trunc_set.contains(pts)
        return _maybe_scalar(np.where(inside, vals / self.mass, 0.0), x)

    def sample(self, n, seed, path=()):
        if self.mass < REJECTION_FAILURE_ACCEPTANCE:
            raise RejectionBudgetError(
                f"acceptance rate {self.mass:.3g} below {REJECTION_FAILURE_ACCEPTANCE}"
            )
        if self.mass < REJECTION_FALLBACK_ACCEPTANCE:
            if self.dim == 1 and isinstance(self.trunc_set, IntervalUnion):
                return self._sample_inverse_cdf(n, seed, path)
            raise RejectionBudgetError(
                f"acceptance rate {self.mass:.3g} below {REJECTION_FALLBACK_ACCEPTANCE} "
                "and no inverse-CDF fallback for this set"
            )
        out = np.empty((n, self.dim))
        filled = 0
        for attempt in range(10_001):
            if filled == n:
                return out
            need = n - filled
            batch = max(64, int(1.5 * need / max(self.mass, 1e-12)))
            draws = self.base.sample(batch, seed, (*path, Tag.ATTEMPT, attempt))
            keep = draws[self.trunc_set.contains(draws)]
            take = min(need, keep.shape[0])
            out[filled:filled + take] = keep[:take]
            filled += take
        raise RejectionBudgetError("rejection sampling budget exhausted")

    def _sample_inverse_cdf(self, n, seed, path):
        from scipy.special import ndtr, ndtri

        mu = float(self.base.mean[0])
        sd = math.sqrt(float(self.base.cov[0, 0]))
        ints = self.trunc_set.intervals
        cdf_lo = np.array([ndtr((a - mu) / sd) for a, _ in ints])
        cdf_hi = np.array([ndtr((b - mu) / sd) for _, b in ints])
        weights = cdf_hi - cdf_lo
        total = weights.sum()
        rng = make_rng(seed, *path)
        u = rng.random(n) * total
        idx = np.searchsorted(np.cumsum(weights), u, side="left")
        idx = np.clip(idx, 0, len(ints) - 1)
        offset = u - np.concatenate(([0.0], np.cumsum(weights)))[idx]
        q = cdf_lo[idx] + offset
        return (ndtri(np.clip(q, 1e-300, 1 - 1e-16)) * sd + mu).reshape(-1, 1)

    def bounding_box(self, k_sigma=8.0):
        lo, hi = self.base.bounding_box(k_sigma)
        if self.dim == 1 and isinstance(self.trunc_set, IntervalUnion):
            a = min(a for a, _ in self.trunc_set.intervals)
            b = max(b for _, b in self.trunc_set.intervals)
            lo = np.maximum(lo, a if math.isfinite(a) else lo)
            hi = np.minimum(hi, b if math.isfinite(b) else hi)
        return lo, hi


class GaussianBridge(Density):
    """Log-concave bridge between N(m, cov) and its translate N(m + shift, cov).

    Realized as the normalized upper envelope of the translates
    ``sup_{t in [0, gamma]} N(0, cov; z - t e1)`` in coordinates where the
    shift points along e1 (an orthogonal rotation maps inputs there).  The
    envelope fills the gap between the two modes with the ridge of the base
    density, keeping both density ratios bounded by the normalizer
    ``Z = 1 + gamma * sqrt((cov^-1)_11 / (2 pi))``.
    """

    log_concave = True

    def __init__(self, gamma: float, cov=None, rotation=None, dim: int | None = None,
                 label: str | None = None):
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        if cov is None:
            if dim is None:
                raise ValueError("need cov or dim")
            cov = np.eye(dim)
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        self.gamma = float(gamma)
        self.base = Gaussian(np.zeros(cov.shape[0]), cov)
        self.dim = self.base.dim
        self.rotation = None if rotation is None else np.asarray(rotation, dtype=float)
        self._prec = np.linalg.inv(cov)
        self._a11 = float(self._prec[0, 0])  # equals det(cov')/det(cov) by Cramer's rule
        self.z_const = 1.0 + self.gamma * math.sqrt(self._a11 / (2 * math.pi))
        self.label = label or f"gaussian-bridge(gamma={self.gamma:.4g}, dim={self.dim})"

    def _rotate(self, pts):
        return pts if self.rotation is None else pts @ self.rotation.T

    def _unrotate(self, pts):
        return pts if self.rotation is None else pts @ self.rotation

    def pdf(self, x):
        pts = self._rotate(_as_points(x, self.dim))
        t = np.clip((pts @ self._prec[0]) / self._a11, 0.0, self.gamma)
        shifted = pts.copy()
        shifted[:, 0] -= t
        vals = np.asarray(self.base.pdf(shifted), dtype=float).reshape(-1) / self.z_const
        return _maybe_scalar(vals, x)

    def sample(self, n, seed, path=()):
        rng = make_rng(seed, *path)
        z = rng.standard_normal((n, self.dim)) @ self.base._chol.T
        c = (z @ self._prec[0]) / self._a11          # N(0, 1/a11), indep of the projection
        proj = z - np.outer(c, np.eye(self.dim)[0])  # component with (prec x)_1 = 0
        u = rng.random(n)
        p_mid = (self.z_const - 1.0) / self.z_const
        p_left = 0.5 / self.z_const
        x1 = np.empty(n)
        mid = u < p_mid
        left = (~mid) & (u < p_mid + p_left)
        right = ~(mid | left)
        x1[mid] = rng.random(mid.sum()) * self.gamma
        x1[left] = -np.abs(c[left])
        x1[right] = self.gamma + np.abs(c[right])
        out = proj
        out[:, 0] += x1
        return self._unrotate(out)

    def bounding_box(self, k_sigma=8.0):
        lo, hi = self.base.bounding_box(k_sigma)
        hi = hi.copy()
        hi[0] += self.gamma
        if self.rotation is None:
            return lo, hi
        # rotate the box back conservatively: use the enclosing ball
        center = self._unrotate(((lo + hi) / 2).reshape(1, -1))[0]
        radius = 0.5 * float(np.linalg.norm(hi - lo))
        return center - radius, center + radius


def _householder_to_e1(v: np.ndarray) -> np.ndarray:
    """Orthogonal symmetric R with R @ v = ||v|| e1."""
    n = v.size
    gamma = np.linalg.norm(v)
    e1 = np.eye(n)[0]
    u = v / gamma - e1
    nu = np.linalg.norm(u)
    if nu < 1e-14:
        return np.eye(n)
    u = u / nu
    return np.eye(n) - 2.0 * np.outer(u, u)


class ProductBridge(Density):
    """Bridge from a log-concave product density to its translate along e1.

    Factors must be 1-D, log-concave, with their mode at 0.  The first
    coordinate's density is frozen at its modal value across the gap
    ``(0, gamma)``; the normalizer is ``Z = 1 + gamma * phi1(0)``.
    """

    log_concave = True

    def __init__(self, factors, gamma: float):
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        self.factors = list(factors)
        if any(f.dim != 1 for f in self.factors):
            raise DimensionMismatchError("factors must be 1-D")
        self.dim = len(self.factors)
        self.gamma = float(gamma)
        self._phi1_0 = float(np.asarray(self.factors[0].pdf(0.0)))
        if self._phi1_0 <= 0:
            raise ValueError("first factor must have positive density at its mode 0")
        self.z_const = 1.0 + self.gamma * self._phi1_0
        self.label = f"product-bridge(gamma={self.gamma:.4g}, dim={self.dim})"

    def pdf(self, x):
        pts = _as_points(x, self.dim)
        x1 = pts[:, 0]
        f1 = np.asarray(self.factors[0].pdf(x1), dtype=float).reshape(-1)
        f1_shift = np.asarray(self.factors[0].pdf(x1 - self.gamma), dtype=float).reshape(-1)
        first = np.where(x1 < 0, f1, np.where(x1 > self.gamma, f1_shift, self._phi1_0))
        rest = np.ones(pts.shape[0])
        for i, f in enumerate(self.factors[1:], start=1):
            rest *= np.asarray(f.pdf(pts[:, i]), dtype=float).reshape(-1)
        return _maybe_scalar(first * rest / self.z_const, x)

    def _factor1_mass_below0(self) -> float:
        from scipy.integrate import quad

        lo, hi = self.factors[0].bounding_box(10.0)
        return quad(lambda t: float(np.asarray(self.factors[0].pdf(t))), float(lo[0]), 0.0,
                    limit=200)[0]

    def sample(self, n, seed, path=()):
        rng = make_rng(seed, *path)
        m_left = self._factor1_mass_below0()
        p_left = m_left / self.z_const
        p_mid = self.gamma * self._phi1_0 / self.z_const
        u = rng.random(n)
        x1 = np.empty(n)
        # sign-conditioned draws from factor 1 by rejection
        need_left = int((u < p_left).sum())
        need_right = int((u >= p_left + p_mid).sum())
        lefts, rights = [], []
        attempt = 0
        while len(lefts) < need_left or len(rights) < need_right:
            draws = self.factors[0].sample(max(256, 4 * n), seed,
                                           (*path, Tag.ATTEMPT, attempt))[:, 0]
            lefts.extend(draws[draws <= 0].tolist())
            rights.extend(draws[draws > 0].tolist())
            attempt += 1
            if attempt > 10_000:
                raise RejectionBudgetError("factor-conditional sampling budget exhausted")
        mask_left = u < p_left
        mask_mid = (~mask_left) & (u < p_left + p_mid)
        mask_right = ~(mask_left | mask_mid)
        x1[mask_left] = np.array(lefts[:need_left])
        x1[mask_mid] = rng.random(int(mask_mid.sum())) * self.gamma
        x1[mask_right] = self.gamma + np.array(rights[:need_right])
        return np.column_stack([x1] + [f.sample(n, seed, (*path, Tag.FACTOR, i))[:, 0]
                                       for i, f in enumerate(self.factors[1:], start=1)])

    def bounding_box(self, k_sigma=8.0):
        los, his = zip(*(f.bounding_box(k_sigma) for f in self.factors))
        lo = np.concatenate(los)
        hi = np.concatenate(his)
        hi[0] += self.gamma
        return lo, hi


def bridge_1d(mu: float) -> Density:
    """Bridge between N(0,1) and N(mu,1) on the line; Z = 1 + |mu|/sqrt(2 pi)."""
    if mu == 0:
        return Gaussian([0.0], [[1.0]])
    rotation = None if mu > 0 else -np.eye(1)
    return GaussianBridge(abs(mu), cov=np.eye(1), rotation=rotation,
                          label=f"bridge1d(mu={mu:.4g})")


def bridge_nd(mu) -> Density:
    """Bridge between N(0,I) and N(mu,I); internally rotated so mu || e1."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    gamma = float(np.linalg.norm(mu))
    if gamma == 0:
        return Gaussian(np.zeros(mu.size), np.eye(mu.size))
    rot = _householder_to_e1(mu)
    return GaussianBridge(gamma, cov=np.eye(mu.size), rotation=rot,
                          label=f"bridgeNd(|mu|={gamma:.4g}, dim={mu.size})")


def bridge_construct(kind: str, **params) -> Density:
    """Construct a catalog bridge density.

    Kinds: ``gaussian1d(mu)``, ``gaussianNd(mu)``,
    ``translated_product(factors, gamma)``, ``gaussian_general_cov(cov, gamma)``.
    A zero shift returns the base density itself.
    """
    if kind == "gaussian1d":
        return bridge_1d(float(params["mu"]))
    if kind == "gaussianNd":
        return bridge_nd(params["mu"])
    if kind == "translated_product":
        gamma = float(params["gamma"])
        factors = params["factors"]
        if gamma == 0:
            return Product(factors)
        return ProductBridge(factors, gamma)
    if kind == "gaussian_general_cov":
        cov = np.asarray(params["cov"], dtype=float)
        gamma = float(params["gamma"])
        if gamma == 0:
            return Gaussian(np.zeros(cov.shape[0]), cov)
        return GaussianBridge(gamma, cov=cov)
    raise ValueError(f"unknown bridge kind {kind!r}")


# ---------------------------------------------------------------------------
# Ratio sups, divergences, Gaussian mass
# ---------------------------------------------------------------------------


@dataclass
class GridSpec:
    """Search grid for ratio sups: bounding box plus per-axis resolution.

    When ``box`` is omitted the union of the two densities' bounding boxes
    (mean +- 8 sd per coordinate) is used and reported with the result.
    """

    points_per_dim: int | None = None
    box: tuple | None = None
    refine: bool = True
    k_sigma: float = 8.0


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
    p = np.asarray(P.pdf(pts), dtype=float).reshape(-1)
    q = np.asarray(Q.pdf(pts), dtype=float).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, p / q, 0.0)
    if np.any((p > 0) & (q == 0)):
        return math.inf, None
    if ratio.size == 0:
        raise ValueError("empty grid")
    i = int(np.argmax(ratio))
    return float(ratio[i]), pts[i]


def density_ratio_sup(P: Density, Q: Density, grid: GridSpec | None = None,
                      details: bool = False):
    """sup_x P(x)/Q(x) over an adaptive grid (one refinement pass).

    Exact for uniform-box pairs.  Returns +inf when P has mass where Q
    vanishes on the searched grid.
    """
    if P.dim != Q.dim:
        raise DimensionMismatchError("densities must share a dimension")
    grid = grid or GridSpec()

    if isinstance(P, UniformBox) and isinstance(Q, UniformBox):
        if np.all(P.lo >= Q.lo) and np.all(P.hi <= Q.hi):
            value = float(np.prod(Q.hi - Q.lo) / np.prod(P.hi - P.lo))
        else:
            value = math.inf
        res = RatioSupResult(value, P.lo, P.hi, None)
        return res if details else res.value

    if grid.box is not None:
        lo = np.atleast_1d(np.asarray(grid.box[0], dtype=float))
        hi = np.atleast_1d(np.asarray(grid.box[1], dtype=float))
    else:
        plo, phi = P.bounding_box(grid.k_sigma)
        qlo, qhi = Q.bounding_box(grid.k_sigma)
        lo = np.minimum(plo, qlo)
        hi = np.maximum(phi, qhi)
    m = grid.points_per_dim or _default_points(P.dim)
    if m < 2:
        raise ValueError("empty grid")

    axes = _grid_axes(lo, hi, m)
    best, arg = _eval_ratio_on_grid(P, Q, axes)
    if math.isfinite(best) and grid.refine and arg is not None:
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
                     grid: GridSpec | None = None) -> McEstimate:
    """D_alpha(P || Q) = (E_{x~Q} [(P(x)/Q(x))^alpha])^(1/alpha).

    alpha = +inf routes to the density-ratio sup.  An infinite ratio at a
    sampled point yields +inf with a flag rather than a silent average.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if math.isinf(alpha):
        val = density_ratio_sup(P, Q, grid)
        return McEstimate(float(val), 0.0)
    x = Q.sample(mc.n_samples, mc.seed, mc.path)
    p = np.asarray(P.pdf(x), dtype=float).reshape(-1)
    q = np.asarray(Q.pdf(x), dtype=float).reshape(-1)
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


def gaussian_mass(mean, cov, trunc_set: TruncationSet, mc: McSpec | None = None) -> McEstimate:
    """Mass of ``trunc_set`` under N(mean, cov).

    Exact (CDF differences) for 1-D interval unions, any-dimension
    halfspaces, and boxes with diagonal covariance; Monte Carlo otherwise.
    """
    from scipy.special import ndtr

    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    if cov.ndim == 1:
        cov = np.diag(cov)
    dim = mean.size

    if isinstance(trunc_set, IntervalUnion):
        if dim != 1:
            raise DimensionMismatchError("interval unions are 1-D sets")
        sd = math.sqrt(float(cov[0, 0]))
        total = 0.0
        for a, b in trunc_set.intervals:
            total += ndtr((b - mean[0]) / sd) - ndtr((a - mean[0]) / sd)
        return McEstimate(float(min(max(total, 0.0), 1.0)), 0.0)
    if isinstance(trunc_set, Halfspace):
        w = np.asarray(trunc_set.normal, dtype=float)
        mu = float(w @ mean)
        sd = math.sqrt(float(w @ cov @ w))
        return McEstimate(float(ndtr((trunc_set.offset - mu) / sd)), 0.0)
    if isinstance(trunc_set, BoxSet) and np.allclose(cov, np.diag(np.diag(cov))):
        sd = np.sqrt(np.diag(cov))
        lo = np.asarray(trunc_set.lo, dtype=float)
        hi = np.asarray(trunc_set.hi, dtype=float)
        per = ndtr((hi - mean) / sd) - ndtr((lo - mean) / sd)
        return McEstimate(float(np.prod(per)), 0.0)

    mc = mc or McSpec(200_000, seed=0)
    g = Gaussian(mean, cov)
    x = g.sample(mc.n_samples, mc.seed, mc.path)
    return mean_and_stderr(trunc_set.contains(x).astype(float))
