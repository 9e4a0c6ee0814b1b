"""Multivariate polynomials of bounded total degree.

Supports two bases: raw monomials, and tensor products of Legendre
polynomials rescaled and normalized to be orthonormal under the uniform
measure on a declared box ("box basis").  High-degree fits should use the
box basis; raw monomials above degree ~10 are numerically unusable on wide
boxes.  Multi-indices are kept in graded lexicographic order throughout.

One kernel, ``_tensor_columns``, forms every product over axes of per-axis
tables (design matrices, evaluation, region Grams).  ``MultiPoly.eval`` runs
it on fixed-size row blocks, filled into one buffer per call, and sums each
row on its own: memory stays bounded and a point's value does not depend on
its batch.  A regularized ``fit_regression`` sums
its normal equations over the same blocks, so it never holds the whole
design matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .mc import McEstimate, McSpec, mean_and_stderr
from .rng import make_rng

MONOMIAL = "monomial"
BOX = "box"

#: relative size below which a fitted line coefficient is treated as zero
DEGREE_REL_TOL = 1e-8


class RankDeficientError(np.linalg.LinAlgError):
    pass


def grlex_key(alpha):
    return (sum(alpha), alpha)


def multi_indices(dim: int, degree: int):
    """All multi-indices with total degree <= degree, graded-lex sorted."""
    out = [alpha for alpha in iter_product(range(degree + 1), repeat=dim)
           if sum(alpha) <= degree]
    out.sort(key=grlex_key)
    return out


def _legendre_values(points: np.ndarray, degree: int, a: float, b: float) -> np.ndarray:
    """Values table (n_points, degree+1) of the orthonormal box polynomials."""
    t = (2.0 * points - a - b) / (b - a)
    out = np.empty((points.size, degree + 1))
    out[:, 0] = 1.0
    if degree >= 1:
        out[:, 1] = t
    for k in range(1, degree):
        out[:, k + 1] = ((2 * k + 1) * t * out[:, k] - k * out[:, k - 1]) / (k + 1)
    norms = np.sqrt(2.0 * np.arange(degree + 1) + 1.0)
    return out * norms


def _as_box(box):
    return tuple(np.atleast_1d(np.asarray(b, dtype=float)) for b in box)


def _basis_box(basis: str, box):
    """The (lo, hi) arrays a box basis is scaled to; None for monomials."""
    if basis not in (MONOMIAL, BOX):
        raise ValueError(f"unknown basis {basis!r}")
    if basis == BOX and box is None:
        raise ValueError("box basis requires a declared box")
    return _as_box(box) if basis == BOX else None


def _axis_tables(pts: np.ndarray, degree: int, basis: str, box):
    """Per-axis tables (n_points, degree+1) of the 1-D basis at ``pts``."""
    if basis == MONOMIAL:
        return [np.vander(pts[:, i], degree + 1, increasing=True) for i in range(pts.shape[1])]
    lo, hi = _basis_box(basis, box)
    return [_legendre_values(pts[:, i], degree, lo[i], hi[i]) for i in range(pts.shape[1])]


_KERNEL_ROWS = 32  # rows per gather in _tensor_columns; sizes its only temporary
# rows per block in MultiPoly.eval and in regularized fits: a degree-20 block in
# two variables (231 columns) is 0.9 MiB, so one block stays in a 2 MiB L2
_EVAL_ROWS = 512
MC_BLOCK = 2 * _EVAL_ROWS  # rows per mc_functional block: whole _EVAL_ROWS blocks


def _tensor_columns(tables, alphas, out=None) -> np.ndarray:
    """out[:, j] = prod_i tables[i][:, alphas[j][i]], the axes multiplied in order; fills
    the leading rows of the caller's ``out`` (or a new array) a few gathered rows at a
    time, and returns them (no whole-matrix temporary)."""
    idx = np.array(alphas, dtype=np.intp).reshape(len(alphas), len(tables)).T
    n = tables[0].shape[0]
    out = np.empty((n, len(alphas))) if out is None else out[:n]
    for start in range(0, n, _KERNEL_ROWS):
        rows = slice(start, start + _KERNEL_ROWS)
        np.take(tables[0][rows], idx[0], axis=1, out=out[rows])
        for t, e in zip(tables[1:], idx[1:]):
            out[rows] *= t[rows][:, e]
    return out


def _design_blocks(pts, degree: int, basis: str, box, alphas):
    """(rows, A) per block of ``_EVAL_ROWS`` rows of ``pts``, A the block's design
    matrix, every block filled into the same buffer: use A before the next block."""
    buf = np.empty((min(_EVAL_ROWS, pts.shape[0]), len(alphas)))
    for start in range(0, pts.shape[0], _EVAL_ROWS):
        rows = slice(start, start + _EVAL_ROWS)
        yield rows, _tensor_columns(_axis_tables(pts[rows], degree, basis, box), alphas, buf)


@dataclass
class MultiPoly:
    """Sparse multivariate polynomial: map multi-index -> coefficient.

    ``basis`` is ``"monomial"`` or ``"box"``; the box basis requires the
    (lo, hi) box the Legendre factors are scaled to.
    """

    dim: int
    degree: int
    basis: str
    coeffs: dict
    box: tuple | None = None

    def __post_init__(self):
        self.box = _basis_box(self.basis, self.box)
        bad = [a for a in self.coeffs
               if len(a) != self.dim or sum(a) > self.degree or min(a, default=0) < 0]
        if bad:
            raise ValueError(f"multi-index {bad[0]} breaks the degree/dim contract")
        self.coeffs = {tuple(int(e) for e in a): float(c) for a, c in self.coeffs.items()}

    # -- evaluation ---------------------------------------------------------

    def eval(self, x):
        scalar = np.ndim(x) == 1
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, expected {self.dim}")
        alphas, c = list(self.coeffs), np.array(list(self.coeffs.values()))
        out = np.zeros(pts.shape[0])
        for rows, A in _design_blocks(pts, self.degree, self.basis, self.box, alphas):
            out[rows] = np.multiply(A, c, out=A).sum(axis=1)
        return float(out[0]) if scalar else out

    __call__ = eval

    # -- algebra ------------------------------------------------------------

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if (other.dim, other.basis) != (self.dim, self.basis):
            raise ValueError("operands must share dim and basis")
        if self.basis == BOX and not (
            np.array_equal(self.box[0], other.box[0]) and np.array_equal(self.box[1], other.box[1])
        ):
            raise ValueError("box bases must share the box")
        coeffs = dict(self.coeffs)
        for a, c in other.coeffs.items():
            coeffs[a] = coeffs.get(a, 0.0) - c
        return MultiPoly(self.dim, max(self.degree, other.degree), self.basis, coeffs, self.box)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)


def zero_poly(dim: int, basis: str = MONOMIAL, box=None) -> MultiPoly:
    return MultiPoly(dim, 0, basis, {tuple([0] * dim): 0.0}, box)


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    poly: MultiPoly
    residual_mse: float


def box_region_gram(degree: int, basis_box, region, subtract=None) -> np.ndarray:
    """Gram matrix of the box basis under the uniform measure on a region.

    ``region`` is a (lo, hi) box; ``subtract`` optionally removes an inner
    box (uniform measure on the set difference).  Pure geometry: used as a
    Tikhonov seminorm that keeps a fit small where it will be evaluated,
    which is what makes high-degree fits extrapolate instead of exploding.
    Entries factor into per-axis 1-D Grams computed by Gauss-Legendre.
    """
    lo_b, hi_b = _as_box(basis_box)
    alphas = multi_indices(lo_b.size, degree)
    nodes, weights = np.polynomial.legendre.leggauss(6 * (degree + 1))

    def box_gram(lo, hi):
        # vol * G, G[a, b] = prod_i g_i[alpha_a[i], alpha_b[i]] over the 1-D Grams g_i on
        # [lo_i, hi_i]; those are not bit-symmetric, so the lower triangle is mirrored
        rows = []
        for i, exps in enumerate(zip(*alphas)):
            pts = 0.5 * (nodes + 1.0) * (hi[i] - lo[i]) + lo[i]
            tab = _legendre_values(pts, degree, lo_b[i], hi_b[i])
            rows.append(((tab.T * (0.5 * weights)) @ tab)[list(exps)])
        G = _tensor_columns(rows, alphas)
        for a in range(len(alphas)):
            G[a, a + 1:] = G[a + 1:, a]
        vol = float(np.prod(hi - lo))
        return np.multiply(G, vol, out=G), vol

    G, vol = box_gram(*_as_box(region))
    if subtract is not None:
        G_s, vol_s = box_gram(*_as_box(subtract))
        G, vol = np.subtract(G, G_s, out=G), vol - vol_s
    return np.divide(G, vol, out=G)  # in place: a freed temporary can stay resident


def design_matrix(X: np.ndarray, degree: int, basis: str, box=None):
    X = np.asarray(X, dtype=float)
    alphas = multi_indices(X.shape[1], degree)
    return _tensor_columns(_axis_tables(X, degree, basis, box), alphas), alphas


def fit_regression(X, y, degree: int, basis: str = MONOMIAL, ridge: float = 0.0,
                   box=None, penalty_matrix=None) -> FitResult:
    """Least-squares polynomial fit, optionally regularized.

    Minimizes sum (p(x_i) - y_i)^2 + ridge * ||coeffs||^2 (+ c' P c when a
    PSD ``penalty_matrix`` P in graded-lex coefficient order is supplied,
    e.g. a ``box_region_gram`` scaled by a strength).  A regularized fit
    solves the normal equations, summing A'A and A'y over blocks of
    ``_EVAL_ROWS`` design rows, so the whole design matrix is never formed.
    With ridge = 0 and no penalty the fit is ``lstsq`` on the full design
    matrix, and a rank-deficient system raises ``RankDeficientError``
    suggesting a positive ridge.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if ridge == 0 and penalty_matrix is None:
        A, alphas = design_matrix(X, degree, basis, box)
        n, nb = A.shape
        if n < nb:
            raise RankDeficientError(
                f"{n} samples for {nb} basis functions; add data or use ridge > 0")
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        if rank < nb:
            raise RankDeficientError(
                f"normal equations are rank deficient (rank {rank} < {nb}); use ridge > 0")
    else:
        alphas = multi_indices(X.shape[1], degree)
        G, rhs = _normal_equations(X, y, degree, basis, box, alphas, ridge)
        if penalty_matrix is not None:
            G += np.asarray(penalty_matrix, dtype=float)
        beta = np.linalg.solve(G, rhs)
    coeffs = {alpha: float(b) for alpha, b in zip(alphas, beta)}
    p = MultiPoly(X.shape[1], degree, basis, coeffs, box)
    return FitResult(p, float(np.mean((p.eval(X) - y) ** 2)))


def _normal_equations(X, y, degree, basis, box, alphas, ridge):
    """(ridge I + A'A, A'y) for the design matrix A of ``X``, summed over
    ``_design_blocks``; the block buffer is freed on return."""
    G, rhs = ridge * np.eye(len(alphas)), np.zeros(len(alphas))
    for rows, A in _design_blocks(X, degree, basis, box, alphas):
        G += A.T @ A
        rhs += A.T @ y[rows]
    return G, rhs


# ---------------------------------------------------------------------------
# Monte Carlo functionals
# ---------------------------------------------------------------------------


class NonFiniteValueError(RuntimeError):
    def __init__(self, point):
        super().__init__(f"non-finite value at point {point}")
        self.point = point


def _eval_batch(g, x):
    v = np.asarray(g(x), dtype=float).reshape(x.shape[0])
    if not np.all(np.isfinite(v)):
        raise NonFiniteValueError(x[int(np.argmax(~np.isfinite(v)))])
    return v


def mc_functional(g, density, mc: McSpec) -> McEstimate:
    """Sample mean and standard error of g under the density.

    ``g`` maps (m, dim) rows to m values; any other shape raises
    ``ValueError``.  Deterministic given the seed and path.  The draws
    ``density.sample(mc.n_samples, mc.seed, mc.path)`` are evaluated
    ``MC_BLOCK`` rows at a time from one stream, so the block size leaves
    the estimate unchanged bit for bit (for a ``g`` that evaluates each
    point on its own).  It bounds the points held at once only for
    ``Gaussian``, ``UniformBox`` and their products; the other densities
    draw the full sample first and hand it out in slices.  Non-finite
    values abort with the offending point.
    """
    v = np.empty(mc.n_samples)
    start = 0
    for x in density.blocks(mc.n_samples, mc.seed, mc.path, MC_BLOCK):
        v[start:start + x.shape[0]] = _eval_batch(g, x)
        start += x.shape[0]
    return mean_and_stderr(v, overwrite=True)


# ---------------------------------------------------------------------------
# Restricted degree along lines
# ---------------------------------------------------------------------------


def line_degree(g, x0, direction, max_deg: int) -> int:
    """Degree of t -> g(x0 + t*direction) as detected from a Chebyshev fit.

    Interpolates at max_deg + 2 Chebyshev nodes on [-1, 1] with a degree
    max_deg + 1 polynomial and returns the largest index whose coefficient
    exceeds ``DEGREE_REL_TOL`` relative to the largest one.  A return value
    of max_deg + 1 means the degree exceeds max_deg.
    """
    from numpy.polynomial import chebyshev

    x0 = np.asarray(x0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    npts = max_deg + 2
    t = np.cos(np.pi * (2 * np.arange(npts) + 1) / (2 * npts))
    pts = x0 + np.outer(t, direction)
    vals = np.array([float(g(p)) for p in pts])
    c = chebyshev.chebfit(t, vals, deg=max_deg + 1)
    top = np.max(np.abs(c))
    if top == 0:
        return 0
    sig = np.nonzero(np.abs(c) > DEGREE_REL_TOL * top)[0]
    return int(sig[-1]) if sig.size else 0


def restricted_degree(g, dim: int, max_deg: int, lines: int = 20, seed: int = 0) -> int:
    """Max of ``line_degree`` over random lines through base points drawn
    from N(0, I/4)."""
    rng = make_rng(seed)
    best = 0
    for _ in range(lines):
        x0 = 0.5 * rng.standard_normal(dim)
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        best = max(best, line_degree(g, x0, d, max_deg))
    return best
