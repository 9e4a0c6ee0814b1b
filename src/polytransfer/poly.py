"""Multivariate polynomials of bounded total degree.

Supports two bases: raw monomials, and tensor products of Legendre
polynomials rescaled and normalized to be orthonormal under the uniform
measure on a declared box ("box basis").  High-degree fits should use the
box basis; raw monomials above degree ~10 are numerically unusable on wide
boxes.  Multi-indices are kept in graded lexicographic order throughout,
including in the text serialization.
"""

from __future__ import annotations

import math
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


def _legendre_monomial_matrix(degree: int, a: float, b: float) -> np.ndarray:
    """M[k, j] = coefficient of x^j in the k-th orthonormal box polynomial.

    The k-th basis function is sqrt(2k+1) * P_k((2x - a - b)/(b - a)),
    orthonormal under the uniform probability measure on [a, b].
    """
    from numpy.polynomial import Polynomial
    from numpy.polynomial.legendre import leg2poly

    scale = 2.0 / (b - a)
    shift = -(a + b) / (b - a)
    t_of_x = Polynomial([shift, scale])
    M = np.zeros((degree + 1, degree + 1))
    for k in range(degree + 1):
        ck = np.zeros(k + 1)
        ck[k] = 1.0
        pk = Polynomial(leg2poly(ck))(t_of_x)  # composition with the affine map
        coeffs = math.sqrt(2 * k + 1) * pk.coef
        M[k, : coeffs.size] = coeffs
    return M


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
        if self.basis not in (MONOMIAL, BOX):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.basis == BOX:
            if self.box is None:
                raise ValueError("box basis requires a declared box")
            lo = np.atleast_1d(np.asarray(self.box[0], dtype=float))
            hi = np.atleast_1d(np.asarray(self.box[1], dtype=float))
            self.box = (lo, hi)
        bad = [a for a in self.coeffs if len(a) != self.dim or sum(a) > self.degree]
        if bad:
            raise ValueError(f"multi-index {bad[0]} breaks the degree/dim contract")
        self.coeffs = {tuple(int(e) for e in a): float(c) for a, c in self.coeffs.items()}

    # -- evaluation ---------------------------------------------------------

    def _tables(self, pts: np.ndarray):
        if self.basis == MONOMIAL:
            return [np.vander(pts[:, i], self.degree + 1, increasing=True)
                    for i in range(self.dim)]
        lo, hi = self.box
        return [_legendre_values(pts[:, i], self.degree, lo[i], hi[i])
                for i in range(self.dim)]

    def eval(self, x):
        pts = np.asarray(x, dtype=float)
        scalar = pts.ndim == 1
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, expected {self.dim}")
        tables = self._tables(pts)
        out = np.zeros(pts.shape[0])
        for alpha, c in self.coeffs.items():
            term = np.full(pts.shape[0], c)
            for i, e in enumerate(alpha):
                if e:
                    term *= tables[i][:, e]
            out += term
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

    # -- basis conversion ---------------------------------------------------

    def to_monomial(self) -> "MultiPoly":
        if self.basis == MONOMIAL:
            return self
        lo, hi = self.box
        mats = [_legendre_monomial_matrix(self.degree, lo[i], hi[i]) for i in range(self.dim)]
        return self._convert(mats, MONOMIAL, None)

    def to_box(self, box) -> "MultiPoly":
        lo = np.atleast_1d(np.asarray(box[0], dtype=float))
        hi = np.atleast_1d(np.asarray(box[1], dtype=float))
        if self.basis == BOX:
            same = np.array_equal(self.box[0], lo) and np.array_equal(self.box[1], hi)
            return self if same else self.to_monomial().to_box((lo, hi))
        # x^j = sum_k inv(M)[j, k] phi_k
        mats = [np.linalg.inv(_legendre_monomial_matrix(self.degree, lo[i], hi[i]))
                for i in range(self.dim)]
        return self._convert(mats, BOX, (lo, hi))

    def _convert(self, mats, basis, box):
        out: dict = {}
        for alpha, c in self.coeffs.items():
            rows = [mats[i][e, : e + 1] for i, e in enumerate(alpha)]
            for combo in iter_product(*(range(r.size) for r in rows)):
                w = c
                for r, j in zip(rows, combo):
                    w *= r[j]
                if w != 0.0:
                    out[combo] = out.get(combo, 0.0) + w
        return MultiPoly(self.dim, self.degree, basis, out, box)


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
    lo_b = np.atleast_1d(np.asarray(basis_box[0], dtype=float))
    hi_b = np.atleast_1d(np.asarray(basis_box[1], dtype=float))
    dim = lo_b.size
    alphas = multi_indices(dim, degree)
    nodes, weights = np.polynomial.legendre.leggauss(6 * (degree + 1))

    def one_box_axis_grams(lo_r, hi_r):
        grams = []
        for i in range(dim):
            pts = 0.5 * (nodes + 1.0) * (hi_r[i] - lo_r[i]) + lo_r[i]
            w = 0.5 * weights  # normalized to the uniform measure on the axis
            tab = _legendre_values(pts, degree, lo_b[i], hi_b[i])
            grams.append((tab.T * w) @ tab)
        return grams

    def assemble(axis_grams):
        G = np.empty((len(alphas), len(alphas)))
        for a, alpha in enumerate(alphas):
            for b, beta in enumerate(alphas[: a + 1]):
                v = 1.0
                for i in range(dim):
                    v *= axis_grams[i][alpha[i], beta[i]]
                G[a, b] = G[b, a] = v
        return G

    lo_r = np.atleast_1d(np.asarray(region[0], dtype=float))
    hi_r = np.atleast_1d(np.asarray(region[1], dtype=float))
    vol_r = float(np.prod(hi_r - lo_r))
    G = vol_r * assemble(one_box_axis_grams(lo_r, hi_r))
    if subtract is not None:
        lo_s = np.atleast_1d(np.asarray(subtract[0], dtype=float))
        hi_s = np.atleast_1d(np.asarray(subtract[1], dtype=float))
        vol_s = float(np.prod(hi_s - lo_s))
        G = G - vol_s * assemble(one_box_axis_grams(lo_s, hi_s))
        vol_r -= vol_s
    return G / vol_r


def design_matrix(X: np.ndarray, degree: int, basis: str, box=None):
    X = np.asarray(X, dtype=float)
    dim = X.shape[1]
    alphas = multi_indices(dim, degree)
    proto = MultiPoly(dim, degree, basis, {tuple([0] * dim): 0.0},
                      box if basis == BOX else None)
    tables = proto._tables(X)
    A = np.empty((X.shape[0], len(alphas)))
    for j, alpha in enumerate(alphas):
        col = np.ones(X.shape[0])
        for i, e in enumerate(alpha):
            if e:
                col *= tables[i][:, e]
        A[:, j] = col
    return A, alphas


def fit_regression(X, y, degree: int, basis: str = MONOMIAL, ridge: float = 0.0,
                   box=None, penalty_matrix=None) -> FitResult:
    """Least-squares polynomial fit, optionally regularized.

    Minimizes sum (p(x_i) - y_i)^2 + ridge * ||coeffs||^2 (+ c' P c when a
    PSD ``penalty_matrix`` P in graded-lex coefficient order is supplied,
    e.g. a ``box_region_gram`` scaled by a strength).  With ridge = 0 and no
    penalty, a rank-deficient system raises ``RankDeficientError``
    suggesting a positive ridge.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    A, alphas = design_matrix(X, degree, basis, box)
    n, nb = A.shape
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if ridge == 0 and penalty_matrix is None:
        if n < nb:
            raise RankDeficientError(
                f"{n} samples for {nb} basis functions; add data or use ridge > 0")
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        if rank < nb:
            raise RankDeficientError(
                f"normal equations are rank deficient (rank {rank} < {nb}); use ridge > 0")
    else:
        G = A.T @ A + ridge * np.eye(nb)
        if penalty_matrix is not None:
            G = G + np.asarray(penalty_matrix, dtype=float)
        beta = np.linalg.solve(G, A.T @ y)
    coeffs = {alpha: float(b) for alpha, b in zip(alphas, beta)}
    p = MultiPoly(X.shape[1], degree, basis, coeffs, box if basis == BOX else None)
    resid = float(np.mean((A @ beta - y) ** 2))
    return FitResult(p, resid)


# ---------------------------------------------------------------------------
# Monte Carlo functionals
# ---------------------------------------------------------------------------


class NonFiniteValueError(RuntimeError):
    def __init__(self, point):
        super().__init__(f"non-finite value at point {point}")
        self.point = point


def _eval_batch(g, x):
    try:
        v = np.asarray(g(x), dtype=float).reshape(-1)
        if v.size != x.shape[0]:
            raise TypeError
    except (TypeError, ValueError):
        v = np.array([float(g(x[i])) for i in range(x.shape[0])])
    if not np.all(np.isfinite(v)):
        raise NonFiniteValueError(x[int(np.argmax(~np.isfinite(v)))])
    return v


def mc_functional(g, density, mc: McSpec, chunks: int = 1) -> McEstimate:
    """Sample mean and standard error of g under the density.

    ``g`` may be vectorized over an (m, dim) array or accept single points.
    Deterministic given the seed and path.  The draws
    ``density.sample(mc.n_samples, mc.seed, mc.path)`` are evaluated in
    ``chunks`` blocks of one stream, so ``chunks`` leaves the estimate
    unchanged bit for bit (for a ``g`` that evaluates each point on its
    own).  It bounds the points held at once only for ``Gaussian``,
    ``UniformBox`` and their products; the other densities draw the full
    sample first and hand it out in slices.  Non-finite values abort with
    the offending point.
    """
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    v = np.empty(mc.n_samples)
    start = 0
    for x in density.blocks(mc.n_samples, mc.seed, mc.path, -(-mc.n_samples // chunks)):
        v[start:start + x.shape[0]] = _eval_batch(g, x)
        start += x.shape[0]
    return mean_and_stderr(v)


# ---------------------------------------------------------------------------
# Restricted degree along lines
# ---------------------------------------------------------------------------


def line_degree(g, x0, direction, max_deg: int, rel_tol: float = DEGREE_REL_TOL,
                t_scale: float = 1.0) -> int:
    """Degree of t -> g(x0 + t*direction) as detected from a Chebyshev fit.

    Interpolates at max_deg + 2 Chebyshev nodes with a degree max_deg + 1
    polynomial and returns the largest index whose coefficient exceeds
    ``rel_tol`` relative to the largest one.  A return value of
    max_deg + 1 means the degree exceeds max_deg.
    """
    from numpy.polynomial import chebyshev

    x0 = np.asarray(x0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    npts = max_deg + 2
    t = t_scale * np.cos(np.pi * (2 * np.arange(npts) + 1) / (2 * npts))
    pts = x0 + np.outer(t, direction)
    vals = np.array([float(g(p)) for p in pts])
    c = chebyshev.chebfit(t / t_scale, vals, deg=max_deg + 1)
    top = np.max(np.abs(c))
    if top == 0:
        return 0
    sig = np.nonzero(np.abs(c) > rel_tol * top)[0]
    return int(sig[-1]) if sig.size else 0


def restricted_degree(g, dim: int, max_deg: int, lines: int = 20, seed: int = 0,
                      x0_scale: float = 0.5, rel_tol: float = DEGREE_REL_TOL,
                      t_scale: float = 1.0) -> int:
    """Max of ``line_degree`` over random lines through random base points."""
    rng = make_rng(seed)
    best = 0
    for _ in range(lines):
        x0 = x0_scale * rng.standard_normal(dim)
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        best = max(best, line_degree(g, x0, d, max_deg, rel_tol, t_scale))
    return best


# ---------------------------------------------------------------------------
# Serialization: one line per term, "e1 e2 ... en coefficient", graded-lex
# ---------------------------------------------------------------------------


def save_poly(p: MultiPoly, path) -> None:
    lines = [f"# basis={p.basis}"]
    if p.basis == BOX:
        lo, hi = p.box
        lines.append("# box_lo=" + " ".join(repr(float(v)) for v in lo))
        lines.append("# box_hi=" + " ".join(repr(float(v)) for v in hi))
    for alpha in sorted(p.coeffs, key=grlex_key):
        c = p.coeffs[alpha]
        lines.append(" ".join(str(e) for e in alpha) + " " + repr(c))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_poly(path) -> MultiPoly:
    basis = MONOMIAL
    box_lo = box_hi = None
    coeffs = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("basis="):
                    basis = body[len("basis="):]
                elif body.startswith("box_lo="):
                    box_lo = np.array([float(v) for v in body[len("box_lo="):].split()])
                elif body.startswith("box_hi="):
                    box_hi = np.array([float(v) for v in body[len("box_hi="):].split()])
                continue
            parts = line.split()
            alpha = tuple(int(e) for e in parts[:-1])
            coeffs[alpha] = float(parts[-1])
    if not coeffs:
        raise ValueError(f"no terms in {path}")
    dim = len(next(iter(coeffs)))
    degree = max(sum(a) for a in coeffs)
    box = (box_lo, box_hi) if basis == BOX else None
    return MultiPoly(dim, degree, basis, coeffs, box)
