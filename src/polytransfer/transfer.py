"""Transfer inequalities for low-degree polynomials on R^n.

The source distribution P supplies the data, the target Q the evaluation
measure.  The naive change of measure bounds E_Q by ||dQ/dP||_inf * E_P,
which is useless whenever Q has mass where P does not.  For degree-d
polynomials, anti-concentration under a log-concave bridge measure mu gives
the far more robust bound

    E_Q |f|  <=  (C d)^d 2^(d beta) * D_alpha(Q||mu) D_alpha(P||mu)^(beta d)
                 * (E_P |f|^beta)^(1/beta),

with Hölder conjugates 1/alpha + 1/beta = 1.  When Q itself is log-concave
the bridge can be Q and the alpha = inf case collapses to
(2 C d)^d ||dP/dQ||_inf^d * E_P |f|.  The universal constant C is not pinned
by the theory; it is a configuration parameter (default 1) printed with
every report.

This module computes the coefficient formulas (in log-space, so degrees
d >= 5 do not overflow), measures both sides empirically, and knows the
closed-form coefficient catalog for Gaussian and translated log-concave
pairs via their bridge densities.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import dist
from .mc import McEstimate, McSpec
from .poly import MultiPoly, mc_functional
from .rng import Tag, make_rng

DEFAULT_C = 1.0


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents alpha, beta in [1, inf] with 1/alpha + 1/beta = 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if a < 1 or b < 1:
            raise ValueError("alpha and beta must be >= 1")
        inv = (0.0 if math.isinf(a) else 1.0 / a) + (0.0 if math.isinf(b) else 1.0 / b)
        if abs(inv - 1.0) > 1e-12:
            raise ValueError(f"1/alpha + 1/beta = {inv} != 1")

    @staticmethod
    def from_alpha(alpha: float) -> "HolderPair":
        if math.isinf(alpha):
            return HolderPair(math.inf, 1.0)
        if alpha == 1.0:
            return HolderPair(1.0, math.inf)
        return HolderPair(alpha, alpha / (alpha - 1.0))


@dataclass
class TransferReport:
    """Both sides of one transfer inequality: theory coefficient vs measurement.

    ``lhs`` is the target-side expectation, ``rhs`` the coefficient times the
    source-side value.  ``satisfied`` allows 3 combined standard errors of
    Monte Carlo slack.
    """

    kind: str
    degree: int
    holder: HolderPair
    constant: float
    bridge: str
    coefficient: float
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def satisfied(self) -> bool:
        slack = 3.0 * math.hypot(self.lhs_se, self.rhs_se)
        dust = 1e-12 * max(abs(self.lhs), abs(self.rhs), 1.0)  # exact-equality cases
        return bool(self.lhs <= self.rhs + slack + dust)

    CSV_HEADER = ["kind", "d", "alpha", "beta", "C", "coefficient",
                  "lhs", "lhs_se", "rhs", "rhs_se", "satisfied"]

    def csv_row(self):
        return [self.kind, self.degree, self.holder.alpha, self.holder.beta,
                self.constant, self.coefficient, self.lhs, self.lhs_se,
                self.rhs, self.rhs_se, self.satisfied]


def write_reports(path, reports) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TransferReport.CSV_HEADER)
        for r in reports:
            w.writerow(r.csv_row())


# ---------------------------------------------------------------------------
# Coefficient formulas
# ---------------------------------------------------------------------------


def carbery_wright_bound(d: int, q: float, gamma: float, moment: float,
                         constant: float = DEFAULT_C) -> float:
    """Anti-concentration bound P_mu[|f| <= gamma] <= C q gamma^(1/d) / moment^(1/q).

    ``moment`` is E_mu |f|^(q/d).  The result is clipped to [0, 1] so it can
    be reported as a probability bound.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0:
        return 0.0
    if moment <= 0:
        raise ValueError("moment must be > 0")
    val = constant * q * gamma ** (1.0 / d) / moment ** (1.0 / q)
    return float(min(max(val, 0.0), 1.0))


def bridge_transfer_coefficient(d: int, holder: HolderPair, div_q_mu: float,
                                div_p_mu: float, constant: float = DEFAULT_C) -> float:
    """(C d)^d * 2^(d beta) * D(Q||mu) * D(P||mu)^(beta d).

    The coefficient multiplying (E_P |f|^beta)^(1/beta); requires a finite
    beta.  Infinite divergences give +inf.
    """
    beta = holder.beta
    if math.isinf(beta):
        raise ValueError("beta must be finite (alpha = 1 path is not usable)")
    if div_q_mu < 1 or div_p_mu < 1:
        raise ValueError("divergences are >= 1 for probability densities")
    if math.isinf(div_q_mu) or math.isinf(div_p_mu):
        return math.inf
    log_c = (d * math.log(constant * d) + d * beta * math.log(2.0)
             + math.log(div_q_mu) + beta * d * math.log(div_p_mu))
    return math.exp(log_c)


def logconcave_transfer_coefficient(d: int, ratio_pq: float,
                                    constant: float = DEFAULT_C) -> float:
    """(2 C d)^d * ||dP/dQ||_inf^d, for log-concave targets Q."""
    if ratio_pq < 1:
        raise ValueError("||dP/dQ||_inf is >= 1 for probability densities")
    if math.isinf(ratio_pq):
        return math.inf
    return math.exp(d * (math.log(2.0 * constant * d) + math.log(ratio_pq)))


def optimal_gamma(d: int, beta: float, moment: float, div_p_mu: float,
                  constant: float = DEFAULT_C) -> float:
    """The threshold at which the small-ball bound equals 1/2.

    gamma = E_mu|f|^beta / (C beta d 2^beta D(P||mu)^beta)^(beta d); the
    choice balancing the two-sided estimate behind the transfer coefficient.
    Linear in the moment.
    """
    if moment < 0:
        raise ValueError("moment must be >= 0")
    if moment == 0:
        return 0.0
    log_den = beta * d * (math.log(constant * beta * d) + beta * math.log(2.0)
                          + beta * math.log(div_p_mu))
    return moment * math.exp(-log_den)


# ---------------------------------------------------------------------------
# Empirical measurement
# ---------------------------------------------------------------------------


@dataclass
class RatioResult:
    ratio: float
    lhs: McEstimate
    rhs: McEstimate
    degenerate: bool = False


def empirical_transfer_ratio(f: MultiPoly, P: dist.Density, Q: dist.Density,
                             power: int, mc: McSpec) -> RatioResult:
    """E_Q|f|^power / E_P|f|^power with per-side Monte Carlo estimates.

    A denominator within 3 standard errors of zero is flagged degenerate
    instead of returning a meaningless ratio.
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    if f.max_abs_coeff() == 0.0:
        raise ValueError("f must be nonzero")

    def g(x):
        return np.abs(f.eval(x)) ** power

    lhs = mc_functional(g, Q, mc.child(Tag.TARGET))
    rhs = mc_functional(g, P, mc.child(Tag.SOURCE))
    if rhs.value <= 3.0 * rhs.stderr:
        return RatioResult(math.nan, lhs, rhs, degenerate=True)
    return RatioResult(lhs.value / rhs.value, lhs, rhs)


# ---------------------------------------------------------------------------
# Closed-form coefficient catalog (bridge constructions)
# ---------------------------------------------------------------------------


def catalog_coefficient(kind: str, d: int, **params):
    """Bridge density and closed-form coefficient ||dQ/dnu|| * ||dP/dnu||^d.

    For the symmetric constructions both sups equal the bridge normalizer
    Z, so the coefficient is Z^(d+1) (computed in log-space).
    """
    bridge = dist.bridge_construct(kind, **params)
    z = getattr(bridge, "z_const", 1.0)
    coefficient = math.exp((d + 1) * math.log(z))
    return bridge, coefficient


LOG_CONCAVE_KINDS = (dist.Gaussian, dist.UniformBox, dist.GaussianBridge, dist.ProductBridge)


def verify_transfer(f: MultiPoly, P: dist.Density, Q: dist.Density, d: int,
                    holder: HolderPair, bridge: dist.Density | None = None,
                    constant: float = DEFAULT_C, mc: McSpec = McSpec(100_000, 0),
                    grid: dist.GridSpec | None = None,
                    kind: str = "euclidean") -> TransferReport:
    """Measure both sides of the transfer inequality and fill a report.

    Without a bridge, Q must be log-concave by catalog and the coefficient
    uses ||dP/dQ||; with a bridge, the two divergences against the bridge
    are measured (sups for alpha = inf, Monte Carlo otherwise).
    """
    beta = holder.beta
    if bridge is None:
        if not isinstance(Q, LOG_CONCAVE_KINDS) or not Q.log_concave:
            raise ValueError("Q is not log-concave by catalog; supply a bridge")
        if math.isinf(holder.alpha):
            ratio = float(dist.density_ratio_sup(P, Q, grid))
            coefficient = logconcave_transfer_coefficient(d, max(ratio, 1.0), constant)
        else:
            div = dist.renyi_divergence(P, Q, holder.alpha, mc, grid)
            coefficient = bridge_transfer_coefficient(
                d, holder, 1.0, max(div.value, 1.0), constant)
        bridge_label = "target-is-log-concave"
    else:
        if math.isinf(holder.alpha):
            dq = float(dist.density_ratio_sup(Q, bridge, grid))
            dp = float(dist.density_ratio_sup(P, bridge, grid))
        else:
            dq = dist.renyi_divergence(Q, bridge, holder.alpha, mc, grid).value
            dp = dist.renyi_divergence(P, bridge, holder.alpha, mc, grid).value
        coefficient = bridge_transfer_coefficient(
            d, holder, max(dq, 1.0), max(dp, 1.0), constant)
        bridge_label = bridge.label

    lhs = mc_functional(lambda x: np.abs(f.eval(x)), Q, mc.child(Tag.TARGET))

    def g_beta(x):
        return np.abs(f.eval(x)) ** beta

    src = mc_functional(g_beta, P, mc.child(Tag.SOURCE))
    if src.value <= 3.0 * src.stderr:
        raise ValueError("source-side moment is degenerate (within 3 se of zero)")
    src_pow = src.value ** (1.0 / beta)
    src_pow_se = src.stderr * src_pow / (beta * src.value)
    return TransferReport(
        kind=kind, degree=d, holder=holder, constant=constant, bridge=bridge_label,
        coefficient=coefficient, lhs=lhs.value, lhs_se=lhs.stderr,
        rhs=coefficient * src_pow, rhs_se=coefficient * src_pow_se,
    )


# ---------------------------------------------------------------------------
# Random polynomial ensembles
# ---------------------------------------------------------------------------


def random_polynomial(dim: int, degree: int, rng) -> MultiPoly:
    """Monomial-basis polynomial with iid standard normal coefficients,
    normalized to a unit coefficient vector (the documented ensemble)."""
    from .poly import multi_indices

    alphas = multi_indices(dim, degree)
    c = rng.standard_normal(len(alphas))
    c /= np.linalg.norm(c)
    return MultiPoly(dim, degree, "monomial", dict(zip(alphas, c)))


def abs_moment_uniform_1d(coeffs, a: float, b: float) -> float:
    """Exact E|p(x)| under U([a, b]) for a 1-D monomial-coefficient vector.

    Splits [a, b] at the real roots of p and integrates the antiderivative
    piecewise, so the kinks of |p| cost no accuracy.  This is the
    quadrature-free oracle behind the ensemble checks.
    """
    return _abs_moment(*_antiderivative_and_roots(coeffs), a, b)


def _antiderivative_and_roots(coeffs):
    from numpy.polynomial import Polynomial

    p = Polynomial(np.asarray(coeffs, dtype=float))
    return p.integ(), [r.real for r in p.roots() if abs(r.imag) < 1e-12]


def _abs_moment(anti, roots, a: float, b: float) -> float:
    """E|p| under U([a, b]) from p's antiderivative and its real roots."""
    cuts = [a] + sorted(r for r in roots if a < r < b) + [b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-15:
            continue
        total += abs(anti(hi) - anti(lo))
    return total / (b - a)


def ensemble_max_ratio(P_interval, Q_interval, degree: int, count: int,
                       seed: int) -> float:
    """Max over a seeded random ensemble of (E_Q|f| / E_P|f|)^(1/d).

    Expectations are exact (piecewise antiderivatives), so the result is
    deterministic given the seed.
    """
    rng = make_rng(seed)
    a_p, b_p = P_interval
    a_q, b_q = Q_interval
    worst = 0.0
    for _ in range(count):
        c = rng.standard_normal(degree + 1)
        c /= np.linalg.norm(c)
        anti, roots = _antiderivative_and_roots(c)
        e_p = _abs_moment(anti, roots, a_p, b_p)
        e_q = _abs_moment(anti, roots, a_q, b_q)
        if e_p <= 0:
            continue
        worst = max(worst, (e_q / e_p) ** (1.0 / degree))
    return worst
