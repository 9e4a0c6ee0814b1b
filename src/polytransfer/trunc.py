"""Truncated-statistics application: label-space truncation of regression noise.

Labels are y = f*(x) + eps with standard normal noise, observed only when y
falls in a truncation set S of the real line.  The truncated mean squared
error of a model f averages E[(y - f(x_i))^2] over y ~ N(f*(x_i), 1)
conditioned on S; the full MSE drops the conditioning.  With
alpha = min_i N(f*(x_i), 1; S), a change of measure gives

    truncated_mse <= (1/alpha) * full_mse          (always), and
    full_mse <= (C / alpha^2) * truncated_mse      (anti-concentration route),

since (y - c)^2 is a nonnegative degree-2 polynomial of y and the
untruncated normal is log-concave.  The coefficient does not depend on the
complexity of f*.

Label-space expectations over interval unions use the closed-form moments
of the truncated normal (Johnson, Kotz & Balakrishnan, *Continuous
Univariate Distributions* vol. 1), keeping the inequality checks free of
Monte Carlo noise; general sets fall back to Monte Carlo.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import dist
from .mc import McEstimate, McSpec, mean_and_stderr
from .rng import Tag
from .transfer import HolderPair, TransferReport

EXACT_MASS_FLOOR = 1e-6
MC_MASS_FLOOR = 1e-3


class MassTooSmallError(ValueError):
    pass


@dataclass
class TruncatedRegressionInstance:
    """Covariates plus the true model and the label truncation set."""

    covariates: np.ndarray
    f_star: object                 # callable R^n -> R
    trunc_set: dist.TruncationSet

    def __post_init__(self):
        X = np.asarray(self.covariates, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.shape[0] < 1:
            raise ValueError("need at least one covariate")
        self.covariates = X
        self.locations = np.array([float(self.f_star(x)) for x in X])
        if not np.all(np.isfinite(self.locations)):
            raise ValueError("f_star produced a non-finite location")


def _pdf_terms(z: float) -> tuple[float, float]:
    """(phi(z), z phi(z)) for the N(0, 1) density phi; both 0 at an infinite z."""
    if math.isinf(z):
        return 0.0, 0.0
    p = math.exp(-0.5 * z * z) / dist.SQRT_2PI
    return p, z * p


def truncated_normal_moments(mu: float, intervals) -> tuple[float, float, float]:
    """(mass, first moment, second moment) of N(mu, 1) restricted to intervals.

    With z_a = a - mu and z_b = b - mu, each interval [a, b] contributes

        m0 = Phi(z_b) - Phi(z_a)
        m1 = mu m0 + phi(z_a) - phi(z_b)
        m2 = (mu^2 + 1) m0 + 2 mu (phi(z_a) - phi(z_b)) + z_a phi(z_a) - z_b phi(z_b).

    The mass is ``dist.normal_interval_mass``, tail-accurate on either side.
    """
    m0 = m1 = m2 = 0.0
    for a, b in intervals:
        za, zb = a - mu, b - mu
        mass = dist.normal_interval_mass(za, zb)
        pa, za_pa = _pdf_terms(za)
        pb, zb_pb = _pdf_terms(zb)
        m0 += mass
        m1 += mu * mass + pa - pb
        m2 += (mu * mu + 1.0) * mass + 2.0 * mu * (pa - pb) + za_pa - zb_pb
    return m0, m1, m2


def sample_truncated_normal(mean: float, var: float, s: dist.TruncationSet,
                            n: int, seed: int, path: tuple = ()) -> np.ndarray:
    """Draws from N(mean, var) conditioned on s; all samples land inside s."""
    tg = dist.TruncatedGaussian([mean], [[var]], s)
    if tg.mass < EXACT_MASS_FLOOR:
        raise MassTooSmallError(f"truncation mass {tg.mass:.3g} below {EXACT_MASS_FLOOR}")
    return tg.sample(n, seed, path)[:, 0]


def _per_location_expected_sq(mu: float, c: float, s: dist.TruncationSet,
                              mc: McSpec | None, i: int) -> McEstimate:
    """E[(y - c)^2] for y ~ N(mu, 1) conditioned on s; exact (stderr 0) for
    interval-reducible sets, else the mean of squares drawn at location i's path."""
    intervals = dist.intervals_of(s)
    if intervals is not None:
        m0, m1, m2 = truncated_normal_moments(mu, intervals)
        if m0 < EXACT_MASS_FLOOR:
            raise MassTooSmallError(f"truncation mass {m0:.3g} below {EXACT_MASS_FLOOR}")
        return McEstimate((m2 - 2.0 * c * m1 + c * c * m0) / m0, 0.0)
    if mc is None:
        raise ValueError("general truncation sets need a Monte Carlo budget")
    tg = dist.TruncatedGaussian([mu], [[1.0]], s)   # one mass estimate, checked and drawn from
    if tg.mass < MC_MASS_FLOOR:
        raise MassTooSmallError(f"truncation mass {tg.mass:.3g} below {MC_MASS_FLOOR}")
    y = tg.sample(mc.n_samples, mc.seed, (*mc.path, Tag.LOCATION, i))[:, 0]
    return mean_and_stderr((y - c) ** 2)


def _truncated_mse_estimate(model, inst: TruncatedRegressionInstance,
                            mc: McSpec | None) -> McEstimate:
    """``truncated_mse`` with its standard error.

    Location i draws at ``mc``'s path plus ``(Tag.LOCATION, i)``; the mean of
    the per-location standard errors bounds that of the average.
    """
    preds = np.array([float(model(x)) for x in inst.covariates])
    ests = [_per_location_expected_sq(mu, c, inst.trunc_set, mc, i)
            for i, (mu, c) in enumerate(zip(inst.locations, preds))]
    return McEstimate(float(np.mean([e.value for e in ests])),
                      float(np.mean([e.stderr for e in ests])))


def truncated_mse(model, inst: TruncatedRegressionInstance,
                  mc: McSpec | None = None) -> float:
    """(1/N) sum_i E_{y ~ N_S(f*(x_i), 1)} [(y - model(x_i))^2]."""
    return _truncated_mse_estimate(model, inst, mc).value


def full_mse(model, inst: TruncatedRegressionInstance) -> float:
    """Same average without truncation: 1 + (f*(x_i) - model(x_i))^2 per point."""
    preds = np.array([float(model(x)) for x in inst.covariates])
    return float(np.mean(1.0 + (inst.locations - preds) ** 2))


def alpha_mass_min(inst: TruncatedRegressionInstance) -> float:
    """min_i N(f*(x_i), 1; S): the usable-mass floor of the instance."""
    masses = [float(dist.gaussian_mass([mu], [[1.0]], inst.trunc_set))
              for mu in inst.locations]
    return float(min(masses))


@dataclass
class TruncatedTransferResult:
    alpha: float
    truncated: float
    full: float
    forward: TransferReport    # full <= (C / alpha^2) truncated
    reverse: TransferReport    # truncated <= (1 / alpha) full

    @property
    def both_satisfied(self) -> bool:
        return self.forward.satisfied and self.reverse.satisfied


def save_instance(inst: TruncatedRegressionInstance, path) -> None:
    """Covariate CSV with a one-line truncation-set descriptor up top."""
    intervals = dist.intervals_of(inst.trunc_set)
    if intervals is None:
        raise ValueError("only interval-reducible sets serialize")
    desc = " ".join(f"{a!r}:{b!r}" for a, b in intervals)
    with open(path, "w", newline="") as fh:
        fh.write(f"# intervals {desc}\n")
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(inst.covariates.shape[1])])
        for row in inst.covariates:
            writer.writerow([repr(float(v)) for v in row])


def load_instance(path, f_star) -> TruncatedRegressionInstance:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# intervals "):
            raise ValueError("missing truncation-set descriptor line")
        pairs = []
        for token in header[len("# intervals "):].split():
            a, b = token.split(":")
            pairs.append((float(a), float(b)))
        rows = list(csv.reader(fh))
    X = np.array([[float(v) for v in row] for row in rows[1:]])
    return TruncatedRegressionInstance(X, f_star, dist.IntervalUnion(tuple(pairs)))


def truncated_transfer_check(model, inst: TruncatedRegressionInstance,
                             constant: float = 1.0,
                             mc: McSpec | None = None) -> TruncatedTransferResult:
    """Report both directions of the truncated/full MSE comparison."""
    alpha = alpha_mass_min(inst)
    if alpha < MC_MASS_FLOOR:
        raise MassTooSmallError(f"alpha = {alpha:.3g} below the usable floor")
    t_est = _truncated_mse_estimate(model, inst, mc)
    t_mse, t_se = t_est.value, t_est.stderr
    f_mse = full_mse(model, inst)   # exact: standard error 0
    holder = HolderPair(math.inf, 1.0)
    coeff_fwd = constant / alpha ** 2
    forward = TransferReport(
        kind="truncated-forward", degree=2, holder=holder, constant=constant,
        bridge="target-is-log-concave", coefficient=coeff_fwd,
        lhs=f_mse, lhs_se=0.0, rhs=coeff_fwd * t_mse, rhs_se=coeff_fwd * t_se)
    coeff_rev = 1.0 / alpha
    reverse = TransferReport(
        kind="truncated-reverse", degree=2, holder=holder, constant=1.0,
        bridge="change-of-measure", coefficient=coeff_rev,
        lhs=t_mse, lhs_se=t_se, rhs=coeff_rev * f_mse, rhs_se=0.0)
    return TruncatedTransferResult(alpha, t_mse, f_mse, forward, reverse)
