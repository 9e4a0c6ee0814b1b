"""Truncated-statistics application: label-space truncation of regression noise.

Labels are y = f*(x) + eps with standard normal noise, observed only when y
falls in a truncation set S of the real line, a ``dist.IntervalUnion``.  The
truncated mean squared error of a model f averages E[(y - f(x_i))^2] over
y ~ N(f*(x_i), 1) conditioned on S; the full MSE drops the conditioning.  With
alpha = min_i N(f*(x_i), 1; S), a change of measure gives

    truncated_mse <= (1/alpha) * full_mse          (always), and
    full_mse <= (C / alpha^2) * truncated_mse      (anti-concentration route),

since (y - c)^2 is a nonnegative degree-2 polynomial of y and the
untruncated normal is log-concave.  The coefficient does not depend on the
complexity of f*.

Label-space expectations use the closed-form moments of the truncated normal
(Johnson, Kotz & Balakrishnan, *Continuous Univariate Distributions* vol. 1),
and alpha the exact interval mass ``dist.gaussian_mass``, so the inequality
checks carry no Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dist
from .transfer import HolderPair, TransferReport

EXACT_MASS_FLOOR = 1e-6   # least mass of S at one location that truncated_mse divides by
ALPHA_FLOOR = 1e-3        # least alpha that truncated_transfer_check reports on


class MassTooSmallError(ValueError):
    pass


@dataclass
class TruncatedRegressionInstance:
    """Covariates plus the true model and the label truncation set; a set
    that is not a ``dist.IntervalUnion`` raises ``ValueError``."""

    covariates: np.ndarray
    f_star: object                 # callable R^n -> R
    trunc_set: dist.IntervalUnion

    def __post_init__(self):
        if not isinstance(self.trunc_set, dist.IntervalUnion):
            raise ValueError("the label truncation set must be an interval union")
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


def truncated_mse(model, inst: TruncatedRegressionInstance) -> float:
    """(1/N) sum_i E_{y ~ N_S(f*(x_i), 1)} [(y - model(x_i))^2], exactly."""
    preds = np.array([float(model(x)) for x in inst.covariates])
    per_location = []
    for mu, c in zip(inst.locations, preds):
        m0, m1, m2 = truncated_normal_moments(mu, inst.trunc_set.intervals)
        if m0 < EXACT_MASS_FLOOR:
            raise MassTooSmallError(f"truncation mass {m0:.3g} below {EXACT_MASS_FLOOR}")
        per_location.append((m2 - 2.0 * c * m1 + c * c * m0) / m0)
    return float(np.mean(per_location))


def full_mse(model, inst: TruncatedRegressionInstance) -> float:
    """Same average without truncation: 1 + (f*(x_i) - model(x_i))^2 per point."""
    preds = np.array([float(model(x)) for x in inst.covariates])
    return float(np.mean(1.0 + (inst.locations - preds) ** 2))


def alpha_mass_min(inst: TruncatedRegressionInstance) -> float:
    """min_i N(f*(x_i), 1; S): the usable-mass floor of the instance."""
    return min(dist.gaussian_mass(mu, 1.0, inst.trunc_set) for mu in inst.locations)


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


def truncated_transfer_check(model, inst: TruncatedRegressionInstance,
                             constant: float = 1.0) -> TruncatedTransferResult:
    """Report both directions of the truncated/full MSE comparison; both
    sides are exact, so every standard error is 0."""
    alpha = alpha_mass_min(inst)
    if alpha < ALPHA_FLOOR:
        raise MassTooSmallError(f"alpha = {alpha:.3g} below the usable floor")
    t_mse = truncated_mse(model, inst)
    f_mse = full_mse(model, inst)
    holder = HolderPair(math.inf, 1.0)
    coeff_fwd = constant / alpha ** 2
    forward = TransferReport(
        kind="truncated-forward", degree=2, holder=holder, constant=constant,
        bridge="target-is-log-concave", coefficient=coeff_fwd,
        lhs=f_mse, lhs_se=0.0, rhs=coeff_fwd * t_mse, rhs_se=0.0)
    coeff_rev = 1.0 / alpha
    reverse = TransferReport(
        kind="truncated-reverse", degree=2, holder=holder, constant=1.0,
        bridge="change-of-measure", coefficient=coeff_rev,
        lhs=t_mse, lhs_se=0.0, rhs=coeff_rev * f_mse, rhs_se=0.0)
    return TruncatedTransferResult(alpha, t_mse, f_mse, forward, reverse)
