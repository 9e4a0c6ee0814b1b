"""Generalization-on-the-unseen simulator for diagonal linear networks.

The network f(x) = b + sum_i (prod_l w_i^l) x_i is trained by discretized
gradient flow on the seen half of the hypercube {x : x_k = 1}, against a
linear target b* + sum_i c_i x_i.  With pi_i = prod_l w_i^l, the population
losses have exact closed forms

    seen loss   L_S = (b - b* + pi_k - c_k)^2 + sum_{i != k} (pi_i - c_i)^2
    full loss   L   = (b - b*)^2 + sum_i (pi_i - c_i)^2,

and the error's maximum influence is

    tau = max_i (pi_i - c_i)^2 / sum_i (pi_i - c_i)^2.

While tau stays below a threshold c0 the seen-to-unseen transfer inequality
applies with a fixed coefficient; the first crossing time of c0 is the
critical time t*.  The flow is explicit Euler with step halving whenever a
step would increase the seen loss (the continuous flow is monotone, so
monotonicity is the discretization fidelity criterion).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import make_rng

TAU_DENOM_FLOOR = 1e-18
DEFAULT_C0 = 0.25
DEFAULT_TIME_CONST = 1.0


@dataclass
class LinearTarget:
    """Linear function bias + coeffs . x on the hypercube."""

    bias: float
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)

    def __call__(self, x):
        return self.bias + np.asarray(x, dtype=float) @ self.coeffs


@dataclass
class DiagonalLinearNet:
    """Depth-L diagonal linear network with bias."""

    n: int
    depth: int
    bias: float
    weights: np.ndarray   # (depth, n)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if self.weights.shape != (self.depth, self.n):
            raise ValueError("weights must have shape (depth, n)")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @property
    def pi(self) -> np.ndarray:
        """Effective linear coefficients prod_l w_i^l."""
        return np.prod(self.weights, axis=0)

    def __call__(self, x):
        return self.bias + np.asarray(x, dtype=float) @ self.pi

    def copy(self) -> "DiagonalLinearNet":
        return DiagonalLinearNet(self.n, self.depth, self.bias, self.weights.copy())


def init_weights(n: int, depth: int, alpha: float, seed: int) -> DiagonalLinearNet:
    """All weights iid uniform on (-alpha, alpha), zero bias."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must be in (0, 1/2]")
    rng = make_rng(seed)
    w = rng.uniform(-alpha, alpha, size=(depth, n))
    return DiagonalLinearNet(n, depth, 0.0, w)


def max_init_scale(depth: int, eps: float, target: LinearTarget, k: int,
                   time_const: float = DEFAULT_TIME_CONST) -> float:
    """Largest initialization half-width keeping the frozen coordinate small.

    ((L-2) R T_eps + (8/eps)^((L-2)/L))^(1/(2-L)) with
    R = 1 + |bias + c_k| and T_eps = c log(R/eps).  The exponent degenerates
    at depth 2; that case returns the documented 1/2 fallback with a warning.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if depth == 2:
        warnings.warn("depth-2 exponent is degenerate; returning the 1/2 fallback",
                      RuntimeWarning, stacklevel=2)
        return 0.5
    if depth < 2:
        raise ValueError("depth must be >= 2")
    r = 1.0 + abs(target.bias + float(target.coeffs[k]))
    t_eps = time_const * math.log(r / eps)
    base = (depth - 2) * r * t_eps + (8.0 / eps) ** ((depth - 2) / depth)
    return base ** (1.0 / (2 - depth))


def _losses(delta: np.ndarray, b_err: float, k: int):
    """(L_S, L) from the coefficient gaps delta = pi - c and b_err = b - b*."""
    sq = float((delta * delta).sum())
    l_s = (b_err + delta[k]) ** 2 + (sq - float(delta[k] ** 2))
    return float(l_s), float(b_err ** 2 + sq)


def _max_influence(delta: np.ndarray) -> float:
    delta2 = delta * delta
    denom = float(delta2.sum())
    if denom <= TAU_DENOM_FLOOR:
        return float("nan")
    return float(delta2.max() / denom)


def _layer_cofactors(w: np.ndarray) -> np.ndarray:
    """Row l holds prod_{j != l} w_j, the factor d pi / d w_l."""
    if len(w) == 2:
        return w[::-1]
    ones = np.ones((1, w.shape[1]))
    prefix = np.cumprod(np.concatenate([ones, w[:-1]]), axis=0)
    suffix = np.cumprod(np.concatenate([ones, w[:0:-1]]), axis=0)[::-1]
    return prefix * suffix


def closed_form_losses(net: DiagonalLinearNet, target: LinearTarget, k: int):
    """(L_S, L): exact seen-conditional and full-population squared errors."""
    return _losses(net.pi - target.coeffs, net.bias - target.bias, k)


def error_max_influence(net: DiagonalLinearNet, target: LinearTarget) -> float:
    """tau = max_i (pi_i - c_i)^2 / sum_i (pi_i - c_i)^2; NaN once converged."""
    return _max_influence(net.pi - target.coeffs)


@dataclass
class GOTUTrace:
    """Recorded trajectory of the discretized flow."""

    times: list = field(default_factory=list)
    seen_loss: list = field(default_factory=list)
    full_loss: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    fhat_k: list = field(default_factory=list)

    def append(self, t, l_s, l_full, tau_val, fhat):
        self.times.append(t)
        self.seen_loss.append(l_s)
        self.full_loss.append(l_full)
        self.tau.append(tau_val)
        self.fhat_k.append(fhat)

    def rows(self):
        return zip(self.times, self.seen_loss, self.full_loss, self.tau, self.fhat_k)


def gradient_flow(net: DiagonalLinearNet, target: LinearTarget, k: int,
                  step: float = 1e-3, horizon: float = 10.0,
                  record_every: int = 10) -> tuple[DiagonalLinearNet, GOTUTrace]:
    """Explicit Euler on the negative seen-loss gradient.

    Halves the step whenever a step would increase L_S (and keeps the
    halved step).  Records every ``record_every`` accepted steps.  The loop
    carries the weights, the bias and pi = prod_l w_l as plain arrays;
    the gradient of L_S is 2 (b - b* + delta_k) in the bias and
    coeff * prod_{j != l} w_j in layer l, where coeff = 2 delta with entry
    k replaced by 2 (b - b* + delta_k).
    """
    if step > 1e-2:
        raise ValueError("step must be <= 1e-2")
    c, b_star = target.coeffs, target.bias
    w, b = net.weights.copy(), net.bias
    pi = np.multiply.reduce(w, axis=0)
    delta = pi - c
    trace = GOTUTrace()
    t = 0.0
    l_s, l_full = _losses(delta, b - b_star, k)
    trace.append(t, l_s, l_full, _max_influence(delta), float(pi[k]))
    count = 0
    while t < horizon:
        e0 = b - b_star + delta[k]
        coeff = 2.0 * delta
        coeff[k] = 2.0 * e0
        grad_b = 2.0 * e0
        grad_w = coeff * _layer_cofactors(w)
        while True:
            new_b = b - step * grad_b
            new_w = w - step * grad_w
            new_pi = np.multiply.reduce(new_w, axis=0)
            new_delta = new_pi - c
            new_ls, new_l = _losses(new_delta, new_b - b_star, k)
            if new_ls <= l_s + 1e-9 or step < 1e-12:
                break
            step *= 0.5
        # a finite L_S needs finite gaps, so finite products, factors and bias
        if not math.isfinite(new_ls) and not (np.isfinite(new_w).all() and math.isfinite(new_b)):
            raise FloatingPointError("flow produced non-finite parameters")
        w, b, pi, delta = new_w, new_b, new_pi, new_delta
        t += step
        l_s, l_full = new_ls, new_l
        count += 1
        if count % record_every == 0:
            trace.append(t, l_s, l_full, _max_influence(delta), float(pi[k]))
    trace.append(t, l_s, l_full, _max_influence(delta), float(pi[k]))
    return DiagonalLinearNet(net.n, net.depth, b, w), trace


def critical_time(trace: GOTUTrace, c0: float = DEFAULT_C0) -> float | None:
    """First time tau(t) exceeds c0, linearly interpolated between records."""
    times = trace.times
    taus = trace.tau
    for j, tau_j in enumerate(taus):
        if math.isnan(tau_j):
            continue
        if tau_j > c0:
            if j == 0:
                return times[0]
            t0, t1 = times[j - 1], times[j]
            tau0 = taus[j - 1]
            if math.isnan(tau0) or tau_j == tau0:
                return t1
            frac = (c0 - tau0) / (tau_j - tau0)
            return t0 + frac * (t1 - t0)
    return None


def transfer_threshold_coefficient(mass: float = 0.5, k_d: float = 1.0) -> float:
    """Transfer coefficient recorded along traces: K_d * mass^(-2) for the
    degree-1 error under the canonical holdout."""
    return k_d * mass ** (-2)
