"""In-context learning of linear functions with linear self-attention.

A prompt packs N labeled examples and a query into the (n+1) x (N+1) matrix

    E = [x_1 ... x_N  x_query]
        [y_1 ... y_N     0   ]        y_i = w . x_i,

and the single-layer linear self-attention model with parameters
theta = (W_PV, W_KQ) and normalizer rho maps E to

    E + W_PV E (E^T W_KQ E) / rho.

The model's prediction for the query is the bottom-right output entry,
which collapses to the bilinear closed form

    (1/rho) e_{n+1}^T W_PV (E E^T) W_KQ x_tilde,     x_tilde = (x_query; 0).

Only the last row of W_PV reaches that entry.  The squared prediction error
at fixed parameters is a nonnegative polynomial of total degree 10 in the
prompt variables (x_1, ..., x_N, x_query, w), which is what makes the
transfer coefficient catalog applicable to distribution shifts here.
Training is mini-batch gradient descent on the Monte Carlo population loss
with exact gradients of the closed form; ``train_lsa`` returns (params, rows),
each row a tuple named by ``TRACE_COLUMNS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dist
from .mc import McEstimate, McSpec, mean_and_stderr
from .rng import Tag, make_rng
from .transfer import HolderPair, TransferReport, catalog_coefficient

DEFAULT_SHIFT_EXPONENT = 10  # degree of the fixed-parameter loss polynomial
# Prompts drawn and evaluated at a time by population_loss and the targets' shared
# pass: at 20 examples a (block, 20) temporary is 160 KiB, so one block's temporaries
# stay in a 2 MiB L2 cache.  8,192 takes ~1.5x as long; 2,048 runs as fast but peaks
# 1 MiB higher next to the squares the shared pass holds for every target.
POPULATION_BLOCK = 1024
INIT_SCALE = 0.01    # train_lsa's initial parameters are N(0, INIT_SCALE^2)
DIVERGENCE = 1e6     # train_lsa stops once a batch loss passes this
TRACE_COLUMNS = ("step", "loss", "grad_norm")   # one row of train_lsa's trace


class TrainingDivergedError(RuntimeError):
    def __init__(self, trace):
        super().__init__("training loss exceeded the divergence threshold")
        self.trace = trace   # the TRACE_COLUMNS rows recorded so far


@dataclass
class PromptDistribution:
    """Factor distributions for prompts: features, query, and weight vector."""

    p_x: dist.Density
    p_x_query: dist.Density
    p_h: dist.Density
    length: int

    def __post_init__(self):
        dims = {self.p_x.dim, self.p_x_query.dim, self.p_h.dim}
        if len(dims) != 1:
            raise ValueError("feature, query, and weight dimensions must agree")
        if self.length < 1:
            raise ValueError("prompt length must be >= 1")

    @property
    def dim(self) -> int:
        return self.p_x.dim

    @staticmethod
    def gaussian(n: int, length: int) -> "PromptDistribution":
        g = dist.Gaussian(np.zeros(n), np.eye(n))
        return PromptDistribution(g, g, g, length)


@dataclass
class PromptMatrix:
    """One realized prompt: the embedding E plus the generating w and query."""

    embedding: np.ndarray
    w: np.ndarray
    x_query: np.ndarray

    def __post_init__(self):
        if self.embedding[-1, -1] != 0.0:
            raise ValueError("the query label slot must be zero")


@dataclass
class LSAParams:
    w_pv: np.ndarray
    w_kq: np.ndarray
    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        self.w_pv = np.asarray(self.w_pv, dtype=float)
        self.w_kq = np.asarray(self.w_kq, dtype=float)

    @staticmethod
    def zeros(n: int, rho: float) -> "LSAParams":
        return LSAParams(np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1)), rho)

    @staticmethod
    def random(n: int, rho: float, seed: int, scale: float = INIT_SCALE) -> "LSAParams":
        rng = make_rng(seed)
        return LSAParams(scale * rng.standard_normal((n + 1, n + 1)),
                         scale * rng.standard_normal((n + 1, n + 1)), rho)

    def copy(self) -> "LSAParams":
        return LSAParams(self.w_pv.copy(), self.w_kq.copy(), self.rho)


def build_prompt(pd: PromptDistribution, seed: int) -> PromptMatrix:
    """Sample one prompt: the first prompt of ``_sample_batch`` at the root."""
    n, N = pd.dim, pd.length
    (X,), (x_query,), (w,) = _sample_batch(pd, 1, seed, ())
    y = X @ w
    E = np.zeros((n + 1, N + 1))
    E[:n, :N] = X.T
    E[n, :N] = y
    E[:n, N] = x_query
    return PromptMatrix(E, w, x_query)


def lsa_forward(E: np.ndarray, params: LSAParams) -> np.ndarray:
    """Full output matrix E + W_PV E (E^T W_KQ E) / rho."""
    E = np.asarray(E, dtype=float)
    if E.shape[0] != params.w_pv.shape[0]:
        raise ValueError("embedding and parameter shapes disagree")
    return E + params.w_pv @ E @ (E.T @ params.w_kq @ E) / params.rho


def predict_query(E: np.ndarray, params: LSAParams) -> float:
    """Bottom-right entry of the forward pass."""
    return float(lsa_forward(E, params)[-1, -1])


def predict_closed_form(E: np.ndarray, params: LSAParams) -> float:
    """(1/rho) e_{n+1}^T W_PV (E E^T) W_KQ (x_query; 0)."""
    E = np.asarray(E, dtype=float)
    x_tilde = E[:, -1].copy()
    x_tilde[-1] = 0.0
    g = E @ E.T
    return float(params.w_pv[-1] @ g @ (params.w_kq @ x_tilde) / params.rho)


def build_h(E_data: np.ndarray, x_query: np.ndarray, length: int) -> np.ndarray:
    """Kronecker quadratic-form matrix (X/2) (x) (E E^T / N) of the prediction.

    ``E_data`` holds the N labeled columns; X places the query on the
    off-diagonal blocks.  Symmetric whenever inputs are real.
    """
    E_data = np.asarray(E_data, dtype=float)
    x_query = np.asarray(x_query, dtype=float)
    n = x_query.size
    X = np.zeros((n + 1, n + 1))
    X[:n, n] = x_query
    X[n, :n] = x_query
    return np.kron(X / 2.0, E_data @ E_data.T / float(length))


# ---------------------------------------------------------------------------
# Population loss and training
# ---------------------------------------------------------------------------


def _prompt_blocks(pds, m: int, seed: int, path: tuple, size: int):
    """m prompts of each distribution in ``pds``, ``size`` at a time, as one list of
    (X, xq, W) per block: features at ``path``, queries and weights at QUERY, TASK.

    A factor object that several distributions share (at the same prompt
    length) is drawn once per block; each distribution sees the bits it
    would draw alone.
    """
    streams = {}

    def stream(density, count, *tags):
        key = (id(density), count, tags)
        if key not in streams:
            streams[key] = density.blocks(m * count, seed, (*path, *tags), size * count)
        return key

    keys = [(stream(pd.p_x, pd.length), stream(pd.p_x_query, 1, Tag.QUERY),
             stream(pd.p_h, 1, Tag.TASK)) for pd in pds]
    for drawn in zip(*streams.values()):
        block = dict(zip(streams, drawn))
        yield [(block[kx].reshape(-1, pd.length, pd.dim), block[kq], block[kh])
               for pd, (kx, kq, kh) in zip(pds, keys)]


def _sample_batch(pd: PromptDistribution, batch: int, seed: int, path: tuple):
    return next(_prompt_blocks([pd], batch, seed, path, batch))[0]


def _batch_predictions(X, xq, W, params: LSAParams):
    """Vectorized closed-form predictions for a batch of prompts.

    With data columns c_m = (x_m; y_m) and x_tilde = (x_query; 0), the Gram
    matrix E E^T is sum_m c_m c_m^T + x_tilde x_tilde^T, so for r the last
    row of W_PV and v = W_KQ x_tilde

        r^T (E E^T) v = sum_m (r . c_m)(c_m . v) + (r . x_tilde)(x_tilde . v).

    Neither E E^T nor the stacked columns are formed, and the products with
    r and W_KQ go through ``dist.rowwise_matmul``, so a prompt's prediction
    has the same bits in a batch of any size.  Returns
    (yhat, targets, y, rc, cv, rx, xv): the labels y_m, the projections
    r . c_m and c_m . v, and r . x_tilde, x_tilde . v, which the gradient
    reuses.
    """
    batch, N, n = X.shape
    r = params.w_pv[-1]
    y = np.einsum("bni,bi->bn", X, W)
    vq = dist.rowwise_matmul(xq, params.w_kq[:, :n].T)    # W_KQ x_tilde
    rc = dist.rowwise_matmul(X, r[:n, None])[..., 0]
    rc += y * r[n]
    cv = np.einsum("bni,bi->bn", X, vq[:, :n])
    cv += y * vq[:, n:]
    rx = dist.rowwise_matmul(xq, r[:n, None])[:, 0]
    xv = np.einsum("bi,bi->b", xq, vq[:, :n])
    yhat = (np.einsum("bm,bm->b", rc, cv) + rx * xv) / params.rho
    targets = np.einsum("bi,bi->b", W, xq)
    return yhat, targets, y, rc, cv, rx, xv


def population_loss(pd: PromptDistribution, params: LSAParams,
                    mc: McSpec) -> McEstimate:
    """Monte Carlo estimate of E[(yhat_query - w . x_query)^2].

    The prompts of ``_sample_batch(pd, mc.n_samples, mc.seed, mc.path)`` are
    drawn and evaluated ``POPULATION_BLOCK`` at a time, so memory stays
    bounded and the estimate has the bits of one whole batch.
    """
    return _population_losses([pd], params, mc)[0]


def _population_losses(pds, params: LSAParams, mc: McSpec) -> list:
    """``population_loss`` of each distribution in ``pds``, in one pass over
    their prompt blocks, so the factor draws they share are made once."""
    sq = np.empty((len(pds), mc.n_samples))
    start = 0
    for block in _prompt_blocks(pds, mc.n_samples, mc.seed, mc.path, POPULATION_BLOCK):
        stop = start + block[0][1].shape[0]
        for row, (X, xq, W) in zip(sq, block):
            yhat, targets = _batch_predictions(X, xq, W, params)[:2]
            row[start:stop] = (yhat - targets) ** 2
        start = stop
    return [mean_and_stderr(row, overwrite=True) for row in sq]


def _gram_times(X, y, xq, proj, proj_x):
    """(E E^T) u per prompt, from proj = c_m . u and proj_x = x_tilde . u."""
    top = (proj[:, None, :] @ X)[:, 0, :] + xq * proj_x[:, None]
    return np.concatenate([top, np.einsum("bm,bm->b", y, proj)[:, None]], axis=1)


def loss_gradient(params: LSAParams, X, xq, W):
    """Loss and exact gradient on the prompt batch (X, xq, W) through the
    closed-form prediction.

    d yhat / d r = (E E^T) v / rho and d yhat / d W_KQ = (E E^T) r x_tilde^T
    / rho; both Gram products come from the projections of the prediction.
    """
    yhat, targets, y, rc, cv, rx, xv = _batch_predictions(X, xq, W, params)
    resid = 2.0 * (yhat - targets) / (X.shape[0] * params.rho)
    n = X.shape[2]
    grad_pv = np.zeros_like(params.w_pv)
    grad_pv[-1] = resid @ _gram_times(X, y, xq, cv, xv)
    grad_kq = np.zeros_like(params.w_kq)
    grad_kq[:, :n] = (_gram_times(X, y, xq, rc, rx) * resid[:, None]).T @ xq
    loss = float(np.mean((yhat - targets) ** 2))
    return loss, grad_pv, grad_kq


def train_lsa(pd: PromptDistribution, steps: int = 20_000, rate: float = 1e-2,
              batch: int = 256, seed: int = 0, record_every: int = 100):
    """Mini-batch gradient descent on the population loss.

    Returns (params, rows): a ``TRACE_COLUMNS`` row every ``record_every``
    steps, then (steps, final loss, 0.0).  Step i trains on the i-th
    ``batch`` prompts of one stream, ``_sample_batch(pd, steps * batch,
    seed, (Tag.STEP,))``, drawn a batch at a time; the final loss is
    estimated at ``(Tag.FINAL,)``, a path no training draw reaches.
    Gaussian feature distributions are the recommended (not enforced)
    setting for convergence.  Aborts when a loss passes ``DIVERGENCE``.
    """
    n = pd.dim
    params = LSAParams.random(n, float(pd.length), seed, INIT_SCALE)
    rows = []
    prompts = _prompt_blocks([pd], steps * batch, seed, (Tag.STEP,), batch)
    for step, [(X, xq, W)] in enumerate(prompts):
        loss, g_pv, g_kq = loss_gradient(params, X, xq, W)
        if not math.isfinite(loss) or loss > DIVERGENCE:
            raise TrainingDivergedError(rows)
        gnorm = math.sqrt(float(np.sum(g_pv ** 2) + np.sum(g_kq ** 2)))
        if step % record_every == 0:
            rows.append((step, loss, gnorm))
        params.w_pv -= rate * g_pv
        params.w_kq -= rate * g_kq
    final = population_loss(pd, params, McSpec(max(4096, batch), seed, (Tag.FINAL,)))
    rows.append((steps, final.value, 0.0))
    return params, rows


# ---------------------------------------------------------------------------
# Distribution-shift reports
# ---------------------------------------------------------------------------

# shift kind -> the prompt factor it shifts (``joint`` shifts several)
SHIFT_KINDS = {"task": "p_h", "query": "p_x_query", "covariate": "p_x", "joint": None}


def shift_report(params: LSAParams, source: PromptDistribution,
                 target: PromptDistribution, kind: str, mc: McSpec,
                 exponent: int = DEFAULT_SHIFT_EXPONENT,
                 constant: float = 1.0) -> TransferReport:
    """Loss under source vs target prompt distributions, with the catalog
    coefficient attached when the shifted factor pair admits a bridge.

    The exponent on the source-side ratio is a configuration stand-in for
    the unspecified absolute constant; default 10, the loss degree.
    """
    return shift_reports(params, source, [target], kind, mc, exponent, constant)[0]


def shift_reports(params: LSAParams, source: PromptDistribution, targets,
                  kind: str, mc: McSpec, exponent: int = DEFAULT_SHIFT_EXPONENT,
                  constant: float = 1.0) -> list:
    """``shift_report`` for each target against one source: the source loss
    is estimated once, and the target losses in one pass that draws the
    factors the targets share once, so each report equals its single-target
    call."""
    if kind not in SHIFT_KINDS:
        raise ValueError(f"shift kind must be one of {tuple(SHIFT_KINDS)}")
    l_p = population_loss(source, params, mc.child(Tag.SOURCE))
    if l_p.value <= 3.0 * l_p.stderr:
        raise ValueError("source loss is degenerate (within 3 se of zero)")
    targets = list(targets)
    l_qs = _population_losses(targets, params, mc.child(Tag.TARGET))
    return [_shift_report(source, target, kind, l_p, l_q, exponent, constant)
            for target, l_q in zip(targets, l_qs)]


def _shift_report(source, target, kind, l_p, l_q, exponent, constant):
    coefficient = math.inf
    bridge_label = "none"
    factor = SHIFT_KINDS[kind]
    pair = None if factor is None else (getattr(source, factor), getattr(target, factor))
    if pair is not None and all(isinstance(p, dist.Gaussian) for p in pair):
        p_fac, q_fac = pair
        if np.allclose(p_fac.cov, np.eye(p_fac.dim)) and np.allclose(q_fac.cov, np.eye(q_fac.dim)):
            delta = q_fac.mean - p_fac.mean
            bridge, z_power = catalog_coefficient("gaussianNd", exponent, mu=delta)
            coefficient = constant * z_power
            bridge_label = bridge.label

    return TransferReport(
        kind=f"icl-{kind}", degree=exponent, holder=HolderPair(math.inf, 1.0),
        constant=constant, bridge=bridge_label, coefficient=coefficient,
        lhs=l_q.value, lhs_se=l_q.stderr,
        rhs=coefficient * l_p.value, rhs_se=coefficient * l_p.stderr)


def loss_as_function_of_prompt(params: LSAParams, n: int, length: int):
    """The fixed-parameter loss as a map on the flattened prompt variables
    (x_1, ..., x_N, x_query, w) in R^(n(N+2)); degree <= 10 along any line."""

    def g(v):
        v = np.asarray(v, dtype=float)
        X = v[: n * length].reshape(length, n)
        xq = v[n * length: n * (length + 1)]
        w = v[n * (length + 1):]
        y = X @ w
        E = np.zeros((n + 1, length + 1))
        E[:n, :length] = X.T
        E[n, :length] = y
        E[:n, length] = xq
        yhat = predict_closed_form(E, params)
        return (yhat - float(w @ xq)) ** 2

    return g
