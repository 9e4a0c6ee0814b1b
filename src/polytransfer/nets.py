"""Small from-scratch feedforward network with backprop and AdaGrad.

Used by the extrapolation comparison experiments: a 6-hidden-layer,
110-unit network (five layers of 20 plus one of 10) on 2-D inputs with a
scalar output, trained on mean squared error.  Activations are ReLU or the
cubic polynomial sigma(x) = 3x^2 - 2x^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Tag, make_rng

RELU = "relu"
POLY = "poly"
DEFAULT_SIZES = (2, 20, 20, 20, 20, 20, 10, 1)
ADAGRAD_EPS = 1e-8
_FORWARD_ROWS = 1024  # rows per block in forward


class DivergenceError(RuntimeError):
    def __init__(self, message, model: "MLP | None" = None):
        super().__init__(message)
        self.model = model   # the weights that gave the diverged batch loss


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == RELU:
        return np.maximum(z, 0.0)
    return z * z * (3.0 - 2.0 * z)


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == RELU:
        return z > 0   # a 0/1 mask: multiplying by it is multiplying by 0.0 or 1.0
    return 6.0 * z * (1.0 - z)


@dataclass
class MLP:
    sizes: tuple
    activation: str
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    def copy(self) -> "MLP":
        return MLP(self.sizes, self.activation,
                   [w.copy() for w in self.weights], [b.copy() for b in self.biases])


def mlp_init(sizes=DEFAULT_SIZES, activation: str = RELU, seed: int = 0,
             init_scale: float = 1.0, path: tuple = ()) -> MLP:
    """Per-layer uniform +-init_scale/sqrt(fan_in) initialization at ``path``.

    The cubic activation amplifies pre-activations outside [-1, 1.5]; at
    the default scale a 6-layer polynomial net overflows on the very first
    forward pass, so polynomial-activation nets should be built with
    ``init_scale`` around 0.5.
    """
    if activation not in (RELU, POLY):
        raise ValueError(f"unknown activation {activation!r}")
    rng = make_rng(seed, *path)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = init_scale / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MLP(tuple(sizes), activation, weights, biases)


def forward(m: MLP, X) -> np.ndarray:
    """Batch forward pass, ``_FORWARD_ROWS`` rows at a time into one output
    array, so memory stays bounded; the last layer is affine."""
    x = np.asarray(X, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape[1] != m.sizes[0]:
        raise ValueError(f"input dim {x.shape[1]} != {m.sizes[0]}")
    last = len(m.weights) - 1
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _FORWARD_ROWS):
        a = x[start:start + _FORWARD_ROWS]
        for i, (w, b) in enumerate(zip(m.weights, m.biases)):
            z = a @ w + b
            a = z if i == last else _act(z, m.activation)
        out[start:start + _FORWARD_ROWS] = a[:, 0]
    return out


def backprop(m: MLP, X, y, out=None):
    """Mean-squared-error loss and its gradients for a batch.

    The gradients are written into ``out = (grads_w, grads_b)``, arrays of
    the layers' shapes, when it is given, and into new arrays otherwise.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    acts = [X]
    zs = []
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = acts[i] @ w
        z += b
        zs.append(z)
        acts.append(z if i == last else _act(z, m.activation))
    resid = acts[-1][:, 0] - y
    batch = X.shape[0]
    loss = float(np.add.reduce(resid ** 2) / batch)   # the bits of np.mean
    delta = (2.0 * resid / batch).reshape(-1, 1)
    grads_w, grads_b = out if out is not None else (
        [np.empty_like(w) for w in m.weights], [np.empty_like(b) for b in m.biases])
    for i in range(last, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = delta @ m.weights[i].T
            delta *= _act_grad(zs[i - 1], m.activation)
    return loss, grads_w, grads_b


def train_adagrad(m: MLP, X, y, epochs: int, rate: float, seed: int = 0,
                  batch_size: int = 64, eps: float = ADAGRAD_EPS,
                  divergence: float = 1e8):
    """Mini-batch AdaGrad on the MSE objective; returns (model, loss trace).

    Per-parameter scaling by accumulated squared gradients; the trace holds
    one mean training loss per epoch; epoch i shuffles at ``(Tag.EPOCH, i)``.
    A diverged batch raises :class:`DivergenceError` carrying its model.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    # the returned model's parameters and backprop's gradients are views into
    # two flat vectors of one layout, so one update covers every layer
    params = m.weights + m.biases
    splits = np.cumsum([p.size for p in params])[:-1]
    theta = np.concatenate([p.ravel() for p in params])
    grad, den = np.empty_like(theta), np.empty_like(theta)
    acc = np.zeros_like(theta)
    k = len(m.weights)
    tv, gv = ([v.reshape(p.shape) for v, p in zip(np.split(flat, splits), params)]
              for flat in (theta, grad))
    m = MLP(m.sizes, m.activation, tv[:k], tv[k:])
    grads = (gv[:k], gv[k:])
    trace = []
    n = X.shape[0]
    for epoch in range(epochs):
        order = make_rng(seed, Tag.EPOCH, epoch).permutation(n)
        Xo, yo = X[order], y[order]
        epoch_losses = []
        for start in range(0, n, batch_size):
            rows = slice(start, start + batch_size)
            loss = backprop(m, Xo[rows], yo[rows], out=grads)[0]
            if not math.isfinite(loss) or loss > divergence:
                raise DivergenceError(f"loss {loss} at epoch {epoch}", m)
            epoch_losses.append(loss)
            # theta -= rate * g / sqrt(acc + eps), with acc += g ** 2 first
            acc += np.multiply(grad, grad, out=den)
            np.sqrt(np.add(acc, eps, out=den), out=den)
            np.multiply(grad, rate, out=grad)
            theta -= np.divide(grad, den, out=grad)
        trace.append(float(np.mean(epoch_losses)))
    return m, trace
