"""Small from-scratch feedforward network with backprop and AdaGrad.

Used by the extrapolation comparison experiments: a 6-hidden-layer,
110-unit network (five layers of 20 plus one of 10) on 2-D inputs with a
scalar output, trained on mean squared error.  Activations are ReLU or the
cubic polynomial sigma(x) = 3x^2 - 2x^3.
"""

from __future__ import annotations

import math
import struct
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
        return (z > 0).astype(float)
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


def backprop(m: MLP, X, y):
    """Mean-squared-error loss and its gradients for a batch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    acts = [X]
    zs = []
    a = X
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w + b
        zs.append(z)
        a = z if i == last else _act(z, m.activation)
        acts.append(a)
    pred = acts[-1][:, 0]
    resid = pred - y
    loss = float(np.mean(resid ** 2))
    batch = X.shape[0]
    delta = (2.0 * resid / batch).reshape(-1, 1)
    grads_w = [None] * len(m.weights)
    grads_b = [None] * len(m.biases)
    for i in range(last, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ m.weights[i].T) * _act_grad(zs[i - 1], m.activation)
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
    # the returned model's weights and biases are views into one flat
    # vector laid out as the gradient concatenation, so one update covers
    # every layer
    params = m.weights + m.biases
    theta = np.concatenate([p.ravel() for p in params])
    views = [v.reshape(p.shape) for v, p in
             zip(np.split(theta, np.cumsum([p.size for p in params])[:-1]), params)]
    m = MLP(m.sizes, m.activation, views[:len(m.weights)], views[len(m.weights):])
    acc = np.zeros_like(theta)
    trace = []
    n = X.shape[0]
    for epoch in range(epochs):
        order = make_rng(seed, Tag.EPOCH, epoch).permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, gw, gb = backprop(m, X[idx], y[idx])
            if not math.isfinite(loss) or loss > divergence:
                raise DivergenceError(f"loss {loss} at epoch {epoch}", m)
            epoch_losses.append(loss)
            g = np.concatenate([d.ravel() for d in gw + gb])
            acc += g ** 2
            theta -= rate * g / np.sqrt(acc + eps)
        trace.append(float(np.mean(epoch_losses)))
    return m, trace


# ---------------------------------------------------------------------------
# Checkpoints: text header (sizes, activation) + flat little-endian params
# ---------------------------------------------------------------------------


def save_mlp(m: MLP, path) -> None:
    header = "mlp " + " ".join(str(s) for s in m.sizes) + f" {m.activation}\n"
    flat = np.concatenate([w.ravel() for w in m.weights]
                          + [b.ravel() for b in m.biases]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(struct.pack("<Q", flat.size))
        fh.write(flat.tobytes())


def load_mlp(path) -> MLP:
    with open(path, "rb") as fh:
        header = b""
        while not header.endswith(b"\n"):
            ch = fh.read(1)
            if not ch:
                raise ValueError("truncated checkpoint header")
            header += ch
        parts = header.decode().split()
        if parts[0] != "mlp":
            raise ValueError("not an mlp checkpoint")
        sizes = tuple(int(p) for p in parts[1:-1])
        activation = parts[-1]
        (count,) = struct.unpack("<Q", fh.read(8))
        flat = np.frombuffer(fh.read(), dtype="<f8")
    if flat.size != count:
        raise ValueError("checkpoint payload size mismatch")
    m = MLP(sizes, activation)
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        m.weights.append(flat[offset:offset + fan_in * fan_out]
                         .reshape(fan_in, fan_out).copy())
        offset += fan_in * fan_out
    for fan_out in sizes[1:]:
        m.biases.append(flat[offset:offset + fan_out].copy())
        offset += fan_out
    return m
