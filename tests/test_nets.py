import math

import numpy as np
import pytest

from polytransfer import nets
from polytransfer.rng import Tag, make_rng


class TestForward:
    def test_zero_weights_output_final_bias(self):
        m = nets.mlp_init((2, 4, 1), nets.RELU, seed=0)
        for w in m.weights:
            w[:] = 0.0
        for b in m.biases[:-1]:
            b[:] = 0.0
        m.biases[-1][:] = 1.5
        x = np.random.default_rng(0).normal(size=(5, 2))
        np.testing.assert_allclose(nets.forward(m, x), 1.5)

    def test_single_affine_layer_exact(self):
        m = nets.mlp_init((3, 1), nets.RELU, seed=0)
        m.weights[0][:, 0] = [1.0, -2.0, 0.5]
        m.biases[0][:] = 0.25
        x = np.random.default_rng(1).normal(size=(10, 3))
        expected = x @ np.array([1.0, -2.0, 0.5]) + 0.25
        np.testing.assert_allclose(nets.forward(m, x), expected, rtol=1e-12)

    def test_input_dim_checked(self):
        m = nets.mlp_init((2, 3, 1), nets.RELU, seed=0)
        with pytest.raises(ValueError):
            nets.forward(m, np.ones((4, 3)))

    def test_default_architecture_sizes(self):
        m = nets.mlp_init(seed=0)
        assert m.sizes == (2, 20, 20, 20, 20, 20, 10, 1)
        hidden_units = sum(m.sizes[1:-1])
        assert hidden_units == 110


def dense_forward(m, X):
    """Oracle: every layer applied to all rows in one pass."""
    a, last = X, len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w + b
        a = z if i == last else nets._act(z, m.activation)
    return a[:, 0]


def figure_net(activation):
    scale = 0.5 if activation == nets.POLY else 1.0
    return nets.mlp_init(activation=activation, seed=0, path=(Tag.INIT, 0), init_scale=scale)


class TestBlockedForward:
    """forward evaluates fixed blocks of rows into one output array."""

    @pytest.mark.parametrize("activation", [nets.RELU, nets.POLY])
    @pytest.mark.parametrize("n", [1, 700, nets._FORWARD_ROWS, 2 * nets._FORWARD_ROWS + 333])
    def test_equals_its_blocks_and_the_dense_pass(self, activation, n):
        m = figure_net(activation)
        X = make_rng(3).uniform(-1.5, 1.5, size=(n, 2))
        out = nets.forward(m, X)
        size = nets._FORWARD_ROWS
        blocks = np.concatenate([nets.forward(m, X[s:s + size]) for s in range(0, n, size)])
        assert out.shape == (n,) and out.tobytes() == blocks.tobytes()
        np.testing.assert_allclose(out, dense_forward(m, X), rtol=1e-9)

    @pytest.mark.parametrize("activation", [nets.RELU, nets.POLY])
    def test_peak_memory_is_bounded(self, activation):
        import tracemalloc

        m = figure_net(activation)
        X = make_rng(4).uniform(-5.0, 5.0, size=(20_000, 2))
        tracemalloc.start()
        try:
            nets.forward(m, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20   # all 20,000 rows per layer at once took ~12.6 MiB


class TestBackprop:
    @pytest.mark.parametrize("activation", [nets.POLY, nets.RELU])
    def test_gradient_matches_finite_differences(self, activation):
        rng = np.random.default_rng(2)
        m = nets.mlp_init((2, 6, 4, 1), activation, seed=3)
        # random generic points: pre-activations stay away from ReLU kinks
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        loss, gw, gb = nets.backprop(m, X, y)
        eps = 1e-6
        for li in range(len(m.weights)):
            idx = (0, 0)
            plus = m.copy()
            plus.weights[li][idx] += eps
            minus = m.copy()
            minus.weights[li][idx] -= eps
            fd = (nets.backprop(plus, X, y)[0] - nets.backprop(minus, X, y)[0]) / (2 * eps)
            if abs(fd) > 1e-12:
                assert gw[li][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_loss_is_mse(self):
        m = nets.mlp_init((1, 2, 1), nets.POLY, seed=4)
        X = np.array([[0.5], [1.0]])
        y = np.array([0.0, 0.0])
        loss, _, _ = nets.backprop(m, X, y)
        pred = nets.forward(m, X)
        assert loss == pytest.approx(float(np.mean(pred ** 2)), rel=1e-12)


class TestAdagrad:
    def test_all_equal_gradients_closed_recursion(self):
        # one-parameter linear model y = w * x on a single sample with
        # constant gradient: w_t follows rate * g / sqrt(t g^2 + eps)
        m = nets.mlp_init((1, 1), nets.RELU, seed=0)
        m.weights[0][:] = 0.0
        m.biases[0][:] = 0.0
        X = np.array([[1.0]])
        y = np.array([0.0])

        # force a constant gradient by fixing the residual: use bias-only
        # updates with y = -1 so dL/db = 2(b - y) = 2(b + 1)
        rate, eps = 0.1, nets.ADAGRAD_EPS
        model, _ = nets.train_adagrad(m, X, y + (-1.0), epochs=1, rate=rate,
                                      batch_size=1)
        g0 = 2.0 * (0.0 - (-1.0))
        acc = g0 ** 2
        expected_b = 0.0 - rate * g0 / math.sqrt(acc + eps)
        # weight gets the same update (input is 1.0)
        assert model.biases[0][0] == pytest.approx(expected_b, rel=1e-9)
        assert model.weights[0][0, 0] == pytest.approx(expected_b, rel=1e-9)

    def test_constant_target_reaches_tiny_mse(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(512, 2))
        y = np.full(512, 0.7)
        m = nets.mlp_init((2, 8, 1), nets.RELU, seed=6)
        m, trace = nets.train_adagrad(m, X, y, epochs=600, rate=0.3, seed=7)
        assert trace[-1][1] <= 1e-6

    def test_zero_rate_no_update(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(64, 2))
        y = rng.normal(size=64)
        m = nets.mlp_init((2, 4, 1), nets.POLY, seed=9)
        trained, _ = nets.train_adagrad(m, X, y, epochs=2, rate=0.0, seed=10)
        for w0, w1 in zip(m.weights, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_empty_dataset_rejected(self):
        m = nets.mlp_init((2, 4, 1), nets.RELU, seed=0)
        with pytest.raises(ValueError):
            nets.train_adagrad(m, np.zeros((0, 2)), np.zeros(0), 1, 0.1)


def reference_backprop(m, X, y):
    """The allocating backprop that the buffer-filling one replaced, kept as
    the bit-for-bit oracle: a fresh array per gradient and per mask."""
    acts = [X]
    zs = []
    a = X
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w + b
        zs.append(z)
        a = z if i == last else nets._act(z, m.activation)
        acts.append(a)
    resid = acts[-1][:, 0] - y
    loss = float(np.mean(resid ** 2))
    delta = (2.0 * resid / X.shape[0]).reshape(-1, 1)
    grads_w = [None] * len(m.weights)
    grads_b = [None] * len(m.biases)
    for i in range(last, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            z = zs[i - 1]
            mask = (z > 0).astype(float) if m.activation == nets.RELU else 6.0 * z * (1.0 - z)
            delta = (delta @ m.weights[i].T) * mask
    return loss, grads_w, grads_b


def adagrad_per_layer(m, X, y, epochs, rate, seed=0, batch_size=64, divergence=1e8):
    """The per-layer AdaGrad loop on gathered batches and the allocating
    backprop, which the flat-buffer update replaced."""
    m = m.copy()
    acc_w = [np.zeros_like(w) for w in m.weights]
    acc_b = [np.zeros_like(b) for b in m.biases]
    trace = []
    n = X.shape[0]
    for epoch in range(epochs):
        order = make_rng(seed, Tag.EPOCH, epoch).permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, gw, gb = reference_backprop(m, X[idx], y[idx])
            if not math.isfinite(loss) or loss > divergence:
                raise nets.DivergenceError(f"loss {loss} at epoch {epoch}", m)
            epoch_losses.append(loss)
            for i in range(len(m.weights)):
                acc_w[i] += gw[i] ** 2
                acc_b[i] += gb[i] ** 2
                m.weights[i] -= rate * gw[i] / np.sqrt(acc_w[i] + nets.ADAGRAD_EPS)
                m.biases[i] -= rate * gb[i] / np.sqrt(acc_b[i] + nets.ADAGRAD_EPS)
        trace.append((epoch, float(np.mean(epoch_losses))))
    return m, trace


def same_params(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a.weights + a.biases, b.weights + b.biases))


def outcome(train, *args, **kwargs):
    """(model, trace) of a finished run, or (model at the failing batch,
    message) of a diverged one."""
    try:
        return train(*args, **kwargs)
    except nets.DivergenceError as e:
        return e.model, str(e)


class TestBackpropBuffers:
    @pytest.mark.parametrize("activation", [nets.RELU, nets.POLY])
    def test_bits_match_reference_with_and_without_out(self, activation):
        rng = np.random.default_rng(14)
        m = nets.mlp_init(nets.DEFAULT_SIZES, activation, seed=15,
                          init_scale=0.5 if activation == nets.POLY else 1.0)
        X, y = rng.uniform(-1, 1, size=(37, 2)), rng.normal(size=37)
        ref = reference_backprop(m, X, y)
        out = ([np.full_like(w, np.nan) for w in m.weights],
               [np.full_like(b, np.nan) for b in m.biases])
        for got in (nets.backprop(m, X, y), nets.backprop(m, X, y, out=out)):
            assert got[0] == ref[0]
            for g, r in zip(got[1] + got[2], ref[1] + ref[2]):
                assert g.shape == r.shape and g.tobytes() == r.tobytes()
        assert all(g is o for g, o in zip(got[1] + got[2], out[0] + out[1]))


class TestFlatAdagrad:
    @staticmethod
    def data():
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(300, 2))
        return X, np.sin(3 * X[:, 0]) * X[:, 1]

    @pytest.mark.parametrize("activation, scale", [(nets.RELU, 1.0), (nets.POLY, 0.5)])
    def test_matches_per_layer_loop(self, activation, scale):
        # at these seeds the cubic net diverges in epoch 1; both loops must
        # then stop at the same batch with the same weights
        X, y = self.data()
        assert len(X) % 64 != 0   # each epoch ends on a partial batch
        m = nets.mlp_init(nets.DEFAULT_SIZES, activation, seed=12, init_scale=scale)
        before = m.copy()
        got, got_trace = outcome(nets.train_adagrad, m, X, y, epochs=4, rate=0.02, seed=13)
        ref, ref_trace = outcome(adagrad_per_layer, m, X, y, epochs=4, rate=0.02, seed=13)
        assert got_trace == ref_trace
        assert same_params(got, ref)
        assert same_params(m, before)   # the input model is not updated

    def test_divergence_still_raised(self):
        X, y = self.data()
        m = nets.mlp_init(nets.DEFAULT_SIZES, nets.POLY, seed=12, init_scale=0.5)
        with pytest.raises(nets.DivergenceError) as got:
            nets.train_adagrad(m, X, y, epochs=20, rate=1.0, seed=13, divergence=1e3)
        with pytest.raises(nets.DivergenceError) as ref:
            adagrad_per_layer(m, X, y, epochs=20, rate=1.0, seed=13, divergence=1e3)
        assert str(got.value) == str(ref.value)
        assert same_params(got.value.model, ref.value.model)   # the failing batch's weights
