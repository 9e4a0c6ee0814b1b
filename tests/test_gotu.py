import math

import numpy as np
import pytest

from polytransfer import gotu
from polytransfer.mc import mean_and_stderr
from polytransfer.rng import make_rng


def mc_seen_loss(net, target, k, n_samples, seed):
    """Monte Carlo oracle for L_S over uniform draws from the seen half."""
    x = make_rng(seed).choice([-1.0, 1.0], size=(n_samples, net.n))
    x[:, k] = 1.0
    est = mean_and_stderr((net(x) - target(x)) ** 2)
    return est.value, est.stderr


def target_single(n, k):
    return gotu.LinearTarget(0.0, np.eye(n)[k])


class TestInit:
    def test_support_bound(self):
        net = gotu.init_weights(20, 3, 0.3, 0)
        assert np.max(np.abs(net.weights)) <= 0.3
        assert net.bias == 0.0

    def test_seed_reproducibility(self):
        a = gotu.init_weights(10, 2, 0.2, 5)
        b = gotu.init_weights(10, 2, 0.2, 5)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            gotu.init_weights(5, 2, 0.6, 0)
        with pytest.raises(ValueError):
            gotu.init_weights(5, 2, 0.0, 0)

    def test_small_alpha_limit_of_max_influence(self):
        # pi -> 0, so tau -> max c_i^2 / sum c_i^2
        target = gotu.LinearTarget(0.0, np.array([3.0, 1.0, 1.0, 1.0]))
        net = gotu.init_weights(4, 2, 1e-6, 0)
        tau = gotu.error_max_influence(net, target)
        assert tau == pytest.approx(9.0 / 12.0, abs=1e-4)


class TestMaxInitScale:
    def test_frozen_arithmetic_value(self):
        # depth 3, eps 0.1, R = 2: (2 ln 20 + 80^(1/3))^(-1)
        target = gotu.LinearTarget(0.0, np.array([1.0, 0.0]))
        got = gotu.max_init_scale(3, 0.1, target, 0, 1.0)
        expected = 1.0 / (2.0 * math.log(20.0) + 80.0 ** (1.0 / 3.0))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0970842311589580, rel=1e-12)

    def test_monotone_in_eps(self):
        target = gotu.LinearTarget(0.0, np.array([1.0, 0.0]))
        vals = [gotu.max_init_scale(3, e, target, 0) for e in (0.2, 0.1, 0.05, 0.01)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_depth_two_fallback(self):
        target = gotu.LinearTarget(0.0, np.array([1.0]))
        with pytest.warns(RuntimeWarning):
            assert gotu.max_init_scale(2, 0.1, target, 0) == 0.5


class TestClosedFormLosses:
    def test_exact_net_zero_losses(self):
        n = 6
        target = gotu.LinearTarget(0.3, np.linspace(-1, 1, n))
        w = np.zeros((2, n))
        w[0] = np.abs(target.coeffs) ** 0.5 * np.sign(target.coeffs)
        w[1] = np.abs(target.coeffs) ** 0.5
        net = gotu.DiagonalLinearNet(n, 2, 0.3, w)
        l_s, l_full = gotu.closed_form_losses(net, target, 2)
        assert l_s == pytest.approx(0.0, abs=1e-15)
        assert l_full == pytest.approx(0.0, abs=1e-15)

    def test_frozen_coordinate_mismatch(self):
        # pi_k - c_k = delta with everything else exact: both losses delta^2
        n, k, delta = 4, 1, 0.25
        target = target_single(n, k)
        w = np.zeros((2, n))
        w[0, k] = 1.0
        w[1, k] = 1.0 + delta
        net = gotu.DiagonalLinearNet(n, 2, 0.0, w)
        l_s, l_full = gotu.closed_form_losses(net, target, k)
        assert l_s == pytest.approx(delta ** 2)
        assert l_full == pytest.approx(delta ** 2)

    def test_memorization_trap(self):
        # b - b* = delta, pi_k - c_k = -delta: seen loss 0, full loss 2 delta^2
        n, k, delta = 4, 0, 0.3
        target = target_single(n, k)
        w = np.zeros((2, n))
        w[0, k] = 1.0
        w[1, k] = 1.0 - delta
        net = gotu.DiagonalLinearNet(n, 2, delta, w)
        l_s, l_full = gotu.closed_form_losses(net, target, k)
        assert l_s == pytest.approx(0.0, abs=1e-15)
        assert l_full == pytest.approx(2 * delta ** 2)

    def test_matches_monte_carlo(self):
        rng_target = gotu.LinearTarget(0.1, np.linspace(-0.5, 1.0, 12))
        net = gotu.init_weights(12, 3, 0.4, 1)
        l_s, _ = gotu.closed_form_losses(net, rng_target, 5)
        mc, se = mc_seen_loss(net, rng_target, 5, 100_000, 2)
        assert l_s == pytest.approx(mc, abs=3 * se)


class TestMaxInfluence:
    def test_all_equal_gaps(self):
        n = 8
        target = gotu.LinearTarget(0.0, np.zeros(n))
        w = np.full((2, n), 0.5)
        net = gotu.DiagonalLinearNet(n, 2, 0.0, w)
        assert gotu.error_max_influence(net, target) == pytest.approx(1.0 / n)

    def test_single_nonzero_gap(self):
        n = 5
        target = gotu.LinearTarget(0.0, np.zeros(n))
        w = np.zeros((2, n))
        w[:, 2] = 0.7
        net = gotu.DiagonalLinearNet(n, 2, 0.0, w)
        assert gotu.error_max_influence(net, target) == pytest.approx(1.0)

    def test_degenerate_denominator_flags_nan(self):
        n = 3
        target = gotu.LinearTarget(0.0, np.zeros(n))
        net = gotu.DiagonalLinearNet(n, 2, 0.0, np.zeros((2, n)))
        assert math.isnan(gotu.error_max_influence(net, target))


class TestGradientFlow:
    def test_stationary_at_optimum(self):
        n, k = 4, 0
        target = target_single(n, k)
        w = np.zeros((2, n))
        w[:, k] = 1.0
        net = gotu.DiagonalLinearNet(n, 2, 0.0, w)
        _, trace = gotu.gradient_flow(net, target, k, step=1e-3, horizon=0.05)
        assert max(row[1] for row in trace) == pytest.approx(0.0, abs=1e-15)

    def test_seen_loss_monotone(self):
        net = gotu.init_weights(20, 2, 0.25, 3)
        target = gotu.LinearTarget(0.0, np.ones(20))
        _, trace = gotu.gradient_flow(net, target, 0, step=1e-3, horizon=3.0)
        diffs = np.diff([row[1] for row in trace])
        assert np.all(diffs <= 1e-9)

    def test_step_size_validated(self):
        net = gotu.init_weights(4, 2, 0.2, 0)
        with pytest.raises(ValueError):
            gotu.gradient_flow(net, target_single(4, 0), 0, step=0.5, horizon=1.0)

    def test_accepted_overflowing_step_raises(self):
        # pi = 1e100 leaves L_S finite, but layer 1's cofactor 1e200 * 1e200
        # overflows: every halved step gives weights with -inf and L_S = nan,
        # and the step floor accepts the last one (a flow that accepts it
        # silently ends within the horizon of two such steps)
        w = np.array([[1e200, 1.0], [1e-300, 1.0], [1e200, 1.0]])
        net = gotu.DiagonalLinearNet(2, 3, 0.0, w)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite parameters"):
            gotu.gradient_flow(net, target_single(2, 0), 0, step=1e-3, horizon=1e-12)

    def test_canonical_holdout_run(self):
        n, k = 50, 0
        net = gotu.init_weights(n, 2, 0.05, 0)
        _, trace = gotu.gradient_flow(net, target_single(n, k), k,
                                      step=1e-3, horizon=20.0)
        assert trace[-1][1] <= 1e-4
        assert max(abs(row[4]) for row in trace) <= 0.1

    def test_mc_checkpoints_match_closed_form(self):
        n, k = 12, 0
        net = gotu.init_weights(n, 2, 0.3, 4)
        target = gotu.LinearTarget(0.0, np.ones(n))
        current, trace = gotu.gradient_flow(net, target, k, step=1e-3, horizon=1.0)
        # final state check: closed form vs fresh Monte Carlo
        l_s, _ = gotu.closed_form_losses(current, target, k)
        mc, se = mc_seen_loss(current, target, k, 100_000, 5)
        assert l_s == pytest.approx(mc, abs=3 * se + 1e-12)

    def test_unlearned_gaps_monotone_decreasing(self):
        n, k = 10, 0
        target = gotu.LinearTarget(0.0, np.ones(n))
        net = gotu.init_weights(n, 2, 0.25, 6)
        gaps = []
        current = net
        for _ in range(5):
            current, _ = gotu.gradient_flow(current, target, k, step=1e-3,
                                            horizon=0.5, record_every=1000)
            delta2 = (current.pi - target.coeffs) ** 2
            gaps.append(np.delete(delta2, k))
        for a, b in zip(gaps, gaps[1:]):
            assert np.all(b <= a + 1e-12)


class TestCriticalTime:
    def test_no_crossing_returns_none(self):
        rows = [(t, 1.0, 1.0, 0.1, 0.0) for t in np.linspace(0, 1, 5)]
        assert gotu.critical_time(rows, 0.25) is None

    def test_interpolated_crossing(self):
        rows = [(0.0, 1.0, 1.0, 0.1, 0.0), (1.0, 1.0, 1.0, 0.3, 0.0)]
        t = gotu.critical_time(rows, 0.25)
        assert t == pytest.approx(0.75)

    def test_spread_target_crossing_and_pre_crossing_transfer(self):
        n, k = 30, 0
        target = gotu.LinearTarget(0.0, np.ones(n))
        net = gotu.init_weights(n, 2, 0.25, 7)
        _, trace = gotu.gradient_flow(net, target, k, step=1e-3, horizon=8.0,
                                      record_every=5)
        assert trace[0][3] < 0.25  # spread coefficients start low-influence
        t_star = gotu.critical_time(trace, 0.25)
        assert t_star is not None and t_star > 0
        coeff = gotu.transfer_threshold_coefficient(mass=0.5, k_d=1.0)
        for t, l_s, l_full, tau, _ in trace:
            if t < t_star and l_s > 1e-250:
                assert l_full <= coeff * l_s

    def test_tau_tends_to_one_after_crossing(self):
        n, k = 30, 0
        target = gotu.LinearTarget(0.0, np.ones(n))
        net = gotu.init_weights(n, 2, 0.25, 8)
        _, trace = gotu.gradient_flow(net, target, k, step=1e-3, horizon=10.0)
        assert trace[-1][3] > 0.9


def _reference_flow(net, target, k, step, horizon, record_every=10):
    """The Euler loop as first written: a DiagonalLinearNet per candidate
    step and the gradient from np.delete over layers.  Kept as the
    bit-for-bit reference for gradient_flow."""

    def losses(m):
        delta = m.pi - target.coeffs
        b_err = m.bias - target.bias
        rest = float(np.sum(delta ** 2)) - float(delta[k] ** 2)
        return float((b_err + delta[k]) ** 2 + rest), float(b_err ** 2 + float(np.sum(delta ** 2)))

    def influence(m):
        delta2 = (m.pi - target.coeffs) ** 2
        denom = float(np.sum(delta2))
        return float("nan") if denom <= gotu.TAU_DENOM_FLOOR else float(np.max(delta2) / denom)

    def gradient(m):
        delta = m.pi - target.coeffs
        e0 = m.bias - target.bias + delta[k]
        coeff = 2.0 * delta
        coeff[k] = 2.0 * e0
        grad_w = np.empty_like(m.weights)
        for layer in range(m.depth):
            grad_w[layer] = coeff * np.prod(np.delete(m.weights, layer, axis=0), axis=0)
        return 2.0 * e0, grad_w

    net = net.copy()
    rows = []
    t, count = 0.0, 0
    l_s, l_full = losses(net)
    rows.append((t, l_s, l_full, influence(net), float(net.pi[k])))
    while t < horizon:
        grad_b, grad_w = gradient(net)
        while True:
            cand = gotu.DiagonalLinearNet(net.n, net.depth, net.bias - step * grad_b,
                                          net.weights - step * grad_w)
            new_ls, new_l = losses(cand)
            if new_ls <= l_s + 1e-9 or step < 1e-12:
                break
            step *= 0.5
        net = cand
        t += step
        l_s, l_full = new_ls, new_l
        count += 1
        if count % record_every == 0:
            rows.append((t, l_s, l_full, influence(net), float(net.pi[k])))
    rows.append((t, l_s, l_full, influence(net), float(net.pi[k])))
    return net, rows


class TestFlowMatchesReference:
    @pytest.mark.parametrize("n, depth, alpha, coeff, bias, step, horizon, halves", [
        (50, 2, 0.05, None, 0.0, 1e-3, 1.0, False),   # canonical e_k target
        (20, 2, 0.25, 1.0, 0.0, 1e-3, 1.0, False),
        (6, 2, 0.5, 50.0, 0.5, 1e-2, 0.5, True),
        (15, 3, 0.25, 1.0, 0.2, 1e-3, 1.0, False),
        (6, 3, 0.5, 20.0, 0.5, 1e-2, 0.5, True),
    ])
    def test_bit_identical(self, n, depth, alpha, coeff, bias, step, horizon, halves):
        k = 0
        coeffs = np.eye(n)[k] if coeff is None else np.full(n, coeff)
        target = gotu.LinearTarget(bias, coeffs)
        net = gotu.init_weights(n, depth, alpha, 3)
        ref_net, ref_rows = _reference_flow(net, target, k, step, horizon)
        got_net, trace = gotu.gradient_flow(net, target, k, step=step, horizon=horizon)
        np.testing.assert_array_equal(np.array(trace), np.array(ref_rows))
        np.testing.assert_array_equal(got_net.weights, ref_net.weights)
        assert got_net.bias == ref_net.bias
        # the halving cases take more accepted steps than horizon / step
        assert (len(trace) > horizon / step / 10 + 2) == halves

    def test_deeper_net_close_to_reference(self):
        # depth 4 multiplies the cofactors in a different order: equal to rounding
        n, k = 10, 0
        target = gotu.LinearTarget(0.0, np.ones(n))
        net = gotu.init_weights(n, 4, 0.4, 5)
        ref_net, ref_rows = _reference_flow(net, target, k, 1e-3, 0.5)
        got_net, trace = gotu.gradient_flow(net, target, k, step=1e-3, horizon=0.5)
        np.testing.assert_allclose(got_net.weights, ref_net.weights, rtol=1e-12)
        np.testing.assert_allclose(np.array(trace), np.array(ref_rows),
                                   rtol=1e-10)
