import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from polytransfer import dist, trunc

HALF_LINE = dist.IntervalUnion(((0.0, math.inf),))
REAL_LINE = dist.IntervalUnion(((-math.inf, math.inf),))


def phi_moments_interval(mu, a, b, c):
    """E[(y - c)^2] for y ~ N(mu,1) on [a,b]: closed form via phi/Phi."""
    alpha, beta = a - mu, b - mu
    z = norm.cdf(beta) - norm.cdf(alpha)
    pa, pb = norm.pdf(alpha), norm.pdf(beta)
    mean = mu + (pa - pb) / z
    var = 1.0 + (alpha * pa - (beta * pb if math.isfinite(beta) else 0.0)) / z \
        - ((pa - pb) / z) ** 2
    if not math.isfinite(beta):
        var = 1.0 + (alpha * pa) / z - ((pa - pb) / z) ** 2
    return var + (mean - c) ** 2


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def quadrature_moments(mu, intervals):
    """Reference (mass, m1, m2) of N(mu, 1) on intervals: Gauss-Legendre on
    panels at most 2 sd wide, clipped at 39 sd where the density underflows."""
    panel_width, tail_cut = 2.0, 39.0
    m = np.zeros(3)
    for a, b in intervals:
        lo, hi = max(a, mu - tail_cut), min(b, mu + tail_cut)
        if hi <= lo:
            continue
        edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / panel_width)) + 1)
        for pa, pb in zip(edges[:-1], edges[1:]):
            half = 0.5 * (pb - pa)
            y = 0.5 * (pa + pb) + half * GL_NODES
            w = half * GL_WEIGHTS * np.exp(-(y - mu) ** 2 / 2.0) / math.sqrt(2 * math.pi)
            m += [np.sum(w), np.sum(w * y), np.sum(w * y * y)]
    return m


def one_point_instance(mu, s):
    return trunc.TruncatedRegressionInstance(
        np.zeros((1, 1)), lambda x, mu=mu: mu, s)


class TestMoments:
    SETS = {
        "upper-half-line": ((0.0, math.inf),),
        "lower-half-line": ((-math.inf, 0.5),),
        "bounded": ((-1.0, 2.0),),
        "three-piece": ((-math.inf, -2.0), (-0.5, 0.5), (1.5, math.inf)),
    }

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_closed_form_matches_quadrature(self, name):
        for mu in np.linspace(-5.0, 5.0, 101):
            m0, m1, m2 = trunc.truncated_normal_moments(mu, self.SETS[name])
            q0, q1, q2 = quadrature_moments(mu, self.SETS[name])
            assert m0 == pytest.approx(q0, rel=1e-11)
            assert m2 == pytest.approx(q2, rel=1e-11)
            # m1 can cross zero; Cauchy-Schwarz bounds it by sqrt(m0 m2)
            assert abs(m1 - q1) <= 1e-11 * math.sqrt(q0 * q2)


def truncated_draws(mean, var, s, n, seed):
    return dist.TruncatedGaussian(mean, var, s).sample(n, seed)[:, 0]


class TestSampler:
    def test_half_normal_mean(self):
        draws = truncated_draws(0.0, 1.0, HALF_LINE, 100_000, 0)
        assert np.all(draws >= 0)
        assert draws.mean() == pytest.approx(math.sqrt(2 / math.pi), abs=0.02)

    def test_full_line_matches_normal(self):
        draws = np.sort(truncated_draws(0.0, 1.0, REAL_LINE, 10_000, 1))
        ks = np.max(np.abs(norm.cdf(draws) - np.arange(1, 10_001) / 10_000))
        assert ks <= 2.0 / math.sqrt(10_000)

    def test_far_mean_half_line(self):
        draws = truncated_draws(5.0, 1.0, HALF_LINE, 100_000, 2)
        expected = 5.0 + norm.pdf(-5.0) / (1 - norm.cdf(-5.0))
        assert draws.mean() == pytest.approx(expected, abs=0.02)


class TestMse:
    def test_truth_full_line_is_noise_variance(self):
        inst = one_point_instance(2.0, REAL_LINE)
        assert trunc.truncated_mse(lambda x: 2.0, inst) == pytest.approx(1.0, abs=1e-10)
        assert trunc.full_mse(lambda x: 2.0, inst) == pytest.approx(1.0, abs=1e-12)

    def test_truth_at_half_line_from_location(self):
        # S = [mu, inf): E[(y - mu)^2 | y >= mu] = 1 for unit-variance noise
        inst = one_point_instance(0.7, dist.IntervalUnion(((0.7, math.inf),)))
        assert trunc.truncated_mse(lambda x: 0.7, inst) == pytest.approx(1.0, abs=1e-9)

    def test_constant_zero_bias_variance(self):
        inst = one_point_instance(2.0, REAL_LINE)
        assert trunc.truncated_mse(lambda x: 0.0, inst) == pytest.approx(5.0, abs=1e-9)
        assert trunc.full_mse(lambda x: 0.0, inst) == pytest.approx(5.0, abs=1e-12)

    def test_quadrature_matches_phi_closed_form(self):
        for mu, (a, b), c in [(0.0, (0.0, math.inf), 0.5),
                              (1.5, (-1.0, 2.0), -0.3),
                              (-0.5, (0.0, 3.0), 1.0)]:
            inst = one_point_instance(mu, dist.IntervalUnion(((a, b),)))
            got = trunc.truncated_mse(lambda x, c=c: c, inst)
            assert got == pytest.approx(phi_moments_interval(mu, a, b, c), rel=1e-9)

    def test_interval_union_matches_quad_oracle(self):
        s = dist.IntervalUnion(((-2.0, -1.0), (0.5, 1.5)))
        inst = one_point_instance(0.2, s)
        got = trunc.truncated_mse(lambda x: 0.1, inst)
        mass = quad(lambda y: norm.pdf(y, 0.2, 1), -2, -1)[0] \
            + quad(lambda y: norm.pdf(y, 0.2, 1), 0.5, 1.5)[0]
        raw = quad(lambda y: (y - 0.1) ** 2 * norm.pdf(y, 0.2, 1), -2, -1)[0] \
            + quad(lambda y: (y - 0.1) ** 2 * norm.pdf(y, 0.2, 1), 0.5, 1.5)[0]
        assert got == pytest.approx(raw / mass, rel=1e-9)

    def test_truncated_equals_full_when_untruncated(self):
        inst = trunc.TruncatedRegressionInstance(
            np.array([[0.0], [1.0], [2.0]]), lambda x: float(x[0]), REAL_LINE)
        t = trunc.truncated_mse(lambda x: 0.5, inst)
        f = trunc.full_mse(lambda x: 0.5, inst)
        assert t == pytest.approx(f, rel=1e-10)

    def test_location_below_exact_mass_floor_raises(self):
        # S = [10, inf) at mu = 0 has mass 7.6e-24; the transfer check stops
        # at the alpha floor first, so only a direct call reaches this one
        inst = one_point_instance(0.0, dist.IntervalUnion(((10.0, math.inf),)))
        with pytest.raises(trunc.MassTooSmallError, match="below 1e-06"):
            trunc.truncated_mse(lambda x: 0.0, inst)


class TestAlphaMass:
    def test_full_line(self):
        inst = one_point_instance(0.0, REAL_LINE)
        assert trunc.alpha_mass_min(inst) == pytest.approx(1.0)

    def test_min_over_locations(self):
        inst = trunc.TruncatedRegressionInstance(
            np.array([[0.0], [1.0]]), lambda x: float(x[0]), HALF_LINE)
        assert trunc.alpha_mass_min(inst) == pytest.approx(0.5, abs=1e-12)

    def test_deep_tail_value(self):
        inst = one_point_instance(0.0, dist.IntervalUnion(((10.0, math.inf),)))
        alpha = trunc.alpha_mass_min(inst)
        assert alpha == pytest.approx(float(norm.sf(10.0)), rel=1e-6)
        assert alpha < 1e-6  # below every usable floor
        with pytest.raises(trunc.MassTooSmallError):
            trunc.truncated_transfer_check(lambda x: 0.0, inst)

    @given(ends=st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=8, unique=True),
           open_lo=st.booleans(), open_hi=st.booleans(), mu=st.floats(-45.0, 45.0))
    @settings(max_examples=300, deadline=None)
    def test_mass_bits_equal_clamped_moment_mass(self, ends, open_lo, open_hi, mu):
        # alpha comes from gaussian_mass, truncated_mse normalises by the
        # moments' m0: the two must be one number
        ends = sorted(ends)[:len(ends) // 2 * 2]
        ends[0] = -math.inf if open_lo else ends[0]
        ends[-1] = math.inf if open_hi else ends[-1]
        s = dist.IntervalUnion(tuple(zip(ends[::2], ends[1::2])))
        m0 = trunc.truncated_normal_moments(mu, s.intervals)[0]
        assert dist.gaussian_mass(mu, 1.0, s).hex() == min(max(m0, 0.0), 1.0).hex()


class TestTransferCheck:
    def test_full_line_ratios_one(self):
        inst = one_point_instance(1.0, REAL_LINE)
        res = trunc.truncated_transfer_check(lambda x: 0.5, inst)
        assert res.alpha == pytest.approx(1.0)
        assert res.truncated == pytest.approx(res.full, rel=1e-10)
        assert res.both_satisfied

    def test_reverse_change_of_measure_on_grid(self):
        # alpha = 1/2 half-line truncation: truncated <= 2 * full everywhere
        inst = one_point_instance(0.0, HALF_LINE)
        for c in np.linspace(-2, 2, 41):
            res = trunc.truncated_transfer_check(lambda x, c=c: c, inst)
            assert res.truncated <= 2.0 * res.full + 1e-8
            assert res.reverse.satisfied
            for rep in (res.forward, res.reverse):   # both sides are exact
                assert rep.lhs_se == 0.0 and rep.rhs_se == 0.0

    CALIBRATED_C = 1.25  # preliminary pass: max alpha^2 * full/truncated = 1.2369 at c = 1

    def test_forward_direction_with_calibrated_constant(self):
        inst = one_point_instance(0.0, HALF_LINE)
        worst = 0.0
        for c in np.linspace(-2, 2, 41):
            res = trunc.truncated_transfer_check(lambda x, c=c: c, inst,
                                                 constant=self.CALIBRATED_C)
            worst = max(worst, res.full / res.truncated)
            assert res.forward.satisfied
        assert worst <= self.CALIBRATED_C / 0.25
        assert worst == pytest.approx(4.9476, abs=0.02)  # exact max is at c = 1

    def test_coefficient_independent_of_model_complexity(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(12, 1))
        linear = trunc.TruncatedRegressionInstance(X, lambda x: float(x[0]), HALF_LINE)
        quintic = trunc.TruncatedRegressionInstance(
            X, lambda x: float(x[0] ** 5 - 0.2 * x[0] ** 3), HALF_LINE)
        res_a = trunc.truncated_transfer_check(lambda x: 0.1, linear)
        res_b = trunc.truncated_transfer_check(lambda x: 0.1, quintic)
        # identical alpha-formula coefficient even though measured ratios differ
        assert res_a.forward.coefficient / res_a.alpha ** -2 == \
            pytest.approx(res_b.forward.coefficient / res_b.alpha ** -2, rel=1e-9)
        assert res_a.truncated != pytest.approx(res_b.truncated, rel=1e-3)


class AbsAtLeastHalf:
    """{y : |y| >= 1/2}: not an ``IntervalUnion``."""

    def contains(self, x):
        return np.abs(np.asarray(x, dtype=float).reshape(-1)) >= 0.5


class TestIntervalContract:
    def test_set_without_intervals_rejected_at_construction(self):
        # this used to construct, then fail at the first truncated MSE for
        # want of a Monte Carlo budget
        with pytest.raises(ValueError, match="interval union"):
            one_point_instance(0.0, AbsAtLeastHalf())

