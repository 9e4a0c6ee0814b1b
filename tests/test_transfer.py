import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.stats import norm

from polytransfer import dist, poly, transfer
from polytransfer.mc import McSpec
from polytransfer.rng import make_rng


class TestHolderPair:
    def test_valid_pairs(self):
        transfer.HolderPair(2.0, 2.0)
        transfer.HolderPair(math.inf, 1.0)
        transfer.HolderPair(1.0, math.inf)
        transfer.HolderPair(3.0, 1.5)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            transfer.HolderPair(2.0, 3.0)
        with pytest.raises(ValueError):
            transfer.HolderPair(0.5, math.inf)

    def test_from_alpha(self):
        hp = transfer.HolderPair.from_alpha(4.0)
        assert hp.beta == pytest.approx(4.0 / 3.0)


class TestCarberyWrightBound:
    def test_zero_gamma(self):
        assert transfer.carbery_wright_bound(2, 2.0, 0.0, 1.0) == 0.0

    def test_linear_case_dominates_true_probability(self):
        # f(x) = x under N(0,1), q = d = 1: bound C*gamma/E|x|
        e_abs = math.sqrt(2.0 / math.pi)
        bound = transfer.carbery_wright_bound(1, 1.0, 0.1, e_abs, 1.0)
        assert bound == pytest.approx(0.1 / e_abs, rel=1e-12)
        true = 2 * norm.cdf(0.1) - 1
        assert true <= bound

    def test_monomial_powers_dominated_on_gamma_grid(self):
        # f(x) = x^d under N(0,1); true small-ball mass by quadrature
        for d in (1, 2, 3, 5):
            moment = quad(lambda t: abs(t) ** d * norm.pdf(t), -12, 12)[0]
            for gamma in (1e-4, 1e-2, 0.1, 0.5):
                bound = transfer.carbery_wright_bound(d, float(d), gamma, moment, 1.0)
                true = quad(norm.pdf, -gamma ** (1 / d), gamma ** (1 / d))[0]
                assert true <= bound + 1e-12

    def test_moment_must_be_positive(self):
        with pytest.raises(ValueError):
            transfer.carbery_wright_bound(1, 1.0, 0.1, 0.0)


class TestCoefficients:
    def test_bridge_coefficient_basic_plug_in(self):
        hp = transfer.HolderPair(math.inf, 1.0)
        assert transfer.bridge_transfer_coefficient(1, hp, 1.0, 1.0, 1.0) == \
            pytest.approx(2.0, rel=1e-12)

    def test_bridge_coefficient_arithmetic(self):
        hp = transfer.HolderPair(math.inf, 1.0)
        val = transfer.bridge_transfer_coefficient(2, hp, 1.5, 2.0, 1.0)
        assert val == pytest.approx(96.0, rel=1e-12)

    def test_alpha_inf_collapse_to_logconcave_formula(self):
        hp = transfer.HolderPair(math.inf, 1.0)
        for d in (1, 2, 3, 5, 8):
            for ratio in (1.0, 2.5, 7.0):
                a = transfer.bridge_transfer_coefficient(d, hp, 1.0, ratio, 1.3)
                b = transfer.logconcave_transfer_coefficient(d, ratio, 1.3)
                assert a == pytest.approx(b, rel=1e-12)

    def test_logconcave_coefficient_values(self):
        assert transfer.logconcave_transfer_coefficient(1, 1.0, 1.0) == \
            pytest.approx(2.0, rel=1e-12)
        assert transfer.logconcave_transfer_coefficient(3, 3.0, 1.0) == \
            pytest.approx(6 ** 3 * 27, rel=1e-12)

    def test_no_overflow_at_high_degree(self):
        hp = transfer.HolderPair(math.inf, 1.0)
        v = transfer.bridge_transfer_coefficient(40, hp, 2.0, 5.0, 1.0)
        assert math.isfinite(v) and v > 1e60

    def test_infinite_divergence_gives_infinity(self):
        hp = transfer.HolderPair(math.inf, 1.0)
        assert math.isinf(transfer.bridge_transfer_coefficient(2, hp, math.inf, 2.0))
        assert math.isinf(transfer.logconcave_transfer_coefficient(2, math.inf))


class TestOptimalGamma:
    def test_plug_in_half(self):
        assert transfer.optimal_gamma(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_zero_moment(self):
        assert transfer.optimal_gamma(2, 1.0, 0.0, 1.0) == 0.0

    def test_linear_in_moment(self):
        a = transfer.optimal_gamma(3, 2.0, 1.0, 1.5, 1.0)
        b = transfer.optimal_gamma(3, 2.0, 2.0, 1.5, 1.0)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_small_ball_bound_equals_half_at_optimal_gamma(self):
        # with mu = P the bound at the chosen gamma is exactly 1/2
        d, beta, div, c = 2, 1.0, 1.7, 1.0
        moment = 0.8
        gamma = transfer.optimal_gamma(d, beta, moment, div, c)
        bound = div * (c * beta * d * gamma ** (1 / (beta * d))
                       / moment ** (1 / (beta * d))) ** (1 / beta)
        assert bound == pytest.approx(0.5, rel=1e-9)


class TestEmpiricalRatio:
    def test_constant_polynomial_ratio_one(self):
        f = poly.MultiPoly(1, 0, poly.MONOMIAL, {(0,): 1.0})
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([0.0], [2.0])
        res = transfer.empirical_transfer_ratio(f, p, q, 1, McSpec(1000, 0))
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_uniform_abs_mean_ratio(self):
        f = poly.MultiPoly(1, 1, poly.MONOMIAL, {(1,): 1.0})
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([0.0], [2.0])
        res = transfer.empirical_transfer_ratio(f, p, q, 1, McSpec(400_000, 1))
        assert res.ratio == pytest.approx(2.0, rel=0.02)

    def test_zero_polynomial_rejected(self):
        f = poly.MultiPoly(1, 0, poly.MONOMIAL, {(0,): 0.0})
        p = dist.UniformBox([0.0], [1.0])
        with pytest.raises(ValueError):
            transfer.empirical_transfer_ratio(f, p, p, 1, McSpec(100, 0))


class TestCatalogCoefficient:
    def test_zero_shift_identity(self):
        _, coeff = transfer.catalog_coefficient("gaussian1d", 3, mu=0.0)
        assert coeff == 1.0

    def test_one_d_matches_squared_normalizer(self):
        for mu in (0.5, 1.0, 2.0):
            bridge, coeff = transfer.catalog_coefficient("gaussian1d", 1, mu=mu)
            z = 1 + mu / math.sqrt(2 * math.pi)
            assert coeff == pytest.approx(z * z, rel=1e-12)
            # grid sups agree with the closed form within 1%
            p = dist.Gaussian([0.0], [[1.0]])
            q = dist.Gaussian([mu], [[1.0]])
            sp = dist.density_ratio_sup(p, bridge)
            sq = dist.density_ratio_sup(q, bridge)
            assert sp * sq == pytest.approx(coeff, rel=0.02)

    def test_nd_scaling_with_mean_norm(self):
        # coefficient tracks (1 + ||mu||)^2: the ratio stays in a factor-2
        # band across the sweep, and the numeric sup product matches the
        # closed form
        ratios = []
        for norm_mu in (1.5, 3.0, 6.0):
            mu = np.array([norm_mu, 0.0, 0.0])
            bridge, coeff = transfer.catalog_coefficient("gaussianNd", 1, mu=mu)
            ratios.append(coeff / (1 + norm_mu) ** 2)
            assert coeff == pytest.approx(bridge.z_const ** 2, rel=1e-12)
        assert max(ratios) / min(ratios) <= 2.0

    def test_nd_numeric_sup_product_matches_closed_form(self):
        mu = np.array([1.2, -0.9])
        bridge, coeff = transfer.catalog_coefficient("gaussianNd", 1, mu=mu)
        p = dist.Gaussian(np.zeros(2), np.eye(2))
        q = dist.Gaussian(mu, np.eye(2))
        sp = dist.density_ratio_sup(p, bridge, 161)
        sq = dist.density_ratio_sup(q, bridge, 161)
        assert sp * sq == pytest.approx(coeff, rel=0.05)

    def test_quadratic_growth_in_asymptotic_regime(self):
        mus = np.array([64.0, 128.0, 256.0, 512.0])
        coeffs = [transfer.catalog_coefficient("gaussian1d", 1, mu=m)[1] for m in mus]
        slope = np.polyfit(np.log(mus), np.log(coeffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    @pytest.mark.xfail(strict=True, reason=(
        "the closed-form coefficient (1 + mu/sqrt(2 pi))^2 has log-log slope "
        "~1.06 on {1,2,4,8}; quadratic slope only emerges for mu >> sqrt(2 pi)"))
    def test_quadratic_growth_on_small_mu_grid(self):
        mus = np.array([1.0, 2.0, 4.0, 8.0])
        coeffs = [transfer.catalog_coefficient("gaussian1d", 1, mu=m)[1] for m in mus]
        slope = np.polyfit(np.log(mus), np.log(coeffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            transfer.catalog_coefficient("cauchy", 1, mu=1.0)


class TestVerifyTransfer:
    def test_equal_pair_trivially_satisfied(self):
        f = poly.MultiPoly(1, 2, poly.MONOMIAL, {(2,): 1.0, (0,): -0.3})
        q = dist.UniformBox([0.0], [1.0])
        rep = transfer.verify_transfer(f, q, q, 2, transfer.HolderPair(math.inf, 1.0),
                                       mc=McSpec(50_000, 0))
        assert rep.coefficient >= 1.0
        assert rep.satisfied

    def test_uniform_pair_random_polys_satisfied(self):
        rng = np.random.default_rng(0)
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([0.0], [3.0])
        hp = transfer.HolderPair(math.inf, 1.0)
        alphas = poly.multi_indices(1, 2)
        for _ in range(5):
            # iid standard normal coefficients scaled to a unit vector
            c = rng.standard_normal(len(alphas))
            c /= np.linalg.norm(c)
            f = poly.MultiPoly(1, 2, poly.MONOMIAL, dict(zip(alphas, c)))
            rep = transfer.verify_transfer(f, p, q, 2, hp, mc=McSpec(50_000, 1))
            assert rep.satisfied
            assert rep.bridge == "target-is-log-concave"

    def test_disjoint_supports_need_bridge(self):
        f = poly.MultiPoly(1, 1, poly.MONOMIAL, {(1,): 1.0})
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([2.0], [3.0])
        hp = transfer.HolderPair(math.inf, 1.0)
        rep_direct = transfer.verify_transfer(f, p, q, 1, hp, mc=McSpec(50_000, 2))
        assert math.isinf(rep_direct.coefficient)  # direct ratio path blows up
        bridge = dist.UniformBox([0.0], [3.0])
        rep = transfer.verify_transfer(f, p, q, 1, hp, bridge=bridge,
                                       mc=McSpec(50_000, 2))
        # coefficient = (2Cd)^d * ||dQ/dmu|| * ||dP/dmu||^d = 2 * 3 * 3
        assert rep.coefficient == pytest.approx(18.0, rel=1e-9)
        assert math.isfinite(rep.lhs) and rep.satisfied

    def test_log_concave_product_target_needs_no_bridge(self):
        # a Product target used to be refused as "not log-concave by catalog"
        f = poly.MultiPoly(2, 1, poly.MONOMIAL, {(1, 0): 1.0, (0, 1): 0.5})
        g = dist.Gaussian([0.0], [[1.0]])
        p = dist.Product([dist.Gaussian([0.5], [[1.0]]), g])
        hp = transfer.HolderPair(math.inf, 1.0)
        rep = transfer.verify_transfer(f, p, dist.Product([g, g]), 1, hp, mc=McSpec(20_000, 0))
        joint = transfer.verify_transfer(f, dist.Gaussian([0.5, 0.0], np.eye(2)),
                                         dist.Gaussian([0.0, 0.0], np.eye(2)), 1, hp,
                                         mc=McSpec(20_000, 0))
        assert rep.bridge == "target-is-log-concave"
        assert rep.coefficient == pytest.approx(joint.coefficient, rel=1e-9)
        two_sided = dist.TruncatedGaussian(0.0, 1.0,
                                           dist.IntervalUnion(((-3.0, -1.0), (1.0, 3.0))))
        with pytest.raises(ValueError, match="not log-concave"):
            transfer.verify_transfer(f, p, dist.Product([g, two_sided]), 1, hp)

    @pytest.mark.parametrize("alpha", [math.inf, 2.0])
    def test_no_bridge_is_the_target_as_bridge(self, alpha):
        # without a bridge Q is its own bridge: the same numbers, bit for bit
        f = poly.MultiPoly(1, 2, poly.MONOMIAL, {(0,): 0.5, (1,): -0.2, (2,): 1.0})
        p, q = dist.Gaussian([0.5], [[1.0]]), dist.Gaussian([0.0], [[1.0]])
        hp = transfer.HolderPair.from_alpha(alpha)
        mc = McSpec(5_000, 7)
        alone = transfer.verify_transfer(f, p, q, 2, hp, mc=mc)
        bridged = transfer.verify_transfer(f, p, q, 2, hp, bridge=q, mc=mc)
        assert (alone.coefficient, alone.lhs, alone.rhs) == \
            (bridged.coefficient, bridged.lhs, bridged.rhs)
        assert math.isfinite(alone.coefficient) and alone.coefficient > 1.0
        assert (alone.bridge, bridged.bridge) == ("target-is-log-concave", q.label)

    def test_non_logconcave_target_requires_bridge(self):
        f = poly.MultiPoly(1, 1, poly.MONOMIAL, {(1,): 1.0})
        p = dist.Gaussian([0.0], [[1.0]])
        q = dist.TruncatedGaussian(0.0, 1.0, dist.IntervalUnion(((0.0, math.inf),)))
        with pytest.raises(ValueError):
            transfer.verify_transfer(f, p, q, 1, transfer.HolderPair(math.inf, 1.0))


class TestEnsemble:
    FROZEN_K = 1.8  # preliminary brute-force pass gave max/3 = 1.746 (d=2, seed 0)

    def test_quadrature_oracle_simple_cases(self):
        # E|x| over U[0,2] = 1; E|x - 0.5| over U[0,1] = 0.25
        assert transfer.abs_moment_uniform_1d([0.0, 1.0], 0.0, 2.0) == \
            pytest.approx(1.0, rel=1e-12)
        assert transfer.abs_moment_uniform_1d([-0.5, 1.0], 0.0, 1.0) == \
            pytest.approx(0.25, rel=1e-12)

    def test_oracle_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = rng.standard_normal(4)
            exact = transfer.abs_moment_uniform_1d(c, 0.0, 3.0)
            num = quad(lambda t: abs(np.polynomial.polynomial.polyval(t, c)),
                       0.0, 3.0, limit=200)[0] / 3.0
            assert exact == pytest.approx(num, rel=1e-8)

    def test_ensemble_matches_per_interval_oracle(self):
        # reference: the public oracle called once per interval and draw
        for d in (1, 2, 3):
            rng = make_rng(4)
            want = 0.0
            for _ in range(50):
                c = rng.standard_normal(d + 1)
                c /= np.linalg.norm(c)
                e_p = transfer.abs_moment_uniform_1d(c, 0.0, 1.0)
                e_q = transfer.abs_moment_uniform_1d(c, 0.0, 3.0)
                if e_p > 0:
                    want = max(want, (e_q / e_p) ** (1.0 / d))
            assert transfer.ensemble_max_ratio((0.0, 1.0), (0.0, 3.0), d, 50, 4) == want

    def test_ensemble_below_frozen_bound(self):
        for d in (1, 2, 3):
            worst = transfer.ensemble_max_ratio((0.0, 1.0), (0.0, 3.0), d, 200, 0)
            assert worst <= self.FROZEN_K * 3.0


@st.composite
def ensemble_polys(draw):
    """Degree 1-6 coefficient vectors: iid draws, or products of real factors
    (repeated roots allowed) and conjugate-pair factors."""
    degree = draw(st.integers(1, 6))
    if draw(st.booleans()):
        coeff = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
        return draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
    pairs = draw(st.integers(0, degree // 2))
    c = np.array([draw(st.sampled_from([-2.0, -1.0, 0.5, 3.0]))])
    for r in draw(st.lists(st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.0, 2.5]),
                           min_size=degree - 2 * pairs, max_size=degree - 2 * pairs)):
        c = np.polynomial.polynomial.polymul(c, [-r, 1.0])
    for _ in range(pairs):
        re, im = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.01, 2.0))
        c = np.polynomial.polynomial.polymul(c, [re * re + im * im, -2.0 * re, 1.0])
    return c.tolist()


def polynomial_abs_moment(c, a, b):
    """E|p| under U([a, b]) through numpy Polynomial objects."""
    p = Polynomial(np.asarray(c, dtype=float))
    anti = p.integ()
    roots = [r.real for r in p.roots() if abs(r.imag) < 1e-12]
    cuts = [a] + sorted(r for r in roots if a < r < b) + [b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo >= 1e-15:
            total += abs(anti(hi) - anti(lo))
    return total / (b - a)


class TestAntiderivativeAndRoots:
    @given(c=ensemble_polys(), xs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_bits_match_numpy_polynomial(self, c, xs):
        p = Polynomial(np.asarray(c, dtype=float))
        anti, roots = transfer._antiderivative_and_roots(c)
        want = np.array([p.integ()(x) for x in xs])
        assert np.array([transfer._horner(anti, x) for x in xs]).tobytes() == want.tobytes()
        # float equality: Polynomial maps a root r to 0.0 + r, so a zero root
        # can differ in sign only
        assert roots == [r.real for r in p.roots() if abs(r.imag) < 1e-12]
        for a, b in ((0.0, 1.0), (0.0, 3.0), (-2.0, 0.5)):
            assert transfer.abs_moment_uniform_1d(c, a, b) == polynomial_abs_moment(c, a, b)


class TestReportCsv:
    def test_round_trip(self, tmp_path):
        hp = transfer.HolderPair(math.inf, 1.0)
        rep = transfer.TransferReport("euclidean", 2, hp, 1.0, "bridge", 5.0,
                                      1.0, 0.1, 6.0, 0.2)
        path = tmp_path / "r.csv"
        transfer.write_reports(path, [rep])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == transfer.TransferReport.CSV_HEADER
        assert rows[1][0] == "euclidean"
        assert float(rows[1][5]) == 5.0
        assert rows[1][10] == "True"

    def test_satisfied_uses_three_sigma_slack(self):
        hp = transfer.HolderPair(math.inf, 1.0)
        rep = transfer.TransferReport("x", 1, hp, 1.0, "b", 1.0,
                                      1.05, 0.02, 1.0, 0.0)
        assert rep.satisfied  # 1.05 <= 1.0 + 3*0.02
        rep2 = transfer.TransferReport("x", 1, hp, 1.0, "b", 1.0,
                                       1.10, 0.02, 1.0, 0.0)
        assert not rep2.satisfied

    @pytest.mark.parametrize("rhs_se", [math.nan, 0.0, math.inf])
    def test_infinite_rhs_is_satisfied(self, rhs_se):
        # an infinite coefficient with a nan standard error used to read False
        hp = transfer.HolderPair(math.inf, 1.0)
        rep = transfer.TransferReport("x", 1, hp, 1.0, "b", math.inf,
                                      1.0e9, 0.5, math.inf, rhs_se)
        assert rep.satisfied
