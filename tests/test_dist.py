import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from polytransfer import dist
from polytransfer.mc import McSpec
from polytransfer.rng import Tag, make_rng

PATHS = st.lists(st.integers(0, 2 ** 64 - 1), max_size=3).map(tuple)

SQRT_2PI = math.sqrt(2 * math.pi)


def quad_mass(d, lo, hi):
    return quad(lambda t: float(np.asarray(d.pdf(t))), lo, hi, limit=300)[0]


class TestPdf:
    def test_standard_normal_mode(self):
        g = dist.Gaussian([0.0], [[1.0]])
        assert g.pdf(0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-12)

    def test_uniform_box_density(self):
        u = dist.UniformBox([0.0], [2.0])
        assert u.pdf(1.0) == 0.5
        assert u.pdf(3.0) == 0.0

    def test_bridge_zero_shift_is_gaussian(self):
        b = dist.bridge_1d(0.0)
        g = dist.Gaussian([0.0], [[1.0]])
        xs = np.linspace(-5, 5, 201)
        np.testing.assert_allclose(b.pdf(xs), g.pdf(xs), rtol=1e-12)

    def test_truncated_gaussian_pdf(self):
        s = dist.IntervalUnion(((0.0, math.inf),))
        tg = dist.TruncatedGaussian([0.0], [[1.0]], s)
        assert tg.pdf(-1.0) == 0.0
        assert tg.pdf(1.0) == pytest.approx(norm.pdf(1.0) / 0.5, rel=1e-9)

    def test_dimension_mismatch(self):
        g = dist.Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(dist.DimensionMismatchError):
            g.pdf([1.0, 2.0, 3.0])

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(dist.NotSPDError):
            dist.Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_uniform_box_requires_lo_lt_hi(self):
        with pytest.raises(ValueError):
            dist.UniformBox([1.0], [1.0])


class TestNormalization:
    """Every 1-D catalog member integrates to 1."""

    @pytest.mark.parametrize("d,lo,hi", [
        (dist.Gaussian([0.3], [[2.0]]), -15, 15),
        (dist.UniformBox([-1.0], [3.0]), -1, 3),
        (dist.bridge_1d(1.3), -10, 12),
        (dist.bridge_1d(-2.0), -12, 10),
        (dist.TruncatedGaussian([0.0], [[1.0]],
                                dist.IntervalUnion(((-1.0, 0.5), (1.0, 2.0)))), -1, 2),
    ])
    def test_integrates_to_one(self, d, lo, hi):
        assert quad_mass(d, lo, hi) == pytest.approx(1.0, abs=1e-6)

    def test_product_bridge_integrates_to_one(self):
        factors = [dist.Gaussian([0.0], [[1.0]]), dist.UniformBox([-1.0], [1.0])]
        pb = dist.ProductBridge(factors, gamma=1.5)
        from scipy.integrate import dblquad
        val, _ = dblquad(lambda y, x: float(np.asarray(pb.pdf([x, y]))),
                         -9, 10.5, -1, 1, epsabs=1e-9)
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_general_cov_bridge_integrates_to_one(self):
        cov = np.array([[1.0, 0.4], [0.4, 2.0]])
        b = dist.bridge_construct("gaussian_general_cov", cov=cov, gamma=1.2)
        from scipy.integrate import dblquad
        val, _ = dblquad(lambda y, x: float(np.asarray(b.pdf([x, y]))),
                         -12, 12, -12, 13.5, epsabs=1e-9)
        assert val == pytest.approx(1.0, abs=1e-5)


class TestLogConcavity:
    """Grid midpoint check: log pdf((x+y)/2) >= (log pdf(x) + log pdf(y))/2."""

    def _check_1d(self, d, lo, hi):
        xs = np.linspace(lo, hi, 401)
        logp = np.log(np.maximum(np.asarray(d.pdf(xs)), 1e-300))
        for i in range(0, 399, 2):
            mid = logp[i + 1]
            assert mid >= 0.5 * (logp[i] + logp[i + 2]) - 1e-9

    @pytest.mark.parametrize("mu", [0.7, 2.0, 5.0])
    def test_bridge_1d(self, mu):
        self._check_1d(dist.bridge_1d(mu), -4, mu + 4)

    def test_bridge_nd_pairs(self):
        b = dist.bridge_nd([1.0, 2.0, 0.5])
        rng = np.random.default_rng(0)
        x = rng.normal(scale=1.5, size=(200, 3))
        y = rng.normal(scale=1.5, size=(200, 3))
        lx = np.log(np.maximum(b.pdf(x), 1e-300))
        ly = np.log(np.maximum(b.pdf(y), 1e-300))
        lm = np.log(np.maximum(b.pdf((x + y) / 2), 1e-300))
        assert np.all(lm >= 0.5 * (lx + ly) - 1e-9)

    def test_general_cov_bridge_pairs(self):
        cov = np.array([[1.5, -0.6], [-0.6, 1.0]])
        b = dist.GaussianBridge(2.0, cov=cov)
        rng = np.random.default_rng(1)
        x = rng.normal(scale=1.5, size=(300, 2))
        y = rng.normal(scale=1.5, size=(300, 2))
        lm = np.log(np.maximum(b.pdf((x + y) / 2), 1e-300))
        lx = np.log(np.maximum(b.pdf(x), 1e-300))
        ly = np.log(np.maximum(b.pdf(y), 1e-300))
        assert np.all(lm >= 0.5 * (lx + ly) - 1e-9)


class TestSampling:
    def test_gaussian_clt_mean(self):
        g = dist.Gaussian([0.0], [[1.0]])
        s = g.sample(100_000, 11)
        assert abs(s.mean()) < 0.02

    def test_determinism(self):
        g = dist.Gaussian([0.0, 1.0], np.eye(2))
        np.testing.assert_array_equal(g.sample(1000, 5), g.sample(1000, 5))
        assert not np.array_equal(g.sample(1000, 5), g.sample(1000, 6))

    @given(st.floats(-1e3, 1e3), st.floats(1e-6, 1e6), st.integers(1, 300),
           st.integers(0, 2 ** 32 - 1), PATHS)
    @settings(max_examples=60, deadline=None)
    def test_1d_sample_bits_equal_matmul(self, mean, var, n, seed, path):
        g = dist.Gaussian([mean], [[var]])
        z = make_rng(seed, *path).standard_normal((n, 1))
        expected = g.mean + z @ g._chol.T
        got = g.sample(n, seed, path)
        assert got.shape == (n, 1)
        assert got.tobytes() == expected.tobytes()

    def test_truncated_support(self):
        s = dist.IntervalUnion(((0.0, math.inf),))
        tg = dist.TruncatedGaussian([0.0], [[1.0]], s)
        draws = tg.sample(5000, 3)
        assert np.all(draws >= 0)

    def test_truncated_ks_distance(self):
        s = dist.IntervalUnion(((0.5, 2.5),))
        tg = dist.TruncatedGaussian([0.0], [[1.0]], s)
        n = 10_000
        draws = np.sort(tg.sample(n, 7)[:, 0])
        mass = norm.cdf(2.5) - norm.cdf(0.5)
        analytic = (norm.cdf(draws) - norm.cdf(0.5)) / mass
        empirical = np.arange(1, n + 1) / n
        ks = np.max(np.abs(analytic - empirical))
        assert ks <= 2.0 / math.sqrt(n)

    def test_inverse_cdf_fallback_small_mass(self):
        s = dist.IntervalUnion(((4.0, 4.5),))  # mass ~ 3e-5 < 1e-3
        tg = dist.TruncatedGaussian([0.0], [[1.0]], s)
        draws = tg.sample(2000, 9)[:, 0]
        assert np.all((draws >= 4.0) & (draws <= 4.5))
        lo = norm.cdf(4.0)
        mass = norm.cdf(4.5) - lo
        u = (norm.cdf(draws) - lo) / mass
        ks = np.max(np.abs(np.sort(u) - np.arange(1, 2001) / 2000))
        assert ks <= 2.0 / math.sqrt(2000)

    def test_rejection_budget_error(self):
        s = dist.IntervalUnion(((7.0, 7.2),))  # mass ~ 1e-12 < 1e-6
        tg = dist.TruncatedGaussian([0.0], [[1.0]], s)
        with pytest.raises(dist.RejectionBudgetError):
            tg.sample(10, 0)

    def test_bridge_sampler_matches_quadrature_mean(self):
        b = dist.bridge_1d(2.0)
        s = b.sample(200_000, 4)[:, 0]
        m = quad(lambda t: t * float(np.asarray(b.pdf(t))), -9, 11, limit=300)[0]
        assert s.mean() == pytest.approx(m, abs=0.02)

    def test_general_cov_bridge_sampler_moments(self):
        cov = np.array([[1.0, 0.4], [0.4, 2.0]])
        b = dist.GaussianBridge(1.2, cov=cov)
        s = b.sample(200_000, 6)
        from scipy.integrate import dblquad
        m0 = dblquad(lambda y, x: x * float(np.asarray(b.pdf([x, y]))),
                     -12, 12, -12, 13.5, epsabs=1e-8)[0]
        assert s[:, 0].mean() == pytest.approx(m0, abs=0.02)


SPD3 = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]])
BLOCK_DENSITIES = {
    "gaussian-1d": dist.Gaussian([0.4], [[2.5]]),
    "gaussian-3d": dist.Gaussian([1.0, -2.0, 0.5], SPD3),
    "uniform-box": dist.UniformBox([0.0, -1.0], [1.0, 3.0]),
    "product-2d": dist.Product([dist.Gaussian([0.0], [[1.0]]),
                                dist.UniformBox([-1.0], [1.0])]),
    "truncated": dist.TruncatedGaussian([0.0], [[1.0]], dist.IntervalUnion(((0.5, 2.0),))),
}


class TestBlocks:
    @pytest.mark.parametrize("name", sorted(BLOCK_DENSITIES))
    @given(n=st.integers(0, 400), size=st.integers(1, 500),
           seed=st.integers(0, 2 ** 32 - 1), path=PATHS)
    @settings(max_examples=40, deadline=None)
    def test_blocks_concatenate_to_sample(self, name, n, size, seed, path):
        d = BLOCK_DENSITIES[name]
        blocks = list(d.blocks(n, seed, path, size))
        assert [b.shape[0] for b in blocks] == [min(size, n - s) for s in range(0, n, size)]
        got = np.concatenate(blocks) if blocks else np.empty((0, d.dim))
        assert got.tobytes() == d.sample(n, seed, path).tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_DENSITIES))
    def test_block_size_must_be_positive(self, name):
        with pytest.raises(ValueError):
            BLOCK_DENSITIES[name].blocks(10, 0, (), 0)

    def test_product_factor_columns_do_not_alias(self):
        # factor i used to read stream + 17 (i + 1), so column 1 at stream 1
        # was column 0 at stream 18
        d = BLOCK_DENSITIES["product-2d"]
        paths = [(), (1,), (18,), (18, 0), (Tag.FACTOR, 0), (Tag.FACTOR, 1)]
        cols = {x[:, j].tobytes() for p in paths for x in [d.sample(50, 3, p)] for j in (0, 1)}
        assert len(cols) == 2 * len(paths)

    def test_correlated_sample_is_the_cholesky_map(self):
        g = BLOCK_DENSITIES["gaussian-3d"]
        z = make_rng(4, 2).standard_normal((500, 3))
        np.testing.assert_allclose(g.sample(500, 4, (2,)), g.mean + z @ g._chol.T,
                                   rtol=1e-14, atol=1e-14)

    @given(rows=st.integers(1, 40), k=st.integers(1, 9), cols=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rowwise_matmul_rows_do_not_depend_on_row_count(self, rows, k, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, k))
        m = rng.standard_normal((k, cols))
        whole = dist.rowwise_matmul(a, m)
        np.testing.assert_allclose(whole, a @ m, rtol=1e-12, atol=1e-12)
        for i in range(rows):
            assert dist.rowwise_matmul(a[i:i + 1], m).tobytes() == whole[i:i + 1].tobytes()


class TestRatioSup:
    def test_identical_densities(self):
        g = dist.Gaussian([0.0], [[1.0]])
        assert dist.density_ratio_sup(g, g) == pytest.approx(1.0, rel=1e-9)

    def test_uniform_boxes_exact(self):
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([0.0], [3.0])
        assert dist.density_ratio_sup(p, q) == 3.0

    def test_uniform_boxes_disjointish_infinite(self):
        p = dist.UniformBox([0.0], [2.0])
        q = dist.UniformBox([1.0], [1.5])
        assert math.isinf(dist.density_ratio_sup(p, q))

    def test_gaussian_vs_bridge_matches_normalizer(self):
        p = dist.Gaussian([0.0], [[1.0]])
        q = dist.bridge_1d(2.0)
        expected = 1.0 + 2.0 / SQRT_2PI
        assert dist.density_ratio_sup(p, q) == pytest.approx(expected, rel=0.01)

    def test_sup_at_least_one_inside_support(self):
        pairs = [
            (dist.Gaussian([0.0], [[1.0]]), dist.Gaussian([0.5], [[1.5]])),
            (dist.UniformBox([0.0], [1.0]), dist.UniformBox([-1.0], [2.0])),
            (dist.Gaussian([0.0], [[1.0]]), dist.bridge_1d(1.0)),
        ]
        for p, q in pairs:
            assert dist.density_ratio_sup(p, q) >= 1.0 - 1e-9

    def test_details_report_box(self):
        p = dist.Gaussian([0.0], [[1.0]])
        res = dist.density_ratio_sup(p, dist.bridge_1d(1.0), details=True)
        assert res.box_lo[0] < -7 and res.box_hi[0] > 8
        assert float(res) == res.value


class TestRenyi:
    def test_equal_pair_exactly_one(self):
        g = dist.Gaussian([0.0], [[1.0]])
        for alpha in (1.0, 2.0, 4.0):
            est = dist.renyi_divergence(g, g, alpha, McSpec(2000, 0))
            assert est.value == pytest.approx(1.0, abs=1e-12)
            assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_alpha_one_is_always_one(self):
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([0.0], [2.0])
        est = dist.renyi_divergence(p, q, 1.0, McSpec(200_000, 1))
        assert est.value == pytest.approx(1.0, abs=4 * est.stderr + 1e-9)

    def test_alpha_two_uniform_pair(self):
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([0.0], [2.0])
        est = dist.renyi_divergence(p, q, 2.0, McSpec(400_000, 2))
        assert est.value == pytest.approx(math.sqrt(2.0), rel=0.01)

    def test_monotone_in_alpha(self):
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([0.0], [3.0])
        vals = [dist.renyi_divergence(p, q, a, McSpec(100_000, 3)).value
                for a in (1.0, 2.0, 4.0)]
        vals.append(dist.density_ratio_sup(p, q))
        assert all(v1 <= v2 + 1e-9 for v1, v2 in zip(vals, vals[1:]))

    def test_infinite_ratio_flagged(self):
        class LeakyUniform(dist.UniformBox):
            # sampler support exceeds the pdf support: forces p>0, q=0 draws
            def sample(self, n, seed, path=()):
                return dist.UniformBox([0.0], [2.0]).sample(n, seed, path)

        p = dist.UniformBox([0.0], [2.0])
        q = LeakyUniform([0.0], [1.0])
        est = dist.renyi_divergence(p, q, 2.0, McSpec(10_000, 4))
        assert math.isinf(est.value)
        assert est.flag == "infinite-ratio"


class TestGaussianMass:
    def test_halfline_symmetry(self):
        m = dist.gaussian_mass([0.0], [[1.0]], dist.IntervalUnion(((0.0, math.inf),)))
        assert m.value == pytest.approx(0.5, abs=1e-12)

    def test_full_line(self):
        m = dist.gaussian_mass([0.0], [[1.0]],
                               dist.IntervalUnion(((-math.inf, math.inf),)))
        assert m.value == pytest.approx(1.0, abs=1e-12)

    def test_one_sided_tail(self):
        m = dist.gaussian_mass([0.0], [[1.0]], dist.IntervalUnion(((1.0, math.inf),)))
        assert m.value == pytest.approx(1.0 - norm.cdf(1.0), abs=1e-12)

    def test_halfspace_exact(self):
        hs = dist.Halfspace((1.0, 1.0), 0.0)
        m = dist.gaussian_mass([0.0, 0.0], np.eye(2), hs)
        assert m.value == pytest.approx(0.5, abs=1e-12)

    def test_box_diag_cov_vs_mc(self):
        box = dist.BoxSet((-1.0, -1.0), (1.0, 0.5))
        exact = dist.gaussian_mass([0.0, 0.0], np.eye(2), box)
        mc = dist.gaussian_mass([0.0, 0.0], np.array([[1.0, 0.1], [0.1, 1.0]]),
                                box, McSpec(200_000, 5))
        assert exact.stderr == 0.0
        assert mc.stderr > 0
        assert abs(mc.value - exact.value) < 0.05  # nearby covariances


class TestBridgeConstruct:
    def test_z_for_sqrt_2pi_shift(self):
        b = dist.bridge_construct("gaussian1d", mu=SQRT_2PI)
        assert b.z_const == pytest.approx(2.0, rel=1e-12)

    def test_zero_shift_returns_base(self):
        b = dist.bridge_construct("gaussian1d", mu=0.0)
        assert isinstance(b, dist.Gaussian)
        bn = dist.bridge_construct("gaussianNd", mu=[0.0, 0.0])
        assert isinstance(bn, dist.Gaussian)

    def test_general_cov_normalizer_det_identity(self):
        # Z = 1 + gamma/sqrt(2 pi) * sqrt(det cov' / det cov), cov' = first
        # row/column deletion; equals 1 + gamma*sqrt((cov^-1)_11/(2 pi)).
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.5]])
        gamma = 0.9
        b = dist.bridge_construct("gaussian_general_cov", cov=cov, gamma=gamma)
        det_ratio = np.linalg.det(cov[1:, 1:]) / np.linalg.det(cov)
        expected = 1.0 + gamma / SQRT_2PI * math.sqrt(det_ratio)
        assert b.z_const == pytest.approx(expected, rel=1e-12)

    def test_translated_product_normalizer(self):
        factors = [dist.UniformBox([-1.0], [1.0]), dist.Gaussian([0.0], [[1.0]])]
        pb = dist.bridge_construct("translated_product", factors=factors, gamma=2.0)
        assert pb.z_const == pytest.approx(1.0 + 2.0 * 0.5, rel=1e-12)

    def test_nd_bridge_ratio_bounded_by_z(self):
        mu = np.array([1.0, 2.0])
        b = dist.bridge_nd(mu)
        p = dist.Gaussian([0.0, 0.0], np.eye(2))
        q = dist.Gaussian(mu, np.eye(2))
        rng = np.random.default_rng(2)
        pts = rng.normal(scale=2.0, size=(4000, 2))
        rp = p.pdf(pts) / b.pdf(pts)
        rq = q.pdf(pts) / b.pdf(pts)
        assert rp.max() <= b.z_const * (1 + 1e-9)
        assert rq.max() <= b.z_const * (1 + 1e-9)
