import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid, quad
from scipy.stats import kstest, norm, truncnorm

from polytransfer import dist, trunc
from polytransfer.mc import McEstimate, McSpec
from polytransfer.rng import Tag, make_rng

PATHS = st.lists(st.integers(0, 2 ** 64 - 1), max_size=3).map(tuple)

SQRT_2PI = math.sqrt(2 * math.pi)


class AbsAtLeastHalf:
    """{y : |y| >= 1/2}: a 1-D set that is not an ``IntervalUnion``."""

    def contains(self, x):
        return np.abs(np.asarray(x, dtype=float).reshape(-1)) >= 0.5


def quad_mass(d, lo, hi):
    return quad(lambda t: float(np.asarray(d.pdf(t))), lo, hi, limit=300)[0]


def grid_cdf(pdf, lo, hi, points=200_001):
    """CDF of a 1-D density on [lo, hi] by the trapezoid rule on a fine grid
    (a jump in the density costs about 1e-4 of its height here)."""
    xs = np.linspace(lo, hi, points)
    cdf = cumulative_trapezoid(pdf(xs), xs, initial=0.0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-4)
    return lambda x: np.interp(x, xs, cdf)


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
        tg = dist.TruncatedGaussian(0.0, 1.0, s)
        assert tg.pdf(-1.0) == 0.0
        assert tg.pdf(1.0) == pytest.approx(norm.pdf(1.0) / 0.5, rel=1e-9)

    def test_dimension_mismatch(self):
        g = dist.Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(dist.DimensionMismatchError):
            g.pdf([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("mean, cov", [([0.0], 1.0), ([0.0, 0.0], [1.0, 2.0]),
                                           ([0.0], [1.0]), ([0.0, 0.0], np.eye(3))])
    def test_covariance_must_be_dim_by_dim(self, mean, cov):
        # a covariance is (dim, dim): no scalar or diagonal shorthand
        with pytest.raises(dist.DimensionMismatchError):
            dist.Gaussian(mean, cov)

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
        (dist.TruncatedGaussian(0.0, 1.0,
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

    def test_product_bridge_takes_the_flag_from_its_factors(self):
        g = dist.Gaussian([0.0], [[1.0]])
        two_sided = dist.TruncatedGaussian(0.0, 1.0,
                                           dist.IntervalUnion(((-3.0, -1.0), (1.0, 3.0))))
        assert dist.ProductBridge([g, g], 1.0).log_concave
        assert not dist.ProductBridge([g, two_sided], 1.0).log_concave

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
        tg = dist.TruncatedGaussian(0.0, 1.0, s)
        draws = tg.sample(5000, 3)
        assert np.all(draws >= 0)

    def test_truncated_ks_distance(self):
        s = dist.IntervalUnion(((0.5, 2.5),))
        tg = dist.TruncatedGaussian(0.0, 1.0, s)
        n = 10_000
        draws = np.sort(tg.sample(n, 7)[:, 0])
        mass = norm.cdf(2.5) - norm.cdf(0.5)
        analytic = (norm.cdf(draws) - norm.cdf(0.5)) / mass
        empirical = np.arange(1, n + 1) / n
        ks = np.max(np.abs(analytic - empirical))
        assert ks <= 2.0 / math.sqrt(n)

    def test_inverse_cdf_fallback_small_mass(self):
        s = dist.IntervalUnion(((4.0, 4.5),))  # mass ~ 3e-5
        tg = dist.TruncatedGaussian(0.0, 1.0, s)
        draws = tg.sample(2000, 9)[:, 0]
        assert np.all((draws >= 4.0) & (draws <= 4.5))
        lo = norm.cdf(4.0)
        mass = norm.cdf(4.5) - lo
        u = (norm.cdf(draws) - lo) / mass
        ks = np.max(np.abs(np.sort(u) - np.arange(1, 2001) / 2000))
        assert ks <= 2.0 / math.sqrt(2000)

    def test_far_tail_interval_is_exact(self):
        s = dist.IntervalUnion(((7.0, 7.2),))  # mass ~ 1e-12
        tg = dist.TruncatedGaussian(0.0, 1.0, s)
        n = 10_000
        draws = tg.sample(n, 0)[:, 0]
        assert np.all(s.contains(draws))
        # norm.sf keeps its relative accuracy here, where 1 - norm.cdf is 0
        u = (norm.sf(7.0) - norm.sf(draws)) / (norm.sf(7.0) - norm.sf(7.2))
        ks = np.max(np.abs(np.sort(u) - np.arange(1, n + 1) / n))
        assert ks <= 2.0 / math.sqrt(n)

    @pytest.mark.parametrize("lo, hi", [(-0.5, math.inf), (-0.5, 1.5)],
                             ids=["half-line", "interval"])
    def test_interval_mass_box_and_draws(self, lo, hi):
        mean, sd = 0.3, math.sqrt(1.5)
        s = dist.IntervalUnion(((lo, hi),))
        exact = norm.cdf(hi, mean, sd) - norm.cdf(lo, mean, sd)
        assert dist.gaussian_mass(mean, 1.5, s) == pytest.approx(exact, rel=1e-12)
        tg = dist.TruncatedGaussian(mean, 1.5, s)
        assert tg.mass == pytest.approx(exact, rel=1e-12)
        box_lo, box_hi = tg.bounding_box()
        assert box_lo[0] == lo and box_hi[0] == min(hi, mean + dist.BOX_SIGMAS * sd)
        draws = tg.sample(5000, 4)[:, 0]
        assert np.all(s.contains(draws))
        law = truncnorm((lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd)
        assert kstest(draws, law.cdf).pvalue > 0.01

    def test_product_bridge_sample_memory_is_bounded(self):
        # the rejection rounds used to collect draws in Python lists (38.7 MiB peak)
        b = dist.ProductBridge([dist.Gaussian([0.0], [[1.0]])] * 2, 1.0)
        tracemalloc.start()
        try:
            out = b.sample(200_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (200_000, 2)
        assert peak < 28 * 2 ** 20   # the result alone is 3.1 MiB

    @pytest.mark.parametrize("s", [AbsAtLeastHalf()], ids=["1d-custom-set"])
    def test_set_without_intervals_rejected_before_its_mass(self, s, monkeypatch):
        monkeypatch.setattr(dist, "gaussian_mass", lambda *a: pytest.fail("mass computed"))
        with pytest.raises(ValueError, match="interval union"):
            dist.TruncatedGaussian(0.0, 1.0, s)

    @pytest.mark.parametrize("ints", [((6.0, math.inf),), ((30.0, math.inf),),
                                      ((-math.inf, -30.0),)])
    def test_one_sided_deep_tail_mean(self, ints):
        s = dist.IntervalUnion(ints)   # masses ~ 1e-9 and ~ 5e-198
        n = 100_000
        draws = dist.TruncatedGaussian(0.0, 1.0, s).sample(n, 5)[:, 0]
        assert np.all(s.contains(draws))
        m0, m1, m2 = trunc.truncated_normal_moments(0.0, ints)
        mean = m1 / m0
        se = math.sqrt((m2 / m0 - mean * mean) / n)
        assert abs(draws.mean() - mean) < 4.0 * se

    @given(ends=st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=4, unique=True),
           n=st.integers(1, 300), size=st.integers(1, 100),
           seed=st.integers(0, 2 ** 32 - 1), path=PATHS)
    @settings(max_examples=100, deadline=None)
    def test_interval_draws_land_in_the_set(self, ends, n, size, seed, path):
        ends = sorted(ends)
        s = dist.IntervalUnion(tuple(zip(ends[::2], ends[1::2])))
        try:
            tg = dist.TruncatedGaussian(0.0, 1.0, s)
        except ValueError:   # mass underflows to 0 beyond ~38.5 sd
            assume(False)
        draws = tg.sample(n, seed, path)
        assert draws.shape == (n, 1)
        assert np.all(s.contains(draws))
        assert np.concatenate(list(tg.blocks(n, seed, path, size))).tobytes() == draws.tobytes()

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

    @pytest.mark.parametrize("f1, f2", [
        # a first factor with no closed-form mass below 0
        (dist.bridge_1d(1.0), dist.Gaussian([0.0], [[1.0]])),
        (dist.Gaussian([0.0], [[1.0]]), dist.UniformBox([-1.0], [2.0])),
        (dist.UniformBox([-1.0], [2.0]), dist.Gaussian([0.0], [[1.0]])),
        (dist.TruncatedGaussian(0.0, 1.0, dist.IntervalUnion(((-0.01, 4.0),))),
         dist.Gaussian([0.0], [[1.0]])),
    ], ids=["bridge-normal", "normal-uniform", "uniform-normal", "truncated-normal"])
    def test_product_bridge_marginals_match_quadrature(self, f1, f2):
        gamma = 1.5
        pb = dist.ProductBridge([f1, f2], gamma)
        s = pb.sample(20_000, 8)
        lo, hi = pb.bounding_box()
        # the envelope: f1 held at f1(0) across the gap (0, gamma)
        envelope = grid_cdf(lambda x: f1.pdf(x - np.clip(x, 0.0, gamma)) / pb.z_const,
                            lo[0] - 1.0, hi[0] + 1.0)
        assert kstest(s[:, 0], envelope).pvalue > 0.01
        assert kstest(s[:, 1], grid_cdf(f2.pdf, lo[1] - 1.0, hi[1] + 1.0)).pvalue > 0.01

    def test_nd_bridge_projects_to_the_1d_bridge(self):
        mu = np.array([1.0, 2.0, -0.5])
        gamma = float(np.linalg.norm(mu))
        v = mu / gamma
        w = np.cross(v, [0.0, 0.0, 1.0])
        s = dist.bridge_nd(mu).sample(20_000, 9)
        along = grid_cdf(dist.bridge_1d(gamma).pdf, -9.0, gamma + 9.0)
        assert kstest(s @ v, along).pvalue > 0.01
        assert kstest(s @ (w / np.linalg.norm(w)), norm.cdf).pvalue > 0.01


SPD3 = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]])
BLOCK_DENSITIES = {
    "gaussian-1d": dist.Gaussian([0.4], [[2.5]]),
    "gaussian-3d": dist.Gaussian([1.0, -2.0, 0.5], SPD3),
    "uniform-box": dist.UniformBox([0.0, -1.0], [1.0, 3.0]),
    "product-2d": dist.Product([dist.Gaussian([0.0], [[1.0]]),
                                dist.UniformBox([-1.0], [1.0])]),
    "truncated": dist.TruncatedGaussian(0.0, 1.0, dist.IntervalUnion(((0.5, 2.0),))),
    "gaussian-bridge": dist.bridge_nd([1.0, -0.5]),
    "product-bridge": dist.ProductBridge([dist.Gaussian([0.0], [[1.0]]),
                                          dist.UniformBox([-1.0], [2.0])], 1.5),
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
    def test_empty_sample_keeps_the_dimension(self, name):
        d = BLOCK_DENSITIES[name]
        assert d.sample(0, 3, (1,)).shape == (0, d.dim)

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
    @example(rows=7, k=1, cols=3, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_rowwise_matmul_rows_do_not_depend_on_row_count(self, rows, k, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, k))
        m = rng.standard_normal((k, cols))
        whole = dist.rowwise_matmul(a, m)
        np.testing.assert_allclose(whole, a @ m, rtol=1e-12, atol=1e-12)
        terms = [sum((a[:, t] * m[t, j] for t in range(1, k)), a[:, 0] * m[0, j])
                 for j in range(cols)]
        assert whole.tobytes() == np.stack(terms, axis=-1).tobytes()
        for i in range(rows):
            assert dist.rowwise_matmul(a[i:i + 1], m).tobytes() == whole[i:i + 1].tobytes()


CONTRACT_DENSITIES = {
    **BLOCK_DENSITIES,
    "gaussian-bridge-unrotated": dist.bridge_nd([1.5, 0.0, 0.0]),
    "gaussian-bridge-general-cov": dist.GaussianBridge(1.2, [[1.0, 0.5], [0.5, 2.0]]),
    "product-bridge-one-factor": dist.ProductBridge([dist.Gaussian([0.0], [[1.0]])], 0.7),
}


def _catalog_classes(cls=dist.Density):
    for sub in cls.__subclasses__():
        if sub.__module__ == dist.__name__:
            yield sub
        yield from _catalog_classes(sub)


class TestPdfContract:
    @pytest.mark.parametrize("name", sorted(CONTRACT_DENSITIES))
    @given(m=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_agree_with_points(self, name, m, seed):
        # batch and point may round the exponent apart in the last bits
        # (LAPACK, SIMD exp), which exp scales by |log pdf|: the points stay
        # in the middle half of the bounding box
        d = CONTRACT_DENSITIES[name]
        lo, hi = d.bounding_box()
        box = lo + (0.25 + 0.5 * np.random.default_rng(seed).random((m, d.dim))) * (hi - lo)
        rows = np.concatenate([d.sample(m, seed), box])
        batch = d.pdf(rows)
        assert isinstance(batch, np.ndarray) and batch.shape == (2 * m,)
        points = [d.pdf(row) for row in rows]
        assert all(type(v) is float for v in points)
        if d.dim == 1:
            assert [d.pdf(float(row[0])) for row in rows] == points
        np.testing.assert_allclose(batch, points, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("cls", sorted(_catalog_classes(), key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_subclass_evaluates_rows_and_draws(self, cls):
        # the base sample and blocks call each other: a class that
        # overrides neither would recurse without end
        assert cls.pdf is dist.Density.pdf
        assert cls._pdf is not dist.Density._pdf
        assert cls.sample is not dist.Density.sample or cls.blocks is not dist.Density.blocks

    def test_bridge_1d_is_bridge_nd(self):
        xs = np.linspace(-6.0, 8.0, 57)
        for mu in (-2.0, 0.0, 1.3):
            b1, bn = dist.bridge_1d(mu), dist.bridge_nd([mu])
            assert b1.label == bn.label
            assert getattr(b1, "z_const", 1.0) == getattr(bn, "z_const", 1.0)
            assert b1.pdf(xs).tobytes() == bn.pdf(xs).tobytes()
        assert dist.bridge_1d(2.0).direction.tolist() == [1.0]
        assert dist.bridge_nd([2.0, 0.0]).direction.tolist() == [1.0, 0.0]
        assert dist.bridge_1d(-2.0).direction.tolist() == [-1.0]


class TestRatioSup:
    def test_identical_densities(self):
        g = dist.Gaussian([0.0], [[1.0]])
        assert dist.density_ratio_sup(g, g).value == pytest.approx(1.0, rel=1e-9)

    def test_uniform_boxes_exact(self):
        p = dist.UniformBox([0.0], [1.0])
        q = dist.UniformBox([0.0], [3.0])
        assert dist.density_ratio_sup(p, q).value == 3.0

    def test_uniform_boxes_disjointish_infinite(self):
        p = dist.UniformBox([0.0], [2.0])
        q = dist.UniformBox([1.0], [1.5])
        assert math.isinf(dist.density_ratio_sup(p, q).value)

    def test_gaussian_vs_bridge_matches_normalizer(self):
        p = dist.Gaussian([0.0], [[1.0]])
        q = dist.bridge_1d(2.0)
        expected = 1.0 + 2.0 / SQRT_2PI
        assert dist.density_ratio_sup(p, q).value == pytest.approx(expected, rel=0.01)

    def test_sup_at_least_one_inside_support(self):
        pairs = [
            (dist.Gaussian([0.0], [[1.0]]), dist.Gaussian([0.5], [[1.5]])),
            (dist.UniformBox([0.0], [1.0]), dist.UniformBox([-1.0], [2.0])),
            (dist.Gaussian([0.0], [[1.0]]), dist.bridge_1d(1.0)),
        ]
        for p, q in pairs:
            assert dist.density_ratio_sup(p, q).value >= 1.0 - 1e-9

    def test_target_vanishing_where_source_has_mass_is_infinite(self):
        p = dist.Gaussian([0.0], [[1.0]])
        q = dist.TruncatedGaussian(0.0, 1.0, dist.IntervalUnion(((0.0, math.inf),)))
        res = dist.density_ratio_sup(p, q)
        assert res.value == math.inf and res.argmax is None

    def test_details_report_box(self):
        p = dist.Gaussian([0.0], [[1.0]])
        res = dist.density_ratio_sup(p, dist.bridge_1d(1.0))
        assert res.box_lo[0] < -7 and res.box_hi[0] > 8


class TestRenyi:
    def test_equal_pair_exactly_one(self):
        g = dist.Gaussian([0.0], [[1.0]])
        for alpha in (1.0, 2.0, 4.0):
            est = dist.renyi_divergence(g, g, alpha, McSpec(2000, 0))
            assert est.value == pytest.approx(1.0, abs=1e-12)
            assert est.stderr == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("name", sorted(CONTRACT_DENSITIES))
    def test_equal_pair_draws_and_evaluates_nothing(self, name, alpha, monkeypatch):
        # D(Q || Q) used to draw mc.n_samples points (or search a ratio grid) to read 1
        def fail(*args, **kwargs):
            raise AssertionError("drew or evaluated")

        monkeypatch.setattr(dist, "make_rng", fail)
        for cls in _catalog_classes():
            monkeypatch.setattr(cls, "_pdf", fail)
        d = CONTRACT_DENSITIES[name]
        assert dist.renyi_divergence(d, d, alpha, McSpec(100_000, 0)) == McEstimate(1.0, 0.0)

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
        vals.append(dist.density_ratio_sup(p, q).value)
        assert all(v1 <= v2 + 1e-9 for v1, v2 in zip(vals, vals[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(dist.DimensionMismatchError):
            dist.renyi_divergence(dist.Gaussian([0.0], [[1.0]]),
                                  dist.Gaussian([0.0, 0.0], np.eye(2)), 2.0, McSpec(100, 0))

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
    @pytest.mark.parametrize("var", [0.0, -1.0, math.nan],
                             ids=["zero-interval", "negative-interval", "nan-interval"])
    def test_invalid_covariance_raises(self, var):
        # a zero variance used to raise ZeroDivisionError
        s = dist.IntervalUnion(((0.0, 1.0),))
        with pytest.raises(dist.NotSPDError):
            dist.gaussian_mass(0.0, var, s)
        with pytest.raises(dist.NotSPDError):
            dist.TruncatedGaussian(0.0, var, s)

    def test_halfline_symmetry(self):
        m = dist.gaussian_mass(0.0, 1.0, dist.IntervalUnion(((0.0, math.inf),)))
        assert m == pytest.approx(0.5, abs=1e-12)

    def test_full_line(self):
        m = dist.gaussian_mass(0.0, 1.0, dist.IntervalUnion(((-math.inf, math.inf),)))
        assert m == pytest.approx(1.0, abs=1e-12)

    def test_one_sided_tail(self):
        m = dist.gaussian_mass(0.0, 1.0, dist.IntervalUnion(((1.0, math.inf),)))
        assert m == pytest.approx(1.0 - norm.cdf(1.0), abs=1e-12)

    @pytest.mark.parametrize("thr", [6.0, 8.0, 9.0])
    @pytest.mark.parametrize("kind", ["interval", "alpha"])
    def test_upper_tail_does_not_cancel(self, thr, kind):
        # Phi(inf) - Phi(thr) loses the tail: 7% off at thr = 8, 0 at thr = 9
        s = dist.IntervalUnion(((thr, math.inf),))
        want = 0.5 * math.erfc(thr / math.sqrt(2.0))
        if kind == "interval":
            got = dist.gaussian_mass(0.0, 1.0, s)
        else:
            got = trunc.alpha_mass_min(
                trunc.TruncatedRegressionInstance(np.zeros((1, 1)), lambda x: 0.0, s))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_far_tail_truncation_has_mass(self):
        tg = dist.TruncatedGaussian(0.0, 1.0, dist.IntervalUnion(((9.0, math.inf),)))
        assert tg.mass == pytest.approx(0.5 * math.erfc(9.0 / math.sqrt(2.0)), rel=1e-14, abs=0.0)


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
