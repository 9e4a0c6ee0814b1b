import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss, legval

from polytransfer import dist, poly
from polytransfer.mc import McSpec, mean_and_stderr


def legendre_projection_1d(fn, degree, a, b):
    """Quadrature-projected coefficients in the orthonormal box basis."""
    nodes, weights = leggauss(200)
    x = 0.5 * (nodes + 1.0) * (b - a) + a
    tab = poly._legendre_values(x, degree, a, b)
    return 0.5 * np.einsum("i,i,ij->j", weights, fn(x), tab)


def term_loop_eval(p, pts):
    """Reference evaluation one term at a time, and sum_alpha |c_alpha phi_alpha(x)|."""
    tables = poly._axis_tables(pts, p.degree, p.basis, p.box)
    out, scale = np.zeros(pts.shape[0]), np.zeros(pts.shape[0])
    for alpha, c in p.coeffs.items():
        term = np.full(pts.shape[0], c)
        for i, e in enumerate(alpha):
            if e:
                term *= tables[i][:, e]
        out += term
        scale += np.abs(term)
    return out, scale


def loop_design_matrix(X, degree, basis, box):
    """Column-by-column design matrix, one axis factor at a time."""
    alphas = poly.multi_indices(X.shape[1], degree)
    tables = poly._axis_tables(X, degree, basis, box)
    A = np.empty((X.shape[0], len(alphas)))
    for j, alpha in enumerate(alphas):
        col = np.ones(X.shape[0])
        for i, e in enumerate(alpha):
            if e:
                col *= tables[i][:, e]
        A[:, j] = col
    return A


def loop_region_gram(degree, basis_box, region, subtract=None):
    """Entry-by-entry region Gram over the lower triangle, mirrored."""
    lo_b, hi_b = (np.asarray(v, dtype=float) for v in basis_box)
    dim = lo_b.size
    alphas = poly.multi_indices(dim, degree)
    nodes, weights = leggauss(6 * (degree + 1))

    def assemble(lo_r, hi_r):
        grams = []
        for i in range(dim):
            pts = 0.5 * (nodes + 1.0) * (hi_r[i] - lo_r[i]) + lo_r[i]
            tab = poly._legendre_values(pts, degree, lo_b[i], hi_b[i])
            grams.append((tab.T * (0.5 * weights)) @ tab)
        G = np.empty((len(alphas), len(alphas)))
        for a, alpha in enumerate(alphas):
            for b, beta in enumerate(alphas[: a + 1]):
                v = 1.0
                for i in range(dim):
                    v *= grams[i][alpha[i], beta[i]]
                G[a, b] = G[b, a] = v
        return G

    lo_r, hi_r = (np.asarray(v, dtype=float) for v in region)
    vol = float(np.prod(hi_r - lo_r))
    G = vol * assemble(lo_r, hi_r)
    if subtract is not None:
        lo_s, hi_s = (np.asarray(v, dtype=float) for v in subtract)
        vol_s = float(np.prod(hi_s - lo_s))
        G = G - vol_s * assemble(lo_s, hi_s)
        vol -= vol_s
    return G / vol


class TestEval:
    def test_product_monomial(self):
        p = poly.MultiPoly(2, 2, poly.MONOMIAL, {(1, 1): 1.0})
        assert p.eval([2.0, 3.0]) == pytest.approx(6.0)

    def test_zero_polynomial(self):
        p = poly.MultiPoly(3, 0, poly.MONOMIAL, {(0, 0, 0): 0.0})
        pts = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_array_equal(p.eval(pts), np.zeros(10))

    def test_degree20_legendre_sin_expansion(self):
        coeffs = legendre_projection_1d(lambda x: np.sin(2 * np.pi * x), 20, 0.0, 1.0)
        p = poly.MultiPoly(1, 20, poly.BOX,
                           {(k,): float(c) for k, c in enumerate(coeffs)},
                           ([0.0], [1.0]))
        grid = np.linspace(0, 1, 1000).reshape(-1, 1)
        err = np.abs(p.eval(grid) - np.sin(2 * np.pi * grid[:, 0]))
        assert err.max() <= 1e-6

    def test_dim_mismatch(self):
        p = poly.MultiPoly(2, 1, poly.MONOMIAL, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            p.eval([1.0, 2.0, 3.0])

    def test_negative_exponent_rejected(self):
        # index -1 used to read the top column of the value table: x^degree
        with pytest.raises(ValueError, match=r"\(-1, 2\)"):
            poly.MultiPoly(2, 2, poly.MONOMIAL, {(-1, 2): 1.0})

    @given(dim=st.integers(1, 3), degree=st.integers(0, 8),
           basis=st.sampled_from([poly.MONOMIAL, poly.BOX]),
           seed=st.integers(0, 2 ** 32 - 1), sparse=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_value_does_not_depend_on_the_batch(self, dim, degree, basis, seed, sparse):
        rng = np.random.default_rng(seed)
        alphas = poly.multi_indices(dim, degree)
        if sparse:
            keep = rng.choice(len(alphas), min(3, len(alphas)), replace=False)
            alphas = [alphas[k] for k in keep]
        p = poly.MultiPoly(dim, degree, basis, dict(zip(alphas, rng.standard_normal(len(alphas)))),
                           (np.full(dim, -1.0), np.full(dim, 2.0)))
        rows = poly._EVAL_ROWS
        pts = rng.uniform(-1.5, 2.5, size=(rows + 2, dim))
        # one point first, last of the first block and first of the second
        pts[rows - 1] = pts[rows] = pts[0]
        whole = p.eval(pts)
        assert whole[0] == whole[rows - 1] == whole[rows] == p.eval(pts[0])
        assert p.eval(pts[:7]).tobytes() == whole[:7].tobytes()
        assert p.eval(pts[rows - 3:]).tobytes() == whole[rows - 3:].tobytes()
        ref, scale = term_loop_eval(p, pts)
        assert np.all(np.abs(whole - ref) <= 1e-13 * scale)

    def test_empty_batch(self):
        p = poly.MultiPoly(2, 1, poly.MONOMIAL, {(1, 0): 1.0})
        assert p.eval(np.empty((0, 2))).shape == (0,)

    @given(dim=st.integers(1, 3), degree=st.integers(1, 8),
           lo=st.lists(st.floats(-2.0, 1.0), min_size=3, max_size=3),
           width=st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_box_eval_agrees_with_legval_oracle(self, dim, degree, lo, width, seed):
        # phi_alpha(x) = prod_i sqrt(2 a_i + 1) P_{a_i}(t_i), t = (2x - a - b)/(b - a)
        rng = np.random.default_rng(seed)
        a = np.array(lo[:dim])
        b = a + np.array(width[:dim])
        alphas = poly.multi_indices(dim, degree)
        p = poly.MultiPoly(dim, degree, poly.BOX,
                           dict(zip(alphas, rng.standard_normal(len(alphas)))), (a, b))
        pts = rng.uniform(a, b, size=(50, dim))
        t = (2.0 * pts - a - b) / (b - a)
        ref, scale = np.zeros(len(pts)), np.zeros(len(pts))
        for alpha, c in p.coeffs.items():
            term = np.full(len(pts), c)
            for i, e in enumerate(alpha):
                term *= legval(t[:, i], np.eye(e + 1)[e]) * np.sqrt(2 * e + 1)
            ref += term
            scale += np.abs(term)
        assert np.all(np.abs(p.eval(pts) - ref) <= 1e-13 * scale)

    def test_subtraction(self):
        p = poly.MultiPoly(1, 2, poly.MONOMIAL, {(2,): 1.0, (0,): 1.0})
        q = poly.MultiPoly(1, 1, poly.MONOMIAL, {(1,): 2.0, (0,): 1.0})
        r = p - q
        xs = np.linspace(-2, 2, 9).reshape(-1, 1)
        np.testing.assert_allclose(r.eval(xs), p.eval(xs) - q.eval(xs), atol=1e-12)


class TestTensorKernel:
    @pytest.mark.parametrize("basis", [poly.MONOMIAL, poly.BOX])
    @pytest.mark.parametrize("dim,degree", [(1, 20), (2, 20), (3, 20), (3, 7)])
    def test_design_matrix_matches_column_loop(self, basis, dim, degree):
        rng = np.random.default_rng(dim * 100 + degree)
        box = (rng.uniform(-2.0, 0.0, dim), rng.uniform(0.5, 2.0, dim))
        X = rng.uniform(box[0], box[1], size=(40, dim))
        A, alphas = poly.design_matrix(X, degree, basis, box)
        assert alphas == poly.multi_indices(dim, degree)
        assert A.tobytes() == loop_design_matrix(X, degree, basis, box).tobytes()

    @pytest.mark.parametrize("dim,degree", [(1, 20), (2, 20), (2, 3), (3, 9)])
    @pytest.mark.parametrize("subtract", [False, True])
    def test_region_gram_matches_entry_loop(self, dim, degree, subtract):
        rng = np.random.default_rng(dim * 100 + degree)
        lo = rng.uniform(-1.0, 0.0, dim)
        basis_box = (lo, lo + rng.uniform(0.5, 2.0, dim))
        region = (basis_box[0] - 1.0, basis_box[1] + rng.uniform(0.5, 1.5, dim))
        inner = basis_box if subtract else None
        G = poly.box_region_gram(degree, basis_box, region, subtract=inner)
        assert G.tobytes() == loop_region_gram(degree, basis_box, region, inner).tobytes()
        assert np.array_equal(G, G.T)

    def test_box_design_matrix_needs_a_box(self):
        with pytest.raises(ValueError, match="box"):
            poly.design_matrix(np.zeros((3, 2)), 2, poly.BOX)

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError, match="unknown basis"):
            poly.design_matrix(np.zeros((3, 2)), 2, "chebyshev")


class TestFitRegression:
    def test_exact_line(self):
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        y = 3.0 * X[:, 0] + 1.0
        fit = poly.fit_regression(X, y, 1)
        assert fit.poly.coeffs[(0,)] == pytest.approx(1.0, abs=1e-9)
        assert fit.poly.coeffs[(1,)] == pytest.approx(3.0, abs=1e-9)

    def test_degree3_recovery(self):
        rng = np.random.default_rng(3)
        alphas = poly.multi_indices(2, 3)
        truth = poly.MultiPoly(2, 3, poly.MONOMIAL,
                               dict(zip(alphas, rng.standard_normal(len(alphas)))))
        X = rng.uniform(-1, 1, size=(200, 2))
        fit = poly.fit_regression(X, truth.eval(X), 3)
        for alpha, c in truth.coeffs.items():
            assert fit.poly.coeffs[alpha] == pytest.approx(c, abs=1e-6)

    def test_sine_product_box_fit(self):
        src = dist.UniformBox([0.0, -1.0], [1.0, 1.0])
        X = src.sample(4000, 0)
        y = np.sin(2 * np.pi * X[:, 0]) * np.sin(2 * np.pi * X[:, 1])
        fit = poly.fit_regression(X, y, 20, basis=poly.BOX, ridge=1e-10,
                                  box=([0.0, -1.0], [1.0, 1.0]))
        assert fit.residual_mse <= 1e-3

    def test_rank_deficient_raises(self):
        X = np.zeros((10, 1))  # all points identical
        y = np.ones(10)
        with pytest.raises(poly.RankDeficientError):
            poly.fit_regression(X, y, 2)

    def test_underdetermined_raises_without_ridge(self):
        X = np.linspace(0, 1, 3).reshape(-1, 1)
        with pytest.raises(poly.RankDeficientError):
            poly.fit_regression(X, np.ones(3), 5)

    def test_exactly_determined_reproduces_evaluations(self):
        rng = np.random.default_rng(5)
        truth = poly.MultiPoly(1, 4, poly.MONOMIAL,
                               {(k,): float(c) for k, c in enumerate(rng.standard_normal(5))})
        X = np.linspace(-1, 1, 5).reshape(-1, 1)
        fit = poly.fit_regression(X, truth.eval(X), 4)
        pts = rng.uniform(-1, 1, size=(50, 1))
        np.testing.assert_allclose(fit.poly.eval(pts), truth.eval(pts), atol=1e-8)


FIG1_SEEN = ([0.0, -1.0], [1.0, 1.0])


def figure_fit_problem(n, seed=0):
    """fig1's degree-20 box-basis fit with its ridge and band penalty, on n points."""
    X = dist.UniformBox(*FIG1_SEEN).sample(n, seed)
    y = np.sin(2 * np.pi * X[:, 0]) * np.sin(2 * np.pi * X[:, 1])
    gram = poly.box_region_gram(20, FIG1_SEEN, ([-1.0, -2.0], [2.0, 2.0]), subtract=FIG1_SEEN)
    return X, y, dict(degree=20, basis=poly.BOX, ridge=1e-10, box=FIG1_SEEN,
                      penalty_matrix=3e-3 * n * gram)


def dense_normal_equations(X, y, degree, basis, ridge, box, penalty_matrix):
    """Oracle: the regularized normal equations from the whole design matrix."""
    A, _ = poly.design_matrix(X, degree, basis, box)
    return np.linalg.solve(A.T @ A + ridge * np.eye(A.shape[1]) + penalty_matrix, A.T @ y)


class TestBlockedFit:
    """A regularized fit sums its normal equations over blocks of design rows."""

    @pytest.mark.parametrize("n", [500, poly._EVAL_ROWS, 2 * poly._EVAL_ROWS + 451])
    def test_matches_dense_normal_equations(self, n):
        X, y, kw = figure_fit_problem(n)
        fit = poly.fit_regression(X, y, **kw)
        beta = np.array([fit.poly.coeffs[a] for a in poly.multi_indices(2, 20)])
        ref = dense_normal_equations(X, y, **kw)
        assert np.linalg.norm(beta - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_ridge_only_monomial_fit_matches_dense(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(3 * poly._EVAL_ROWS + 7, 3))
        y = np.cos(X).sum(axis=1)
        fit = poly.fit_regression(X, y, 4, ridge=1e-3)
        beta = np.array([fit.poly.coeffs[a] for a in poly.multi_indices(3, 4)])
        ref = dense_normal_equations(X, y, 4, poly.MONOMIAL, 1e-3, None, 0.0)
        assert np.linalg.norm(beta - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_residual_is_mean_square_of_evaluated_fit(self):
        X, y, kw = figure_fit_problem(2 * poly._EVAL_ROWS + 451)
        fit = poly.fit_regression(X, y, **kw)
        assert fit.residual_mse == float(np.mean((fit.poly.eval(X) - y) ** 2))

    def test_peak_memory_is_bounded(self):
        import tracemalloc

        X, y, kw = figure_fit_problem(20_000)
        tracemalloc.start()
        try:
            poly.fit_regression(X, y, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~1.8 MiB: one 512-row block in a reused buffer; a new 1,024-row block per
        # block took ~5.6 MiB, and the whole 20,000 x 231 design ~42 MiB
        assert peak < 4 * 2 ** 20


class TestReusedBlockBuffer:
    """eval and regularized fits fill one block buffer for all row blocks."""

    @given(dim=st.integers(1, 3), degree=st.integers(0, 6),
           basis=st.sampled_from([poly.MONOMIAL, poly.BOX]),
           n=st.integers(1, 3 * poly._EVAL_ROWS), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_bytes_as_a_fresh_block_each(self, dim, degree, basis, n, seed):
        rng = np.random.default_rng(seed)
        box = (np.full(dim, -1.0), np.full(dim, 2.0))
        X = rng.uniform(-1.5, 2.5, size=(n, dim))
        y = rng.standard_normal(n)
        alphas = poly.multi_indices(dim, degree)
        starts = range(0, n, poly._EVAL_ROWS)
        blocks = [poly._tensor_columns(poly._axis_tables(X[s:s + poly._EVAL_ROWS], degree,
                                                         basis, box), alphas) for s in starts]
        p = poly.MultiPoly(dim, degree, basis, dict(zip(alphas, rng.standard_normal(len(alphas)))),
                           box)
        c = np.array(list(p.coeffs.values()))
        fresh = np.concatenate([(A * c).sum(axis=1) for A in blocks])
        assert p.eval(X).tobytes() == fresh.tobytes()
        G, rhs = 1e-3 * np.eye(len(alphas)), np.zeros(len(alphas))
        for s, A in zip(starts, blocks):
            G += A.T @ A
            rhs += A.T @ y[s:s + poly._EVAL_ROWS]
        fit = poly.fit_regression(X, y, degree, basis, ridge=1e-3, box=box)
        beta = np.array([fit.poly.coeffs[a] for a in alphas])
        assert beta.tobytes() == np.linalg.solve(G, rhs).tobytes()


class TestMcFunctional:
    def test_constant(self):
        g = dist.Gaussian([0.0], [[1.0]])
        est = poly.mc_functional(lambda x: np.ones(len(x)), g, McSpec(1000, 0))
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_second_moment(self):
        g = dist.Gaussian([0.0], [[1.0]])
        est = poly.mc_functional(lambda x: x[:, 0] ** 2, g, McSpec(1_000_000, 1))
        assert est.value == pytest.approx(1.0, abs=0.01)

    def test_uniform_abs_mean(self):
        u = dist.UniformBox([0.0], [2.0])
        est = poly.mc_functional(lambda x: np.abs(x[:, 0]), u, McSpec(200_000, 2))
        assert est.value == pytest.approx(1.0, abs=4 * est.stderr)

    def test_nonfinite_reports_point(self):
        u = dist.UniformBox([0.0], [1.0])

        def bad(x):
            with np.errstate(invalid="ignore"):
                return np.log(-np.ones(len(x)))

        with pytest.raises(poly.NonFiniteValueError):
            poly.mc_functional(bad, u, McSpec(100, 3))

    @pytest.mark.parametrize("g", [lambda x: x, lambda x: float(x[0, 0]), lambda x: x[:-1, 0]],
                             ids=["two-columns", "scalar", "short"])
    def test_g_must_map_rows_to_values(self, g):
        # a g of another shape used to fall back to one call per point
        u = dist.UniformBox([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            poly.mc_functional(g, u, McSpec(10, 0))

    def test_chunked_partition_is_deterministic_and_close(self):
        g = dist.Gaussian([0.0], [[1.0]])
        fn = lambda x: x[:, 0] ** 2
        whole = poly.mc_functional(fn, g, McSpec(40_000, 5))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "MC_BLOCK", 10_000)
            split_a = poly.mc_functional(fn, g, McSpec(40_000, 5))
            split_b = poly.mc_functional(fn, g, McSpec(40_000, 5))
        assert split_a == split_b  # one stream, read block by block
        assert split_a == whole

    @given(n=st.integers(2, 3000), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_chunks_leave_the_product_estimate_unchanged(self, n, seed):
        # chunk i used to read stream i + 1, which at chunks >= 18 aliased the
        # product's factor streams (stream + 17 (i + 1)) and repeated draws
        d = dist.Product([dist.Gaussian([0.0], [[1.0]]), dist.UniformBox([-1.0], [2.0])])
        fn = lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1]
        whole = mean_and_stderr(fn(d.sample(n, seed)))
        for block in (1, 7, 1000, n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(poly, "MC_BLOCK", block)
                assert poly.mc_functional(fn, d, McSpec(n, seed)) == whole

    def test_peak_memory_is_bounded(self):
        import tracemalloc

        g = dist.Gaussian([0.0], [[1.0]])
        tracemalloc.start()
        try:
            poly.mc_functional(lambda x: x[:, 0] ** 2, g, McSpec(200_000, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~1.6 MiB: the 1.5 MiB of values plus one block; the whole sample,
        # the values and their copy took ~4.8 MiB
        assert peak < 2 * 2 ** 20

    def test_stderr_scales_as_inverse_sqrt_n(self):
        g = dist.Gaussian([0.0], [[1.0]])
        ns = [1000, 10_000, 100_000]
        errs = [poly.mc_functional(lambda x: x[:, 0] ** 2, g, McSpec(n, 4)).stderr
                for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestRestrictedDegree:
    def test_square_of_first_coordinate(self):
        g = lambda v: float(v[0]) ** 2
        deg = poly.line_degree(g, np.zeros(3), np.array([1.0, 0.3, -0.2]), 6)
        assert deg == 2

    def test_constant_function(self):
        deg = poly.line_degree(lambda v: 42.0, np.zeros(2), np.ones(2), 5)
        assert deg == 0

    def test_exceeds_max_degree(self):
        g = lambda v: float(v[0]) ** 4
        deg = poly.line_degree(g, np.zeros(1), np.ones(1), 3)
        assert deg == 4  # max_deg + 1 signals "> max_deg"
        g6 = lambda v: float(v[0]) ** 6
        assert poly.line_degree(g6, np.zeros(1), np.ones(1), 3) == 4

    def test_random_lines_max(self):
        g = lambda v: float(v[0] * v[1]) ** 2
        deg = poly.restricted_degree(g, dim=2, max_deg=8, lines=10, seed=0)
        assert deg == 4


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                max_size=8, unique=True))
@settings(max_examples=50, deadline=None)
def test_grlex_total_degree_never_decreasing(alphas):
    ordered = sorted(alphas, key=poly.grlex_key)
    totals = [sum(a) for a in ordered]
    assert totals == sorted(totals)


class TestRegionGram:
    def test_quadratic_form_matches_adaptive_quadrature(self):
        from scipy.integrate import dblquad

        basis_box = ([0.0, -1.0], [1.0, 1.0])
        gram = poly.box_region_gram(3, basis_box, ([-1.0, -2.0], [2.0, 2.0]),
                                    subtract=basis_box)
        alphas = poly.multi_indices(2, 3)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(len(alphas))
        p = poly.MultiPoly(2, 3, poly.BOX, dict(zip(alphas, c)), basis_box)

        def p2(y, x):
            return float(p.eval(np.array([[x, y]]))[0]) ** 2

        outer = dblquad(p2, -1, 2, -2, 2, epsabs=1e-9, epsrel=1e-9)[0]
        inner = dblquad(p2, 0, 1, -1, 1, epsabs=1e-9, epsrel=1e-9)[0]
        expected = (outer - inner) / 10.0
        assert float(c @ gram @ c) == pytest.approx(expected, rel=1e-6)
        assert np.all(np.linalg.eigvalsh(gram) > -1e-9)
