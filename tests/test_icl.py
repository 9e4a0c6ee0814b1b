import math

import numpy as np
import pytest

from polytransfer import dist, icl, poly
from polytransfer.mc import McEstimate, McSpec, mean_and_stderr
from polytransfer.rng import Tag, make_rng


def random_params(n, rho, seed, scale=0.5):
    return icl.LSAParams.random(n, rho, seed, scale)


class TestPrompt:
    def test_labels_and_layout(self):
        point_w = dist.UniformBox([2.0 - 1e-12], [2.0 + 1e-12])  # near point mass
        feat = dist.UniformBox([3.0 - 1e-12], [3.0 + 1e-12])
        pd = icl.PromptDistribution(feat, feat, point_w, 1)
        pm = icl.build_prompt(pd, 0)
        assert pm.embedding[0, 0] == pytest.approx(3.0, abs=1e-9)
        assert pm.embedding[1, 0] == pytest.approx(6.0, abs=1e-9)

    def test_query_label_slot_zero(self):
        pd = icl.PromptDistribution.gaussian(3, 5)
        pm = icl.build_prompt(pd, 1)
        assert pm.embedding[-1, -1] == 0.0
        np.testing.assert_allclose(pm.embedding[:3, -1], pm.x_query)

    def test_seed_reproducibility(self):
        pd = icl.PromptDistribution.gaussian(2, 4)
        a = icl.build_prompt(pd, 7)
        b = icl.build_prompt(pd, 7)
        np.testing.assert_array_equal(a.embedding, b.embedding)


class TestForward:
    def test_zero_params_identity(self):
        pd = icl.PromptDistribution.gaussian(2, 3)
        pm = icl.build_prompt(pd, 0)
        params = icl.LSAParams.zeros(2, 3.0)
        np.testing.assert_array_equal(icl.lsa_forward(pm.embedding, params),
                                      pm.embedding)
        assert icl.predict_query(pm.embedding, params) == 0.0

    def test_all_ones_hand_computed(self):
        E = np.ones((2, 2))
        params = icl.LSAParams(np.ones((2, 2)), np.ones((2, 2)), 1.0)
        out = icl.lsa_forward(E, params)
        np.testing.assert_allclose(out, np.full((2, 2), 17.0))
        assert icl.predict_query(E, params) == pytest.approx(17.0)

    def test_linearity_in_value_matrix(self):
        pd = icl.PromptDistribution.gaussian(2, 3)
        pm = icl.build_prompt(pd, 2)
        params = random_params(2, 3.0, 0)
        doubled = icl.LSAParams(2.0 * params.w_pv, params.w_kq, params.rho)
        delta1 = icl.lsa_forward(pm.embedding, params) - pm.embedding
        delta2 = icl.lsa_forward(pm.embedding, doubled) - pm.embedding
        np.testing.assert_allclose(delta2, 2.0 * delta1, rtol=1e-12)


class TestClosedForm:
    def test_zero_params(self):
        pd = icl.PromptDistribution.gaussian(2, 3)
        pm = icl.build_prompt(pd, 3)
        assert icl.predict_closed_form(pm.embedding, icl.LSAParams.zeros(2, 3.0)) == 0.0

    def test_matches_forward_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(1, 5))
            length = int(rng.integers(1, 9))
            pd = icl.PromptDistribution.gaussian(n, length)
            pm = icl.build_prompt(pd, trial)
            params = random_params(n, float(length), 1000 + trial)
            a = icl.predict_query(pm.embedding, params)
            b = icl.predict_closed_form(pm.embedding, params)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_cubic_homogeneity_in_prompt_scale(self):
        pd = icl.PromptDistribution.gaussian(3, 4)
        pm = icl.build_prompt(pd, 4)
        params = random_params(3, 4.0, 5)
        base = icl.predict_closed_form(pm.embedding, params)
        scaled = icl.predict_closed_form(2.0 * pm.embedding, params)
        assert scaled == pytest.approx(8.0 * base, rel=1e-10)


class TestBuildH:
    def test_zero_query(self):
        E_data = np.random.default_rng(0).normal(size=(3, 4))
        H = icl.build_h(E_data, np.zeros(2), 4)
        np.testing.assert_array_equal(H, np.zeros((9, 9)))

    def test_hand_computed_4x4(self):
        H = icl.build_h(np.array([[1.0], [1.0]]), np.array([1.0]), 1)
        expected = np.array([
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
        ])
        np.testing.assert_allclose(H, expected)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        E_data = rng.normal(size=(4, 6))
        H = icl.build_h(E_data, rng.normal(size=3), 6)
        np.testing.assert_allclose(H, H.T)


class TestPopulationLoss:
    def test_zero_params_point_mass_weights(self):
        tiny = dist.UniformBox([-1e-12], [1e-12])
        g = dist.Gaussian([0.0], [[1.0]])
        pd = icl.PromptDistribution(g, g, tiny, 5)
        est = icl.population_loss(pd, icl.LSAParams.zeros(1, 5.0), McSpec(2000, 0))
        assert est.value == pytest.approx(0.0, abs=1e-20)

    def test_zero_params_isotropic_identity(self):
        n = 3
        pd = icl.PromptDistribution.gaussian(n, 4)
        est = icl.population_loss(pd, icl.LSAParams.zeros(n, 4.0), McSpec(400_000, 1))
        assert est.value == pytest.approx(float(n), rel=0.02)  # E||w||^2 = n

    def test_permutation_invariance_of_prediction(self):
        pd = icl.PromptDistribution.gaussian(2, 6)
        pm = icl.build_prompt(pd, 2)
        params = random_params(2, 6.0, 3)
        base = icl.predict_query(pm.embedding, params)
        perm = np.concatenate([np.random.default_rng(0).permutation(6), [6]])
        shuffled = pm.embedding[:, perm]
        assert icl.predict_query(shuffled, params) == pytest.approx(base, rel=1e-12)


def exact_loss_n1(params, length, mu):
    """Closed-form population loss at n = 1 for x_m, x_q ~ N(0, 1), w ~ N(mu, 1).

    With r the last row of W_PV, k = W_KQ[:, 0] and S = sum_m x_m^2 (chi^2 with
    N = length degrees of freedom), the prediction is x_q (S p(w) / rho) + B x_q^3,
    p(w) = (r_x + r_y w)(k_x + k_y w) and B = r_x k_x / rho.  The error is
    x_q (A + B x_q^2) with A = S p(w) / rho - w, and x_q is independent of A, so
    the loss is E[A^2] + 6 B E[A] + 15 B^2 (E x_q^2, x_q^4, x_q^6 = 1, 3, 15).
    """
    (rx, ry), (kx, ky), rho = params.w_pv[-1], params.w_kq[:, 0], params.rho
    a = (rx * kx, rx * ky + ry * kx, ry * ky)        # p(w) = a0 + a1 w + a2 w^2
    m = (1.0, mu, mu ** 2 + 1, mu ** 3 + 3 * mu, mu ** 4 + 6 * mu ** 2 + 3)  # E w^j
    e_p = sum(a[i] * m[i] for i in range(3))
    e_wp = sum(a[i] * m[i + 1] for i in range(3))
    e_p2 = sum(a[i] * a[j] * m[i + j] for i in range(3) for j in range(3))
    e_s, e_s2 = length, length ** 2 + 2 * length
    e_a = e_s * e_p / rho - mu
    e_a2 = e_s2 * e_p2 / rho ** 2 - 2 * e_s * e_wp / rho + m[2]
    b = rx * kx / rho
    return e_a2 + 6 * b * e_a + 15 * b * b


class TestPopulationLossOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mu", [0.0, 2.0])
    def test_matches_closed_form_at_n1(self, seed, mu):
        length = 20
        params = icl.LSAParams.random(1, 20.0, seed, scale=0.5)
        g = dist.Gaussian([0.0], [[1.0]])
        pd = icl.PromptDistribution(g, g, dist.Gaussian([mu], [[1.0]]), length)
        est = icl.population_loss(pd, params, McSpec(200_000, 0))
        exact = exact_loss_n1(params, length, mu)
        assert abs(est.value - exact) <= 4 * est.stderr, (est, exact)


class TestStderrCalibration:
    SEEDS = 40

    @pytest.mark.parametrize("params_seed", [0, 1])
    @pytest.mark.parametrize("mu", [0.0, 2.0])
    def test_errors_within_one_and_two_se_at_normal_rates(self, params_seed, mu):
        # |MC - exact| <= k se should hold at the normal rates 68.3% (k = 1) and
        # 95.4% (k = 2); the counts over the seeds must fall in the binomial
        # 99.9% range, which a standard error off by a factor of 2 leaves
        from scipy.stats import binom

        length = 20
        params = icl.LSAParams.random(1, 20.0, params_seed, scale=0.5)
        g = dist.Gaussian([0.0], [[1.0]])
        pd = icl.PromptDistribution(g, g, dist.Gaussian([mu], [[1.0]]), length)
        exact = exact_loss_n1(params, length, mu)
        z = np.empty(self.SEEDS)
        for s in range(self.SEEDS):
            est = icl.population_loss(pd, params, McSpec(20_000, s))
            z[s] = abs(est.value - exact) / est.stderr
        for k, rate in ((1, 0.6827), (2, 0.9545)):
            lo, hi = binom.interval(0.999, self.SEEDS, rate)
            assert lo <= np.count_nonzero(z <= k) <= hi, (k, np.sort(z))


def whole_batch_loss(pd, params, mc):
    """Reference: the loss of ``population_loss``'s prompts evaluated as one batch."""
    X, xq, W = icl._sample_batch(pd, mc.n_samples, mc.seed, mc.path)
    yhat, targets = icl._batch_predictions(X, xq, W, params)[:2]
    return mean_and_stderr((yhat - targets) ** 2)


def shift_targets(pd, share):
    """Three targets of ``pd``: sharing its feature and query objects (the CLI's
    task shift), with distinct ones, or sharing them at other prompt lengths."""
    n, length = pd.dim, pd.length
    mean = lambda mu: np.full(n, mu)
    if share == "factors":
        return [icl.PromptDistribution(pd.p_x, pd.p_x_query, dist.Gaussian(mean(mu), np.eye(n)),
                                       length) for mu in (0.5, 1.0, 2.0)]
    if share == "nothing":
        return [icl.PromptDistribution(dist.Gaussian(mean(mu), np.eye(n)),
                                       dist.Gaussian(mean(-mu), np.eye(n)),
                                       dist.Gaussian(mean(mu), np.eye(n)), length)
                for mu in (0.5, 1.0, 2.0)]
    return [icl.PromptDistribution(pd.p_x, pd.p_x_query, pd.p_h, m) for m in (1, 3, length)]


class TestPopulationLossBlocks:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("length", [1, 5])
    def test_bits_do_not_depend_on_block_size(self, n, length, monkeypatch):
        pd = icl.PromptDistribution.gaussian(n, length)
        params = random_params(n, float(length), 2)
        mc = McSpec(2500, 3)
        whole = whole_batch_loss(pd, params, mc)
        for block in (1, 7, 1000, mc.n_samples):
            monkeypatch.setattr(icl, "POPULATION_BLOCK", block)
            assert icl.population_loss(pd, params, mc) == whole

    @pytest.mark.parametrize("share", ["factors", "nothing", "lengths"])
    def test_shared_pass_bits_do_not_depend_on_block_size(self, share, monkeypatch):
        pd = icl.PromptDistribution.gaussian(2, 5)
        params = random_params(2, 5.0, 2)
        mc = McSpec(2500, 3, (Tag.TARGET,))
        targets = shift_targets(pd, share)
        whole = [whole_batch_loss(t, params, mc) for t in targets]
        assert len(set(whole)) == len(targets)
        for block in (1, 7, 1000, mc.n_samples):
            monkeypatch.setattr(icl, "POPULATION_BLOCK", block)
            assert icl._population_losses(targets, params, mc) == whole

    def test_peak_memory_is_bounded(self):
        import tracemalloc

        pd = icl.PromptDistribution.gaussian(1, 20)
        params = random_params(1, 20.0, 0)
        tracemalloc.start()
        try:
            icl.population_loss(pd, params, McSpec(200_000, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~2.6 MiB: the 1.5 MiB of squares plus one block; 8,192-prompt blocks took
        # ~8.2 MiB, and one whole batch ~159 MiB
        assert peak < 5 * 2 ** 20


class TestTraining:
    def test_gradient_matches_finite_differences(self):
        pd = icl.PromptDistribution.gaussian(2, 4)
        params = random_params(2, 4.0, 0, scale=0.3)
        batch = icl._sample_batch(pd, 128, 1, ())
        _, g_pv, g_kq = icl.loss_gradient(params, *batch)
        eps = 1e-6
        for mat_name, grad in (("w_pv", g_pv), ("w_kq", g_kq)):
            for idx in [(0, 0), (2, 1), (1, 2)]:
                plus = params.copy()
                getattr(plus, mat_name)[idx] += eps
                minus = params.copy()
                getattr(minus, mat_name)[idx] -= eps
                lp = icl.loss_gradient(plus, *batch)[0]
                lm = icl.loss_gradient(minus, *batch)[0]
                fd = (lp - lm) / (2 * eps)
                if abs(fd) > 1e-10:
                    assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 3])
    def test_gradient_matches_per_prompt_closed_form(self, n):
        # the prediction is linear in the last row r of W_PV and in W_KQ, so
        # d yhat / d r_i and d yhat / d W_KQ[i, j] are closed-form predictions
        # with that parameter replaced by a unit vector / unit matrix
        length, batch, seed, path = 5, 12, 3, (40,)
        pd = icl.PromptDistribution.gaussian(n, length)
        params = random_params(n, float(length), 2, scale=0.4)
        X, xq, W = icl._sample_batch(pd, batch, seed, path)
        loss, g_pv, g_kq = icl.loss_gradient(params, X, xq, W)
        unit = np.eye(n + 1)
        ref_loss, ref_pv, ref_kq = 0.0, np.zeros(n + 1), np.zeros((n + 1, n + 1))
        for b in range(batch):
            E = np.zeros((n + 1, length + 1))
            E[:n, :length] = X[b].T
            E[n, :length] = X[b] @ W[b]
            E[:n, length] = xq[b]
            err = icl.predict_closed_form(E, params) - float(W[b] @ xq[b])
            ref_loss += err ** 2 / batch
            for i in range(n + 1):
                pv = np.zeros((n + 1, n + 1))
                pv[-1] = unit[i]
                ref_pv[i] += 2 * err / batch * icl.predict_closed_form(
                    E, icl.LSAParams(pv, params.w_kq, params.rho))
                for j in range(n + 1):
                    ref_kq[i, j] += 2 * err / batch * icl.predict_closed_form(
                        E, icl.LSAParams(params.w_pv, np.outer(unit[i], unit[j]), params.rho))
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_array_equal(g_pv[:-1], 0.0)
        np.testing.assert_allclose(g_pv[-1], ref_pv, rtol=1e-12, atol=1e-12 * np.abs(ref_pv).max())
        np.testing.assert_allclose(g_kq, ref_kq, rtol=1e-12, atol=1e-12 * np.abs(ref_kq).max())

    def test_step_i_trains_on_the_ith_batch_of_one_stream(self):
        pd = icl.PromptDistribution.gaussian(2, 4)
        steps, batch, seed = 5, 16, 3
        params, trace = icl.train_lsa(pd, steps=steps, rate=0.0, batch=batch, seed=seed,
                                      record_every=1)
        X, xq, W = icl._sample_batch(pd, steps * batch, seed, (Tag.STEP,))
        expected = [icl.loss_gradient(params, X[s:s + batch], xq[s:s + batch],
                                      W[s:s + batch])[0]
                    for s in range(0, steps * batch, batch)]
        assert trace.losses[:steps] == expected
        final = icl.population_loss(pd, params, McSpec(4096, seed, (Tag.FINAL,)))
        assert trace.losses[-1] == final.value

    @pytest.mark.parametrize("steps", [3, 4])
    def test_final_loss_reads_no_training_stream(self, monkeypatch, steps):
        # the final loss drew at (STEP, steps): at 3 and 4 that is the training
        # stream's (STEP, QUERY) or (STEP, TASK) path
        builds = []

        def recording(seed, *path):
            builds.append((seed, path))
            return make_rng(seed, *path)

        monkeypatch.setattr(dist, "make_rng", recording)
        monkeypatch.setattr(icl, "make_rng", recording)
        icl.train_lsa(icl.PromptDistribution.gaussian(1, 3), steps=steps, rate=0.0, batch=4,
                      seed=0)
        assert len(builds) == len(set(builds))

    def test_generator_builds_do_not_grow_with_steps(self, monkeypatch):
        builds = []

        def counting(seed, *path):
            builds.append(path)
            return make_rng(seed, *path)

        monkeypatch.setattr(dist, "make_rng", counting)
        monkeypatch.setattr(icl, "make_rng", counting)
        pd = icl.PromptDistribution.gaussian(1, 5)
        counts = []
        for steps in (2, 40):
            builds.clear()
            icl.train_lsa(pd, steps=steps, rate=1e-3, batch=8, seed=0)
            counts.append(len(builds))
        assert counts[0] == counts[1]

    def test_zero_rate_leaves_params(self):
        pd = icl.PromptDistribution.gaussian(1, 3)
        params, _ = icl.train_lsa(pd, steps=5, rate=0.0, batch=32, seed=0)
        ref = icl.LSAParams.random(1, 3.0, 0, 0.01)
        np.testing.assert_array_equal(params.w_pv, ref.w_pv)
        np.testing.assert_array_equal(params.w_kq, ref.w_kq)

    def test_short_training_decreases_loss(self):
        pd = icl.PromptDistribution.gaussian(1, 10)
        params, trace = icl.train_lsa(pd, steps=600, rate=1e-2, batch=128, seed=0)
        assert trace.losses[-1] < trace.losses[0]

    def test_divergence_aborts_with_trace(self):
        pd = icl.PromptDistribution.gaussian(2, 4)
        with pytest.raises(icl.TrainingDivergedError) as exc:
            icl.train_lsa(pd, steps=3000, rate=50.0, batch=32, seed=0)
        assert hasattr(exc.value, "trace")


class TestShiftReport:
    def test_identical_target_ratio_one(self):
        pd = icl.PromptDistribution.gaussian(1, 5)
        params = random_params(1, 5.0, 0, scale=0.2)
        rep = icl.shift_report(params, pd, pd, "task", McSpec(50_000, 1))
        ratio = rep.lhs / (rep.rhs / rep.coefficient)
        assert ratio == pytest.approx(1.0, abs=0.05)
        assert rep.kind == "icl-task"

    def test_task_shift_catalog_coefficient(self):
        pd = icl.PromptDistribution.gaussian(2, 5)
        shifted = icl.PromptDistribution(
            pd.p_x, pd.p_x_query, dist.Gaussian([1.0, 0.0], np.eye(2)), 5)
        params = random_params(2, 5.0, 0, scale=0.2)
        rep = icl.shift_report(params, pd, shifted, "task", McSpec(50_000, 2))
        z = 1.0 + 1.0 / math.sqrt(2 * math.pi)
        assert rep.coefficient == pytest.approx(z ** 11, rel=1e-9)
        assert rep.degree == 10

    @pytest.mark.parametrize("kind", ["task", "query", "covariate"])
    def test_each_kind_reads_its_own_factor_pair(self, kind):
        pd = icl.PromptDistribution.gaussian(1, 5)
        shifted = dist.Gaussian([2.0], [[1.0]])
        factors = {"covariate": (shifted, pd.p_x_query, pd.p_h),
                   "query": (pd.p_x, shifted, pd.p_h),
                   "task": (pd.p_x, pd.p_x_query, shifted)}[kind]
        target = icl.PromptDistribution(*factors, 5)
        rep = icl.shift_report(random_params(1, 5.0, 0, scale=0.2), pd, target, kind,
                               McSpec(2_000, 4), exponent=10)
        # (1 + 2/sqrt(2 pi))^11
        assert rep.coefficient == pytest.approx(634.424334192866, rel=1e-13)
        assert rep.bridge == "bridgeNd(|mu|=2, dim=1)"
        assert rep.satisfied

    def test_joint_shift_has_an_infinite_bound_that_holds(self):
        # the joint kind has no catalog bridge; its rhs_se used to be nan, so
        # the report read satisfied = False under an infinite bound
        pd = icl.PromptDistribution.gaussian(1, 5)
        shifted = dist.Gaussian([2.0], [[1.0]])
        target = icl.PromptDistribution(shifted, shifted, shifted, 5)
        rep = icl.shift_report(random_params(1, 5.0, 0, scale=0.2), pd, target, "joint",
                               McSpec(2_000, 4), exponent=10)
        assert (rep.coefficient, rep.rhs, rep.bridge) == (math.inf, math.inf, "none")
        assert rep.rhs_se == math.inf
        assert rep.satisfied

    def test_batched_reports_match_single_target_reports(self, monkeypatch):
        pd = icl.PromptDistribution.gaussian(1, 5)
        params = random_params(1, 5.0, 0, scale=0.2)
        targets = [icl.PromptDistribution(pd.p_x, pd.p_x_query,
                                          dist.Gaussian([mu], [[1.0]]), 5)
                   for mu in (0.5, 1.0, 2.0)]
        mc = McSpec(20_000, 3)
        single = [icl.shift_report(params, pd, t, "task", mc) for t in targets]
        builds = []

        def recording(seed, *path):
            builds.append(path)
            return make_rng(seed, *path)

        monkeypatch.setattr(dist, "make_rng", recording)
        batched = icl.shift_reports(params, pd, targets, "task", mc)
        assert batched == single
        # one pass per side: the targets' shared features and queries are one
        # stream each, drawn once; each target's weights come from its own
        assert sorted(builds) == sorted([(Tag.SOURCE,), (Tag.SOURCE, Tag.QUERY),
                                         (Tag.SOURCE, Tag.TASK), (Tag.TARGET,),
                                         (Tag.TARGET, Tag.QUERY)]
                                        + [(Tag.TARGET, Tag.TASK)] * len(targets))

    def test_degenerate_source_rejected(self, monkeypatch):
        pd = icl.PromptDistribution.gaussian(1, 3)
        monkeypatch.setattr(icl, "population_loss", lambda *args: McEstimate(0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate"):
            icl.shift_reports(random_params(1, 3.0, 0), pd, [pd], "task", McSpec(100, 0))

    def test_unknown_kind_rejected(self):
        pd = icl.PromptDistribution.gaussian(1, 3)
        with pytest.raises(ValueError):
            icl.shift_report(random_params(1, 3.0, 0), pd, pd, "label", McSpec(100, 0))


class TestLossDegree:
    def test_restricted_degree_at_most_ten(self):
        n, length = 2, 3
        params = random_params(n, float(length), 0, scale=0.7)
        g = icl.loss_as_function_of_prompt(params, n, length)
        deg = poly.restricted_degree(g, dim=n * (length + 2), max_deg=10,
                                     lines=12, seed=0)
        assert deg <= 10

    def test_degree_ten_is_attained(self):
        n, length = 2, 3
        params = random_params(n, float(length), 1, scale=0.7)
        g = icl.loss_as_function_of_prompt(params, n, length)
        deg = poly.restricted_degree(g, dim=n * (length + 2), max_deg=12,
                                     lines=12, seed=1)
        assert deg == 10
