import math

import numpy as np
import pytest

from polytransfer import dist, icl, poly
from polytransfer.mc import McEstimate, McSpec, mean_and_stderr


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


class TestPopulationLossBlocks:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("length", [1, 5])
    def test_bits_do_not_depend_on_block_size(self, n, length, monkeypatch):
        pd = icl.PromptDistribution.gaussian(n, length)
        params = random_params(n, float(length), 2)
        mc = McSpec(2500, 3)
        # the reference evaluates the whole batch at once
        X, xq, W = icl._sample_batch(pd, mc.n_samples, mc.seed, mc.path)
        yhat, targets = icl._batch_predictions(X, xq, W, params)[:2]
        whole = mean_and_stderr((yhat - targets) ** 2)
        for block in (1, 7, 1000, mc.n_samples):
            monkeypatch.setattr(icl, "POPULATION_BLOCK", block)
            assert icl.population_loss(pd, params, mc) == whole

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
        assert peak < 32 * 2 ** 20   # one whole batch took ~159 MiB


class TestTraining:
    def test_gradient_matches_finite_differences(self):
        pd = icl.PromptDistribution.gaussian(2, 4)
        params = random_params(2, 4.0, 0, scale=0.3)
        _, g_pv, g_kq = icl.loss_gradient(pd, params, 128, 1, ())
        eps = 1e-6
        for mat_name, grad in (("w_pv", g_pv), ("w_kq", g_kq)):
            for idx in [(0, 0), (2, 1), (1, 2)]:
                plus = params.copy()
                getattr(plus, mat_name)[idx] += eps
                minus = params.copy()
                getattr(minus, mat_name)[idx] -= eps
                lp = icl.loss_gradient(pd, plus, 128, 1, ())[0]
                lm = icl.loss_gradient(pd, minus, 128, 1, ())[0]
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
        loss, g_pv, g_kq = icl.loss_gradient(pd, params, batch, seed, path)
        X, xq, W = icl._sample_batch(pd, batch, seed, path)
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

    def test_batched_reports_match_single_target_reports(self, monkeypatch):
        pd = icl.PromptDistribution.gaussian(1, 5)
        params = random_params(1, 5.0, 0, scale=0.2)
        targets = [icl.PromptDistribution(pd.p_x, pd.p_x_query,
                                          dist.Gaussian([mu], [[1.0]]), 5)
                   for mu in (0.5, 1.0, 2.0)]
        mc = McSpec(20_000, 3)
        single = [icl.shift_report(params, pd, t, "task", mc) for t in targets]
        loss = icl.population_loss
        calls = []

        def counting(d, p, spec):
            calls.append(d)
            return loss(d, p, spec)

        monkeypatch.setattr(icl, "population_loss", counting)
        batched = icl.shift_reports(params, pd, targets, "task", mc)
        assert batched == single
        assert sum(d is pd for d in calls) == 1
        assert len(calls) == 1 + len(targets)

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
