"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here, not calibrated at run time;
the two frozen constants (ensemble bound K, truncated-transfer constant)
come from preliminary brute-force passes recorded in their tests.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from polytransfer import boolean, cli, dist, gotu, icl, nets, poly, transfer, trunc
from polytransfer.mc import McSpec
from polytransfer.rng import make_rng


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")


def test_01_lsa_prediction_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 9))
        pd = icl.PromptDistribution.gaussian(n, length)
        pm = icl.build_prompt(pd, trial)
        params = icl.LSAParams.random(n, float(length), 10_000 + trial, scale=0.5)
        a = icl.predict_query(pm.embedding, params)
        b = icl.predict_closed_form(pm.embedding, params)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, "lsa-prediction-identity", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_02_loss_line_degree_at_most_ten():
    start = time.perf_counter()
    n, length = 2, 3
    params = icl.LSAParams.random(n, float(length), 1, scale=0.7)
    g = icl.loss_as_function_of_prompt(params, n, length)
    deg = poly.restricted_degree(g, dim=n * (length + 2), max_deg=10,
                                 lines=20, seed=0)
    elapsed = time.perf_counter() - start
    ok = deg <= 10 and elapsed < 5.0
    report(2, "icl-loss-degree-10", ok, f"detected degree {deg}, {elapsed:.2f}s")
    assert deg <= 10
    assert elapsed < 5.0


def test_03_boolean_exactness():
    worst_round, worst_parseval, worst_influence = 0.0, 0.0, 0.0
    for n in (8, 10, 12):
        rng = make_rng(n)
        # dense round trip + Parseval
        table = rng.standard_normal(1 << n)
        f = boolean.fourier_transform(boolean.BooleanFn(n, table=table))
        back = boolean.fourier_transform(
            boolean.BooleanFn(n, coeff_array=f.coeff_array), "to-table")
        worst_round = max(worst_round, float(np.max(np.abs(back.table - table))))
        worst_parseval = max(worst_parseval, abs(
            float(np.sum(f.coeff_array ** 2)) - float(np.mean(table ** 2))))
        # random degree-3 function: formula influence == enumeration influence
        coeffs = {}
        for m in rng.integers(0, 1 << n, size=40):
            if int(m).bit_count() <= 3:
                coeffs[int(m)] = float(rng.standard_normal())
        g = boolean.fourier_transform(boolean.BooleanFn.from_fourier(n, coeffs))
        inf, _ = boolean.influences(g)
        idx = np.arange(1 << n)
        for i in range(n):
            flipped = g.table[idx ^ (1 << i)]
            enum = float(np.mean(((g.table - flipped) / 2.0) ** 2))
            worst_influence = max(worst_influence, abs(inf[i] - enum))
    ok = max(worst_round, worst_parseval, worst_influence) <= 1e-12
    report(3, "boolean-exactness", ok,
           f"round {worst_round:.1e}, parseval {worst_parseval:.1e}, "
           f"influence {worst_influence:.1e}")
    assert worst_round <= 1e-12
    assert worst_parseval <= 1e-12
    assert worst_influence <= 1e-12


def test_04_dictator_counterexample():
    n = 10
    f = boolean.BooleanFn.from_fourier(n, {0: 1.0, 1: 1.0})  # x_1 + 1
    seen = boolean.FrozenCoordinateSet(0, -1)
    e_p, e_p2, e_q, e_q2 = boolean.conditional_moments(f, seen)
    moments_ok = (e_p == 0.0 and e_p2 == 0.0 and e_q == 1.0 and e_q2 == 2.0)
    # the dictator direction violates the transfer hypothesis
    dictator = boolean.BooleanFn.from_fourier(n, {1: 1.0})
    rep = boolean.transfer_report(dictator, boolean.FrozenCoordinateSet(0, -1))
    ok = moments_ok and not rep.condition_holds and rep.satisfied is None
    report(4, "dictator-counterexample", ok,
           f"E_P f={e_p}, E_Q f={e_q}, E_P f^2={e_p2}, E_Q f^2={e_q2}, "
           f"hypothesis violated={not rep.condition_holds}")
    assert moments_ok
    assert not rep.condition_holds
    assert rep.satisfied is None


# frozen by a preliminary brute-force pass (seed 0): the per-degree maxima of
# (E_Q|f|/E_P|f|)^(1/d) were 4.441, 5.236, 4.351 -> max/3 = 1.746
ENSEMBLE_K = 1.8


def test_05_euclidean_transfer_ensemble():
    start = time.perf_counter()
    worsts = {}
    for d in (1, 2, 3):
        worsts[d] = transfer.ensemble_max_ratio((0.0, 1.0), (0.0, 3.0), d, 1000, 0)
    elapsed = time.perf_counter() - start
    bound = ENSEMBLE_K * 3.0
    ok = all(w <= bound for w in worsts.values()) and elapsed < 30.0
    report(5, "euclidean-transfer-ensemble", ok,
           f"maxima {', '.join(f'd={d}: {w:.3f}' for d, w in worsts.items())} "
           f"<= {bound}, {elapsed:.1f}s")
    for d, w in worsts.items():
        assert w <= bound, f"degree {d} ensemble exceeded the frozen bound"
    assert elapsed < 30.0


def test_06a_bridge_normalizer_within_one_percent():
    worst = 0.0
    for mu in (0.5, 1.0, 2.0):
        bridge = dist.bridge_1d(mu)
        p = dist.Gaussian([0.0], [[1.0]])
        got = dist.density_ratio_sup(p, bridge)
        expected = 1.0 + mu / math.sqrt(2 * math.pi)
        worst = max(worst, abs(got - expected) / expected)
    ok = worst <= 0.01
    report(6, "bridge-normalizer-1pct (6a)", ok, f"max rel err {worst:.2e}")
    assert worst <= 0.01


@pytest.mark.xfail(strict=True, reason=(
    "spec arithmetic defect: the closed-form coefficient (1+mu/sqrt(2pi))^2 "
    "pinned by criterion 6a has log-log slope 1.056 on {1,2,4,8}, not 2+-0.1; "
    "slope 2 only emerges asymptotically (see decisions ledger)"))
def test_06b_bridge_coefficient_loglog_slope_on_small_grid():
    mus = np.array([1.0, 2.0, 4.0, 8.0])
    coeffs = [transfer.catalog_coefficient("gaussian1d", 1, mu=m)[1] for m in mus]
    slope = float(np.polyfit(np.log(mus), np.log(coeffs), 1)[0])
    ok = abs(slope - 2.0) <= 0.1
    report(6, "bridge-coefficient-slope (6b)", ok,
           f"slope {slope:.3f} (expected failure: spec defect, see ledger)")
    assert abs(slope - 2.0) <= 0.1


def test_06c_quadratic_growth_and_direct_ratio_curve():
    # the substance 6b was after: polynomial (quadratic) coefficient growth
    # vs the exponential direct-ratio curve
    mus = np.array([1.0, 2.0, 4.0, 8.0])
    asym = np.array([64.0, 128.0, 256.0, 512.0])
    coeffs = [transfer.catalog_coefficient("gaussian1d", 1, mu=m)[1] for m in asym]
    slope = float(np.polyfit(np.log(asym), np.log(coeffs), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.1
    worst_log = 0.0
    for mu in mus:
        p = dist.Gaussian([0.0], [[1.0]])
        q = dist.Gaussian([mu], [[1.0]])
        # pointwise ratio at x = mu: the exp(mu^2/2) lower-bound curve
        direct = float(np.asarray(q.pdf(mu)) / np.asarray(p.pdf(mu)))
        worst_log = max(worst_log, abs(math.log(direct) - mu * mu / 2.0)
                        / (mu * mu / 2.0))
    ratio_ok = worst_log <= 0.05
    ok = slope_ok and ratio_ok
    report(6, "quadratic-vs-exponential (6c)", ok,
           f"asymptotic slope {slope:.3f}, direct-curve log err {worst_log:.1e}")
    assert slope_ok
    assert ratio_ok


# frozen by a preliminary pass: max over constants in [-2,2] of
# alpha^2 * full/truncated is 1.2369, attained at the constant 1.0
TRUNCATED_C = 1.25


def test_07_truncated_transfer():
    half_line = dist.IntervalUnion(((0.0, math.inf),))
    inst = trunc.TruncatedRegressionInstance(np.zeros((1, 1)), lambda x: 0.0,
                                             half_line)
    alpha = trunc.alpha_mass_min(inst)
    grid = np.linspace(-2.0, 2.0, 41)
    worst_reverse = 0.0
    worst_forward = 0.0
    for c in grid:
        t_mse = trunc.truncated_mse(lambda x, c=c: c, inst)
        f_mse = trunc.full_mse(lambda x, c=c: c, inst)
        worst_reverse = max(worst_reverse, t_mse - (1.0 / alpha) * f_mse)
        worst_forward = max(worst_forward, f_mse / t_mse)
    reverse_ok = worst_reverse <= 1e-8
    forward_ok = worst_forward <= TRUNCATED_C / alpha ** 2

    # the coefficient is blind to the true model's complexity
    X = np.linspace(-1, 1, 8).reshape(-1, 1)
    inst_lin = trunc.TruncatedRegressionInstance(X, lambda x: float(x[0]), half_line)
    inst_deg5 = trunc.TruncatedRegressionInstance(
        X, lambda x: float(x[0] ** 5), half_line)
    res_lin = trunc.truncated_transfer_check(lambda x: 0.0, inst_lin,
                                             constant=TRUNCATED_C)
    res_deg5 = trunc.truncated_transfer_check(lambda x: 0.0, inst_deg5,
                                              constant=TRUNCATED_C)
    same_formula = (res_lin.forward.coefficient * res_lin.alpha ** 2
                    == pytest.approx(res_deg5.forward.coefficient
                                     * res_deg5.alpha ** 2, rel=1e-12))
    ok = reverse_ok and forward_ok and bool(same_formula)
    report(7, "truncated-transfer", ok,
           f"alpha={alpha}, reverse slack {worst_reverse:.1e}, "
           f"max full/trunc {worst_forward:.4f} <= {TRUNCATED_C / alpha ** 2}")
    assert reverse_ok
    assert forward_ok
    assert same_formula


def test_08_gotu_critical_time():
    start = time.perf_counter()
    c0 = 0.25
    coeff = gotu.transfer_threshold_coefficient(mass=0.5, k_d=1.0)

    # canonical holdout, single frozen-coordinate target
    n, k = 50, 0
    target = gotu.LinearTarget(0.0, np.eye(n)[k])
    net = gotu.init_weights(n, 2, 0.05, 0)
    _, trace = gotu.gradient_flow(net, target, k, step=1e-3, horizon=20.0)
    seen_ok = trace.seen_loss[-1] <= 1e-4
    fhat_ok = max(abs(v) for v in trace.fhat_k) <= 0.1
    t_star = gotu.critical_time(trace, c0)
    t_star_ok = t_star is not None and math.isfinite(t_star)
    ratio_ok = all(l_full <= coeff * l_s
                   for t, l_s, l_full, _, _ in trace.rows()
                   if t_star is not None and t < t_star and l_s > 1e-250)

    # spread-coefficient target: tau(0) ~ 1/n < c0, so the crossing is
    # interior and the pre-crossing transfer check has content, and the
    # critical time grows with n (see decisions ledger)
    medians = []
    ns = (25, 50, 100, 200)
    pre_cross_ok = True
    for n_i in ns:
        spread = gotu.LinearTarget(0.0, np.ones(n_i))
        stars = []
        for s in range(10):
            net_i = gotu.init_weights(n_i, 2, 0.25, 1000 + s)
            _, tr = gotu.gradient_flow(net_i, spread, 0, step=1e-3,
                                       horizon=8.0, record_every=5)
            ts = gotu.critical_time(tr, c0)
            stars.append(ts)
            if ts is None:
                pre_cross_ok = False
                continue
            for t, l_s, l_full, _, _ in tr.rows():
                if t < ts and l_s > 1e-250 and l_full > coeff * l_s:
                    pre_cross_ok = False
        medians.append(float(np.median([s for s in stars if s is not None])))
    slope = float(np.polyfit(np.log(ns), medians, 1)[0])
    slope_ok = slope > 0
    elapsed = time.perf_counter() - start
    ok = (seen_ok and fhat_ok and t_star_ok and ratio_ok and pre_cross_ok
          and slope_ok and elapsed < 120.0)
    report(8, "gotu-critical-time", ok,
           f"L_S(T)={trace.seen_loss[-1]:.1e}, t*={t_star}, medians "
           f"{[f'{m:.2f}' for m in medians]}, slope {slope:.3f}, {elapsed:.0f}s")
    assert seen_ok and fhat_ok and t_star_ok and ratio_ok
    assert pre_cross_ok, "transfer ratio exceeded the recorded constant before t*"
    assert slope_ok, f"critical time is not increasing in n: medians {medians}"
    assert elapsed < 120.0


def test_09_icl_training_band_and_task_shift():
    start = time.perf_counter()
    n, length = 1, 20
    source = icl.PromptDistribution.gaussian(n, length)
    params, _ = icl.train_lsa(source, steps=8000, rate=1e-2, batch=256, seed=0)
    loss = icl.population_loss(source, params, McSpec(200_000, 99))
    band_hi = 3.0 * (n + 1) / length * 1.0  # Tr of the identity covariance
    band_ok = 0.0 <= loss.value <= band_hi

    mus = (1.0, 2.0, 4.0, 8.0)
    log_ratios = []
    for mu in mus:
        target = icl.PromptDistribution(
            source.p_x, source.p_x_query, dist.Gaussian([mu], np.eye(n)), length)
        rep = icl.shift_report(params, source, target, "task", McSpec(100_000, 7))
        log_ratios.append(math.log(rep.lhs / (rep.rhs / rep.coefficient)))
    slope = float(np.polyfit(np.log(mus), log_ratios, 1)[0])
    slope_ok = slope <= 10.0
    elapsed = time.perf_counter() - start
    ok = band_ok and slope_ok and elapsed < 300.0
    report(9, "icl-training-band", ok,
           f"loss {loss.value:.4f} in [0, {band_hi}], shift slope {slope:.2f}, "
           f"{elapsed:.0f}s")
    assert band_ok, f"trained loss {loss.value} outside [0, {band_hi}]"
    assert slope_ok
    assert elapsed < 300.0


def test_10_figure_reproduction():
    start = time.perf_counter()
    seen_lo, seen_hi = np.array([0.0, -1.0]), np.array([1.0, 1.0])
    band_lo, band_hi = np.array([-1.0, -2.0]), np.array([2.0, 2.0])

    def f_star(pts):
        return np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])

    def band_samples(count, seed):
        rng = make_rng(seed, 7)
        out, have = [], 0
        while have < count:
            pts = band_lo + rng.random((2 * count, 2)) * (band_hi - band_lo)
            inside = np.all((pts >= seen_lo) & (pts <= seen_hi), axis=1)
            keep = pts[~inside]
            out.append(keep)
            have += keep.shape[0]
        return np.concatenate(out)[:count]

    source = dist.UniformBox(seen_lo, seen_hi)
    seen_mses, poly_band, relu_band = [], [], []
    for seed in (0, 1, 2):
        X = source.sample(10_000, seed)
        y = f_star(X)
        fit = cli.fit_extrapolating_poly(X, y, 20, seen_lo, seen_hi,
                                         band_lo, band_hi, ridge=1e-10,
                                         band_penalty=3e-3)
        relu = nets.mlp_init(activation=nets.RELU, seed=seed)
        relu, _ = nets.train_adagrad(relu, X, y, epochs=150, rate=0.05, seed=seed)
        seen_pts = source.sample(20_000, seed + 100)
        band_pts = band_samples(20_000, seed + 200)
        seen_mses.append(float(np.mean((fit.poly.eval(seen_pts)
                                        - f_star(seen_pts)) ** 2)))
        poly_band.append(float(np.mean((fit.poly.eval(band_pts)
                                        - f_star(band_pts)) ** 2)))
        relu_band.append(float(np.mean((nets.forward(relu, band_pts)
                                        - f_star(band_pts)) ** 2)))
    seen_ok = float(np.median(seen_mses)) <= 1e-3
    band_ok = float(np.median(poly_band)) <= 0.5 * float(np.median(relu_band))
    elapsed = time.perf_counter() - start
    ok = seen_ok and band_ok and elapsed < 600.0
    report(10, "figure-reproduction", ok,
           f"poly seen {np.median(seen_mses):.2e}, poly band "
           f"{np.median(poly_band):.3f} vs relu band {np.median(relu_band):.3f}, "
           f"{elapsed:.0f}s")
    assert seen_ok, f"seen-region MSE median {np.median(seen_mses)}"
    assert band_ok, (f"poly band {np.median(poly_band)} not at most half of "
                     f"relu band {np.median(relu_band)}")
    assert elapsed < 600.0
