import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polytransfer import boolean


def random_fn(n, rng):
    return boolean.BooleanFn(n, table=rng.standard_normal(1 << n))


def enumeration_influence(f, i):
    """Variance definition: E_x Var_{x_i}[f], both by direct enumeration."""
    g = boolean.fourier_transform(f)
    t = g.table
    n = g.n
    idx = np.arange(1 << n)
    flipped = idx ^ (1 << i)
    return float(np.mean(((t - t[flipped]) / 2.0) ** 2))


# Reference kernels: the straightforward forms the vectorized kernels in
# `boolean` must reproduce bit for bit.


def ref_fwht(values):
    """Butterfly with two half copies per stage."""
    v = np.array(values, dtype=float)
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        v = v.reshape(-1)
        h *= 2
    return v


def ref_influences(c):
    """Masked gather over a 2^n index array."""
    c2 = c ** 2
    masks = np.arange(c.size, dtype=np.uint32)
    inf = np.empty(c.size.bit_length() - 1)
    for i in range(inf.size):
        inf[i] = float(c2[(masks >> i) & 1 == 1].sum())
    return inf, float(inf.max())


def ref_total_influence(c):
    sizes = np.array([int(s).bit_count() for s in range(c.size)], dtype=float)
    return float(np.sum(sizes * c ** 2))


def ref_degree(c):
    (nz,) = np.nonzero(np.abs(c) > 1e-12 * max(1.0, np.abs(c).max()))
    return int(max(int(s).bit_count() for s in nz)) if nz.size else 0


def ref_indicator(n, index, value):
    bit = (np.arange(1 << n, dtype=np.uint32) >> index) & 1
    return bit == (1 if value == -1 else 0)


sparse_arrays = st.tuples(st.integers(1, 12), st.integers(0, 2 ** 31 - 1),
                          st.sampled_from([0.0, 0.5, 0.9, 1.0]))


def draw_array(n, seed, zero_frac):
    """Standard normal values of length 2^n, a share of them exactly zero."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(1 << n)
    a[rng.random(1 << n) < zero_frac] = 0.0
    return a


class TestKernelsMatchReferences:
    @given(sparse_arrays)
    @settings(max_examples=60, deadline=None)
    def test_fwht(self, case):
        table = draw_array(*case)
        assert np.array_equal(boolean.fwht(table), ref_fwht(table))

    @given(sparse_arrays)
    @settings(max_examples=60, deadline=None)
    def test_influences_and_total(self, case):
        c = draw_array(*case)
        f = boolean.BooleanFn(case[0], coeff_array=c.copy())
        inf, tau = boolean.influences(f)
        ref_inf, ref_tau = ref_influences(c)
        assert np.array_equal(inf, ref_inf) and tau == ref_tau
        assert np.array_equal(f.coeff_array, c)  # the i = n - 1 half is a view
        assert boolean.total_influence(f) == ref_total_influence(c)

    @given(sparse_arrays)
    @settings(max_examples=60, deadline=None)
    def test_degree(self, case):
        c = draw_array(*case)
        assert boolean.BooleanFn(case[0], coeff_array=c).degree == ref_degree(c)

    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_frozen_coordinate_indicator(self, n):
        for index in range(n):
            for value in (-1, 1):
                ind = boolean.FrozenCoordinateSet(index, value).indicator(n)
                assert ind.dtype == bool
                assert np.array_equal(ind, ref_indicator(n, index, value))


class TestTransform:
    def test_single_coordinate(self):
        f = boolean.BooleanFn.from_table(boolean.points(2)[:, 0])
        coeffs = f.fourier
        assert coeffs == {1: pytest.approx(1.0)}

    def test_constant(self):
        f = boolean.BooleanFn.from_table(np.ones(8))
        assert f.fourier == {0: pytest.approx(1.0)}

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        f = random_fn(10, rng)
        g = boolean.fourier_transform(f)
        back = boolean.fourier_transform(boolean.BooleanFn(10, coeff_array=g.coeff_array))
        np.testing.assert_allclose(back.table, f.table, atol=1e-12)

    def test_involution_up_to_size(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(1 << 8)
        twice = boolean.fwht(boolean.fwht(v))
        np.testing.assert_allclose(twice, (1 << 8) * v, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        f = boolean.fourier_transform(random_fn(10, rng))
        lhs = float(np.sum(f.coeff_array ** 2))
        rhs = float(np.mean(f.table ** 2))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_size_cap(self):
        with pytest.raises(boolean.EnumerationTooLargeError):
            boolean.BooleanFn(25, table=None, coeff_array=None)

    def test_eval_matches_table_convention(self):
        f = boolean.BooleanFn.from_fourier(3, {0b101: 2.0})
        assert f.eval([1.0, 1.0, 1.0]) == pytest.approx(2.0)
        assert f.eval([-1.0, 1.0, 1.0]) == pytest.approx(-2.0)
        assert f.eval([-1.0, 1.0, -1.0]) == pytest.approx(2.0)


class TestInfluences:
    def test_dictator(self):
        f = boolean.BooleanFn.from_fourier(4, {1: 1.0})
        inf, tau = boolean.influences(f)
        assert inf[0] == pytest.approx(1.0)
        assert np.all(inf[1:] == 0)
        assert tau == 1.0

    def test_pair_parity(self):
        f = boolean.BooleanFn.from_fourier(4, {0b11: 1.0})
        inf, tau = boolean.influences(f)
        np.testing.assert_allclose(inf, [1.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_enumeration_definition(self):
        rng = np.random.default_rng(3)
        coeffs = {}
        masks = rng.integers(0, 1 << 8, size=30)
        for m in masks:
            if int(m).bit_count() <= 3:
                coeffs[int(m)] = float(rng.standard_normal())
        f = boolean.BooleanFn.from_fourier(8, coeffs)
        inf, _ = boolean.influences(f)
        for i in range(8):
            assert inf[i] == pytest.approx(enumeration_influence(f, i), abs=1e-12)

    def test_total_influence_identity(self):
        rng = np.random.default_rng(4)
        f = boolean.fourier_transform(random_fn(8, rng))
        total = boolean.total_influence(f)
        expected = sum(int(s).bit_count() * c * c for s, c in f.fourier.items())
        assert total == pytest.approx(expected, rel=1e-12)


class TestNormalizeVariance:
    def test_scale_down(self):
        f = boolean.BooleanFn.from_fourier(2, {1: 2.0})
        g, scale = boolean.normalize_variance(f)
        assert scale == pytest.approx(0.5)
        assert g.fourier[1] == pytest.approx(1.0)

    def test_already_normalized(self):
        f = boolean.BooleanFn.from_fourier(2, {1: 1.0})
        _, scale = boolean.normalize_variance(f)
        assert scale == pytest.approx(1.0)

    def test_pythagorean(self):
        f = boolean.BooleanFn.from_fourier(3, {1: 3.0, 2: 4.0})
        g, scale = boolean.normalize_variance(f)
        assert scale == pytest.approx(0.2)
        assert g.fourier[1] == pytest.approx(0.6)
        assert g.fourier[2] == pytest.approx(0.8)

    def test_constant_rejected(self):
        f = boolean.BooleanFn.from_fourier(2, {0: 5.0})
        with pytest.raises(ValueError):
            boolean.normalize_variance(f)

    def test_constant_part_unchanged(self):
        f = boolean.BooleanFn.from_fourier(2, {0: 7.0, 1: 2.0})
        g, _ = boolean.normalize_variance(f)
        assert g.fourier[0] == pytest.approx(7.0)


class TestInvarianceGap:
    def test_zero_influence(self):
        assert boolean.invariance_gap(1, 1.0, 0.0) == 0.0

    def test_unit_plug_in(self):
        assert boolean.invariance_gap(1, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_uniform_coordinates_scaling(self):
        n = 256
        gap = boolean.invariance_gap(1, 1.0, 1.0 / n)
        assert gap == pytest.approx(n ** (-1 / 8), rel=1e-12)


class TestConditionalMoments:
    def test_shifted_dictator(self):
        f = boolean.BooleanFn.from_fourier(6, {0: 1.0, 1: 1.0})  # x_1 + 1
        seen = boolean.FrozenCoordinateSet(0, -1)
        e_p, e_p2, e_q, e_q2 = boolean.conditional_moments(f, seen)
        assert e_p == 0.0
        assert e_p2 == 0.0
        assert e_q == pytest.approx(1.0)
        assert e_q2 == pytest.approx(2.0)

    def test_constant(self):
        f = boolean.BooleanFn.from_fourier(4, {0: 3.0})
        seen = boolean.FrozenCoordinateSet(2, 1)
        e_p, e_p2, e_q, e_q2 = boolean.conditional_moments(f, seen)
        assert (e_p, e_p2, e_q, e_q2) == (3.0, 9.0, 3.0, 9.0)

    def test_restriction_identity_random_degree3(self):
        # conditioning x_k = 1 maps chi_S to chi_{S - {k}}: the conditioned
        # function has coefficients c_T + c_{T | {k}}
        rng = np.random.default_rng(5)
        n, k = 10, 3
        coeffs = {}
        for m in rng.integers(0, 1 << n, size=40):
            if int(m).bit_count() <= 3:
                coeffs[int(m)] = float(rng.standard_normal())
        f = boolean.BooleanFn.from_fourier(n, coeffs)
        seen = boolean.FrozenCoordinateSet(k, 1)
        e_p, e_p2, _, _ = boolean.conditional_moments(f, seen)
        bit = 1 << k
        restricted = {}
        for m, c in coeffs.items():
            restricted[m & ~bit] = restricted.get(m & ~bit, 0.0) + c
        mean = restricted.get(0, 0.0)
        second = sum(c * c for c in restricted.values())
        assert e_p == pytest.approx(mean, abs=1e-12)
        assert e_p2 == pytest.approx(second, abs=1e-12)

    def test_bitmask_seen_set(self):
        f = boolean.BooleanFn.from_fourier(3, {1: 1.0})
        ind = np.zeros(8, dtype=bool)
        ind[[0, 3, 5]] = True
        seen = boolean.BitmaskSet.from_indicator(ind)
        assert seen.mass(3) == pytest.approx(3 / 8)
        e_p, _, _, _ = boolean.conditional_moments(f, seen)
        table = boolean.fourier_transform(f).table
        assert e_p == pytest.approx(float(np.mean(table[[0, 3, 5]])))


class TestTransferReport:
    def test_dictator_condition_violated(self):
        f = boolean.BooleanFn.from_fourier(8, {1: 1.0})
        seen = boolean.FrozenCoordinateSet(0, 1)
        rep = boolean.transfer_report(f, seen)
        assert rep.tau == pytest.approx(1.0)
        assert rep.gap >= rep.mass
        assert not rep.condition_holds
        assert rep.satisfied is None  # bound never asserted when hypothesis fails

    def test_small_n_spread_function_still_violated(self):
        n = 16
        f = boolean.BooleanFn.from_fourier(
            n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})
        seen = boolean.FrozenCoordinateSet(0, 1)
        rep = boolean.transfer_report(f, seen)
        assert rep.tau == pytest.approx(1.0 / n)
        # gap = (1/16)^(1/8) = 2^(-1/2) > 1/2: condition fails at n = 16
        assert not rep.condition_holds

    def test_synthetic_low_influence_satisfied(self):
        n = 16
        f = boolean.BooleanFn.from_fourier(
            n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})
        seen = boolean.FrozenCoordinateSet(0, 1)
        rep = boolean.transfer_report(f, seen, tau_override=2.0 ** -24)
        assert rep.condition_holds
        assert rep.satisfied is not None

    def test_sum_function_bound_holds_with_k1(self):
        n = 20
        f = boolean.BooleanFn.from_fourier(
            n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})
        seen = boolean.FrozenCoordinateSet(0, 1)
        rep = boolean.transfer_report(f, seen, tau_override=2.0 ** -24, k_d=1.0)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.satisfied
        assert rep.coefficient == pytest.approx(4.0)

    def test_dictator_at_max_n(self):
        f = boolean.BooleanFn.from_fourier(boolean.MAX_N, {1: 1.0})
        rep = boolean.transfer_report(f, boolean.FrozenCoordinateSet(0, 1))
        assert (rep.degree, rep.tau, rep.mass) == (1, 1.0, 0.5)
        assert (rep.lhs, rep.source_moment) == (1.0, 1.0)
        assert rep.condition_holds is False
        assert rep.satisfied is None

    def test_unnormalized_rejected(self):
        f = boolean.BooleanFn.from_fourier(4, {1: 2.0})
        with pytest.raises(ValueError):
            boolean.transfer_report(f, boolean.FrozenCoordinateSet(0, 1))

    def test_degree_constant_default(self):
        assert boolean.default_degree_constant(1) == 1.0
        assert boolean.default_degree_constant(2) == 16.0
        assert boolean.default_degree_constant(3) == 3.0 ** 6


@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_parseval_property(n, seed):
    rng = np.random.default_rng(seed)
    f = boolean.fourier_transform(boolean.BooleanFn(n, table=rng.standard_normal(1 << n)))
    assert float(np.sum(f.coeff_array ** 2)) == pytest.approx(
        float(np.mean(f.table ** 2)), abs=1e-12)


@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(1 << n)
    f = boolean.fourier_transform(boolean.BooleanFn(n, table=table))
    back = boolean.fourier_transform(
        boolean.BooleanFn(n, coeff_array=f.coeff_array))
    np.testing.assert_allclose(back.table, table, atol=1e-12)
