import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import polytransfer
from polytransfer import cli, dist, poly
from polytransfer.mc import McSpec, mean_and_stderr
from polytransfer.rng import make_rng


def inline_estimate(v):
    """The expressions each module used to inline for a mean and its stderr."""
    return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(v.size))


@given(arrays(np.float64, st.integers(2, 64),
              elements=st.floats(-1e150, 1e150, allow_nan=False)))
@settings(max_examples=200, deadline=None)
def test_finite_estimate_bits_equal_inline_expressions(v):
    est = mean_and_stderr(v)
    assert (est.value, est.stderr) == inline_estimate(v)
    assert est.flag == ""


@given(arrays(np.float64, st.integers(2, 600),
              elements=st.floats(-1e100, 1e100, allow_nan=False)))
@settings(max_examples=100, deadline=None)
def test_overwrite_keeps_the_bits(v):
    # past 128 values numpy's pairwise sum recurses; the in-place deviations must match
    buffer = v.copy()
    est = mean_and_stderr(buffer, overwrite=True)
    assert (est.value, est.stderr) == inline_estimate(v)
    assert mean_and_stderr(v) == est


class TestContract:
    def test_single_value_has_nan_stderr(self):
        est = mean_and_stderr([2.5])
        assert est.value == 2.5 and math.isnan(est.stderr) and est.flag == ""

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_no_values_raise(self, overwrite):
        with pytest.raises(ValueError, match="at least one value"):
            mean_and_stderr(np.empty(0), overwrite=overwrite)

    @pytest.mark.parametrize("values", [[1.0, math.inf], [math.nan, 1.0], [-math.inf],
                                        [1e300, -1e300, 1e300]])
    def test_overflow_is_flagged_without_warning(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mean_and_stderr(values)
        assert est.value == math.inf and math.isnan(est.stderr)
        assert est.flag == "overflow"


class TestCallers:
    def test_mc_functional_single_sample_stderr_is_nan(self):
        g = dist.Gaussian([0.0], [[1.0]])
        est = poly.mc_functional(lambda x: x[:, 0] ** 2, g, McSpec(1, 3))
        assert math.isfinite(est.value) and math.isnan(est.stderr)

    def test_region_mse_overflowing_spread(self):
        sampler = lambda n, seed: make_rng(seed).random((n, 2))
        model = lambda pts: 1e121 * pts[:, 0]
        f_star = lambda pts: np.zeros(pts.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mse, se = cli._region_mse(model, f_star, sampler, McSpec(1000, 0))
        assert mse == math.inf and math.isnan(se)


def test_ddof_only_in_mc_module():
    """Standard errors are formed in one place: mc.mean_and_stderr."""
    src = Path(polytransfer.__file__).parent
    offenders = [f"{path.name}:{i}" for path in sorted(src.glob("*.py")) if path.name != "mc.py"
                 for i, line in enumerate(path.read_text().splitlines(), start=1)
                 if re.search(r"\bddof\s*=", line)]
    assert offenders == []


def test_no_scipy_in_src():
    """The package runs on numpy alone; scipy serves only the tests."""
    src = Path(polytransfer.__file__).parent
    offenders = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), start=1)
                 if "scipy" in line]
    assert offenders == []
