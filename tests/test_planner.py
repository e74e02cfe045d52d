"""Sample-size bounds and the normal quantile, checked against mpmath."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from montyhall.planner import (
    PlanMethod,
    band_halfwidth,
    normal_quantile,
    sample_size,
)

mpmath.mp.dps = 40


def reference_quantile(x) -> float:
    """High-precision inverse normal CDF, independent of the implementation."""
    return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(x) - 1))


def reference_cdf(z) -> mpmath.mpf:
    return mpmath.ncdf(mpmath.mpf(z))


def test_quantile_median_is_zero():
    assert normal_quantile(0.5) == 0.0


@pytest.mark.parametrize(
    "x, expected",
    [
        (0.975, 1.95996398),
        (0.995, 2.57582930),
    ],
)
def test_quantile_table_values(x, expected):
    assert normal_quantile(x) == pytest.approx(expected, abs=1e-7)


# A string, None or a complex number once raised TypeError.
@pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.4, "abc", None, "0.5", 0.5j])
def test_quantile_rejects_out_of_range(x):
    with pytest.raises(ValueError):
        normal_quantile(x)


def test_quantile_dense_grid_roundtrip():
    for i in range(1, 1000):
        x = i / 1000.0
        z = normal_quantile(x)
        assert abs(float(reference_cdf(z)) - x) <= 1e-8


@pytest.mark.parametrize(
    "x", [1e-9, 1e-6, 1e-3, 0.02425, 0.3, 0.7, 1 - 0.02425, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9]
)
def test_quantile_absolute_error(x):
    assert abs(normal_quantile(x) - reference_quantile(x)) <= 1e-8


@given(x=st.floats(min_value=0.001, max_value=0.999))
def test_quantile_roundtrip_property(x):
    assert abs(float(reference_cdf(normal_quantile(x))) - x) <= 1e-8


@pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-200])
def test_quantile_survives_extreme_tails(x):
    z = normal_quantile(x)
    assert math.isfinite(z) and z < -20
    assert normal_quantile(1.0 - 2**-53) > 8


def exact_coverage(l, p_win, epsilon) -> mpmath.mpf:
    """P(|W/l - p_win| <= epsilon) for W ~ Binomial(l, p_win), summed at 40
    digits; the band's edges are placed exactly on the binary float inputs."""
    p, eps = Fraction(p_win), Fraction(epsilon)
    low, high = max(0, math.ceil((p - eps) * l)), min(l, math.floor((p + eps) * l))
    pi = mpmath.mpf(p_win)
    return mpmath.fsum(
        mpmath.binomial(l, w) * pi**w * (1 - pi) ** (l - w) for w in range(low, high + 1)
    )


@pytest.mark.parametrize("p_win", [0.5, 0.3, 0.1, 0.05])
@pytest.mark.parametrize("delta", [0.05, 0.1, 0.3])
@pytest.mark.parametrize("epsilon", [0.1, 0.05])
def test_chebyshev_count_covers_at_least_one_minus_delta_exactly(epsilon, delta, p_win):
    # Chebyshev's inequality is a theorem for every l, so the binomial law
    # itself must keep the frequency within epsilon with chance >= 1 - delta.
    l0 = sample_size(p_win, epsilon, delta, PlanMethod.CHEBYSHEV).l0
    assert exact_coverage(l0, p_win, epsilon) >= 1 - mpmath.mpf(delta)


@pytest.mark.parametrize(
    "p_win, epsilon, delta, l0, coverage",
    [
        (0.5, 0.1, 0.01, 166, "0.989787"),
        (0.5, 0.05, 0.05, 385, "0.947354"),
        (0.05, 0.1, 0.1, 13, "0.864576"),
    ],
)
def test_clt_count_is_an_approximation_that_can_fall_short(p_win, epsilon, delta, l0, coverage):
    # The normal limit is not a bound: at these counts the exact binomial
    # coverage is below 1 - delta.
    assert sample_size(p_win, epsilon, delta, PlanMethod.CLT).l0 == l0
    exact = exact_coverage(l0, p_win, epsilon)
    assert mpmath.nstr(exact, 6) == coverage
    assert exact < 1 - mpmath.mpf(delta)


def test_chebyshev_worst_case_count():
    plan = sample_size(0.5, 0.01, 0.01, PlanMethod.CHEBYSHEV)
    assert plan.l0 == 250000
    assert plan.z_x is None


def test_clt_worst_case_count():
    plan = sample_size(0.5, 0.01, 0.01, PlanMethod.CLT)
    assert plan.l0 == 16588
    assert plan.z_x == pytest.approx(2.5758293, abs=1e-6)


@pytest.mark.parametrize("p_win", [0.0, 1.0])
@pytest.mark.parametrize("method", list(PlanMethod))
def test_degenerate_variance_clamps_to_one(p_win, method):
    assert sample_size(p_win, 0.5, 0.5, method).l0 == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p_win=0.5, epsilon=0.0, delta=0.01),
        dict(p_win=0.5, epsilon=-1.0, delta=0.01),
        dict(p_win=0.5, epsilon=0.01, delta=0.0),
        dict(p_win=0.5, epsilon=0.01, delta=1.0),
        dict(p_win=1.5, epsilon=0.01, delta=0.01),
        dict(p_win=0.5, epsilon=float("inf"), delta=0.01),
        dict(p_win=0.5, epsilon=0.01, delta=0.01, method="clt"),
        # Each once raised TypeError, or OverflowError for the numpy integer.
        dict(p_win=0.5, epsilon="0.01", delta=0.01),
        dict(p_win=0.5, epsilon=0.01j, delta=0.01),
        dict(p_win=0.5, epsilon=np.int64(5), delta=0.01),
    ],
)
def test_invalid_plan_requests_rejected(kwargs):
    with pytest.raises(ValueError):
        sample_size(**{"method": PlanMethod.CLT, **kwargs})


@pytest.mark.parametrize("method", list(PlanMethod))
def test_sample_size_decreases_in_epsilon_and_delta(method):
    sizes_eps = [
        sample_size(0.5, eps, 0.01, method).l0
        for eps in (0.002, 0.005, 0.01, 0.02, 0.05)
    ]
    assert sizes_eps == sorted(sizes_eps, reverse=True)
    assert len(set(sizes_eps)) == len(sizes_eps)
    sizes_delta = [
        sample_size(0.5, 0.01, d, method).l0
        for d in (0.001, 0.01, 0.05, 0.2)
    ]
    assert sizes_delta == sorted(sizes_delta, reverse=True)
    assert len(set(sizes_delta)) == len(sizes_delta)


@pytest.mark.parametrize("method", list(PlanMethod))
def test_sample_size_maximal_at_even_odds(method):
    worst = sample_size(0.5, 0.01, 0.01, method).l0
    for p_win in (0.0, 0.1, 0.25, 0.4, 0.6, 0.9, 1.0):
        assert sample_size(p_win, 0.01, 0.01, method).l0 <= worst


@pytest.mark.parametrize("delta", [0.001, 0.01, 0.05, 0.1, 0.2, 0.3])
@pytest.mark.parametrize("p_win", [0.05, 0.25, 0.5, 0.75, 0.99])
def test_chebyshev_needs_more_samples_below_critical_delta(delta, p_win):
    cheb = sample_size(p_win, 0.01, delta, PlanMethod.CHEBYSHEV).l0
    clt = sample_size(p_win, 0.01, delta, PlanMethod.CLT).l0
    assert cheb >= clt


def test_bound_ratio_at_the_experiment_settings():
    cheb = sample_size(0.5, 0.01, 0.01, PlanMethod.CHEBYSHEV).l0
    clt = sample_size(0.5, 0.01, 0.01, PlanMethod.CLT).l0
    assert cheb / clt == pytest.approx(15.07, abs=0.01)


def test_band_halfwidth_values():
    assert band_halfwidth(0.5, 250000, 0.01, PlanMethod.CHEBYSHEV) == pytest.approx(
        0.01, abs=1e-12
    )
    expected = 2.5758293 * math.sqrt((1 / 3) * (2 / 3) / 20000)
    assert band_halfwidth(1 / 3, 20000, 0.01, PlanMethod.CLT) == pytest.approx(
        expected, abs=1e-6
    )
    assert band_halfwidth(0.0, 12345, 0.3, PlanMethod.CLT) == 0.0
    assert band_halfwidth(1.0, 5, 0.3, PlanMethod.CHEBYSHEV) == 0.0


@pytest.mark.parametrize("delta", [1e-10, 1e-17])
def test_clt_quantile_keeps_its_digits_for_small_delta(delta):
    # 1 - delta/2 loses digits of delta, and is 1.0 below about 1.1e-16.
    z = float(mpmath.sqrt(2) * mpmath.erfinv(1 - mpmath.mpf(delta)))
    plan = sample_size(0.5, 0.01, delta, PlanMethod.CLT)
    assert plan.z_x == pytest.approx(z, rel=1e-14)
    halfwidth = band_halfwidth(0.5, 4, delta, PlanMethod.CLT)
    assert halfwidth == pytest.approx(z / 4, rel=1e-14)


def test_clt_rejects_a_delta_whose_half_underflows():
    # 5e-324 / 2 rounds to 0.0, where the quantile would name a "p".
    with pytest.raises(ValueError, match=r"^delta must be at least 1e-323 "):
        sample_size(0.5, 0.01, 5e-324, PlanMethod.CLT)
    with pytest.raises(ValueError, match=r"^delta must be at least 1e-323 "):
        band_halfwidth(0.5, 4, 5e-324, PlanMethod.CLT)
    assert sample_size(0.5, 0.01, 1e-323, PlanMethod.CLT).z_x > 38
    assert sample_size(0.5, 1.0, 5e-324, PlanMethod.CHEBYSHEV).l0 == math.ceil(
        Fraction(1, 4) / Fraction(5e-324)
    )


def test_chebyshev_band_survives_a_subnormal_delta_times_l():
    # delta * l = 1e-319 is subnormal and keeps 4 digits; the band must not.
    delta = 1e-320
    with mpmath.workdps(30):
        exact = mpmath.sqrt(mpmath.mpf(0.25) / (10 * mpmath.mpf(delta)))
    halfwidth = band_halfwidth(0.5, 10, delta, PlanMethod.CHEBYSHEV)
    assert halfwidth == pytest.approx(1.5811e159, rel=1e-4)
    assert halfwidth == pytest.approx(float(exact), rel=1e-15)


def test_band_halfwidth_rejects_bad_inputs():
    with pytest.raises(ValueError):
        band_halfwidth(0.5, 0, 0.01, PlanMethod.CLT)
    with pytest.raises(ValueError):
        band_halfwidth(0.5, 100, 0.0, PlanMethod.CLT)
    with pytest.raises(ValueError):
        band_halfwidth(1.5, 100, 0.01, PlanMethod.CLT)
    with pytest.raises(ValueError):
        band_halfwidth(0.5, 1.5, 0.01, PlanMethod.CLT)
    with pytest.raises(ValueError):
        band_halfwidth(0.5, 100, 0.01, "clt")


def test_band_halfwidth_takes_trial_counts_below_2_to_63():
    # 2**2000 trials once overflowed the float division.
    assert band_halfwidth(0.5, 2**63 - 1, 0.01, PlanMethod.CLT) > 0
    for l in (2**63, 2**2000):
        message = rf"^trial count must be in \[1, {2**63}\) and an integer"
        with pytest.raises(ValueError, match=message):
            band_halfwidth(0.5, l, 0.01, PlanMethod.CLT)


@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 2, 2), ()])
def test_band_halfwidth_takes_only_a_1d_array(shape):
    # A 2-D array once came back as a 2-D array of bands.
    with pytest.raises(ValueError, match=r"^p_win must be a float or a 1-D array, got \d-D$"):
        band_halfwidth(np.full(shape, 0.5), 100, 0.01, PlanMethod.CLT)


@given(
    p_wins=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30),
    l=st.integers(min_value=1, max_value=2**62),
    delta=st.floats(min_value=1e-320, max_value=0.999),
    method=st.sampled_from(list(PlanMethod)),
)
def test_band_halfwidth_of_an_array_is_the_scalar_band_of_each_entry(p_wins, l, delta, method):
    bands = band_halfwidth(np.array(p_wins), l, delta, method)
    assert bands.tolist() == [band_halfwidth(p_win, l, delta, method) for p_win in p_wins]


@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan"), float("inf")])
def test_band_halfwidth_names_the_first_bad_entry_of_an_array(bad):
    with pytest.raises(ValueError, match=rf"^p_win must be in \[0, 1\], got {bad!r}$"):
        band_halfwidth(np.array([0.5, bad, 2.0]), 100, 0.01, PlanMethod.CLT)


@given(
    p_win=st.floats(min_value=0.01, max_value=0.99),
    epsilon=st.floats(min_value=0.001, max_value=0.2),
    delta=st.floats(min_value=0.001, max_value=0.5),
    method=st.sampled_from(list(PlanMethod)),
)
def test_planned_size_achieves_target_halfwidth(p_win, epsilon, delta, method):
    l0 = sample_size(p_win, epsilon, delta, method).l0
    # float slack only; the ceiling guarantees the inequality mathematically
    assert band_halfwidth(p_win, l0, delta, method) <= epsilon * (1 + 1e-12)
