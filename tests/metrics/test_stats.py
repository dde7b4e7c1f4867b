"""Unit tests for the statistics toolkit."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.metrics import (
    confidence_interval,
    pearson,
    percent_change,
    wakeup_power_significance,
)
from repro.metrics.stats import t_ppf, t_sf


# -- confidence intervals ------------------------------------------------------


def test_ci_of_constant_data_is_tight():
    est = confidence_interval([5.0, 5.0, 5.0])
    assert est.mean == 5.0
    assert est.half_width == 0.0


def test_ci_single_value_has_zero_width():
    est = confidence_interval([3.0])
    assert est.mean == 3.0
    assert est.half_width == 0.0
    assert est.n == 1


def test_ci_contains_true_mean_for_gaussian_data():
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(200):
        sample = rng.normal(10.0, 2.0, size=5)
        est = confidence_interval(sample, level=0.95)
        if est.low <= 10.0 <= est.high:
            hits += 1
    assert hits >= 175  # ≈95% coverage, generous slack


def test_ci_width_shrinks_with_n():
    rng = np.random.default_rng(1)
    small = confidence_interval(rng.normal(0, 1, 4))
    large = confidence_interval(rng.normal(0, 1, 100))
    assert large.half_width < small.half_width


def test_ci_validation():
    with pytest.raises(ValueError):
        confidence_interval([])
    with pytest.raises(ValueError):
        confidence_interval([1.0], level=1.5)


def test_estimate_str():
    assert "±" in str(confidence_interval([1.0, 2.0, 3.0]))


def test_ci_of_three_replicates_uses_the_exact_t_quantile():
    # df = 2 is the 3-replicate case of every fig9/fig11 cell.
    est = confidence_interval([1.0, 2.0, 3.0])
    assert est.half_width == 4.302652729749462 / math.sqrt(3)


# -- Student-t distribution -------------------------------------------------------

# Two-sided 95 % and 99 % critical values (any t table; digits from
# scipy.stats.t.ppf).
T_975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    3: 3.1824463052837078,
    4: 2.7764451051977934,
    5: 2.5705818356363146,
    6: 2.4469118511449786,
    7: 2.364624251592784,
    8: 2.306004135204166,
    9: 2.262157162798205,
    10: 2.228138851986274,
    20: 2.085963447265864,
    30: 2.0422724563012378,
    120: 1.9799304050824402,
}
T_995 = {
    1: 63.656741162871526,
    2: 9.924843200918287,
    5: 4.032142983555228,
    10: 3.16927267261695,
    30: 2.7499956535672254,
}


@pytest.mark.parametrize(
    "p, df, expected",
    [(0.975, df, t) for df, t in T_975.items()] + [(0.995, df, t) for df, t in T_995.items()],
)
def test_t_ppf_matches_the_table(p, df, expected):
    assert t_ppf(p, df) == pytest.approx(expected, rel=1e-9)
    assert t_ppf(1 - p, df) == pytest.approx(-expected, rel=1e-9)


@pytest.mark.parametrize(
    "t, df, two_sided",
    [
        (1.0, 1, 0.5),  # closed form: 1 − 2·atan(t)/π
        (3.0, 1, 1 - 2 * math.atan(3.0) / math.pi),
        (2.0, 2, 1 - 2 / math.sqrt(6)),  # closed form: 1 − t/√(2 + t²)
        (2.0, 10, 0.07338803477074037),
        (3.0, 5, 0.030099247897462586),
        (2.5, 30, 0.01811564906806669),
        (4.0, 3, 0.028008456010146152),
    ],
)
def test_t_sf_two_sided_p_values(t, df, two_sided):
    assert 2 * t_sf(t, df) == pytest.approx(two_sided, rel=1e-12)
    assert t_sf(-t, df) == pytest.approx(1 - two_sided / 2, rel=1e-12)


def test_t_edges():
    assert t_sf(0.0, 7) == 0.5
    assert t_sf(math.inf, 7) == 0.0
    assert t_ppf(0.5, 7) == 0.0
    assert t_ppf(1.0, 7) == math.inf
    assert t_ppf(0.0, 7) == -math.inf


def test_t_validation():
    with pytest.raises(ValueError):
        t_sf(1.0, 0)
    with pytest.raises(ValueError):
        t_ppf(0.9, -1)
    with pytest.raises(ValueError):
        t_ppf(1.5, 3)
    with pytest.raises(ValueError, match="below"):
        t_ppf(1e-300, 3)


@given(
    t=st.floats(min_value=0.05, max_value=50.0),
    df=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=300, deadline=None)
def test_t_ppf_inverts_t_sf(t, df):
    tail = t_sf(t, df)
    assume(tail > 1e-6)  # below that, 1 − tail has lost the digits
    assert t_ppf(1 - tail, df) == pytest.approx(t, rel=1e-8)


@given(
    a=st.floats(min_value=-40.0, max_value=40.0),
    b=st.floats(min_value=-40.0, max_value=40.0),
    df=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=200, deadline=None)
def test_t_sf_is_monotone(a, b, df):
    lo, hi = min(a, b), max(a, b)
    assert t_sf(lo, df) >= t_sf(hi, df)


@given(
    p=st.floats(min_value=0.501, max_value=0.9999),
    q=st.floats(min_value=0.501, max_value=0.9999),
    df=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=200, deadline=None)
def test_t_ppf_is_monotone_in_p_and_df(p, q, df):
    lo, hi = min(p, q), max(p, q)
    assert t_ppf(lo, df) <= t_ppf(hi, df)
    assert t_ppf(hi, df + 1) <= t_ppf(hi, df)  # heavier tails at lower df


def test_t_matches_scipy_densely():
    # scipy is a test-only oracle; the package never imports it.
    scipy_t = pytest.importorskip("scipy.stats").t
    for df in [*range(1, 201), 500, 1000]:
        for p in (0.9, 0.95, 0.975, 0.99, 0.995, 0.9995):
            assert t_ppf(p, df) == pytest.approx(float(scipy_t.ppf(p, df)), rel=1e-12)
    for df in range(1, 120):
        for t in np.geomspace(0.01, 100, 40):
            assert t_sf(t, df) == pytest.approx(float(scipy_t.sf(t, df)), rel=1e-12)


# -- pearson ------------------------------------------------------------------


def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


def test_pearson_perfect_negative():
    assert pearson([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_pearson_zero_variance_returns_zero():
    assert pearson([1, 1, 1], [1, 2, 3]) == 0.0


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson([1], [2])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_pearson_bounded(data):
    xs, ys = zip(*data)
    assert -1.0 - 1e-9 <= pearson(xs, ys) <= 1.0 + 1e-9


# -- significance test ---------------------------------------------------------


def test_strong_linear_effect_is_significant():
    rng = np.random.default_rng(2)
    wakeups = rng.uniform(100, 1000, 30)
    power = 0.001 * wakeups + rng.normal(0, 0.01, 30)
    test = wakeup_power_significance(wakeups, power)
    assert test.significant(0.99)
    assert test.slope > 0


def test_no_effect_is_not_significant():
    rng = np.random.default_rng(3)
    wakeups = rng.uniform(100, 1000, 30)
    power = rng.normal(1.0, 0.1, 30)  # independent of wakeups
    test = wakeup_power_significance(wakeups, power)
    assert not test.significant(0.99)


def test_perfect_correlation_p_essentially_zero():
    test = wakeup_power_significance([1, 2, 3, 4], [2, 4, 6, 8])
    assert test.p_value < 1e-6  # float round-off may keep |r| just below 1


def test_significance_p_value_is_the_exact_t_tail():
    test = wakeup_power_significance([1, 2, 3, 4, 5], [1.1, 1.9, 3.2, 3.8, 5.3])
    assert test.p_value == pytest.approx(7.936131568373575e-4, rel=1e-9)


def test_significance_validation():
    with pytest.raises(ValueError):
        wakeup_power_significance([1, 2], [1, 2])


# -- percent change --------------------------------------------------------------


def test_percent_change_reduction():
    assert percent_change(100.0, 80.0) == pytest.approx(-20.0)


def test_percent_change_increase():
    assert percent_change(50.0, 75.0) == pytest.approx(50.0)


def test_percent_change_zero_baseline():
    with pytest.raises(ValueError):
        percent_change(0.0, 1.0)
