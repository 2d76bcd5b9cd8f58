import math

import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from wristkit import stats
from wristkit.errors import DomainError
from wristkit.stats import chi2_survival

import oracles


def test_df2_closed_form_anchors():
    # with 2 degrees of freedom the survival function is exp(-x/2)
    for x in (0.5, 1.2, 2.8, 10.0, 25.0):
        assert chi2_survival(x, 2) == pytest.approx(oracles.chi2_survival_df2(x), rel=1e-12)


def test_reported_p_values():
    assert chi2_survival(2.8, 2) == pytest.approx(0.2466, abs=5e-5)
    assert chi2_survival(1.2, 2) == pytest.approx(0.5488, abs=5e-5)


def test_zero_and_negative_statistic():
    assert chi2_survival(0.0, 2) == 1.0
    assert chi2_survival(-3.0, 5) == 1.0


def test_against_scipy_over_grid():
    for df in (1, 2, 3, 4, 7, 10, 30):
        for x in (0.01, 0.5, 1.0, 2.5, 5.0, 12.0, 40.0, 120.0):
            assert chi2_survival(x, df) == pytest.approx(
                scipy.stats.chi2.sf(x, df), rel=1e-10)


def test_survival_decreases_with_statistic():
    values = [chi2_survival(x, 3) for x in (0.1, 1.0, 2.0, 5.0, 9.0, 20.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_invalid_arguments():
    with pytest.raises(DomainError):
        chi2_survival(1.0, 0)
    with pytest.raises(DomainError):
        chi2_survival(math.inf, 2)
    with pytest.raises(DomainError, match="integer"):
        chi2_survival(1.0, 2.5)
    with pytest.raises(DomainError, match="integer"):
        chi2_survival(1.0, math.nan)


def test_degrees_of_freedom_are_capped():
    # one term per half unit of df: an unbounded df would never return
    with pytest.raises(DomainError, match="at most"):
        chi2_survival(1.0, 10**7)
    for df in (stats.MAX_DF + 1, 1e18):
        with pytest.raises(DomainError, match="at most"):
            chi2_survival(1.0, df)
    assert chi2_survival(1.0, stats.MAX_DF) == 1.0


def test_deep_tail_does_not_underflow():
    # exp(-750) underflows to 0, yet the df = 100 tail at 1500 is ~1e-248
    expected = scipy.stats.chi2.sf(1500.0, 100)
    assert expected > 1e-260
    assert chi2_survival(1500.0, 100) == pytest.approx(expected, rel=1e-10)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(df=st.integers(1, 100),
       statistic=st.floats(0.0, 1400.0, allow_nan=False, allow_infinity=False))
def test_matches_scipy_for_integer_df(df, statistic):
    expected = scipy.stats.chi2.sf(statistic, df)
    if expected > 1e-290:
        assert chi2_survival(statistic, df) == pytest.approx(expected, rel=1e-10)
