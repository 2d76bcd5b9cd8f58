"""Small self-contained statistics kernel.

Provides the chi-squared survival function for an integer number of
degrees of freedom, the only kind a rank test produces.  For integer df
the tail is a finite sum (Abramowitz & Stegun 26.4.4-26.4.5): with
x = statistic / 2,

    Q = erfc(sqrt(x)) [odd df only] + sum over a of x**a e**-x / Gamma(a + 1),

where a runs over 0, 1, ... (even df) or 1/2, 3/2, ... (odd df) below
df / 2.  Each term is evaluated in log space, so a p-value a float can
hold never underflows on the way.  It costs one term per half unit of df,
so df is capped at ``MAX_DF``, far above what a rank test on a study needs.
"""

import math

from .errors import DomainError

MAX_DF = 10**6


def chi2_survival(statistic: float, df: int) -> float:
    """P(X >= statistic) for X ~ chi-squared with ``df`` degrees of freedom.

    ``df`` is an integer in [1, ``MAX_DF``]; df = 2 gives exp(-statistic / 2).
    """
    if df <= 0:
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if not float(df).is_integer():
        raise DomainError(f"degrees of freedom must be an integer, got {df}")
    if df > MAX_DF:
        raise DomainError(f"degrees of freedom must be at most {MAX_DF}, got {df}")
    if not math.isfinite(statistic):
        raise DomainError(f"statistic must be finite, got {statistic}")
    x = 0.5 * statistic
    if x <= 0.0:  # also a positive statistic that halves to zero
        return 1.0
    log_x = math.log(x)
    a = 0.5 * (df % 2)
    total = math.erfc(math.sqrt(x)) if df % 2 else 0.0
    while a < 0.5 * df:
        total += math.exp(a * log_x - x - math.lgamma(a + 1.0))
        a += 1.0
    return total
