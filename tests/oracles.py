"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different method (and,
where possible, without numpy) from the production code: triple products
by cofactor expansion, the exponential by its Taylor series, least
squares by Cramer's rule on the normal equations, ROM by an explicit
scan loop, Friedman ranks by broadcasting every cell against its row.
Slow and simple on purpose.
"""

import math

import numpy as np

from wristkit.stats import chi2_survival


def triple_product(a, b, c):
    """a . (b x c) via direct determinant expansion."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def reaction_moment(axis, hand_dir, point_masses, g=9.81):
    """Reaction moment about ``axis`` for point masses along ``hand_dir``.

    ``point_masses`` is an iterable of (mass_kg, distance_m); gravity is
    (0, 0, -g).  Returns minus the summed gravity moment.
    """
    g_vec = (0.0, 0.0, -g)
    total = 0.0
    for mass, dist in point_masses:
        r = (dist * hand_dir[0], dist * hand_dir[1], dist * hand_dir[2])
        total += mass * triple_product(axis, r, g_vec)
    return -total


def rotate(vec, axis, angle):
    """Rodrigues rotation written out component-wise, pure Python."""
    norm = math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    kx, ky, kz = axis[0] / norm, axis[1] / norm, axis[2] / norm
    c, s = math.cos(angle), math.sin(angle)
    cross = (ky * vec[2] - kz * vec[1],
             kz * vec[0] - kx * vec[2],
             kx * vec[1] - ky * vec[0])
    dot = kx * vec[0] + ky * vec[1] + kz * vec[2]
    return tuple(vec[i] * c + cross[i] * s + (kx, ky, kz)[i] * dot * (1.0 - c)
                 for i in range(3))


def exp_series(x, terms=80):
    """e^x by direct Taylor summation (Horner form for stability)."""
    total = 1.0
    for n in range(terms, 0, -1):
        total = 1.0 + total * x / n
    return total


def capstan(force, mu, wrap, opposing):
    exponent = mu * wrap
    factor = exp_series(exponent if opposing else -exponent)
    return force * factor


def ols_cramer(xs, ys):
    """Least squares by Cramer's rule on the raw normal equations.

    Returns (slope, intercept).  Numerically cruder than the centered
    form on purpose; good enough at test scale.
    """
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    if det == 0:
        raise ZeroDivisionError("degenerate design matrix")
    slope = (n * sxy - sx * sy) / det
    intercept = (sy * sxx - sx * sxy) / det
    return slope, intercept


def rom_scan(angles):
    """(rom_ab, rom_ad, rom_total) by an explicit scan with clamping."""
    highest = 0.0
    lowest = 0.0
    for a in angles:
        if a > highest:
            highest = a
        if a < lowest:
            lowest = a
    return highest, -lowest, highest - lowest


def chi2_survival_df2(x):
    """Survival function of chi-squared with 2 degrees of freedom."""
    return math.exp(-x / 2.0)


def friedman_broadcast(data):
    """Friedman (chi2, p, df) from an n x m x m broadcast comparison of each
    row with itself: a cell's average rank is the count of smaller cells in
    its row plus (t + 1) / 2 for its tie group of size t, whose t cells sum
    t**2 - 1 to the group's t**3 - t."""
    matrix = np.array(data, dtype=float)
    n, m = matrix.shape
    below = (matrix[:, :, None] > matrix[:, None, :]).sum(2)
    ties = (matrix[:, :, None] == matrix[:, None, :]).sum(2)
    col_sums = (below + (ties + 1) / 2).sum(0)
    tie_sum = float((ties ** 2 - 1).sum())
    sum_sq = float((col_sums * col_sums).sum())
    chi2 = 12.0 * sum_sq / (n * m * (m + 1)) - 3.0 * n * (m + 1)
    correction = 1.0 - tie_sum / (n * (m ** 3 - m))
    if correction == 0.0:
        return 0.0, 1.0, m - 1
    chi2 /= correction
    return chi2, chi2_survival(chi2, m - 1), m - 1


def mean_sd(values):
    """Mean, sample SD (0 for one value) and count of ``values`` as numpy reduces them
    once sorted and unscaled: exact agreement where no sum overflows."""
    arr = np.array(sorted(values), dtype=float)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "sd": sd, "n": int(arr.size)}
