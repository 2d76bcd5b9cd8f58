"""Spring sizing from simulated torque curves.

A torque-vs-angle curve is reduced to an ordinary least-squares line;
the line's (negated) slope is the effective spring stiffness and its
zero crossing the pretension angle.  The required stiffness is then
matched against a catalog of off-the-shelf flat spiral springs, which
are quoted in N*mm/deg while the model works in N*m/rad.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .biomech import TorqueCurve
from .errors import DomainError
from .transmission import SpringSpec

# 1 N*m/rad expressed in N*mm/deg.
NMM_PER_DEG_PER_NM_PER_RAD = 1000.0 * math.pi / 180.0

_R2_TOL = 1e-9


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least-squares line through a torque curve."""

    slope: float      # N*m/rad
    intercept: float  # N*m
    r_squared: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise DomainError(f"fit needs at least 2 points, got {self.n_points}")
        if not -_R2_TOL <= self.r_squared <= 1.0 + _R2_TOL:
            raise DomainError(f"r_squared out of [0, 1]: {self.r_squared}")


@dataclass(frozen=True)
class SpringCatalogEntry:
    """One off-the-shelf spring, stiffness as quoted by the vendor."""

    name: str
    stiffness: float  # N*mm/deg

    def __post_init__(self):
        if not math.isfinite(self.stiffness) or self.stiffness <= 0:
            raise DomainError(f"catalog entry {self.name!r}: stiffness must be > 0")


@dataclass(frozen=True)
class CatalogSelection:
    """Best catalog match plus its immediate softer/stiffer neighbors."""

    nominal: SpringCatalogEntry
    softer: SpringCatalogEntry | None
    stiffer: SpringCatalogEntry | None


# Springs available off the shelf for the prototype, N*mm/deg.
DEFAULT_CATALOG = (
    SpringCatalogEntry("S1", 10.66),
    SpringCatalogEntry("S2", 11.71),
    SpringCatalogEntry("S3", 13.2),
)


def fit_linear(curve: TorqueCurve) -> LinearFit:
    """Least-squares line of moment on angle.

    R^2 = 1 - SS_res/SS_tot, clamped to [0, 1]; for constant moments
    (SS_tot = 0) it is 1 when the fit is exact and 0 otherwise.
    """
    x = np.asarray(curve.angles, dtype=float)
    y = np.asarray(curve.moments, dtype=float)
    n = x.size
    if n < 2:
        raise DomainError("fit needs at least 2 samples")
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise DomainError("fit needs at least 2 distinct angles")
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return LinearFit(slope, intercept, r_squared, n)


def derive_spring(fit: LinearFit, pre_wind: float | None = None) -> SpringSpec:
    """Spring stiffness and neutral angle implied by a fitted line.

    Stiffness is the magnitude of the slope; the neutral (zero-torque)
    angle is the line's x-intercept.  A negative neutral angle is legal
    but means the spring never unloads inside the swept range, so it is
    reported as a warning.
    """
    if fit.slope == 0.0:
        raise DomainError("cannot derive a spring from a zero-slope fit")
    stiffness = abs(fit.slope)
    neutral = -fit.intercept / fit.slope
    if neutral < 0.0:
        warnings.warn(
            f"derived neutral angle {neutral:.4g} rad is negative: "
            "the spring stays loaded across the whole motion range",
            stacklevel=2)
    return SpringSpec(stiffness, neutral, pre_wind)


def worst_case_select(curves) -> TorqueCurve:
    """The curve with the largest peak absolute moment (ties: label order)."""
    curves = list(curves)
    if not curves:
        raise DomainError("need at least one curve")
    return min(curves, key=lambda c: (-c.peak_abs_moment(), c.posture_label))


def stiffness_to_nmm_per_deg(k: float) -> float:
    """Convert stiffness from N*m/rad to catalog units (N*mm/deg)."""
    if not math.isfinite(k) or k <= 0:
        raise DomainError(f"stiffness must be > 0, got {k}")
    return k * NMM_PER_DEG_PER_NM_PER_RAD


def catalog_match(target: float, catalog=DEFAULT_CATALOG) -> CatalogSelection:
    """Pick the catalog entry closest to a target stiffness (N*mm/deg).

    Ties go to the softer entry.  ``softer`` and ``stiffer`` are the
    nearest catalog entries strictly below/above the nominal pick, when
    any exist.
    """
    entries = sorted(catalog, key=lambda e: e.stiffness)
    if not entries:
        raise DomainError("catalog is empty")
    if not math.isfinite(target) or target <= 0:
        raise DomainError(f"target stiffness must be > 0, got {target}")
    nominal = min(entries, key=lambda e: (abs(e.stiffness - target), e.stiffness))
    below = [e for e in entries if e.stiffness < nominal.stiffness]
    above = [e for e in entries if e.stiffness > nominal.stiffness]
    return CatalogSelection(nominal, below[-1] if below else None, above[0] if above else None)
