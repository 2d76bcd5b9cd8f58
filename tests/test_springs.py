import math
import random

import numpy as np
import pytest

from wristkit.biomech import TorqueCurve
from wristkit.errors import DomainError
from wristkit.springs import (DEFAULT_CATALOG, LinearFit, SpringCatalogEntry,
                              catalog_match, derive_spring, fit_linear,
                              stiffness_to_nmm_per_deg, worst_case_select)

import oracles


def line_curve(slope, intercept, n=50, lo=-0.77, hi=0.52, label=""):
    angles = np.linspace(lo, hi, n)
    return TorqueCurve(angles, slope * angles + intercept, label)


def test_fit_exact_line():
    fit = fit_linear(line_curve(-0.7054, 0.4157))
    assert fit.slope == pytest.approx(-0.7054, rel=1e-12)
    assert fit.intercept == pytest.approx(0.4157, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 50


def test_fit_two_points():
    fit = fit_linear(TorqueCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0])))
    assert fit.slope == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(0.0, abs=1e-15)
    assert fit.r_squared == pytest.approx(1.0)


@pytest.mark.parametrize("moments", [[1.0, 2.0, 4.0], [3.0, 3.0, 3.0]])
def test_fit_holds_python_numbers_only(moments):
    fit = fit_linear(TorqueCurve([0.0, 1.0, 2.0], moments))
    assert [type(getattr(fit, name)) for name in fit.__match_args__] == [float, float, float, int]
    assert "np." not in repr(fit)


def test_fit_matches_normal_equations_oracle_on_noisy_data():
    rng = random.Random(2024)
    angles = np.linspace(-0.7, 0.5, 100)
    noise = np.array([rng.gauss(0.0, 0.01) for _ in range(100)])
    moments = -0.7054 * angles + 0.4157 + noise
    fit = fit_linear(TorqueCurve(angles, moments))
    slope_ref, intercept_ref = oracles.ols_cramer(list(angles), list(moments))
    assert fit.slope == pytest.approx(slope_ref, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept_ref, rel=1e-9)
    assert fit.slope == pytest.approx(-0.7054, rel=0.02)
    assert fit.intercept == pytest.approx(0.4157, rel=0.02)
    assert 0.9 < fit.r_squared <= 1.0


def test_fit_degenerate_inputs():
    with pytest.raises(DomainError):
        fit_linear(TorqueCurve(np.array([0.3]), np.array([1.0])))
    # constant moments: the flat line through them, even where their mean rounds
    for moment in (0.1, 0.2, 0.3, 5.0):
        for n in (3, 50, 2000):
            fit = fit_linear(TorqueCurve(np.linspace(-0.77, 0.52, n), np.full(n, moment)))
            assert (fit.slope, fit.intercept, fit.r_squared) == (0.0, moment, 1.0), (moment, n)
    # angles or moments whose squared spread underflows to zero
    with pytest.raises(DomainError, match="^fit needs a wider angle range: the angles' "
                                          "squared spread underflows$"):
        fit_linear(TorqueCurve([0.0, 5e-324], [0.0, 1.0]))
    assert fit_linear(TorqueCurve([0.0, 1.0], [0.0, 5e-324])).r_squared == 1.0
    with pytest.raises(DomainError):
        LinearFit(1.0, 0.0, 1.5, 10)
    with pytest.raises(DomainError):
        LinearFit(1.0, 0.0, 1.0, 1)


def test_fit_scaling_property():
    curve = line_curve(-0.5, 0.2)
    noisy = TorqueCurve(curve.angles, curve.moments + 0.01 * np.sin(7 * curve.angles))
    scaled = TorqueCurve(noisy.angles, 3.0 * noisy.moments)
    fit, fit3 = fit_linear(noisy), fit_linear(scaled)
    assert fit3.slope == pytest.approx(3 * fit.slope, rel=1e-12)
    assert fit3.intercept == pytest.approx(3 * fit.intercept, rel=1e-12)
    theta0 = -fit.intercept / fit.slope
    theta0_scaled = -fit3.intercept / fit3.slope
    assert theta0_scaled == pytest.approx(theta0, rel=1e-12)


def test_derive_spring():
    spring = derive_spring(LinearFit(-0.7054, 0.4157, 1.0, 50))
    assert spring.stiffness == pytest.approx(0.7054)
    assert spring.neutral_angle == pytest.approx(0.589, abs=5e-4)
    assert math.degrees(spring.neutral_angle) == pytest.approx(33.8, abs=0.1)

    trivial = derive_spring(LinearFit(-1.0, 0.0, 1.0, 10))
    assert trivial.stiffness == 1.0 and trivial.neutral_angle == 0.0
    assert derive_spring(LinearFit(-0.5, 0.25, 1.0, 10)).neutral_angle == pytest.approx(0.5)

    with pytest.raises(DomainError):
        derive_spring(LinearFit(0.0, 0.1, 0.0, 10))


def test_derive_spring_round_trip():
    k, theta0 = 0.83, 0.41
    spring = derive_spring(fit_linear(line_curve(-k, k * theta0)))
    assert spring.stiffness == pytest.approx(k, rel=1e-12)
    assert spring.neutral_angle == pytest.approx(theta0, rel=1e-12)


def test_derive_spring_negative_neutral_warns():
    with pytest.warns(UserWarning, match="stays loaded"):
        spring = derive_spring(LinearFit(-0.5, -0.1, 1.0, 10))
    assert spring.neutral_angle == pytest.approx(-0.2)


def test_derive_spring_rising_fit_warns_once():
    # a clock spring's torque k (theta_n - theta) falls with angle, so on a rising line the
    # spring adds to the moment; that one warning stands in for the negative-neutral-angle one
    for intercept in (0.25, -0.25):  # neutral angle -0.5, then 0.5
        with pytest.warns(UserWarning) as caught:
            spring = derive_spring(LinearFit(0.5, intercept, 1.0, 10))
        assert [str(w.message) for w in caught] == [
            "fit slope 0.5 N*m/rad rises with angle: a clock spring's torque falls with angle, "
            "so this spring would add to the moment"]
        assert spring.stiffness == 0.5 and spring.neutral_angle == -2 * intercept


def test_worst_case_select():
    c1 = line_curve(0.1, 0.05, label="P1")   # peak 0.127
    c2 = line_curve(-0.2, 0.1, label="P2")   # peak 0.254
    c3 = line_curve(-0.4, 0.14, label="P3")  # peak 0.448
    assert worst_case_select([c1, c2, c3]).posture_label == "P3"
    assert worst_case_select([c2]).posture_label == "P2"
    tie_a = line_curve(-0.2, 0.1, label="A")
    assert worst_case_select([c2, tie_a]).posture_label == "A"
    with pytest.raises(DomainError):
        worst_case_select([])


def test_unit_conversions():
    assert stiffness_to_nmm_per_deg(0.7054) == pytest.approx(12.31, abs=0.005)
    assert abs(stiffness_to_nmm_per_deg(0.7054) - 12.32) < 0.10
    assert stiffness_to_nmm_per_deg(1.0) == pytest.approx(17.453, abs=5e-4)
    with pytest.raises(DomainError):
        stiffness_to_nmm_per_deg(0.0)


def test_catalog_match():
    sel = catalog_match(12.32, DEFAULT_CATALOG)
    assert (sel.nominal.name, sel.softer.name, sel.stiffer.name) == ("S2", "S1", "S3")
    exact = catalog_match(11.71, DEFAULT_CATALOG)
    assert exact.nominal.name == "S2"
    low = catalog_match(9.0, DEFAULT_CATALOG)
    assert low.nominal.name == "S1"
    assert low.softer is None
    assert low.stiffer.name == "S2"
    high = catalog_match(50.0, DEFAULT_CATALOG)
    assert high.nominal.name == "S3" and high.stiffer is None
    # equidistant target favors the softer entry
    pair = (SpringCatalogEntry("A", 10.0), SpringCatalogEntry("B", 12.0))
    assert catalog_match(11.0, pair).nominal.name == "A"
    with pytest.raises(DomainError):
        catalog_match(10.0, [])
    with pytest.raises(DomainError):
        catalog_match(-5.0, DEFAULT_CATALOG)


def test_catalog_nominal_is_closest():
    rng = random.Random(11)
    stiffnesses = sorted(rng.uniform(5, 20) for _ in range(6))
    catalog = [SpringCatalogEntry(f"K{i}", s) for i, s in enumerate(stiffnesses)]
    for _ in range(100):
        target = rng.uniform(4, 22)
        nominal = catalog_match(target, catalog).nominal
        best = min(abs(e.stiffness - target) for e in catalog)
        assert abs(nominal.stiffness - target) == pytest.approx(best, rel=1e-12)
