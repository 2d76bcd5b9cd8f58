import math

import pytest

from wristkit.errors import ConfigError, DomainError
from wristkit.transmission import (CableRoute, Gearing, SpringSpec, capstan_transmit,
                                   pretension_torque)

import oracles


def test_parameter_validation():
    with pytest.raises(DomainError):
        SpringSpec(0.0, 0.1)
    with pytest.raises(DomainError):
        SpringSpec(1.0, math.nan)
    with pytest.raises(DomainError):
        SpringSpec(1.0, 0.1, pre_wind=-0.2)
    with pytest.raises(DomainError):
        CableRoute(friction_mu=-0.1)
    with pytest.raises(DomainError):
        Gearing(efficiency=1.2)
    with pytest.raises(DomainError):
        Gearing(torque_constant=0.0)


def test_pretension_torque():
    assert pretension_torque(SpringSpec(0.7054, 0.0, pre_wind=0.589)) == pytest.approx(
        0.4155, abs=1e-4)
    assert pretension_torque(SpringSpec(3.0, 0.5, pre_wind=0.0)) == 0.0
    # vendor S2 in N*mm/deg converts to 0.6709 N*m/rad, not 0.2046; the
    # smaller value is still a legal spring and a useful spot check
    assert pretension_torque(SpringSpec(0.2046, 0.0, pre_wind=0.589)) == pytest.approx(
        0.1205, abs=1e-4)
    assert 11.71 * 180.0 / math.pi / 1000.0 == pytest.approx(0.6709, abs=1e-4)
    with pytest.raises(ConfigError):
        pretension_torque(SpringSpec(1.0, 0.1))


def test_capstan_identities():
    route_nowrap = CableRoute(wrap_angle=0.0)
    route_nofriction = CableRoute(friction_mu=0.0)
    for force in (0.0, 1.0, 57.3):
        assert capstan_transmit(force, route_nowrap, "opposing") == force
        assert capstan_transmit(force, route_nofriction, "aiding") == force


def test_capstan_against_series_oracle():
    route = CableRoute(friction_mu=0.04, wrap_angle=math.pi)
    got = capstan_transmit(100.0, route, "opposing")
    assert got == pytest.approx(113.39, abs=0.01)
    assert got == pytest.approx(oracles.capstan(100.0, 0.04, math.pi, True), rel=1e-12)
    assert capstan_transmit(100.0, route, "aiding") == pytest.approx(
        oracles.capstan(100.0, 0.04, math.pi, False), rel=1e-12)


def test_capstan_multiplicative_in_wrap():
    for a, b in ((0.5, 1.1), (math.pi / 2, math.pi / 2), (0.0, 2.0)):
        step1 = capstan_transmit(80.0, CableRoute(friction_mu=0.1, wrap_angle=a),
                                 "opposing")
        step2 = capstan_transmit(step1, CableRoute(friction_mu=0.1, wrap_angle=b),
                                 "opposing")
        combined = capstan_transmit(80.0, CableRoute(friction_mu=0.1, wrap_angle=a + b),
                                    "opposing")
        assert step2 == pytest.approx(combined, rel=1e-12)


def test_capstan_round_trip():
    route = CableRoute(friction_mu=0.07, wrap_angle=2.3)
    out = capstan_transmit(capstan_transmit(42.0, route, "opposing"), route, "aiding")
    assert out == pytest.approx(42.0, rel=1e-15)


def test_capstan_rejects_bad_input():
    with pytest.raises(DomainError):
        capstan_transmit(-1.0, CableRoute(), "opposing")
    with pytest.raises(DomainError):
        capstan_transmit(1.0, CableRoute(), "sideways")
