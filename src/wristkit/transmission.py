"""Spring, cable, and motor models for the assisted joint drive.

A flat spiral (clock) spring acts directly on the joint and supplies
torque proportional to its wind-up; the remainder of the demanded joint
torque comes from a single cable wound on a lever pulley, routed over a
curved guide, and pulled by a geared DC motor.  Friction on the guide
follows the capstan relation, so cable tension is scaled by exp(mu *
wrap) between the joint end and the motor end -- amplified when the
motor works against friction, attenuated when friction aids it.

Angles are radians, torques N*m, forces N, currents A.
"""

import math
from dataclasses import dataclass

from .biomech import _finite
from .errors import ConfigError, DomainError

CAPSTAN_DIRECTIONS = ("aiding", "opposing")


@dataclass(frozen=True)
class SpringSpec:
    """Linear clock spring: torque = stiffness * (neutral_angle - angle).

    ``neutral_angle`` is the joint angle at which the spring is relaxed.
    ``pre_wind`` (rad), when set, is an extra installation wind-up used
    for pretension bookkeeping.
    """

    stiffness: float            # N*m/rad
    neutral_angle: float        # rad
    pre_wind: float | None = None

    def __post_init__(self):
        if not _finite(self.stiffness) or self.stiffness <= 0:
            raise DomainError(f"stiffness must be > 0, got {self.stiffness}")
        if not _finite(self.neutral_angle):
            raise DomainError("neutral_angle must be finite")
        if self.pre_wind is not None:
            if not _finite(self.pre_wind) or self.pre_wind < 0:
                raise DomainError(f"pre_wind must be >= 0, got {self.pre_wind}")


@dataclass(frozen=True)
class CableRoute:
    """Cable geometry: lever pulley at the joint, curved guide en route."""

    lever_radius: float = 0.025   # m
    friction_mu: float = 0.04     # cable-on-guide friction coefficient
    wrap_angle: float = math.pi   # rad of contact on the guide

    def __post_init__(self):
        if not _finite(self.lever_radius) or self.lever_radius <= 0:
            raise DomainError(f"lever_radius must be > 0, got {self.lever_radius}")
        if not _finite(self.friction_mu) or self.friction_mu < 0:
            raise DomainError(f"friction_mu must be >= 0, got {self.friction_mu}")
        if not _finite(self.wrap_angle) or self.wrap_angle < 0:
            raise DomainError(f"wrap_angle must be >= 0, got {self.wrap_angle}")


@dataclass(frozen=True)
class Gearing:
    """Gearmotor lumped constants."""

    ratio: float = 128.0            # output rev per motor rev
    efficiency: float = 0.78        # gearbox efficiency, (0, 1]
    torque_constant: float = 0.0105  # N*m/A at the motor shaft

    def __post_init__(self):
        if not _finite(self.ratio) or self.ratio <= 0:
            raise DomainError(f"ratio must be > 0, got {self.ratio}")
        if not _finite(self.efficiency) or not 0.0 < self.efficiency <= 1.0:
            raise DomainError(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if not _finite(self.torque_constant) or self.torque_constant <= 0:
            raise DomainError(f"torque_constant must be > 0, got {self.torque_constant}")


@dataclass(frozen=True)
class DriveSolution:
    """Steady-state operating point of the cable drive at one joint angle."""

    joint_torque: float    # demanded at the joint, N*m
    spring_torque: float   # supplied by the spring, N*m
    net_torque: float      # joint_torque - spring_torque, N*m
    cable_tension: float   # at the lever pulley, N
    motor_torque: float    # at the motor shaft, N*m
    current: float         # A
    spring_driven: bool    # spring alone meets or exceeds the demand


def spring_torque(spring: SpringSpec, angle: float) -> float:
    """Assist torque (N*m) delivered by the spring at a joint angle."""
    if not _finite(angle):
        raise DomainError("angle must be finite")
    return spring.stiffness * (spring.neutral_angle - angle)


def pretension_torque(spring: SpringSpec) -> float:
    """Torque stored by the installation pre-wind alone."""
    if spring.pre_wind is None:
        raise ConfigError("spring has no pre_wind set")
    return spring.stiffness * spring.pre_wind


def capstan_transmit(force: float, route: CableRoute, direction: str) -> float:
    """Tension on the motor side of the guide for a given joint-side tension.

    ``direction`` is ``"opposing"`` when friction resists the motor (the
    motor must pull harder than the joint-side tension) and ``"aiding"``
    when friction holds load for the motor.
    """
    if not _finite(force) or force < 0:
        raise DomainError(f"force must be >= 0, got {force}")
    if direction not in CAPSTAN_DIRECTIONS:
        raise DomainError(f"direction must be one of {CAPSTAN_DIRECTIONS}, got {direction!r}")
    exponent = route.friction_mu * route.wrap_angle
    if direction == "opposing":
        return force * math.exp(exponent)
    return force * math.exp(-exponent)


def joint_torque_from_tension(tension: float, route: CableRoute) -> float:
    """Joint torque produced by a cable tension acting on the lever pulley."""
    if not _finite(tension) or tension < 0:
        raise DomainError(f"tension must be >= 0, got {tension}")
    return tension * route.lever_radius


def motor_current_for_joint_torque(joint_torque: float, spring: SpringSpec,
                                   angle: float, route: CableRoute,
                                   gearing: Gearing) -> DriveSolution:
    """Size the motor effort needed to hold a joint torque at an angle.

    The spring contribution at ``angle`` is subtracted first; the cable
    carries only the remainder.  When the spring alone meets or exceeds
    the demand the cable goes slack and the motor current is zero.  The
    cable always works against guide friction when the motor is loaded,
    so the motor-side tension carries the full capstan amplification.
    """
    if not _finite(joint_torque):
        raise DomainError("joint_torque must be finite")
    assist = spring_torque(spring, angle)
    net = joint_torque - assist
    if net <= 0.0:
        return DriveSolution(joint_torque, assist, net, 0.0, 0.0, 0.0, True)
    tension = net / route.lever_radius
    motor_side = capstan_transmit(tension, route, "opposing")
    motor_torque = motor_side * route.lever_radius / (gearing.ratio * gearing.efficiency)
    current = motor_torque / gearing.torque_constant
    return DriveSolution(joint_torque, assist, net, tension, motor_torque, current, False)
