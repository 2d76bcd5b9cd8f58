"""Spring, cable-guide, and gearmotor constants of the assisted joint.

A flat spiral (clock) spring acts directly on the joint and supplies
torque proportional to its wind-up (:class:`SpringSpec`); ``fit`` sizes
it.  The cable that closes the remaining torque gap runs over a curved
guide whose friction follows the capstan relation: tension is scaled by
exp(mu * wrap) between the joint end and the motor end -- amplified when
the motor works against friction, attenuated when friction aids it.
:class:`Gearing` holds the gearmotor constants through which ``analyze``
turns logged motor current into motor-side and joint torque.

Angles are radians, torques N*m, forces N.
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
    """Cable contact on the curved guide."""

    friction_mu: float = 0.04     # cable-on-guide friction coefficient
    wrap_angle: float = math.pi   # rad of contact on the guide

    def __post_init__(self):
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
