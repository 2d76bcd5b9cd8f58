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

from .errors import ConfigError, DomainError, Record, check_fields, check_real

CAPSTAN_DIRECTIONS = ("aiding", "opposing")


class SpringSpec(Record):
    """Linear clock spring: torque = stiffness * (neutral_angle - angle).

    ``neutral_angle`` is the joint angle at which the spring is relaxed.
    ``pre_wind`` (rad), when set, is an extra installation wind-up used
    for pretension bookkeeping.
    """

    stiffness: float            # N*m/rad
    neutral_angle: float        # rad
    pre_wind: float | None = None

    def __post_init__(self):
        check_fields(self, stiffness="> 0", neutral_angle="finite")
        if self.pre_wind is not None:
            check_fields(self, pre_wind=">= 0")


class CableRoute(Record):
    """Cable contact on the curved guide."""

    friction_mu: float = 0.04     # cable-on-guide friction coefficient
    wrap_angle: float = math.pi   # rad of contact on the guide

    def __post_init__(self):
        check_fields(self, friction_mu=">= 0", wrap_angle=">= 0")


class Gearing(Record):
    """Gearmotor lumped constants."""

    ratio: float = 128.0            # output rev per motor rev
    efficiency: float = 0.78        # gearbox efficiency, (0, 1]
    torque_constant: float = 0.0105  # N*m/A at the motor shaft

    def __post_init__(self):
        check_fields(self, ratio="> 0", efficiency="(0, 1]", torque_constant="> 0")


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
    force = check_real("force", force, ">= 0")
    if direction not in CAPSTAN_DIRECTIONS:
        raise DomainError(f"direction must be one of {CAPSTAN_DIRECTIONS}, got {direction!r}")
    exponent = route.friction_mu * route.wrap_angle
    if direction == "opposing":
        return force * math.exp(exponent)
    return force * math.exp(-exponent)
