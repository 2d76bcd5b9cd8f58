"""Error taxonomy shared across the toolkit.

The CLI maps these onto its exit-code contract: usage problems exit 1,
data problems exit 2, configuration problems exit 3.  :func:`check_real`
states once what a valid scalar input is and how its rejection is worded.
"""

import math
import numbers


class DomainError(ValueError):
    """An input violates a physical or mathematical precondition."""


class DataError(Exception):
    """A data file is malformed, empty, or otherwise unusable."""


class TrialRejected(DataError):
    """A trial log failed a quality threshold and was excluded.

    Attributes
    ----------
    fraction : float
        Fraction of samples that would need repair.
    """

    def __init__(self, message: str, fraction: float):
        super().__init__(message)
        self.fraction = fraction


class ConfigError(Exception):
    """A configuration file is missing, malformed, or inconsistent."""


def check_real(name: str, value, rule: str = "finite", integer: bool = False):
    """Return ``value`` as a float (an int with ``integer``) when it is a finite real
    number that meets ``rule``, else raise a :class:`DomainError`.

    Any finite real passes, numpy integer and float scalars included; str, None,
    complex, NaN, +-inf and an int too large for a float fail, and with ``integer``
    so does a fraction.  ``rule`` is ``"finite"``, a bound (``">= 0"``, ``"> 0"``)
    or an interval (``"[0, 1]"``, ``"(0, 1]"``), quoted as is in the message.
    """
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        ok = math.isfinite(value) and (not integer or value == int(value))
    except OverflowError:   # an int too large for a float
        ok = False
    shape = "be finite"
    if rule[0] in "[(":
        lo, hi = (float(end) for end in rule[1:-1].split(", "))
        ok = ok and ((lo <= value if rule[0] == "[" else lo < value)
                     and (value <= hi if rule[-1] == "]" else value < hi))
        shape = f"be an integer in {rule}" if integer else f"lie in {rule}"
    elif rule != "finite":
        op, bound = rule.split()
        ok = ok and (value >= float(bound) if op == ">=" else value > float(bound))
        shape = f"be an integer {rule}" if integer else f"be {rule}"
    if not ok:
        raise DomainError(f"{name} must {shape}, got {value}")
    return int(value) if integer else float(value)


def check_fields(obj, prefix: str = "", **rules):
    """Pass each named field of the frozen dataclass ``obj`` through :func:`check_real`
    as ``prefix + field`` and store the number it returns."""
    for field, rule in rules.items():
        object.__setattr__(obj, field, check_real(prefix + field, getattr(obj, field), rule))
