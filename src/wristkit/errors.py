"""Error taxonomy shared across the toolkit.

The CLI maps these onto its exit-code contract: usage problems exit 1,
data problems exit 2, configuration problems exit 3.  :func:`check_real`
states once what a valid scalar input is and how its rejection is worded,
and :class:`Record` is the base of every value type the checks serve.
"""

import math
import numbers
import operator


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
    """Pass each named field of the :class:`Record` ``obj`` through :func:`check_real` as
    ``prefix + field`` and store the number it returns (from ``__post_init__``)."""
    for field, rule in rules.items():
        object.__setattr__(obj, field, check_real(prefix + field, getattr(obj, field), rule))


class _RecordType(type):
    """Makes the annotated names of a :class:`Record` subclass, after its base's, its fields:
    its ``__slots__``, ``__match_args__`` and the ``_values`` tuple.  A class attribute so
    named is a default.  What a field is annotated with changes nothing."""

    def __new__(mcls, name, bases, ns):
        # Python 3.14 defers annotations (PEP 649): 1 is annotationlib.Format.VALUE
        annotate = ns.get("__annotate__") or ns.get("__annotate_func__")
        names = ns.get("__annotations__") or annotate and annotate(1) or {}
        own = ns["__slots__"] = tuple(names)
        defaults = {field: ns.pop(field) for field in own if field in ns}
        cls = super().__new__(mcls, name, bases, ns)
        cls.__match_args__ = fields = getattr(cls, "__match_args__", ()) + own
        cls._defaults = {**getattr(cls, "_defaults", {}), **defaults}
        # the field tuple; attrgetter of one name returns the bare value, of none refuses
        cls._values = property(operator.attrgetter(*fields) if len(fields) > 1
                               else lambda self: tuple(getattr(self, f) for f in fields))
        return cls

    @property
    def __signature__(cls):  # built when asked: making a record never imports inspect
        from inspect import Parameter as P, Signature
        return Signature([P(f, P.POSITIONAL_OR_KEYWORD, default=cls._defaults.get(f, P.empty))
                          for f in cls.__match_args__])


class Record(metaclass=_RecordType):
    """A frozen value type, built from its fields by position or keyword, then checked by
    ``__post_init__``; compared (with its own class only), hashed and printed by value.
    Fields compare as in a tuple, but a field that holds an array of one or more dimensions
    (a nonzero ``ndim``) equals only an array of that shape whose every element is equal."""

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):  # bind by name, a default for a field not given
            rest, given = fields[len(args):], {**self._defaults, **kwargs}
            extra = [*args[len(fields):], *(name for name in kwargs if name not in rest)]
            missing = [name for name in rest if name not in given]
            if extra or missing:  # an argument too many, a name that is no field or given twice
                what = "got an unexpected" if extra else "missing"
                raise TypeError(f"{type(self).__qualname__}() {what} argument "
                                f"{(extra or missing)[0]!r}")
            args += tuple(given[name] for name in rest)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields, storing a normalised value with ``object.__setattr__``."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a is b or (a == b if not (getattr(a, "ndim", 0) or getattr(b, "ndim", 0))
                              else getattr(a, "shape", None) == getattr(b, "shape", None)
                              and (a == b).all())
                   for a, b in zip(self._values, other._values))

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        values = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values))
        return f"{type(self).__qualname__}({values})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, as __setattr__ refuses
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
