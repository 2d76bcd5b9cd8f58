"""Quasi-static gravity loading of the wrist deviation axis.

The arm is a rigid three-link chain (upper arm, forearm, hand) posed by
shoulder flexion, elbow flexion, and forearm pronation.  Only the hand
segment and any handheld load lie distal to the wrist, so the static
torque the joint must supply is minus the gravity moment of those two
point masses about the deviation (abduction-adduction) axis.  The upper
arm and forearm only set directions, so the model takes no segment for
them: ``segments`` maps ``"hand"`` to its :class:`BodySegment`.

Frame convention
----------------
World axes: x anterior, y lateral, z up; gravity acts along -z.  The
upper arm hangs along -z at zero shoulder flexion; shoulder and elbow
flexion both rotate anteriorly about the lateral axis.  Pronation turns
the palm normal about the forearm long axis from a thumb-up neutral
(90 deg = palm down).  Three fixed anatomical offsets close the model:

* carrying angle: valgus tilt of the forearm out of the flexion plane,
* grip extension: resting dorsal tilt of the hand plane while gripping,
* axis obliquity: the functional deviation axis is tilted about the
  hand's long axis away from the pure palm normal (dart-thrower sense).

Closed form
-----------
Wrist deviation turns the neutral hand direction h about the fixed unit
axis k.  By Rodrigues the turned hand is h cos(t) + (k x h) sin(t) +
k (k . h)(1 - cos(t)); the last term is parallel to k, so it drops out of
the moment k . (r x g).  Both point masses sit on the hand axis and fold
into one lever, so the reaction moment is exactly A cos(t) + B sin(t) with
A = -lever k . (h x g) and B = -lever k . ((k x h) x g).

Angles are radians, masses kg, lengths m, moments N*m.  Returned moments
are abduction-positive reaction torques: positive values mean the joint
(or its assisting spring) must push toward abduction to hold the pose.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

GRAVITY = 9.81  # m/s^2

# Hand mass as a fraction of whole-body mass, by sex.
HAND_MASS_FRACTION = {"male": 0.0065, "female": 0.0050}

# Upper bound on a plausible hand-mass fraction override.
_MAX_HAND_FRACTION = 0.05


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BodySegment:
    """A rigid segment with a point-mass center of mass on its long axis."""

    name: str
    mass: float       # kg
    length: float     # m
    com_ratio: float  # fraction of length from the proximal joint

    def __post_init__(self):
        if not _finite(self.mass) or self.mass < 0:
            raise DomainError(f"segment {self.name!r}: mass must be >= 0, got {self.mass}")
        if not _finite(self.length) or self.length <= 0:
            raise DomainError(f"segment {self.name!r}: length must be > 0, got {self.length}")
        if not _finite(self.com_ratio) or not 0.0 <= self.com_ratio <= 1.0:
            raise DomainError(
                f"segment {self.name!r}: com_ratio must lie in [0, 1], got {self.com_ratio}")


@dataclass(frozen=True)
class ArmPosture:
    """Proximal joint angles (rad) that pose the chain."""

    shoulder_flexion: float
    elbow_flexion: float
    forearm_pronation: float
    label: str = ""

    def __post_init__(self):
        for name in ("shoulder_flexion", "elbow_flexion", "forearm_pronation"):
            if not _finite(getattr(self, name)):
                raise DomainError(f"posture {self.label!r}: {name} must be finite")


@dataclass(frozen=True)
class LoadSpec:
    """A handheld point load gripped at a distance along the hand axis."""

    handheld_mass: float  # kg
    grip_offset: float    # m from the wrist joint along the hand axis

    def __post_init__(self):
        if not _finite(self.handheld_mass) or self.handheld_mass < 0:
            raise DomainError(f"handheld_mass must be >= 0, got {self.handheld_mass}")
        if not _finite(self.grip_offset) or self.grip_offset < 0:
            raise DomainError(f"grip_offset must be >= 0, got {self.grip_offset}")


@dataclass(frozen=True)
class MotionProfile:
    """Cyclic wrist angle trajectory, theta = mean + amplitude * sin(phase)."""

    mean_angle: float   # rad
    amplitude: float    # rad

    def __post_init__(self):
        if not _finite(self.mean_angle):
            raise DomainError("mean_angle must be finite")
        if not _finite(self.amplitude) or self.amplitude < 0:
            raise DomainError(f"amplitude must be >= 0, got {self.amplitude}")

    def angle_range(self) -> tuple:
        """(min, max) wrist angle over one cycle."""
        return (self.mean_angle - self.amplitude, self.mean_angle + self.amplitude)


@dataclass(frozen=True)
class KinematicConvention:
    """Fixed anatomical offsets closing the chain model (see module doc)."""

    axis_obliquity: float = math.radians(50.0)   # rad
    grip_extension: float = math.radians(20.0)   # rad
    carrying_angle: float = math.radians(10.0)   # rad

    def __post_init__(self):
        for name in ("axis_obliquity", "grip_extension", "carrying_angle"):
            if not _finite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


DEFAULT_CONVENTION = KinematicConvention()


@dataclass(frozen=True)
class TorqueCurve:
    """Reaction moment sampled against wrist angle, strictly angle-ordered."""

    angles: np.ndarray   # rad, strictly increasing
    moments: np.ndarray  # N*m
    posture_label: str = ""

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        moments = np.asarray(self.moments, dtype=float)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "moments", moments)
        if angles.ndim != 1 or moments.shape != angles.shape:
            raise DomainError("angles and moments must be 1-d arrays of equal length")
        if angles.size == 0:
            raise DomainError("curve must contain at least one sample")
        if not (np.isfinite(angles).all() and np.isfinite(moments).all()):
            raise DomainError("curve samples must be finite")
        if not (angles[1:] > angles[:-1]).all():  # np.diff would overflow at ±1e308
            raise DomainError("curve angles must be strictly increasing")

    def peak_abs_moment(self) -> float:
        return float(np.abs(self.moments).max())


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _rotate(vec: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of ``vec`` about the unit-normalized ``axis``."""
    norm = math.sqrt(float(axis @ axis))
    if norm == 0.0:
        raise DomainError("rotation axis must be non-zero")
    k = axis / norm
    return (vec * math.cos(angle)
            + np.cross(k, vec) * math.sin(angle)
            + k * (k @ vec) * (1.0 - math.cos(angle)))


def wrist_geometry(posture: ArmPosture,
                   convention: KinematicConvention = DEFAULT_CONVENTION):
    """Deviation axis and neutral hand direction for a posture.

    Returns
    -------
    (axis, hand_dir) : tuple of unit 3-vectors
        ``axis`` is the abduction-positive deviation axis (right-hand
        rule); ``hand_dir`` is the hand long axis at zero wrist angle.
    """
    lateral = np.array([0.0, 1.0, 0.0])
    down = np.array([0.0, 0.0, -1.0])
    flexion_axis = -lateral  # positive flexion swings the limb anteriorly

    u_fore = _rotate(down, flexion_axis, posture.shoulder_flexion + posture.elbow_flexion)
    palm = lateral  # palm normal at thumb-up neutral pronation
    valgus_axis = np.cross(palm, u_fore)
    u_fore = _rotate(u_fore, valgus_axis, convention.carrying_angle)
    palm = _rotate(palm, valgus_axis, convention.carrying_angle)
    palm = _rotate(palm, u_fore, posture.forearm_pronation)

    # resting grip extension tilts the whole hand plane about the wrist
    # flexion-extension axis
    fe_axis = np.cross(palm, u_fore)
    hand_dir = _rotate(u_fore, fe_axis, convention.grip_extension)
    palm = _rotate(palm, fe_axis, convention.grip_extension)

    axis = _rotate(palm, hand_dir, convention.axis_obliquity)
    return axis, hand_dir


def _require_chain(segments: dict) -> BodySegment:
    if "hand" not in segments:
        raise ConfigError("segment set is missing 'hand'")
    return segments["hand"]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def hand_mass_from_body(body_mass: float, sex: str,
                        fraction_override: float | None = None) -> float:
    """Hand mass (kg) from whole-body mass via anthropometric fractions."""
    if not _finite(body_mass) or body_mass <= 0:
        raise DomainError(f"body_mass must be > 0, got {body_mass}")
    if fraction_override is not None:
        if not _finite(fraction_override) or not 0.0 < fraction_override < _MAX_HAND_FRACTION:
            raise DomainError(
                f"fraction_override must lie in (0, {_MAX_HAND_FRACTION}), got {fraction_override}")
        return body_mass * fraction_override
    try:
        fraction = HAND_MASS_FRACTION[sex]
    except KeyError:
        raise DomainError(f"sex must be one of {sorted(HAND_MASS_FRACTION)}, got {sex!r}") from None
    return body_mass * fraction


def wrist_reaction_moment(segments: dict, posture: ArmPosture, wrist_angle,
                          load: LoadSpec, g: float = GRAVITY,
                          convention: KinematicConvention = DEFAULT_CONVENTION):
    """Static torque (N*m) the wrist must supply about its deviation axis.

    Minus the gravity moment of the hand and handheld load about the axis,
    abduction positive.  One geometry solve gives A and B of the closed form
    A cos(t) + B sin(t); the axial Rodrigues term is parallel to the axis,
    so it adds no moment (see the module doc).  A scalar ``wrist_angle``
    returns a float, an array of angles returns an array.
    """
    hand = _require_chain(segments)
    theta = np.asarray(wrist_angle)
    if theta.dtype.kind not in "biuf" or not np.isfinite(theta).all():
        raise DomainError("wrist_angle must be finite")
    if not _finite(g):
        raise DomainError("g must be finite")

    axis, hand_dir = wrist_geometry(posture, convention)
    lever = hand.mass * hand.com_ratio * hand.length + load.handheld_mass * load.grip_offset
    g_vec = np.array([0.0, 0.0, -g])
    a = -lever * float(axis @ np.cross(hand_dir, g_vec))
    b = -lever * float(axis @ np.cross(np.cross(axis, hand_dir), g_vec))
    moment = a * np.cos(theta) + b * np.sin(theta)
    return float(moment) if moment.ndim == 0 else moment


def sweep_torque_curve(segments: dict, posture: ArmPosture, motion: MotionProfile,
                       load: LoadSpec, n_samples: int = 50, g: float = GRAVITY,
                       convention: KinematicConvention = DEFAULT_CONVENTION) -> TorqueCurve:
    """Sample the reaction moment at angles spanning one motion cycle.

    Angles are an evenly spaced closed grid over the cycle's angle range,
    so the first and last samples sit exactly at the cycle extremes.
    """
    if int(n_samples) != n_samples or n_samples < 2:
        raise DomainError(f"n_samples must be an integer >= 2, got {n_samples}")
    angles = np.linspace(*motion.angle_range(), int(n_samples))
    moments = wrist_reaction_moment(segments, posture, angles, load, g, convention)
    return TorqueCurve(angles, moments, posture.label)

