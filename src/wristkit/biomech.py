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

Each step turns two unit vectors within their plane of the forearm frame
u = (sin f, 0, -cos f), f = shoulder + elbow flexion, l = (0, 1, 0) and
w = u x l.  Carrying angle c gives u' = u cos c - l sin c and l' = l cos c
+ u sin c; pronation p the palm normal n = l' cos p + w sin p; grip
extension e the hand u' cos e - n sin e and n' = n cos e + u' sin e; and
obliquity o the axis n' cos o + (u' x n) sin o, u' x n = w cos p - l' sin p.

Closed form
-----------
Wrist deviation turns the neutral hand direction h about the fixed unit
axis k.  By Rodrigues the turned hand is h cos(t) + (k x h) sin(t) +
k (k . h)(1 - cos(t)); the last term is parallel to k, so it drops out of
the moment k . (r x g).  Both point masses sit on the hand axis and fold
into one lever, so the reaction moment is exactly A cos(t) + B sin(t) with
A = -lever k . (h x g) and B = -lever k . ((k x h) x g).  With g = (0, 0, -g),
|k| = 1 and k . h = 0 (the axis is built from n' and u' x n, both normal to
the hand) these are A = lever g (k_x h_y - k_y h_x) and B = -lever g h_z,
the pair :func:`moment_coefficients` returns.

Angles are radians, masses kg, lengths m, moments N*m.  Returned moments
are abduction-positive reaction torques: positive values mean the joint
(or its assisting spring) must push toward abduction to hold the pose.
"""

import math

import numpy as np

from .errors import ConfigError, DomainError, Record, check_fields, check_real

GRAVITY = 9.81  # m/s^2

# Hand mass as a fraction of whole-body mass, by sex.
HAND_MASS_FRACTION = {"male": 0.0065, "female": 0.0050}

# Upper bound on a plausible hand-mass fraction override.
_MAX_HAND_FRACTION = 0.05


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class BodySegment(Record):
    """A rigid segment with a point-mass center of mass on its long axis."""

    name: str
    mass: float       # kg
    length: float     # m
    com_ratio: float  # fraction of length from the proximal joint

    def __post_init__(self):
        check_fields(self, f"segment {self.name!r}: ", mass=">= 0", length="> 0", com_ratio="[0, 1]")


class ArmPosture(Record):
    """Proximal joint angles (rad) that pose the chain."""

    shoulder_flexion: float
    elbow_flexion: float
    forearm_pronation: float
    label: str = ""

    def __post_init__(self):
        check_fields(self, f"posture {self.label!r}: ", shoulder_flexion="finite",
                     elbow_flexion="finite", forearm_pronation="finite")


class LoadSpec(Record):
    """A handheld point load gripped at a distance along the hand axis."""

    handheld_mass: float  # kg
    grip_offset: float    # m from the wrist joint along the hand axis

    def __post_init__(self):
        check_fields(self, handheld_mass=">= 0", grip_offset=">= 0")


class MotionProfile(Record):
    """Cyclic wrist angle trajectory, theta = mean + amplitude * sin(phase)."""

    mean_angle: float   # rad
    amplitude: float    # rad

    def __post_init__(self):
        check_fields(self, mean_angle="finite", amplitude=">= 0")

    def angle_range(self) -> tuple:
        """(min, max) wrist angle over one cycle."""
        return (self.mean_angle - self.amplitude, self.mean_angle + self.amplitude)


class KinematicConvention(Record):
    """Fixed anatomical offsets closing the chain model (see module doc)."""

    axis_obliquity: float = math.radians(50.0)   # rad
    grip_extension: float = math.radians(20.0)   # rad
    carrying_angle: float = math.radians(10.0)   # rad

    def __post_init__(self):
        check_fields(self, axis_obliquity="finite", grip_extension="finite", carrying_angle="finite")


DEFAULT_CONVENTION = KinematicConvention()


class TorqueCurve(Record):
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

def _turn(u, v, angle):
    """Turn the 3-tuples u and v by ``angle`` within their plane: (u cos - v sin, v cos + u sin)."""
    c, s = math.cos(angle), math.sin(angle)
    return ((u[0] * c - v[0] * s, u[1] * c - v[1] * s, u[2] * c - v[2] * s),
            (v[0] * c + u[0] * s, v[1] * c + u[1] * s, v[2] * c + u[2] * s))


def wrist_geometry(posture: ArmPosture,
                   convention: KinematicConvention = DEFAULT_CONVENTION):
    """Deviation axis and neutral hand direction for a posture.

    Returns ``(axis, hand_dir)``, unit 3-vectors as tuples of floats: the abduction-positive
    deviation axis (right-hand rule) and the hand long axis at zero wrist angle.
    """
    phi = posture.shoulder_flexion + posture.elbow_flexion
    fore, lateral = _turn((math.sin(phi), 0.0, -math.cos(phi)), (0.0, 1.0, 0.0),
                          convention.carrying_angle)
    w = (math.cos(phi), 0.0, math.sin(phi))  # fore x lateral, before and after the carrying angle
    fore_x_palm, palm = _turn(w, lateral, posture.forearm_pronation)  # grip extension keeps it
    hand_dir, palm = _turn(fore, palm, convention.grip_extension)
    return _turn(fore_x_palm, palm, convention.axis_obliquity)[1], hand_dir


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def hand_mass_from_body(body_mass: float, sex: str,
                        fraction_override: float | None = None) -> float:
    """Hand mass (kg) from whole-body mass via anthropometric fractions."""
    body_mass = check_real("body_mass", body_mass, "> 0")
    if fraction_override is not None:
        return body_mass * check_real("fraction_override", fraction_override,
                                      f"(0, {_MAX_HAND_FRACTION})")
    try:
        fraction = HAND_MASS_FRACTION[sex]
    except KeyError:
        raise DomainError(f"sex must be one of {sorted(HAND_MASS_FRACTION)}, got {sex!r}") from None
    return body_mass * fraction


def moment_coefficients(segments: dict, posture: ArmPosture, load: LoadSpec, g: float = GRAVITY,
                        convention: KinematicConvention = DEFAULT_CONVENTION) -> tuple:
    """``(A, B)`` in N*m, plain floats: the posture's reaction moment is exactly
    A cos(t) + B sin(t) at wrist angle t, from one geometry solve (see the module doc)."""
    if "hand" not in segments:
        raise ConfigError("segment set is missing 'hand'")
    hand = segments["hand"]
    g = check_real("g", g)
    (kx, ky, _), (hx, hy, hz) = wrist_geometry(posture, convention)
    lever = hand.mass * hand.com_ratio * hand.length + load.handheld_mass * load.grip_offset
    return lever * g * (kx * hy - ky * hx), -lever * g * hz


def wrist_reaction_moment(segments: dict, posture: ArmPosture, wrist_angle,
                          load: LoadSpec, g: float = GRAVITY,
                          convention: KinematicConvention = DEFAULT_CONVENTION):
    """Static torque (N*m) the wrist must supply about its deviation axis.

    Minus the gravity moment of the hand and handheld load about the axis,
    abduction positive: :func:`moment_coefficients` evaluated at ``wrist_angle``.
    A scalar ``wrist_angle`` returns a float, an array of angles returns an array.
    """
    a, b = moment_coefficients(segments, posture, load, g, convention)
    theta = np.asarray(wrist_angle)
    if theta.dtype.kind not in "biuf" or not np.isfinite(theta).all():
        raise DomainError("wrist_angle must be finite")
    moment = a * np.cos(theta) + b * np.sin(theta)
    return float(moment) if moment.ndim == 0 else moment


def sweep_torque_curve(segments: dict, posture: ArmPosture, motion: MotionProfile,
                       load: LoadSpec, n_samples: int = 50, g: float = GRAVITY,
                       convention: KinematicConvention = DEFAULT_CONVENTION) -> TorqueCurve:
    """Sample the reaction moment at angles spanning one motion cycle.

    Angles are an evenly spaced closed grid over the cycle's angle range,
    so the first and last samples sit exactly at the cycle extremes.
    """
    n_samples = check_real("n_samples", n_samples, ">= 2", integer=True)
    lo, hi = motion.angle_range()
    if not lo < hi:
        raise DomainError(f"motion amplitude {motion.amplitude!r} rad: no angle range to sweep")
    angles = np.linspace(lo, hi, n_samples)
    if not (angles[1:] > angles[:-1]).all() and math.isfinite(hi - lo):  # rounding ties them
        raise DomainError(f"motion amplitude {motion.amplitude!r} rad: "
                          f"too narrow for {n_samples} distinct angles")
    with np.errstate(over="ignore", invalid="ignore"):  # TorqueCurve rejects what overflows
        moments = wrist_reaction_moment(segments, posture, angles, load, g, convention)
    return TorqueCurve(angles, moments, posture.label)

