"""Toolkit configuration: INI-style text with strict validation.

The file is plain ``key = value`` lines under ``[section]`` headers
(read with :mod:`configparser`), chosen so configs diff cleanly and
need no extra dependencies.  ``DEFAULTS`` gives each key's default and
rule; every value meets its own rule before any rule between keys runs,
and unknown sections or keys fail loudly.  Angles are written in degrees
(as the hardware and protocol describe them) and converted to radians
here; a rejected value is named by its key and quoted in the unit written.

Keys in ``_RETIRED`` once existed but never changed an output; a file
that still sets one loads with a warning, and its value is not read.
"""

import configparser
import math
import os
import warnings

from .biomech import (_MAX_HAND_FRACTION, HAND_MASS_FRACTION, ArmPosture, BodySegment,
                      KinematicConvention, LoadSpec, MotionProfile, hand_mass_from_body)
from .errors import ConfigError, DataError, DomainError, Record, check_real
from .springs import DEFAULT_CATALOG
from .transmission import Gearing
from . import fileio

# Each key's default, as a file writes it, and its rule: a ``check_real`` rule, the words
# it may take, or None for a path; a blank default makes a key optional (None if blank).
# The defaults model a ~95 kg adult male arm holding a 0.5 kg object.  Only the hand lies
# distal to the wrist: the [postures] angles alone pose the upper arm and forearm.
DEFAULTS = {
    "segments": {
        "hand_mass_kg": ("0.6175", ">= 0"),
        "hand_length_m": ("0.19", "> 0"),
        "hand_com_ratio": ("0.5", "[0, 1]"),
        "body_mass_kg": ("", "> 0"),                # gives the hand mass, in place of hand_mass_kg
        "sex": ("", sorted(HAND_MASS_FRACTION)),    # with body_mass_kg: the fraction by sex
        "hand_mass_fraction": ("", f"(0, {_MAX_HAND_FRACTION})"),  # with body_mass_kg, not sex
    },
    "kinematics": {
        "axis_obliquity_deg": ("50", "finite"),
        "grip_extension_deg": ("20", "finite"),
        "carrying_angle_deg": ("10", "finite"),
        "gravity_m_s2": ("9.81", "> 0"),
    },
    "postures": {
        "p1_shoulder_deg": ("30", "finite"), "p1_elbow_deg": ("60", "finite"),
        "p1_pronation_deg": ("90", "finite"),
        "p2_shoulder_deg": ("45", "finite"), "p2_elbow_deg": ("60", "finite"),
        "p2_pronation_deg": ("0", "finite"),
        "p3_shoulder_deg": ("75", "finite"), "p3_elbow_deg": ("120", "finite"),
        "p3_pronation_deg": ("45", "finite"),
    },
    "motion": {
        "mean_deg": ("-7", "finite"),
        "amplitude_deg": ("37", ">= 0"),
        "min_angle_deg": ("-44", "finite"),
        "max_angle_deg": ("30", "finite"),
    },
    "load": {"handheld_mass_kg": ("0.5", ">= 0"), "grip_offset_m": ("0.08", ">= 0")},
    "transmission": {"gear_ratio": ("128", "> 0"), "efficiency": ("0.78", "(0, 1]"),
                     "torque_constant_nm_per_a": ("0.0105", "> 0")},
    "springs": {
        "catalog_path": ("", None),     # optional CSV; blank = built-in catalog
        "pre_wind_rad": ("", ">= 0"),   # optional installation wind-up
    },
    "analysis": {
        "angle_min_deg": ("-60", "[-180, 180]"),
        "angle_max_deg": ("45", "[-180, 180]"),
        "max_interpolated_fraction": ("0.05", "[0, 1]"),
    },
}

# Keys that older config files may still set; each is ignored with a warning.
_RETIRED = {
    "segments": {"upper_arm_mass_kg", "upper_arm_length_m", "upper_arm_com_ratio",
                 "forearm_mass_kg", "forearm_length_m", "forearm_com_ratio"},
    "motion": {"period_s"},
    "transmission": {"lever_radius_m", "friction_mu", "wrap_angle_rad"},
}

_ANGLE_TOL = 1e-9


class ToolkitConfig(Record):
    """Everything the pipeline needs, validated and in SI units."""

    segments: dict
    convention: KinematicConvention
    gravity: float
    postures: dict
    motion: MotionProfile
    load: LoadSpec
    gearing: Gearing
    catalog: tuple
    pre_wind: float | None
    angle_bounds: tuple
    max_interpolated_fraction: float


def _read_ini(path) -> dict:
    """Every key's value, from the file at ``path`` (if any) over ``DEFAULTS``, once its
    own rule holds; then no two ``[segments]`` keys the file sets may set one quantity."""
    written = {section: {key: default for key, (default, _) in keys.items()}
               for section, keys in DEFAULTS.items()}
    user = configparser.ConfigParser(interpolation=None)
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {fileio.path_name(path)}")
        try:  # decoded as every CSV is, so a bad byte is named by its line
            user.read_string(fileio._read_text(path), str(path))
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        except configparser.Error as exc:  # spread over several lines: print it on one
            raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
        if user.defaults():
            raise ConfigError(f"{path}: a [DEFAULT] section is not supported; "
                              f"set each key in its own section")
    for section in user.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key, raw in user.items(section):
            if key in _RETIRED.get(section, ()):
                warnings.warn(f"{path}: [{section}] {key} is retired and ignored",
                              stacklevel=3)
            elif key not in DEFAULTS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            else:
                written[section][key] = raw
    values = {section: {key: _value(section, key, raw) for key, raw in keys.items()}
              for section, keys in written.items()}
    for pair, quantity in ((("hand_mass_kg", "body_mass_kg"), "the hand mass"),
                           (("sex", "hand_mass_fraction"), "the hand mass fraction")):
        if all(user.get("segments", key, fallback="") for key in pair):
            raise ConfigError(f"[segments] {' and '.join(pair)} both set {quantity}; set one")
    return values


def _value(section, key, raw):
    """``[section] key`` written as ``raw`` once its rule holds: a float (in the unit
    written), a word or a path.  A blank is None where the default is blank too."""
    default, rule = DEFAULTS[section][key]
    if not raw and not default:
        return None
    if not isinstance(rule, str):  # a path, or one of a list of words
        if rule and raw not in rule:
            raise ConfigError(f"[{section}] {key} must be one of {rule}, got {raw!r}")
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None
    try:
        return check_real(f"[{section}] {key}", value, rule)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path=None) -> ToolkitConfig:
    """Load and validate a config file; ``None`` gives pure defaults.  Once each key has
    passed its own rule, degrees turn into radians where the model takes them and the
    rules between keys run.  A relative catalog path resolves against the file's directory."""
    values = _read_ini(path)
    seg = values["segments"]
    hand_mass, sex, fraction = seg["hand_mass_kg"], seg["sex"], seg["hand_mass_fraction"]
    if seg["body_mass_kg"] is not None:
        if sex is None and fraction is None:
            raise ConfigError("[segments] body_mass_kg needs sex or hand_mass_fraction")
        hand_mass = hand_mass_from_body(seg["body_mass_kg"], sex, fraction)
    elif sex or fraction is not None:
        raise ConfigError(f"[segments] {'sex' if sex else 'hand_mass_fraction'} needs body_mass_kg")
    segments = {"hand": BodySegment("hand", hand_mass, seg["hand_length_m"], seg["hand_com_ratio"])}

    kin = values["kinematics"]
    convention = KinematicConvention(*(math.radians(kin[f"{angle}_deg"]) for angle in
                                       ("axis_obliquity", "grip_extension", "carrying_angle")))
    pose = values["postures"]
    postures = {label: ArmPosture(*(math.radians(pose[f"{label.lower()}_{joint}_deg"])
                                    for joint in ("shoulder", "elbow", "pronation")), label)
                for label in ("P1", "P2", "P3")}

    mot = values["motion"]
    motion = MotionProfile(math.radians(mot["mean_deg"]), math.radians(mot["amplitude_deg"]))
    limit_lo, limit_hi = math.radians(mot["min_angle_deg"]), math.radians(mot["max_angle_deg"])
    if not limit_lo < limit_hi:
        raise ConfigError("[motion] min_angle_deg must be below max_angle_deg")
    lo, hi = motion.angle_range()
    if lo < limit_lo - _ANGLE_TOL or hi > limit_hi + _ANGLE_TOL:
        raise ConfigError(
            f"[motion] cycle spans [{math.degrees(lo):.6g}, {math.degrees(hi):.6g}] deg, "
            f"outside the joint limits [{math.degrees(limit_lo):.6g}, "
            f"{math.degrees(limit_hi):.6g}] deg")

    catalog, catalog_path = DEFAULT_CATALOG, values["springs"]["catalog_path"]
    if catalog_path is not None:
        resolved = os.path.join(os.path.dirname(path), catalog_path)  # an absolute one wins
        if not os.path.isfile(resolved):
            raise ConfigError(f"[springs] catalog_path not found: {resolved}")
        try:
            catalog = fileio.read_spring_catalog(resolved)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc

    analysis = values["analysis"]
    angle_bounds = analysis["angle_min_deg"], analysis["angle_max_deg"]
    if not angle_bounds[0] < angle_bounds[1]:
        raise ConfigError("[analysis] angle_min_deg must be below angle_max_deg")

    load, gear = values["load"], values["transmission"]
    return ToolkitConfig(
        segments, convention, kin["gravity_m_s2"], postures, motion,
        LoadSpec(load["handheld_mass_kg"], load["grip_offset_m"]),
        Gearing(gear["gear_ratio"], gear["efficiency"], gear["torque_constant_nm_per_a"]),
        catalog, values["springs"]["pre_wind_rad"], angle_bounds,
        analysis["max_interpolated_fraction"])
