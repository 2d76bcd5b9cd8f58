"""Toolkit configuration: INI-style text with strict validation.

The file is plain ``key = value`` lines under ``[section]`` headers
(read with :mod:`configparser`), chosen so configs diff cleanly and
need no extra dependencies.  Every key has a built-in default; unknown
sections or keys are rejected rather than ignored, so typos fail loudly
at load time.  Angles are written in degrees in the file (matching how
the hardware and protocol are described) and converted to radians here;
a rejected value is named by its key and quoted in the unit written.

Keys in ``_RETIRED`` once existed but never changed an output; a file
that still sets one loads with a warning, and its value is not read.
"""

import configparser
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

from .biomech import (HAND_MASS_FRACTION, ArmPosture, BodySegment, KinematicConvention,
                      LoadSpec, MotionProfile, hand_mass_from_body)
from .errors import ConfigError, DataError, DomainError, check_real
from .springs import DEFAULT_CATALOG
from .transmission import Gearing
from . import fileio

# Defaults model a ~95 kg adult male arm holding a 0.5 kg object.  Only the
# hand lies distal to the wrist; the upper arm and forearm are posed by the
# [postures] angles alone, so neither their masses nor their lengths matter.
DEFAULTS = {
    "segments": {
        "hand_mass_kg": "0.6175",
        "hand_length_m": "0.19",
        "hand_com_ratio": "0.5",
        "body_mass_kg": "",        # optional: derive hand mass when set
        "sex": "",                 # male | female; body_mass_kg needs it or the fraction
        "hand_mass_fraction": "",  # optional override of the sex-based fraction
    },
    "kinematics": {
        "axis_obliquity_deg": "50",
        "grip_extension_deg": "20",
        "carrying_angle_deg": "10",
        "gravity_m_s2": "9.81",
    },
    "postures": {
        "p1_shoulder_deg": "30", "p1_elbow_deg": "60", "p1_pronation_deg": "90",
        "p2_shoulder_deg": "45", "p2_elbow_deg": "60", "p2_pronation_deg": "0",
        "p3_shoulder_deg": "75", "p3_elbow_deg": "120", "p3_pronation_deg": "45",
    },
    "motion": {
        "mean_deg": "-7",
        "amplitude_deg": "37",
        "min_angle_deg": "-44",
        "max_angle_deg": "30",
    },
    "load": {
        "handheld_mass_kg": "0.5",
        "grip_offset_m": "0.08",
    },
    "transmission": {
        "gear_ratio": "128",
        "efficiency": "0.78",
        "torque_constant_nm_per_a": "0.0105",
    },
    "springs": {
        "catalog_path": "",   # optional CSV; empty = built-in catalog
        "pre_wind_rad": "",   # optional installation wind-up
    },
    "analysis": {
        "angle_min_deg": "-60",
        "angle_max_deg": "45",
        "max_interpolated_fraction": "0.05",
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


@dataclass(frozen=True)
class ToolkitConfig:
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
    """A copy of ``DEFAULTS`` with the keys of the file at ``path`` (if any) written over it."""
    values = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is None:
        return values
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    user = configparser.ConfigParser(interpolation=None)
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
                values[section][key] = raw
    return values


def _number(values, section, key, rule="finite") -> float | None:
    """``[section] key`` as written (degrees for a ``_deg`` key) once ``rule`` holds.

    A blank value is absent (None) only where the default is blank too.
    """
    raw = values[section][key]
    if not raw and not DEFAULTS[section][key]:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None
    try:
        return check_real(f"[{section}] {key}", value, rule)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def _deg(values, section, key, rule="finite") -> float:
    return math.radians(_number(values, section, key, rule))


def load_config(path=None) -> ToolkitConfig:
    """Load and validate a config file; ``None`` gives pure defaults.

    Relative paths inside the file (the spring catalog) resolve against
    the config file's own directory.
    """
    base_dir = Path(path).parent if path is not None else Path.cwd()
    return _build(_read_ini(path), base_dir)


def _build(values, base_dir) -> ToolkitConfig:
    sec = "segments"
    body_mass = _number(values, sec, "body_mass_kg", "> 0")  # replaces hand_mass_kg when set
    hand_mass = _number(values, sec, "hand_mass_kg", ">= 0")
    sex = values[sec]["sex"]
    if sex not in ("", *HAND_MASS_FRACTION):
        raise ConfigError(f"[segments] sex must be one of {sorted(HAND_MASS_FRACTION)}, "
                          f"got {sex!r}")
    fraction = _number(values, sec, "hand_mass_fraction", "(0, 0.05)")
    if body_mass is not None:
        if not sex and fraction is None:
            raise ConfigError("[segments] body_mass_kg needs sex or hand_mass_fraction")
        hand_mass = hand_mass_from_body(body_mass, sex, fraction)
    elif sex or fraction is not None:
        raise ConfigError(f"[segments] {'sex' if sex else 'hand_mass_fraction'} "
                          f"needs body_mass_kg")
    segments = {"hand": BodySegment("hand", hand_mass,
                                    _number(values, sec, "hand_length_m", "> 0"),
                                    _number(values, sec, "hand_com_ratio", "[0, 1]"))}

    convention = KinematicConvention(
        axis_obliquity=_deg(values, "kinematics", "axis_obliquity_deg"),
        grip_extension=_deg(values, "kinematics", "grip_extension_deg"),
        carrying_angle=_deg(values, "kinematics", "carrying_angle_deg"),
    )
    gravity = _number(values, "kinematics", "gravity_m_s2", "> 0")

    postures = {
        label: ArmPosture(*(_deg(values, "postures", f"{label.lower()}_{joint}_deg")
                            for joint in ("shoulder", "elbow", "pronation")), label)
        for label in ("P1", "P2", "P3")
    }

    motion = MotionProfile(mean_angle=_deg(values, "motion", "mean_deg"),
                           amplitude=_deg(values, "motion", "amplitude_deg", ">= 0"))
    limit_lo = _deg(values, "motion", "min_angle_deg")
    limit_hi = _deg(values, "motion", "max_angle_deg")
    if not limit_lo < limit_hi:
        raise ConfigError("[motion] min_angle_deg must be below max_angle_deg")
    lo, hi = motion.angle_range()
    if lo < limit_lo - _ANGLE_TOL or hi > limit_hi + _ANGLE_TOL:
        raise ConfigError(
            f"[motion] cycle spans [{math.degrees(lo):.6g}, {math.degrees(hi):.6g}] deg, "
            f"outside the joint limits [{math.degrees(limit_lo):.6g}, "
            f"{math.degrees(limit_hi):.6g}] deg")

    load = LoadSpec(handheld_mass=_number(values, "load", "handheld_mass_kg", ">= 0"),
                    grip_offset=_number(values, "load", "grip_offset_m", ">= 0"))
    gearing = Gearing(
        ratio=_number(values, "transmission", "gear_ratio", "> 0"),
        efficiency=_number(values, "transmission", "efficiency", "(0, 1]"),
        torque_constant=_number(values, "transmission", "torque_constant_nm_per_a", "> 0"),
    )

    catalog_path = values["springs"]["catalog_path"]
    if catalog_path:
        resolved = base_dir / catalog_path  # an absolute catalog_path wins
        if not resolved.is_file():
            raise ConfigError(f"[springs] catalog_path not found: {resolved}")
        try:
            catalog = fileio.read_spring_catalog(resolved)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        catalog = DEFAULT_CATALOG
    pre_wind = _number(values, "springs", "pre_wind_rad", ">= 0")

    angle_bounds = (_number(values, "analysis", "angle_min_deg", "[-180, 180]"),
                    _number(values, "analysis", "angle_max_deg", "[-180, 180]"))
    if not angle_bounds[0] < angle_bounds[1]:
        raise ConfigError("[analysis] angle_min_deg must be below angle_max_deg")
    max_fraction = _number(values, "analysis", "max_interpolated_fraction", "[0, 1]")

    return ToolkitConfig(segments, convention, gravity, postures, motion, load,
                         gearing, catalog, pre_wind, angle_bounds, max_fraction)
