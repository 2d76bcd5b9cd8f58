"""The wording of every scalar domain check, and the one number rule behind them.

``MESSAGES`` pins ``str(DomainError)`` for each value each check rejects; the
CLI prints these strings after ``config error:`` or ``data error:``, so they
are part of the exit-code contract.
"""

import math
import warnings

import numpy as np
import pytest

from wristkit import fileio
from wristkit.biomech import (ArmPosture, BodySegment, KinematicConvention, LoadSpec,
                              MotionProfile, hand_mass_from_body, sweep_torque_curve,
                              wrist_reaction_moment)
from wristkit.cli import main
from wristkit.errors import DomainError
from wristkit.springs import (LinearFit, SpringCatalogEntry, catalog_match,
                              stiffness_to_nmm_per_deg)
from wristkit.transmission import CableRoute, Gearing, SpringSpec, capstan_transmit
from wristkit.trials import (LikertResponse, TrialMeta, TrialMetrics, aggregate_report,
                             joint_torque_estimate)

NAN, INF = math.nan, math.inf
HAND = {"hand": BodySegment("hand", 0.6, 0.19, 0.5)}
P1 = ArmPosture(0.5, 1.0, 1.5, "P1")
LOAD = LoadSpec(0.5, 0.08)


def _rows(site, make, message, values):
    """One table row per rejected value; ``message`` is formatted with ``v``."""
    return [pytest.param(make, v, message.format(v=v), id=f"{site}-{v}") for v in values]


NEGATIVE = (-1.0, NAN, INF, -INF)   # rejected by a ">= 0" check
NONPOSITIVE = (0.0,) + NEGATIVE     # rejected by a "> 0" check
NONFINITE = (NAN, INF, -INF)

MESSAGES = [
    # biomech
    *_rows("segment-mass", lambda v: BodySegment("hand", v, 0.19, 0.5),
           "segment 'hand': mass must be >= 0, got {v}", NEGATIVE),
    *_rows("segment-length", lambda v: BodySegment("hand", 0.6, v, 0.5),
           "segment 'hand': length must be > 0, got {v}", NONPOSITIVE),
    *_rows("segment-com", lambda v: BodySegment("hand", 0.6, 0.19, v),
           "segment 'hand': com_ratio must lie in [0, 1], got {v}", (-0.1, 1.5) + NONFINITE),
    *_rows("posture-shoulder", lambda v: ArmPosture(v, 1.0, 1.5, "P1"),
           "posture 'P1': shoulder_flexion must be finite, got {v}", NONFINITE),
    *_rows("posture-elbow", lambda v: ArmPosture(0.5, v, 1.5, "P1"),
           "posture 'P1': elbow_flexion must be finite, got {v}", NONFINITE),
    *_rows("posture-pronation", lambda v: ArmPosture(0.5, 1.0, v, "P1"),
           "posture 'P1': forearm_pronation must be finite, got {v}", NONFINITE),
    *_rows("load-mass", lambda v: LoadSpec(v, 0.08),
           "handheld_mass must be >= 0, got {v}", NEGATIVE),
    *_rows("load-offset", lambda v: LoadSpec(0.5, v),
           "grip_offset must be >= 0, got {v}", NEGATIVE),
    *_rows("motion-mean", lambda v: MotionProfile(v, 0.5),
           "mean_angle must be finite, got {v}", NONFINITE),
    *_rows("motion-amplitude", lambda v: MotionProfile(0.0, v),
           "amplitude must be >= 0, got {v}", NEGATIVE),
    *_rows("convention-obliquity", lambda v: KinematicConvention(axis_obliquity=v),
           "axis_obliquity must be finite, got {v}", NONFINITE),
    *_rows("convention-grip", lambda v: KinematicConvention(grip_extension=v),
           "grip_extension must be finite, got {v}", NONFINITE),
    *_rows("convention-carrying", lambda v: KinematicConvention(carrying_angle=v),
           "carrying_angle must be finite, got {v}", NONFINITE),
    *_rows("body-mass", lambda v: hand_mass_from_body(v, "male"),
           "body_mass must be > 0, got {v}", NONPOSITIVE),
    *_rows("hand-fraction", lambda v: hand_mass_from_body(70.0, "male", v),
           "fraction_override must lie in (0, 0.05), got {v}",
           (0.0, 0.05, 0.2, -1.0) + NONFINITE),
    *_rows("gravity", lambda v: wrist_reaction_moment(HAND, P1, 0.0, LOAD, g=v),
           "g must be finite, got {v}", NONFINITE),
    # transmission
    *_rows("spring-stiffness", lambda v: SpringSpec(v, 0.1),
           "stiffness must be > 0, got {v}", NONPOSITIVE),
    *_rows("spring-neutral", lambda v: SpringSpec(1.0, v),
           "neutral_angle must be finite, got {v}", NONFINITE),
    *_rows("spring-pre-wind", lambda v: SpringSpec(1.0, 0.1, v),
           "pre_wind must be >= 0, got {v}", NEGATIVE),
    *_rows("route-mu", lambda v: CableRoute(friction_mu=v),
           "friction_mu must be >= 0, got {v}", NEGATIVE),
    *_rows("route-wrap", lambda v: CableRoute(wrap_angle=v),
           "wrap_angle must be >= 0, got {v}", NEGATIVE),
    *_rows("gear-ratio", lambda v: Gearing(ratio=v),
           "ratio must be > 0, got {v}", NONPOSITIVE),
    *_rows("gear-efficiency", lambda v: Gearing(efficiency=v),
           "efficiency must lie in (0, 1], got {v}", (0.0, 1.5, -1.0) + NONFINITE),
    *_rows("gear-kt", lambda v: Gearing(torque_constant=v),
           "torque_constant must be > 0, got {v}", NONPOSITIVE),
    *_rows("capstan-force", lambda v: capstan_transmit(v, CableRoute(), "opposing"),
           "force must be >= 0, got {v}", NEGATIVE),
    # springs
    *_rows("catalog-entry", lambda v: SpringCatalogEntry("A", v),
           "catalog entry 'A': stiffness must be > 0, got {v}", NONPOSITIVE),
    *_rows("stiffness-units", stiffness_to_nmm_per_deg,
           "stiffness must be > 0, got {v}", NONPOSITIVE),
    *_rows("catalog-target", catalog_match,
           "target stiffness must be > 0, got {v}", NONPOSITIVE),
    # hand-written checks state the range they accept, so NaN gets the field's own message
    *_rows("fit-points", lambda v: LinearFit(1.0, 0.0, 0.5, v),
           "fit needs at least 2 points, got {v}", (1, NAN)),
    # trials
    *_rows("joint-torque", lambda v: joint_torque_estimate(v, Gearing()),
           "tau_motor must be >= 0, got {v}", NEGATIVE),
    *_rows("trial-index", lambda v: TrialMeta("P1", "POS1", "unloaded", "S1", v),
           "trial_index must be >= 1, got {v}", (0, NAN)),
    *_rows("rom-ab", lambda v: TrialMetrics(v, 2.0, 3.0, 0.5, 5, 0.0),
           "ROM components must be >= 0", (-1.0, NAN)),
    *_rows("rom-ad", lambda v: TrialMetrics(1.0, v, 3.0, 0.5, 5, 0.0),
           "ROM components must be >= 0", (-1.0, NAN)),
    *_rows("tau-rms", lambda v: TrialMetrics(1.0, 2.0, 3.0, v, 5, 0.0),
           "tau_rms must be >= 0", (-1.0, NAN)),
    *_rows("metrics-samples", lambda v: TrialMetrics(1.0, 2.0, 3.0, 0.5, v, 0.0),
           "n_samples must be >= 1", (0, NAN)),
]


@pytest.mark.parametrize("make, value, message", MESSAGES)
def test_rejected_value_message(make, value, message):
    with pytest.raises(DomainError) as info:
        make(value)
    assert str(info.value) == message


@pytest.mark.parametrize("section, lines, message", [
    ("transmission", ["efficiency = 1.5"], "[transmission] efficiency must lie in (0, 1], got 1.5"),
    ("segments", ["hand_length_m = 0"], "[segments] hand_length_m must be > 0, got 0.0"),
    ("segments", ["body_mass_kg = 70", "hand_mass_fraction = 0.2"],
     "[segments] hand_mass_fraction must lie in (0, 0.05), got 0.2"),
], ids=["efficiency", "hand-length", "hand-fraction"])
def test_config_domain_error_is_one_exit_3_line(tmp_path, capsys, section, lines, message):
    config = tmp_path / "toolkit.ini"
    config.write_text("\n".join([f"[{section}]", *lines, ""]))
    out = tmp_path / "p1.csv"
    assert main(["--config", str(config), "simulate", "--posture", "P1",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("make", [
    lambda: Gearing(ratio=np.float32(2.0)),
    lambda: LoadSpec(np.float32(0.5), 0.08),
    lambda: MotionProfile(np.int64(0), 0.5),
    lambda: capstan_transmit(np.float32(5.0), CableRoute(), "opposing"),
    lambda: wrist_reaction_moment(HAND, P1, 0.0, LOAD, g=np.float32(9.81)),
], ids=["gearing", "load", "motion", "capstan", "gravity"])
def test_finite_numpy_scalars_pass(make):
    assert make() is not None


def test_numpy_scalars_are_stored_as_python_numbers(tmp_path):
    gear = Gearing(np.float32(128.0), np.float32(0.75), np.float32(0.0105))
    assert {type(gear.ratio), type(gear.efficiency), type(gear.torque_constant)} == {float}
    assert type(LikertResponse("P1", "size", np.int64(3)).score) is int
    # a float32 gearing reports what the same float64 values report
    metrics = [TrialMetrics(40.0, 0.0, 40.0, 0.005, 100, 0.0,
                            TrialMeta("P1", "POS1", "unloaded", "S1", 1))]
    paths = []
    for gearing in (gear, Gearing(128.0, 0.75, float(np.float32(0.0105)))):
        paths.append(tmp_path / f"report{len(paths)}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fileio.write_report(paths[-1], aggregate_report(metrics, gearing))
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("make, message", [
    (lambda: stiffness_to_nmm_per_deg("1"), "stiffness must be a real number, got '1'"),
    (lambda: catalog_match(None), "target stiffness must be a real number, got None"),
    (lambda: joint_torque_estimate("x", Gearing()), "tau_motor must be a real number, got 'x'"),
    (lambda: Gearing(ratio=1 + 2j), "ratio must be a real number, got (1+2j)"),
    (lambda: MotionProfile("0", 0.5), "mean_angle must be a real number, got '0'"),
    (lambda: MotionProfile(np.float32("nan"), 0.5), "mean_angle must be finite, got nan"),
    (lambda: sweep_torque_curve(HAND, P1, MotionProfile(0.0, 0.5), LOAD, n_samples="3"),
     "n_samples must be a real number, got '3'"),
    (lambda: LikertResponse("P1", "size", "3"), "score must be a real number, got '3'"),
    (lambda: SpringCatalogEntry("A", "1"), "catalog entry 'A': stiffness must be a real number, got '1'"),
], ids=["str", "none", "str-trials", "complex", "str-finite", "numpy-nan", "str-n-samples",
        "str-likert-score", "str-catalog-entry"])
def test_non_numbers_raise_domain_error(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda v: sweep_torque_curve(HAND, P1, MotionProfile(0.0, 0.5), LOAD, n_samples=v),
     "n_samples must be an integer >= 2, got {v}"),
    (lambda v: LikertResponse("P1", "size", v), "score must be an integer in [1, 10], got {v}"),
], ids=["n-samples", "likert-score"])
@pytest.mark.parametrize("value", [INF, -INF, NAN, 2.5])
def test_integer_checks_raise_their_own_message(make, message, value):
    with pytest.raises(DomainError) as info:
        make(value)
    assert str(info.value) == message.format(v=value)


@pytest.mark.parametrize("make, message", [
    (lambda: Gearing(ratio=10**400), "ratio must be > 0, got 1" + "0" * 400),
    (lambda: MotionProfile(-10**400, 0.5), "mean_angle must be finite, got -1" + "0" * 400),
    (lambda: catalog_match(10**400), "target stiffness must be > 0, got 1" + "0" * 400),
    (lambda: LikertResponse("P1", "size", 10**400),
     "score must be an integer in [1, 10], got 1" + "0" * 400),
], ids=["bound", "finite", "catalog", "likert-score"])
def test_int_too_large_for_a_float_raises_domain_error(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message
