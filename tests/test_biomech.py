import math
import random
import sys

import numpy as np
import pytest

from wristkit.biomech import (GRAVITY, ArmPosture, BodySegment, KinematicConvention,
                              LoadSpec, MotionProfile, TorqueCurve,
                              hand_mass_from_body, moment_coefficients, sweep_torque_curve,
                              wrist_geometry, wrist_reaction_moment)
from wristkit.config import load_config
from wristkit.errors import ConfigError, DomainError
from wristkit.springs import fit_linear

import oracles

SEGMENTS = {"hand": BodySegment("hand", 0.6175, 0.19, 0.5)}
LOAD = LoadSpec(0.5, 0.08)
MOTION = MotionProfile(math.radians(-7.0), math.radians(37.0))
PRESETS = load_config().postures


def test_segment_validation():
    with pytest.raises(DomainError):
        BodySegment("hand", -0.1, 0.19, 0.5)
    with pytest.raises(DomainError):
        BodySegment("hand", 0.5, 0.0, 0.5)
    with pytest.raises(DomainError):
        BodySegment("hand", 0.5, 0.19, 1.2)


def test_posture_and_load_validation():
    with pytest.raises(DomainError):
        ArmPosture(math.nan, 0.0, 0.0)
    with pytest.raises(DomainError):
        LoadSpec(-0.1, 0.08)
    with pytest.raises(DomainError):
        LoadSpec(0.5, -0.01)


def test_hand_mass_from_body():
    assert hand_mass_from_body(80.0, "male") == pytest.approx(0.52)
    assert hand_mass_from_body(60.0, "female") == pytest.approx(0.30)
    assert hand_mass_from_body(80.0, "", fraction_override=0.01) == pytest.approx(0.8)
    with pytest.raises(DomainError):
        hand_mass_from_body(80.0, "other")
    with pytest.raises(DomainError):
        hand_mass_from_body(0.0, "male")
    with pytest.raises(DomainError):
        hand_mass_from_body(80.0, "male", fraction_override=0.06)


def test_geometry_vectors_are_unit_and_orthogonal():
    rng = random.Random(7)
    for _ in range(50):
        posture = ArmPosture(rng.uniform(0, 2), rng.uniform(0, 2.4), rng.uniform(0, 3.1))
        convention = KinematicConvention(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5),
                                         rng.uniform(-0.3, 0.3))
        axis, hand_dir = wrist_geometry(posture, convention)
        for vector in (axis, hand_dir):  # plain floats: no numpy array holds a 3-vector
            assert type(vector) is tuple and len(vector) == 3
            assert all(type(x) is float for x in vector)
        assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(hand_dir) == pytest.approx(1.0, abs=1e-12)
        assert float(np.dot(axis, hand_dir)) == pytest.approx(0.0, abs=1e-12)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def test_geometry_matches_the_anatomical_rotation_chain():
    # replay the chain joint by joint with generic Rodrigues rotations
    rng = random.Random(11)
    lateral, down = (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)
    for _ in range(300):
        posture = ArmPosture(rng.uniform(-1, 3), rng.uniform(-1, 3), rng.uniform(-3.2, 3.2))
        convention = KinematicConvention(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1),
                                         rng.uniform(-0.6, 0.6))
        fore = oracles.rotate(down, (0.0, -1.0, 0.0),
                              posture.shoulder_flexion + posture.elbow_flexion)
        valgus = _cross(lateral, fore)
        fore, palm = (oracles.rotate(v, valgus, convention.carrying_angle)
                      for v in (fore, lateral))
        palm = oracles.rotate(palm, fore, posture.forearm_pronation)
        flexion_extension = _cross(palm, fore)
        hand, palm = (oracles.rotate(v, flexion_extension, convention.grip_extension)
                      for v in (fore, palm))
        axis = oracles.rotate(palm, hand, convention.axis_obliquity)
        got_axis, got_hand = wrist_geometry(posture, convention)
        assert list(got_axis) == pytest.approx(axis, abs=1e-12)
        assert list(got_hand) == pytest.approx(hand, abs=1e-12)


def test_hanging_arm_has_zero_moment():
    # straight-down hand: gravity is parallel to the hand axis, no moment
    posture = ArmPosture(0.0, 0.0, 0.0)
    plain = KinematicConvention(0.0, 0.0, 0.0)
    m = wrist_reaction_moment(SEGMENTS, posture, 0.0, LOAD, convention=plain)
    assert m == pytest.approx(0.0, abs=1e-12)


def test_right_angle_moment_by_hand():
    # hand rotated 90 deg about the lateral deviation axis: full lever arm
    posture = ArmPosture(0.0, 0.0, 0.0)
    plain = KinematicConvention(0.0, 0.0, 0.0)
    m = wrist_reaction_moment(SEGMENTS, posture, math.pi / 2, LOAD, convention=plain)
    hand = SEGMENTS["hand"]
    expected = GRAVITY * (hand.mass * hand.com_ratio * hand.length
                          + LOAD.handheld_mass * LOAD.grip_offset)
    assert m == pytest.approx(expected, rel=1e-12)


def test_moment_matches_pure_python_oracle():
    rng = random.Random(42)
    for _ in range(200):
        posture = ArmPosture(rng.uniform(-0.5, 2.2), rng.uniform(0, 2.4),
                             rng.uniform(-1, 3.2))
        convention = KinematicConvention(rng.uniform(-1.2, 1.2),
                                         rng.uniform(-0.6, 0.6),
                                         rng.uniform(-0.3, 0.3))
        theta = rng.uniform(-0.9, 0.6)
        load = LoadSpec(rng.uniform(0, 1.0), rng.uniform(0, 0.15))
        axis, hand_dir = wrist_geometry(posture, convention)
        u_hand = oracles.rotate(tuple(hand_dir), tuple(axis), theta)
        hand = SEGMENTS["hand"]
        expected = oracles.reaction_moment(
            tuple(axis), u_hand,
            [(hand.mass, hand.com_ratio * hand.length),
             (load.handheld_mass, load.grip_offset)])
        got = wrist_reaction_moment(SEGMENTS, posture, theta, load,
                                    convention=convention)
        assert isinstance(got, float)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

        # the same posture over a vector of angles, element by element
        thetas = np.array([rng.uniform(-0.9, 0.6) for _ in range(5)])
        expected = [oracles.reaction_moment(
            tuple(axis), oracles.rotate(tuple(hand_dir), tuple(axis), t),
            [(hand.mass, hand.com_ratio * hand.length),
             (load.handheld_mass, load.grip_offset)]) for t in thetas]
        got = wrist_reaction_moment(SEGMENTS, posture, thetas, load,
                                    convention=convention)
        assert isinstance(got, np.ndarray) and got.shape == thetas.shape
        assert list(got) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_closed_form_coefficients_match_the_cross_product_form():
    # A = -lever k . (h x g) and B = -lever k . ((k x h) x g), as the module doc
    # states them, against the plain-float pair moment_coefficients returns; compared
    # directly, they agree to 4 ulps of lever * g (2.6 ulps the worst seen over 5,000 draws)
    rng = random.Random(18)
    hand = SEGMENTS["hand"]
    for _ in range(1000):
        posture = ArmPosture(*(rng.uniform(-math.pi, math.pi) for _ in range(3)))
        convention = KinematicConvention(*(rng.uniform(-math.pi, math.pi) for _ in range(3)))
        load = LoadSpec(rng.uniform(0, 2.0), rng.uniform(0, 0.3))
        g = rng.uniform(0.5, 25.0)
        lever = hand.mass * hand.com_ratio * hand.length + load.handheld_mass * load.grip_offset
        axis, hand_dir = wrist_geometry(posture, convention)
        g_vec = np.array([0.0, 0.0, -g])
        a = -lever * float(axis @ np.cross(hand_dir, g_vec))
        b = -lever * float(axis @ np.cross(np.cross(axis, hand_dir), g_vec))
        got = moment_coefficients(SEGMENTS, posture, load, g, convention)
        assert [type(c) for c in got] == [float, float]
        assert max(abs(got[0] - a), abs(got[1] - b)) <= 4 * sys.float_info.epsilon * lever * g


def test_moment_is_the_coefficients_at_the_angle():
    # a scalar angle's moment is A cos(t) + B sin(t) to the last bit
    rng = random.Random(36)
    for _ in range(1000):
        posture = ArmPosture(*(rng.uniform(-math.pi, math.pi) for _ in range(3)))
        convention = KinematicConvention(*(rng.uniform(-math.pi, math.pi) for _ in range(3)))
        load = LoadSpec(rng.uniform(0, 2.0), rng.uniform(0, 0.3))
        g, theta = rng.uniform(0.5, 25.0), rng.uniform(-4.0, 4.0)
        a, b = moment_coefficients(SEGMENTS, posture, load, g, convention)
        got = wrist_reaction_moment(SEGMENTS, posture, theta, load, g, convention)
        assert type(got) is float
        assert got == a * math.cos(theta) + b * math.sin(theta)


@pytest.mark.parametrize("n_samples", [50, 2000])
def test_closed_form_slope_matches_the_fitted_sweep(n_samples):
    # the fit is linear in the moments, so a posture's fitted slope is A s_c + B s_s, with
    # s_c and s_s the fitted slopes of cos and sin on the sweep's grid; the bound is relative
    # to the two terms, since the slope itself nears 0 where they cancel
    cfg = load_config()
    rng = random.Random(12)
    postures = [*PRESETS.values(), *(ArmPosture(rng.uniform(0, math.pi), rng.uniform(0, 2.6),
                                                rng.uniform(-math.pi / 2, math.pi / 2))
                                     for _ in range(300))]
    grid = np.linspace(*cfg.motion.angle_range(), n_samples)
    s_c = fit_linear(TorqueCurve(grid, np.cos(grid))).slope
    s_s = fit_linear(TorqueCurve(grid, np.sin(grid))).slope
    for posture in postures:
        curve = sweep_torque_curve(cfg.segments, posture, cfg.motion, cfg.load, n_samples,
                                   cfg.gravity, cfg.convention)
        assert np.array_equal(curve.angles, grid)
        a, b = moment_coefficients(cfg.segments, posture, cfg.load, cfg.gravity, cfg.convention)
        assert (abs(a * s_c + b * s_s - fit_linear(curve).slope)
                <= 1e-12 * (abs(a * s_c) + abs(b * s_s)))


def test_moment_is_sinusoidal_in_wrist_angle():
    # a point-mass gravity moment about a fixed axis is A*sin(theta - phi),
    # so values half a turn apart must cancel exactly
    rng = random.Random(3)
    for _ in range(40):
        posture = ArmPosture(rng.uniform(0, 2), rng.uniform(0, 2.4), rng.uniform(0, 3))
        theta = rng.uniform(-1.0, 1.0)
        m1 = wrist_reaction_moment(SEGMENTS, posture, theta, LOAD)
        m2 = wrist_reaction_moment(SEGMENTS, posture, theta + math.pi, LOAD)
        assert m1 + m2 == pytest.approx(0.0, abs=1e-12)


def test_moment_scales_with_gravity_and_mass():
    posture = PRESETS["P3"]
    base = wrist_reaction_moment(SEGMENTS, posture, 0.2, LOAD)
    doubled_g = wrist_reaction_moment(SEGMENTS, posture, 0.2, LOAD, g=2 * GRAVITY)
    assert doubled_g == pytest.approx(2 * base, rel=1e-12)
    no_load = wrist_reaction_moment(SEGMENTS, posture, 0.2, LoadSpec(0.0, 0.08))
    heavier = dict(SEGMENTS)
    hand = SEGMENTS["hand"]
    heavier["hand"] = BodySegment("hand", 2 * hand.mass, hand.length, hand.com_ratio)
    assert (wrist_reaction_moment(heavier, posture, 0.2, LoadSpec(0.0, 0.08))
            == pytest.approx(2 * no_load, rel=1e-12))


def test_bad_wrist_angle_rejected():
    posture = PRESETS["P1"]
    for bad in (math.nan, math.inf, np.array([0.1, math.nan]), "0.1", None):
        with pytest.raises(DomainError, match="wrist_angle"):
            wrist_reaction_moment(SEGMENTS, posture, bad, LOAD)
    # the coefficients' own checks (the hand, then g) come before the angle's
    with pytest.raises(DomainError, match="^g must be finite"):
        wrist_reaction_moment(SEGMENTS, posture, math.nan, LOAD, g=math.inf)
    with pytest.raises(ConfigError, match="missing 'hand'"):
        wrist_reaction_moment({}, posture, math.nan, LOAD, g=math.inf)


def test_sweep_solves_geometry_once(monkeypatch):
    from wristkit import biomech
    calls = []
    solve = biomech.wrist_geometry
    monkeypatch.setattr(biomech, "wrist_geometry",
                        lambda *args: calls.append(args) or solve(*args))
    sweep_torque_curve(SEGMENTS, PRESETS["P2"], MOTION, LOAD, n_samples=500)
    assert len(calls) == 1


def test_missing_segment_rejected():
    # the proximal segments never stand in for the hand
    with pytest.raises(ConfigError, match="missing 'hand'"):
        wrist_reaction_moment({"forearm": BodySegment("forearm", 1.54, 0.27, 0.43)},
                              PRESETS["P1"], 0.0, LOAD)


def test_motion_profile_range():
    lo, hi = MOTION.angle_range()
    assert lo == pytest.approx(math.radians(-44.0))
    assert hi == pytest.approx(math.radians(30.0))
    with pytest.raises(DomainError):
        MotionProfile(0.0, -0.1)
    with pytest.raises(DomainError):
        MotionProfile(math.nan, 0.1)



def test_sweep_covers_motion_range():
    curve = sweep_torque_curve(SEGMENTS, PRESETS["P1"], MOTION, LOAD,
                               n_samples=13)
    assert len(curve.angles) == 13
    assert curve.angles[0] == pytest.approx(math.radians(-44.0))
    assert curve.angles[-1] == pytest.approx(math.radians(30.0))
    assert curve.posture_label == "P1"
    with pytest.raises(DomainError):
        sweep_torque_curve(SEGMENTS, PRESETS["P1"], MOTION, LOAD, n_samples=1)


def test_torque_curve_invariants():
    with pytest.raises(DomainError):
        TorqueCurve(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        TorqueCurve(np.array([0.0, -1.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        TorqueCurve(np.array([0.0, 1.0]), np.array([1.0, math.nan]))
    curve = TorqueCurve(np.array([-0.2, 0.3]), np.array([-2.0, 1.0]), "x")
    assert curve.peak_abs_moment() == 2.0


def test_posture_presets():
    assert [(label, p.label) for label, p in PRESETS.items()] == [
        ("P1", "P1"), ("P2", "P2"), ("P3", "P3")]
    assert PRESETS["P1"].forearm_pronation == pytest.approx(math.radians(90))
    assert PRESETS["P2"].forearm_pronation == 0.0
    assert PRESETS["P3"].shoulder_flexion == pytest.approx(math.radians(75))
