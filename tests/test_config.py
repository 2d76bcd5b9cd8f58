import math
import re
import warnings
from pathlib import Path

import pytest

from wristkit.biomech import DEFAULT_CONVENTION, GRAVITY
from wristkit.cli import main
from wristkit.config import DEFAULTS, load_config
from wristkit.errors import ConfigError
from wristkit.transmission import Gearing
from wristkit.trials import DEFAULT_ANGLE_BOUNDS, DEFAULT_MAX_INTERP_FRACTION


def test_defaults_load_without_file():
    cfg = load_config()
    assert set(cfg.segments) == {"hand"}
    assert cfg.segments["hand"].mass == pytest.approx(0.6175)
    assert cfg.postures["P3"].forearm_pronation == pytest.approx(math.radians(45))
    assert cfg.gearing.ratio == 128.0
    assert cfg.gearing.efficiency == 0.78
    assert [e.name for e in cfg.catalog] == ["S1", "S2", "S3"]
    assert cfg.pre_wind is None
    assert cfg.angle_bounds == (-60.0, 45.0)
    assert cfg.max_interpolated_fraction == 0.05
    assert cfg.convention.axis_obliquity == pytest.approx(math.radians(50))


def test_config_defaults_are_the_library_defaults():
    """The library's defaults gate the data; the config's reach the CLI's report."""
    cfg = load_config()
    assert cfg.gearing == Gearing()
    assert cfg.convention == DEFAULT_CONVENTION
    assert cfg.gravity == GRAVITY
    assert cfg.angle_bounds == DEFAULT_ANGLE_BOUNDS
    assert cfg.max_interpolated_fraction == DEFAULT_MAX_INTERP_FRACTION


def test_overrides(tmp_path):
    defaults = load_config()
    path = tmp_path / "toolkit.ini"
    path.write_text("[postures]\n"
                    "p3_pronation_deg = 90\n"
                    "[load]\n"
                    "handheld_mass_kg = 0.3\n"
                    "[transmission]\n"
                    "gear_ratio = 64\n"
                    "[springs]\n"
                    "pre_wind_rad = 0.589\n")
    cfg = load_config(path)
    assert cfg.postures["P3"].forearm_pronation == pytest.approx(math.radians(90))
    assert cfg.load.handheld_mass == 0.3
    assert cfg.gearing.ratio == 64.0
    assert cfg.pre_wind == 0.589
    # untouched sections keep defaults, and the overrides never reach the defaults
    assert cfg.motion.amplitude == pytest.approx(math.radians(37))
    assert load_config() == defaults


def test_body_mass_derivation(tmp_path):
    path = tmp_path / "toolkit.ini"
    path.write_text("[segments]\nbody_mass_kg = 80\nsex = male\n")
    assert load_config(path).segments["hand"].mass == pytest.approx(0.52)
    path.write_text("[segments]\nbody_mass_kg = 60\nsex = female\n")
    assert load_config(path).segments["hand"].mass == pytest.approx(0.30)
    path.write_text("[segments]\nbody_mass_kg = 70\nhand_mass_fraction = 0.006\n")
    assert load_config(path).segments["hand"].mass == pytest.approx(0.42)
    path.write_text("[segments]\nbody_mass_kg = 70\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "toolkit.ini"
    path.write_text("[postures]\np4_shoulder_deg = 10\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    path.write_text("[gearbox]\nratio = 100\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)
    # a retired key is tolerated only in the section it was retired from
    path.write_text("[load]\nfriction_mu = 0.04\n")
    with pytest.raises(ConfigError, match=r"unknown key 'friction_mu' in \[load\]"):
        load_config(path)


def test_default_section_rejected(tmp_path):
    # alone it was dropped without a word; next to [load] its key was "unknown"
    path = tmp_path / "toolkit.ini"
    for text in ("[DEFAULT]\ngear_ratio = 100\n",
                 "[DEFAULT]\ngear_ratio = 100\n[load]\nhandheld_mass_kg = 0.3\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"toolkit.ini: a \[DEFAULT\] section is not"):
            load_config(path)


def test_undecodable_config_is_a_config_error(tmp_path):
    # named by its line, as a CSV's bad byte is
    path = tmp_path / "toolkit.ini"
    for data, line in ((b"[load]\nhandheld_mass_kg = 0.3\xff\n", 2),
                       (b"[load]\nhandheld_mass_kg = 0.3\n# \xff\n", 3)):
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=rf"toolkit.ini:{line}: not UTF-8 text "
                                              r"\(invalid start byte\)$"):
            load_config(path)


def test_config_with_a_byte_order_mark_loads(tmp_path):
    path = tmp_path / "toolkit.ini"
    path.write_bytes(b"\xef\xbb\xbf[load]\nhandheld_mass_kg = 0.3\n")
    assert load_config(path).load.handheld_mass == 0.3


def test_the_start_of_a_byte_order_mark_is_a_config_error(tmp_path):
    path = tmp_path / "toolkit.ini"
    path.write_bytes(b"\xef\xbb")  # not an empty file, which would load the defaults
    with pytest.raises(ConfigError, match=r"toolkit.ini:1: not UTF-8 text "
                                          r"\(unexpected end of data\)$"):
        load_config(path)


@pytest.mark.parametrize("text, line", [("\x00", r"'\x00'"),
                                        ("[load]\nhandheld_mass_kg\n", "'handheld_mass_kg")],
                         ids=["no-section", "no-value"])
def test_unparsable_config_is_one_line(tmp_path, capsys, text, line):
    # configparser's own wording, which Python versions vary, spans several lines
    path = tmp_path / "toolkit.ini"
    path.write_text(text)
    out = tmp_path / "c.csv"
    assert main(["--config", str(path), "simulate", "--posture", "P1", "--out", str(out)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith(f"config error: {path}: ")
    assert stderr.count("\n") == 1 and line in stderr
    assert not out.exists()


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "toolkit.ini"
    path.write_text("[transmission]\nefficiency = 1.5\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[motion]\nmean_deg = not-a-number\n")
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(path)
    path.write_text("[segments]\nhand_length_m = 0\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_negative_pre_wind_is_a_config_error_for_every_command(tmp_path, capsys):
    path = tmp_path / "toolkit.ini"
    path.write_text("[springs]\npre_wind_rad = -1\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == "[springs] pre_wind_rad must be >= 0, got -1.0"
    for command in (["simulate", "--posture", "P1", "--out", str(tmp_path / "p1.csv")],
                    ["analyze", str(tmp_path), "--out", str(tmp_path / "report.json")],
                    ["fit", str(tmp_path / "p1.csv")]):
        assert main(["--config", str(path), *command]) == 3
        assert capsys.readouterr().err == ("config error: [springs] pre_wind_rad must be >= 0, "
                                           "got -1.0\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toolkit.ini"]
    path.write_text("[springs]\npre_wind_rad = 0\n")
    assert load_config(path).pre_wind == 0.0


# Per config key: a value its rule rejects and how the rejection reads.  Degree
# keys are quoted in degrees, as written, never in the radians the model uses.
REJECTED = [
    ("segments", "hand_mass_kg", "-0.5", "be >= 0, got -0.5"),
    ("segments", "hand_length_m", "0", "be > 0, got 0.0"),
    ("segments", "hand_com_ratio", "1.5", "lie in [0, 1], got 1.5"),
    ("segments", "body_mass_kg", "-70", "be > 0, got -70.0"),
    ("segments", "sex", "robot", "be one of ['female', 'male'], got 'robot'"),
    ("segments", "hand_mass_fraction", "0.05", "lie in (0, 0.05), got 0.05"),
    ("kinematics", "axis_obliquity_deg", "inf", "be finite, got inf"),
    ("kinematics", "grip_extension_deg", "nan", "be finite, got nan"),
    ("kinematics", "carrying_angle_deg", "-inf", "be finite, got -inf"),
    ("kinematics", "gravity_m_s2", "0", "be > 0, got 0.0"),
    *(("postures", f"p{n}_{joint}_deg", "1e999", "be finite, got inf")
      for n in (1, 2, 3) for joint in ("shoulder", "elbow", "pronation")),
    ("motion", "mean_deg", "nan", "be finite, got nan"),
    ("motion", "amplitude_deg", "-1", "be >= 0, got -1.0"),
    ("motion", "min_angle_deg", "-inf", "be finite, got -inf"),
    ("motion", "max_angle_deg", "inf", "be finite, got inf"),
    ("load", "handheld_mass_kg", "-0.3", "be >= 0, got -0.3"),
    ("load", "grip_offset_m", "nan", "be >= 0, got nan"),
    ("transmission", "gear_ratio", "-128", "be > 0, got -128.0"),
    ("transmission", "efficiency", "0", "lie in (0, 1], got 0.0"),
    ("transmission", "torque_constant_nm_per_a", "0", "be > 0, got 0.0"),
    ("springs", "pre_wind_rad", "-inf", "be >= 0, got -inf"),
    ("analysis", "angle_min_deg", "nan", "lie in [-180, 180], got nan"),
    ("analysis", "angle_max_deg", "inf", "lie in [-180, 180], got inf"),
    ("analysis", "max_interpolated_fraction", "1.01", "lie in [0, 1], got 1.01"),
]
# sex and the hand-mass fraction need a body mass; with one, their own rule is the one broken
_WITH_BODY_MASS = {"sex", "hand_mass_fraction"}


def test_rejected_table_covers_every_key_but_the_catalog_path():
    keys = {(section, key) for section, key, _, _ in REJECTED}
    assert len(keys) == len(REJECTED)
    assert keys == {(section, key) for section, defaults in DEFAULTS.items()
                    for key in defaults} - {("springs", "catalog_path")}


@pytest.mark.parametrize("section, key, value, must", REJECTED,
                         ids=[key for _, key, _, _ in REJECTED])
def test_rejected_value_is_one_line_naming_its_key(tmp_path, capsys, section, key, value, must):
    path = tmp_path / "toolkit.ini"
    extra = "body_mass_kg = 70\n" if key in _WITH_BODY_MASS else ""
    # also named first when another section breaks a rule between keys: sex without a
    # body mass, or an empty analysis window
    between = ("[analysis]\nangle_min_deg = 50\n" if section == "segments"
               else "[segments]\nsex = male\n")
    out = tmp_path / "curves"
    for other in ("", between):
        path.write_text(f"[{section}]\n{extra}{key} = {value}\n{other}")
        assert main(["--config", str(path), "simulate", "--posture", "all", "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"config error: [{section}] {key} must {must}\n")
        assert not out.exists()


@pytest.mark.parametrize("text, must", [
    ("sex = martian\nhand_mass_fraction = banana\n",
     "sex must be one of ['female', 'male'], got 'martian'"),
    ("sex = male\n", "sex needs body_mass_kg"),
    ("hand_mass_fraction = 0.006\n", "hand_mass_fraction needs body_mass_kg"),
    ("hand_mass_fraction = banana\n", "hand_mass_fraction must be a number, got 'banana'"),
    ("hand_mass_kg = -5\nbody_mass_kg = 80\nsex = male\n", "hand_mass_kg must be >= 0, got -5.0"),
    ("body_mass_kg = 70\nhand_mass_fraction = 0.006\nsex = robot\n",
     "sex must be one of ['female', 'male'], got 'robot'"),
    ("body_mass_kg = 80\nsex = male\nhand_mass_kg = 3\n",
     "hand_mass_kg and body_mass_kg both set the hand mass; set one"),
    ("body_mass_kg = 70\nsex = male\nhand_mass_fraction = 0.006\n",
     "sex and hand_mass_fraction both set the hand mass fraction; set one"),
], ids=["bad-sex-alone", "sex-alone", "fraction-alone", "bad-fraction-alone",
        "negative-hand-mass-with-body-mass", "bad-sex-with-fraction",
        "hand-mass-with-body-mass", "sex-with-fraction"])
def test_segment_keys_keep_their_rule_whatever_else_is_set(tmp_path, capsys, text, must):
    path = tmp_path / "toolkit.ini"
    path.write_text(f"[segments]\n{text}")
    out = tmp_path / "c.csv"
    assert main(["--config", str(path), "simulate", "--posture", "P1", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"config error: [segments] {must}\n")
    assert not out.exists()


def test_a_key_rule_is_reported_before_a_rule_between_keys(tmp_path, capsys):
    path = tmp_path / "toolkit.ini"
    path.write_text("[segments]\nsex = male\n[analysis]\nangle_min_deg = nan\n")
    out = tmp_path / "c.csv"
    assert main(["--config", str(path), "simulate", "--posture", "P1", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "config error: [analysis] angle_min_deg must lie in "
                                       "[-180, 180], got nan\n")
    assert not out.exists()


def test_each_rule_admits_its_boundary_value(tmp_path):
    path = tmp_path / "toolkit.ini"
    path.write_text("[segments]\nhand_mass_kg = 0\nhand_com_ratio = 1\n"
                    "[motion]\namplitude_deg = 0\n[load]\nhandheld_mass_kg = 0\ngrip_offset_m = 0\n"
                    "[transmission]\nefficiency = 1\n[springs]\npre_wind_rad = 0\n"
                    "[analysis]\nmax_interpolated_fraction = 0\n"
                    "angle_min_deg = -180\nangle_max_deg = 180\n")
    cfg = load_config(path)
    assert cfg.angle_bounds == (-180.0, 180.0)
    assert (cfg.segments["hand"].mass, cfg.segments["hand"].com_ratio) == (0.0, 1.0)
    assert (cfg.motion.amplitude, cfg.load.handheld_mass, cfg.load.grip_offset) == (0.0, 0.0, 0.0)
    assert (cfg.gearing.efficiency, cfg.pre_wind, cfg.max_interpolated_fraction) == (1.0, 0.0, 0.0)
    path.write_text("[segments]\nhand_com_ratio = 0\n[analysis]\nmax_interpolated_fraction = 1\n")
    cfg = load_config(path)
    assert (cfg.segments["hand"].com_ratio, cfg.max_interpolated_fraction) == (0.0, 1.0)


def test_motion_must_fit_joint_limits(tmp_path):
    path = tmp_path / "toolkit.ini"
    path.write_text("[motion]\namplitude_deg = 60\n")
    with pytest.raises(ConfigError, match="joint limits"):
        load_config(path)
    # widening the limits makes the same profile legal
    path.write_text("[motion]\namplitude_deg = 60\nmin_angle_deg = -80\n"
                    "max_angle_deg = 80\n")
    cfg = load_config(path)
    assert cfg.motion.amplitude == pytest.approx(math.radians(60))


def test_huge_motion_angle_is_one_short_line(tmp_path, capsys):
    path = tmp_path / "toolkit.ini"
    path.write_text("[motion]\nmean_deg = 1e300\n")
    out = tmp_path / "curves"
    assert main(["--config", str(path), "simulate", "--posture", "all", "--out", str(out)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.count("\n") == 1 and len(stderr) < 200
    assert stderr == ("config error: [motion] cycle spans [1e+300, 1e+300] deg, "
                      "outside the joint limits [-44, 30] deg\n")
    assert not out.exists()


def test_catalog_path(tmp_path):
    catalog = tmp_path / "springs.csv"
    catalog.write_text("name,stiffness_Nmm_per_deg\nA,9.5\nB,14.0\n")
    path = tmp_path / "toolkit.ini"
    path.write_text("[springs]\ncatalog_path = springs.csv\n")
    cfg = load_config(path)
    assert [e.name for e in cfg.catalog] == ["A", "B"]

    path.write_text("[springs]\ncatalog_path = nowhere.csv\n")
    with pytest.raises(ConfigError, match="not found"):
        load_config(path)

    catalog.write_text("name,stiffness_Nmm_per_deg\nA,bad\n")
    path.write_text("[springs]\ncatalog_path = springs.csv\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/no/such/file.ini")


def test_retired_keys_warn_once_each_and_are_not_read(retired_config):
    path, expected = retired_config
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = load_config(path)
    assert [str(w.message) for w in caught] == expected
    assert cfg == load_config()
    assert sum(len(keys) for keys in DEFAULTS.values()) == 33


def test_readme_example_config_loads_as_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_config(path) == load_config()
