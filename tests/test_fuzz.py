"""Fuzz every reader and the CLI with arbitrary bytes.

A reader may fail only with the toolkit's own errors, and the CLI only
with exit 2 or 3 and one error line that writes nothing, never with a
traceback.  The inputs mix raw bytes with near-valid files (the right
header, then rows of plausible and hostile cells) so the search gets
past the header check.
"""

import contextlib
import io
import json
import math
import shutil
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from wristkit import fileio
from wristkit.cli import MAX_SAMPLES, main
from wristkit.config import DEFAULTS, load_config
from wristkit.errors import ConfigError, DataError, DomainError

import corpus

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
LIBRARY_ERRORS = (ConfigError, DataError, DomainError)

_CELLS = st.one_of(
    st.sampled_from(["", "0", "1", "-3.5", "0.01", "1e999", "-inf", "nan", "12",
                     "B2", "B4", "B7", "S1", "P1", "size", "weight", '"', '"a,b"',
                     " ", "\t", "\x00", "é", "﻿"]),
    st.text(max_size=6))


def _csv_like(header: str):
    """Bytes of a CSV file: raw noise, or ``header`` (or noise) over fuzzed rows."""
    rows = st.lists(st.lists(_CELLS, max_size=5).map(",".join), max_size=8)
    body = st.tuples(st.sampled_from([header, header.upper(), ""]), rows).map(
        lambda parts: "\n".join([parts[0], *parts[1]]).encode())
    return st.one_of(st.binary(max_size=200), body,
                     st.tuples(body, st.binary(max_size=20)).map(b"".join))


_NUMBER = st.one_of(st.integers(-10, 10), st.floats(allow_nan=True), st.booleans(),
                    st.none(), st.text(max_size=3))
_JSON = st.recursive(
    _NUMBER,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["rom_total_deg", "tau_rms_nm", "repeatability",
                                         "S1", "POS1", "overall", "min", "q1", "median",
                                         "q3", "max", "n", "mean", "sd"]),
                        inner, max_size=6)),
    max_leaves=30)
REPORTS = st.one_of(st.binary(max_size=200),
                    _JSON.map(lambda value: json.dumps(value).encode()))

_KEYS = [key for keys in DEFAULTS.values() for key in keys] + ["friction_mu", "bogus"]
_CONFIG_LINES = st.one_of(
    st.sampled_from([f"[{s}]" for s in DEFAULTS] + ["[DEFAULT]", "[nope]", "[", "="]),
    st.tuples(st.sampled_from(_KEYS), _CELLS).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=10))
CONFIGS = st.one_of(st.binary(max_size=200),
                    st.lists(_CONFIG_LINES, max_size=10).map(
                        lambda lines: "\n".join(lines).encode()))

TRIAL_NAME = "P1_POS1_unloaded_S1_T1.csv"
READERS = {
    "trial log": (TRIAL_NAME, _csv_like("t_s,angle_deg,current_mA,button"),
                  fileio.read_trial_log),
    "curve": ("curve.csv", _csv_like("angle_rad,moment_Nm"), fileio.read_torque_curve),
    "catalog": ("catalog.csv", _csv_like("name,stiffness_Nmm_per_deg"),
                fileio.read_spring_catalog),
    "likert": ("likert.csv", _csv_like("participant,item,score"),
               fileio.read_likert_responses),
    "report": ("report.json", REPORTS, fileio.read_report),
    "config": ("toolkit.ini", CONFIGS, load_config),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _fresh(work, name, data: bytes):
    """An empty directory under ``work`` holding one file ``name`` with ``data``."""
    shutil.rmtree(work / "case", ignore_errors=True)
    case = work / "case"
    case.mkdir()
    (case / name).write_bytes(data)
    return case


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_reader_raises_only_library_errors(work, kind, data):
    name, strategy, reader = READERS[kind]
    path = _fresh(work, name, data.draw(strategy)) / name
    try:
        reader(path)
    except LIBRARY_ERRORS:
        pass


def _run(argv):
    """The CLI's exit code and what it printed on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


ERROR_EXITS = {"config error": 3, "data error": 2, "i/o error": 2}


def _tree(case):
    return sorted(path.relative_to(case) for path in case.rglob("*"))


def _assert_exit_contract(case, argv, rejected=None, errors=ERROR_EXITS):
    """Run the CLI on the files in ``case``: it exits 0, or with the code of one
    stderr line of ``errors``, after at most one ``rejected <rejected>: …`` line,
    and writes nothing."""
    before = _tree(case)
    code, err = _run(argv)
    if code == 0:
        return
    if rejected and err.startswith(f"rejected {rejected}: "):
        err = err.split("\n", 1)[1]
    assert errors.get(err.split(":", 1)[0]) == code, err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert _tree(case) == before


@FUZZ
@given(data=READERS["curve"][1])
def test_cli_fit(work, data):
    case = _fresh(work, "curve.csv", data)
    _assert_exit_contract(case, ["fit", str(case / "curve.csv"),
                                 "--out", str(case / "design.json")])


@FUZZ
@given(data=REPORTS)
def test_cli_report(work, data):
    case = _fresh(work, "report.json", data)
    _assert_exit_contract(case, ["report", str(case / "report.json")])


@FUZZ
@given(data=READERS["trial log"][1], likert=st.booleans())
def test_cli_analyze_one_file(work, data, likert):
    name = "likert.csv" if likert else TRIAL_NAME
    case = _fresh(work, name, data)
    _assert_exit_contract(case, ["analyze", str(case), "--out", str(case / "out" / "report.json")],
                          rejected=name)


@FUZZ
@given(data=CONFIGS)
def test_cli_config(work, data):
    case = _fresh(work, "toolkit.ini", data)
    _assert_exit_contract(case, ["--config", str(case / "toolkit.ini"), "simulate", "--posture",
                                 "P1", "--samples", "5", "--out", str(case / "c.csv")])


# The design path on configs that load: each key but the catalog path, set to a value
# its rule in ``config.DEFAULTS`` admits, up to +-1e308.  Any key not listed here is held
# only to be finite.
_ANY = st.floats(-1e308, 1e308)
_AT_LEAST_0 = st.floats(0.0, 1e308)
_ABOVE_0 = st.floats(0.0, 1e308, exclude_min=True)
_RULES = {
    "hand_mass_kg": _AT_LEAST_0, "hand_length_m": _ABOVE_0, "hand_com_ratio": st.floats(0.0, 1.0),
    "body_mass_kg": _ABOVE_0, "sex": st.sampled_from(["female", "male"]),
    "hand_mass_fraction": st.floats(0.0, 0.05, exclude_min=True, exclude_max=True),
    "gravity_m_s2": _ABOVE_0, "amplitude_deg": _AT_LEAST_0,
    "handheld_mass_kg": _AT_LEAST_0, "grip_offset_m": _AT_LEAST_0, "gear_ratio": _ABOVE_0,
    "efficiency": st.floats(0.0, 1.0, exclude_min=True), "torque_constant_nm_per_a": _ABOVE_0,
    "pre_wind_rad": _AT_LEAST_0, "angle_min_deg": st.floats(-180.0, 180.0),
    "angle_max_deg": st.floats(-180.0, 180.0), "max_interpolated_fraction": st.floats(0.0, 1.0),
}
DESIGN_KEYS = [(section, key) for section, keys in DEFAULTS.items()
               for key in keys if key != "catalog_path"]
# 2 to 60 samples, or a count the CLI refuses before numpy allocates: 0, 1 or too many
_TOO_MANY = (MAX_SAMPLES + 1, 10**20)
SAMPLES = st.integers(-len(_TOO_MANY), 60).map(lambda n: _TOO_MANY[n] if n < 0 else n)


@st.composite
def _design_config(draw) -> bytes:
    chosen = draw(st.lists(st.sampled_from(DESIGN_KEYS), unique=True, max_size=8))
    derive = [("segments", key) for key in ("body_mass_kg", "sex", "hand_mass_fraction")]
    if set(derive) & set(chosen):  # the body mass and one of sex or fraction, no hand mass
        by = draw(st.sampled_from(derive[1:]))
        chosen = [c for c in chosen if c not in (*derive, ("segments", "hand_mass_kg"))]
        chosen += [derive[0], by]
    lines = []
    for section in DEFAULTS:
        keys = [key for sec, key in DESIGN_KEYS if (sec, key) in chosen and sec == section]
        lines += [f"[{section}]"] * bool(keys)
        lines += [f"{key} = {draw(_RULES.get(key, _ANY))}" for key in keys]
    return "\n".join(lines).encode()


def test_design_fuzz_draws_every_key_held_to_more_than_finite():
    ruled = {key for keys in DEFAULTS.values() for key, (_, rule) in keys.items()
             if rule not in ("finite", None)}
    assert ruled == set(_RULES)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(config=_design_config(), samples=SAMPLES,
       custom=st.none() | st.tuples(st.floats(), st.floats(), st.floats()))
def test_cli_design_path(work, config, samples, custom):
    """``simulate --posture all`` (and a custom posture), then ``fit`` of every curve
    written, under warnings as errors: each call exits 0, or prints one config or
    data error line and writes nothing."""
    case = _fresh(work, "toolkit.ini", config)
    calls = [["simulate", "--posture", "all", "--out", str(case / "curves")]]
    if custom is not None:
        flags = [f"{flag}={angle!r}" for flag, angle
                 in zip(("--shoulder-deg", "--elbow-deg", "--pronation-deg"), custom)]
        calls.append(["simulate", "--posture", "custom", *flags,
                      "--out", str(case / "curves" / "C.csv")])
    errors = {"config error": 3, "data error": 2}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            _assert_exit_contract(case, ["--config", str(case / "toolkit.ini"), *call,
                                         "--samples", str(samples)], errors=errors)
        curves = sorted(map(str, case.glob("curves/*.csv")))
        if curves:
            _assert_exit_contract(case, ["--config", str(case / "toolkit.ini"), "fit", *curves,
                                         "--out", str(case / "design.json")], errors=errors)


# A study of one good corpus log and up to four logs with the right header
# and strictly increasing times, but angle and current cells from all floats.
GOOD_LOG = "P1_POS1_unloaded_S1_T1.csv"
HOSTILE_NAMES = ("P1_POS1_unloaded_S1_T2.csv", "P2_POS1_unloaded_S1_T1.csv",
                 "P1_POS2_loaded_300g_S2_T1.csv", "P3_POS3_unloaded_S3_T1.csv")
_EXTREME = st.sampled_from([1e308, -1e308, 1e200, -1e200, 1.4e157, 5e-324, -5e-324,
                            math.inf, math.nan])
_ANGLE = st.one_of(st.floats(-60.0, 45.0), st.floats(-60.0, 45.0), st.floats(), _EXTREME)
_CURRENT = st.one_of(st.floats(-1e3, 1e3), st.floats(), _EXTREME)


@st.composite
def _hostile_log(draw) -> str:
    n = draw(st.integers(1, 40))
    times = draw(st.one_of(
        st.just([i / 100 for i in range(n)]),
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n, unique=True).map(sorted)))
    angles = draw(st.lists(_ANGLE, min_size=n, max_size=n))
    currents = draw(st.lists(_CURRENT, min_size=n, max_size=n))
    start, length = draw(st.integers(0, n - 1)), draw(st.integers(0, 3))
    currents[start:start + length] = [math.nan] * len(currents[start:start + length])
    buttons = draw(st.lists(st.sampled_from(["", "B2", "B3", "B4"]), min_size=n, max_size=n))
    rows = [f"{t!r},{a!r},{i!r},{b}" for t, a, i, b in zip(times, angles, currents, buttons)]
    return "\n".join(["t_s,angle_deg,current_mA,button", *rows]) + "\n"


@FUZZ
@given(logs=st.lists(_hostile_log(), max_size=len(HOSTILE_NAMES)))
def test_cli_analyze_never_lets_one_log_end_the_study(work, corpus_dir, logs):
    shutil.rmtree(work / "case", ignore_errors=True)
    case = work / "case"
    case.mkdir()
    shutil.copy(corpus_dir / GOOD_LOG, case / GOOD_LOG)
    names = HOSTILE_NAMES[:len(logs)]
    for name, text in zip(names, logs):
        (case / name).write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the one warning a study this small may raise by design
        warnings.filterwarnings("ignore", "friedman test on .* omitted", UserWarning)
        assert _run(["analyze", str(case), "--out", str(work / "report.json")])[0] == 0
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    accepted = [corpus.trial_name(t["participant"], t["posture"], t["load"], t["spring"],
                                  t["trial"]) for t in report["trials"]]
    rejected = [r["file"] for r in report["rejected"]]
    assert GOOD_LOG in accepted
    assert sorted(accepted + rejected) == sorted([GOOD_LOG, *names])
