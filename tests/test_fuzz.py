"""Fuzz every reader and the CLI with arbitrary bytes.

A reader may fail only with the toolkit's own errors, and the CLI only
with an exit code of the 0/1/2/3 contract, never with a traceback.  The
inputs mix raw bytes with near-valid files (the right header, then rows
of plausible and hostile cells) so the search gets past the header check.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from wristkit import fileio
from wristkit.cli import main
from wristkit.config import DEFAULTS, load_config
from wristkit.errors import ConfigError, DataError, DomainError

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


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@FUZZ
@given(data=READERS["curve"][1])
def test_cli_fit(work, data):
    case = _fresh(work, "curve.csv", data)
    assert _exit_code(["fit", str(case / "curve.csv"),
                       "--out", str(case / "design.json")]) in (0, 1, 2, 3)


@FUZZ
@given(data=REPORTS)
def test_cli_report(work, data):
    case = _fresh(work, "report.json", data)
    assert _exit_code(["report", str(case / "report.json")]) in (0, 1, 2, 3)


@FUZZ
@given(data=READERS["trial log"][1], likert=st.booleans())
def test_cli_analyze_one_file(work, data, likert):
    name = "likert.csv" if likert else TRIAL_NAME
    case = _fresh(work, name, data)
    assert _exit_code(["analyze", str(case), "--out",
                       str(work / "report.json")]) in (0, 1, 2, 3)


@FUZZ
@given(data=CONFIGS)
def test_cli_config(work, data):
    case = _fresh(work, "toolkit.ini", data)
    assert _exit_code(["--config", str(case / "toolkit.ini"), "simulate", "--posture",
                       "P1", "--samples", "5", "--out", str(case / "c.csv")]) in (0, 1, 2, 3)
