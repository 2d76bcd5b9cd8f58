"""Readers and writers for the toolkit's on-disk formats.

Formats (all plain text, diff-friendly):

* torque curve CSV: header ``angle_rad,moment_Nm``, radians/N*m;
* spring catalog CSV: header ``name,stiffness_Nmm_per_deg``;
* trial log CSV: header ``t_s,angle_deg,current_mA,button`` at 100 Hz,
  named ``P<participant>_POS<posture>_<load>_<spring>_T<trial>.csv``;
* Likert responses CSV: header ``participant,item,score``;
* study/fit reports: JSON with sorted keys and floats rendered at six
  significant digits, so identical inputs give byte-identical files;
* plot CSVs (box plots, repeatability) with the same float rendering.

Parse failures raise :class:`DataError` naming the file and line.
"""

import csv
import errno
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from .biomech import TorqueCurve
from .errors import DataError, DomainError
from .springs import SpringCatalogEntry
from .trials import BUTTONS, LikertResponse, TrialLog, TrialMeta

TRIAL_NAME_RE = re.compile(
    r"^P(?P<participant>[^_]+)_POS(?P<posture>\d+)_(?P<load>.+)_"
    r"(?P<spring>S[^_]+)_T(?P<trial>\d+)\.csv$")

_CURVE_HEADER = ["angle_rad", "moment_Nm"]
_CATALOG_HEADER = ["name", "stiffness_Nmm_per_deg"]
_TRIAL_HEADER = ["t_s", "angle_deg", "current_mA", "button"]
_LIKERT_HEADER = ["participant", "item", "score"]
_BOX_KEYS = ("min", "q1", "median", "q3", "max", "n")  # box-plot row of a report


def _read_text(path) -> str:
    """The UTF-8 text of ``path``; an unreadable or undecodable file is a
    :class:`DataError` naming the file (and the line of a bad byte)."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None


def _rows(path, expected_header):
    """Yield (line_no, row) for a CSV file after checking its header."""
    path = Path(path)
    reader = csv.reader(_read_text(path).splitlines())
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        if [h.strip() for h in header] != expected_header:
            raise DataError(
                f"{path}:1: expected header {','.join(expected_header)!r}, "
                f"got {','.join(header)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise DataError(f"{path}:{line_no}: expected {len(expected_header)} "
                                f"fields, got {len(row)}")
            yield line_no, [cell.strip() for cell in row]
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and ``os.replace``, so a failed write never leaves half a file.
    An ``OSError`` names ``path``, not the temporary file."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _parse_float(path, line_no, name, text):
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{path}:{line_no}: {name} is not a number: {text!r}") from None


# ---------------------------------------------------------------------------
# torque curves
# ---------------------------------------------------------------------------

def read_torque_curve(path, posture_label: str = "") -> TorqueCurve:
    angles, moments = [], []
    for line_no, row in _rows(path, _CURVE_HEADER):
        angles.append(_parse_float(path, line_no, "angle_rad", row[0]))
        moments.append(_parse_float(path, line_no, "moment_Nm", row[1]))
    try:
        return TorqueCurve(np.asarray(angles), np.asarray(moments), posture_label)
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_torque_curve(path, curve: TorqueCurve) -> None:
    lines = [",".join(_CURVE_HEADER)]
    for angle, moment in zip(curve.angles, curve.moments):
        lines.append(f"{float(angle)!r},{float(moment)!r}")
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# spring catalogs
# ---------------------------------------------------------------------------

def read_spring_catalog(path) -> tuple:
    entries = []
    for line_no, row in _rows(path, _CATALOG_HEADER):
        name = row[0]
        if not name:
            raise DataError(f"{path}:{line_no}: empty spring name")
        stiffness = _parse_float(path, line_no, "stiffness_Nmm_per_deg", row[1])
        try:
            entries.append(SpringCatalogEntry(name, stiffness))
        except DomainError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    if not entries:
        raise DataError(f"{path}: catalog has no entries")
    return tuple(entries)


# ---------------------------------------------------------------------------
# trial logs
# ---------------------------------------------------------------------------

def parse_trial_filename(name: str) -> TrialMeta | None:
    """Extract the experimental condition from a trial file name.

    Returns None for file names not following the convention; callers
    treat those as non-trial files rather than errors.
    """
    match = TRIAL_NAME_RE.match(name)
    if match is None:
        return None
    try:
        return TrialMeta(
            participant="P" + match["participant"],
            posture="POS" + match["posture"],
            load=match["load"],
            spring=match["spring"],
            trial_index=int(match["trial"]),
        )
    except DomainError:
        return None


def read_trial_log(path, meta: TrialMeta | None = None) -> TrialLog:
    """Read a trial log; empty angle/current cells become NaN (missing)."""
    time, angle, current, button = [], [], [], []
    for line_no, row in _rows(path, _TRIAL_HEADER):
        time.append(_parse_float(path, line_no, "t_s", row[0]))
        angle.append(_parse_float(path, line_no, "angle_deg", row[1])
                     if row[1] else math.nan)
        current.append(_parse_float(path, line_no, "current_mA", row[2])
                       if row[2] else math.nan)
        if row[3] not in BUTTONS:
            raise DataError(f"{path}:{line_no}: unknown button {row[3]!r}")
        button.append(row[3])
    if not time:
        raise DataError(f"{path}: trial log has no samples")
    try:
        return TrialLog(np.asarray(time), np.asarray(angle), np.asarray(current),
                        tuple(button), meta)
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_trial_log(path, log: TrialLog) -> None:
    lines = [",".join(_TRIAL_HEADER)]
    for t, a, i, b in zip(log.time, log.angle_deg, log.current_ma, log.button):
        a_text = "" if not math.isfinite(a) else f"{a:g}"
        i_text = "" if not math.isfinite(i) else f"{i:g}"
        lines.append(f"{t:g},{a_text},{i_text},{b}")
    _write_text(path, "\n".join(lines) + "\n")


def read_likert_responses(path) -> tuple:
    responses = []
    for line_no, row in _rows(path, _LIKERT_HEADER):
        try:
            score = int(row[2])
        except ValueError:
            raise DataError(f"{path}:{line_no}: score is not an integer: {row[2]!r}") from None
        try:
            responses.append(LikertResponse(row[0], row[1], score))
        except DomainError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    return tuple(responses)


# ---------------------------------------------------------------------------
# reports and plot data
# ---------------------------------------------------------------------------

def _round_floats(value):
    """Recursively re-quantize floats to 6 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def render_report(report: dict) -> str:
    """Deterministic JSON text: sorted keys, floats at 6 significant digits."""
    return json.dumps(_round_floats(report), sort_keys=True, indent=2) + "\n"


def write_report(path, report: dict) -> None:
    _write_text(path, render_report(report))


def read_report(path) -> dict:
    path = Path(path)
    text = _read_text(path)
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise DataError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(report, dict):
        raise DataError(f"{path}: report must be a JSON object")
    for section, depth, keys in (("rom_total_deg", 1, _BOX_KEYS), ("tau_rms_nm", 1, _BOX_KEYS),
                                 ("repeatability", 2, ("mean", "sd", "n"))):
        _check_rows(path, section, report.get(section, {}), depth, keys)
    return report


def _check_rows(path, where, node, depth, keys) -> None:
    """Require ``depth`` levels of JSON objects above rows holding numeric ``keys``."""
    if not isinstance(node, dict):
        raise DataError(f"{path}: {where} must be a JSON object")
    if depth:
        for name, child in node.items():
            _check_rows(path, f"{where}.{name}", child, depth - 1, keys)
        return
    for key in keys:
        if key not in node:
            raise DataError(f"{path}: {where} lacks {key!r}")
        if isinstance(node[key], bool) or not isinstance(node[key], (int, float)):
            raise DataError(f"{path}: {where}.{key} must be a number, got {node[key]!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_plot_csvs(report: dict, out_dir) -> list:
    """Render box-plot and repeatability CSVs from a study report.

    Writes ``rom_boxplot.csv``, ``torque_boxplot.csv``, and
    ``repeatability.csv`` into ``out_dir``; returns the paths written.
    """
    out_dir = Path(out_dir)
    written = []

    for fname, section in (("rom_boxplot.csv", "rom_total_deg"),
                           ("torque_boxplot.csv", "tau_rms_nm")):
        groups = report.get(section, {})
        lines = ["spring," + ",".join(_BOX_KEYS)]
        for spring in sorted(groups):
            q = groups[spring]
            lines.append(",".join([spring] + [_fmt(q[k]) for k in _BOX_KEYS]))
        path = out_dir / fname
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)

    repeat = report.get("repeatability", {})
    lines = ["spring,posture,mean_delta_deg,sd_delta_deg,n"]
    for spring in sorted(repeat):
        for posture in sorted(repeat[spring]):
            cell = repeat[spring][posture]
            lines.append(",".join([spring, posture, _fmt(cell["mean"]),
                                   _fmt(cell["sd"]), _fmt(cell["n"])]))
    path = out_dir / "repeatability.csv"
    _write_text(path, "\n".join(lines) + "\n")
    written.append(path)
    return written
