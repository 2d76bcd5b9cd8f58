"""Readers and writers for the toolkit's on-disk formats.

Formats (all plain text, diff-friendly):

* torque curve CSV: header ``angle_rad,moment_Nm``, radians/N*m;
* spring catalog CSV: header ``name,stiffness_Nmm_per_deg``;
* trial log CSV: header ``t_s,angle_deg,current_mA,button`` at 100 Hz,
  named ``P<participant>_POS<posture>_<load>_<spring>_T<trial>.csv``;
* Likert responses CSV: header ``participant,item,score``;
* study/fit reports: JSON with sorted keys and floats rendered at six significant
  digits, written piece by piece, so identical inputs give byte-identical files;
* plot CSVs (box plots, repeatability) with the same float rendering.

Parse failures raise :class:`DataError` naming the file and line.
"""

import csv
import errno
import json
import math
import os
import re
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .biomech import TorqueCurve
from .errors import DataError, DomainError
from .springs import SpringCatalogEntry
from .trials import BUTTONS, LikertResponse, TrialLog, TrialMeta, TrialRecords

TRIAL_NAME_RE = re.compile(
    r"^P(?P<participant>[^_]+)_POS(?P<posture>\d+)_(?P<load>.+)_"
    r"(?P<spring>S[^_]+)_T(?P<trial>\d+)\.csv$")

_CURVE_HEADER = ["angle_rad", "moment_Nm"]
_CATALOG_HEADER = ["name", "stiffness_Nmm_per_deg"]
_TRIAL_HEADER = ["t_s", "angle_deg", "current_mA", "button"]
_LIKERT_HEADER = ["participant", "item", "score"]
_NOT_PLAIN = '"\r\t \x00\x0b\x0c\x1c\x1d\x1e'  # quote, tab, space, NUL, line breaks but "\n"
_BOX_KEYS = ("min", "q1", "median", "q3", "max", "n")  # box-plot row of a report
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings
_ARRAYS = (list, tuple, TrialRecords)  # rendered as JSON arrays
_CSV_CHUNK = 512  # CSV lines per write: as fast as one join, without a whole-file copy


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


def _write_text(path, text) -> None:
    """Write ``text`` (a str or an iterable of strs) to ``path`` via a temporary file beside
    it and ``os.replace``: a failure never leaves half a file.  An ``OSError`` names ``path``."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _records(path, text, header, parse) -> list:
    """``parse(cells)`` of each data row of CSV ``text`` read from ``path``, after the
    header check; all-blank rows are skipped, cells stripped, field counts checked.  A
    ``ValueError`` from ``parse`` (a :class:`DomainError` is one) or a CSV error
    becomes a :class:`DataError` naming the file and the line the row ends on."""
    path = Path(path)
    reader = csv.reader(text.splitlines())
    records = []
    try:
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}: file is empty")
        if [h.strip() for h in first] != header:
            raise DataError(f"{path}:1: expected header {','.join(header)!r}, "
                            f"got {','.join(first)!r}")
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(cells)}")
            records.append(parse(cells))
    except (csv.Error, ValueError) as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return records


def _plain_table(text, header, dtype):
    """The ``loadtxt`` table of plainly written CSV ``text``, or None for non-ASCII
    text, a character of ``_NOT_PLAIN``, another header, no row, an over-long line, a
    row of another cell count or a number ``loadtxt`` rejects.  ``loadtxt`` parses
    with the C core of ``float``, so ``_records`` agrees on every table returned."""
    first, _, body = text.partition("\n")
    limit = csv.field_size_limit()
    if (not text.isascii() or any(char in text for char in _NOT_PLAIN)  # "\n" ends lines
            or first != ",".join(header) or not body.strip("\n")  # loadtxt warns
            or len(body) > limit and max(map(len, body.split("\n"))) > limit):
        return None
    try:
        return np.loadtxt(body.split("\n"), delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except ValueError:
        return None


def _number(name, text, blank=None) -> float:
    """``text`` as a float; an empty cell is ``blank`` when one is given."""
    if blank is not None and not text:
        return blank
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} is not a number: {text!r}") from None


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` (sequences of cell strings) as CSV lines, handed to
    ``_write_text`` ``_CSV_CHUNK`` lines at a time, so no copy of the whole text is built."""
    lines = chain([header], rows)
    _write_text(path, iter(lambda: "".join([",".join(row) + "\n"
                                            for row in islice(lines, _CSV_CHUNK)]), ""))


# ---------------------------------------------------------------------------
# torque curves
# ---------------------------------------------------------------------------

def _curve_point(cells) -> tuple:
    return _number("angle_rad", cells[0]), _number("moment_Nm", cells[1])


def read_torque_curve(path, posture_label: str = "") -> TorqueCurve:
    """A plain curve is read in whole columns, any other by the row reader."""
    text = _read_text(Path(path))
    table = _plain_table(text, _CURVE_HEADER, [("angle", float), ("moment", float)])
    if table is None:
        points = _records(path, text, _CURVE_HEADER, _curve_point)
        angles, moments = zip(*points) if points else ((), ())
    else:  # copies, not strided views into the 16-byte records: fit_linear sums them
        angles, moments = table["angle"].copy(), table["moment"].copy()
    try:
        return TorqueCurve(np.asarray(angles), np.asarray(moments), posture_label)
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_torque_curve(path, curve: TorqueCurve) -> None:
    """Each ``_CSV_CHUNK``-row slice of the columns becomes Python floats as it is written."""
    chunks = (slice(i, i + _CSV_CHUNK) for i in range(0, len(curve.angles), _CSV_CHUNK))
    _write_csv(path, _CURVE_HEADER, chain.from_iterable(
        zip(map(repr, curve.angles[s].tolist()), map(repr, curve.moments[s].tolist()))
        for s in chunks))


# ---------------------------------------------------------------------------
# spring catalogs
# ---------------------------------------------------------------------------

def _catalog_entry(cells) -> SpringCatalogEntry:
    name, stiffness = cells
    if not name:
        raise ValueError("empty spring name")
    return SpringCatalogEntry(name, _number("stiffness_Nmm_per_deg", stiffness))


def read_spring_catalog(path) -> tuple:
    entries = tuple(_records(path, _read_text(Path(path)), _CATALOG_HEADER, _catalog_entry))
    if not entries:
        raise DataError(f"{path}: catalog has no entries")
    return entries


# ---------------------------------------------------------------------------
# trial logs
# ---------------------------------------------------------------------------

def parse_trial_filename(name: str) -> TrialMeta | None:
    """Extract the experimental condition from a trial file name.

    Returns None for file names not following the convention; callers
    treat those as non-trial files rather than errors.  The labels are
    interned, so the trials of a study share one string per label.
    """
    match = TRIAL_NAME_RE.match(name)
    if match is None:
        return None
    try:
        return TrialMeta(sys.intern("P" + match["participant"]),
                         sys.intern("POS" + match["posture"]),
                         sys.intern(match["load"]), sys.intern(match["spring"]),
                         int(match["trial"]))
    except DomainError:
        return None


def _trial_sample(cells) -> tuple:
    t, angle, current, button = cells
    sample = (_number("t_s", t), _number("angle_deg", angle, math.nan),
              _number("current_mA", current, math.nan), button)
    if button not in BUTTONS:
        raise ValueError(f"unknown button {button!r}")
    return sample


def _trial_columns(text):
    """The four columns of a plain trial log (see ``_plain_table``), or None, also for
    an unknown button.  A blank angle or current cell is spelled ``nan`` first."""
    text = text.replace(",,", ",nan,").replace(",,", ",nan,")  # the header holds no ",,"
    table = _plain_table(text, _TRIAL_HEADER, [
        ("t", float), ("angle", float), ("current", float), ("button", "U3")])
    if table is None:
        return None
    button = table["button"].tolist()  # U3: every longer label stays unknown
    if not set(BUTTONS).issuperset(button):
        return None
    # copies, not views into the 36-byte records, so a sum runs as on the row reader's array
    return table["t"].copy(), table["angle"].copy(), table["current"].copy(), button


def read_trial_log(path, meta: TrialMeta | None = None) -> TrialLog:
    """Read a trial log; empty angle/current cells become NaN (missing).  A
    plainly written log is parsed in whole columns; any other goes through the
    row reader, which names the first bad row."""
    text = _read_text(Path(path))
    columns = _trial_columns(text)
    if columns is None:
        samples = _records(path, text, _TRIAL_HEADER, _trial_sample)
        if not samples:
            raise DataError(f"{path}: trial log has no samples")
        columns = zip(*samples)
    time, angle, current, button = columns
    try:
        return TrialLog(np.asarray(time), np.asarray(angle), np.asarray(current), button, meta)
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_trial_log(path, log: TrialLog) -> None:
    def cell(value):  # a finite value reads back bit for bit; any other is blank
        return repr(float(value)) if math.isfinite(value) else ""
    _write_csv(path, _TRIAL_HEADER,
               ((cell(t), cell(a), cell(i), b)
                for t, a, i, b in zip(log.time, log.angle_deg, log.current_ma, log.button)))


def _likert_response(cells) -> LikertResponse:
    participant, item, score = cells
    try:
        value = int(score)
    except ValueError:
        raise ValueError(f"score is not an integer: {score!r}") from None
    return LikertResponse(participant, item, value)


def read_likert_responses(path) -> tuple:
    responses = tuple(_records(path, _read_text(Path(path)), _LIKERT_HEADER, _likert_response))
    if not responses:
        raise DataError(f"{path}: no responses")
    return responses


# ---------------------------------------------------------------------------
# reports and plot data
# ---------------------------------------------------------------------------

def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it where ``indent``
    starts a line, each float first re-quantized to 6 significant digits."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = repr(float(f"{value:.6g}"))
        return _NON_FINITE.get(text, text)
    return "".join(_pieces(value, indent, 1))


def _pieces(value, indent="\n", depth=2):
    """``_json(value, indent)`` of a dict or an ``_ARRAYS`` sequence (walked, not copied) in
    pieces, one per member of its first ``depth`` levels; any other value, or a key that is
    not a str, is a ``TypeError``."""
    if isinstance(value, dict):
        brackets, members = "{}", [(encode_basestring_ascii(key) + ": ", value[key])
                                   for key in sorted(value)]
    elif isinstance(value, _ARRAYS):
        brackets, members = "[]", (("", child) for child in value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    inner = indent + "  "
    for n, (prefix, child) in enumerate(members):
        yield ("," if n else brackets[0]) + inner + prefix
        deeper = depth > 1 and isinstance(child, (dict, *_ARRAYS))
        yield from _pieces(child, inner, depth - 1) if deeper else (_json(child, inner),)
    yield indent + brackets[1] if len(value) else brackets


def render_report(report: dict) -> str:
    """Deterministic JSON text, sorted keys and 6-digit floats: ``write_report``'s bytes."""
    return "".join(_pieces(report)) + "\n"


def write_report(path, report: dict) -> None:
    """Write the bytes of ``render_report(report)`` one section or trial record at a time."""
    _write_text(path, chain(_pieces(report), ["\n"]))


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
    return f"{value:.6g}" if isinstance(value, float) else str(value)


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
        written.append(out_dir / fname)
        _write_csv(written[-1], ["spring", *_BOX_KEYS],
                   ([spring] + [_fmt(groups[spring][k]) for k in _BOX_KEYS]
                    for spring in sorted(groups)))
    repeat = report.get("repeatability", {})
    written.append(out_dir / "repeatability.csv")
    _write_csv(written[-1], ["spring", "posture", "mean_delta_deg", "sd_delta_deg", "n"],
               ([spring, posture, _fmt(cell["mean"]), _fmt(cell["sd"]), _fmt(cell["n"])]
                for spring in sorted(repeat)
                for posture, cell in sorted(repeat[spring].items())))
    return written
