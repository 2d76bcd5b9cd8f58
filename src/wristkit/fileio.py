"""Readers and writers for the toolkit's on-disk formats.

Formats (all plain text, diff-friendly):

* torque curve CSV: header ``angle_rad,moment_Nm``, radians/N*m;
* spring catalog CSV: header ``name,stiffness_Nmm_per_deg``;
* trial log CSV: header ``t_s,angle_deg,current_mA,button`` at 100 Hz,
  named ``P<participant>_POS<posture>_<load>_<spring>_T<trial>.csv``;
* Likert responses CSV: header ``participant,item,score``;
* study/fit reports: JSON with sorted keys and floats rendered at six significant
  digits, written piece by piece, so identical inputs give byte-identical files;
* plot CSVs (box plots, repeatability): the same float rendering, labels quoted as csv does.

Parse failures raise :class:`DataError` naming the file and line.
"""

from __future__ import annotations  # trial names are read from ``trials`` when first used

import csv
import errno
import json
import math
import os
import re
import sys
from contextlib import suppress
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import trials
from .biomech import TorqueCurve
from .errors import DataError, DomainError
from .springs import SpringCatalogEntry

TRIAL_NAME_RE = re.compile(
    r"^P(?P<participant>[^_]+)_POS(?P<posture>\d+)_(?P<load>.+)_"
    r"(?P<spring>S[^_]+)_T(?P<trial>\d+)\.csv$")

_CURVE_HEADER = ["angle_rad", "moment_Nm"]
_CATALOG_HEADER = ["name", "stiffness_Nmm_per_deg"]
_TRIAL_HEADER = ["t_s", "angle_deg", "current_mA", "button"]
_LIKERT_HEADER = ["participant", "item", "score"]
_NOT_PLAIN = '"\t \x00\x0b\x0c\x1c\x1d\x1e'  # quote, tab, space, NUL, line breaks but "\n"
_BOX_KEYS = ("min", "q1", "median", "q3", "max", "n")  # box-plot row of a report
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings
_SCALARS = (str, int, float, type(None))  # rendered by _json whole; any other child is walked
_CSV_CHUNK = 512  # CSV lines per write: as fast as one join, without a whole-file copy


def path_name(path) -> str:
    """``path`` as a message names it: as written, an empty one ``''`` as ``OSError`` does."""
    return str(path) or "''"


def _read_text(path) -> str:
    """The UTF-8 text of ``path``, a leading byte-order mark dropped and line ends read as
    text mode reads them (CRLF and a lone CR as LF); an unreadable or undecodable file
    is a :class:`DataError` naming the file (and the line of a bad byte)."""
    try:
        with open(path, "rb") as handle:  # "utf-8-sig" reads a cut-off mark as ""
            text = handle.read().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise DataError(f"{path_name(path)}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _write_text(path, text) -> None:
    """Write ``text`` (an iterable of strs) to ``path`` via a temporary file beside
    it and ``os.replace``: a failure never leaves half a file.  An ``OSError`` names ``path``."""
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        with suppress(FileExistsError):  # a parent that is a file fails at the open, below
            target.parent.mkdir(parents=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # none made, or no directory for one: report the first error
            tmp.unlink()
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _records(path, text, header, parse) -> list:
    """``parse(cells)`` of each data row of CSV ``text`` read from ``path``, after the
    header check; all-blank rows are skipped, cells stripped, field counts checked.  A
    ``ValueError`` from ``parse`` (a :class:`DomainError` is one) or a CSV error
    becomes a :class:`DataError` naming the file and the line the row ends on."""
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
    lines = text.split("\n")
    rows = lines[1:]
    limit = csv.field_size_limit()
    if (not text.isascii() or any(char in text for char in _NOT_PLAIN)  # "\n" ends lines
            or lines[0] != ",".join(header) or not any(rows)  # loadtxt warns
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except ValueError:
        return None


def _read_columns(path, header, dtype, parse, build):
    """``build(*columns)`` of the CSV file at ``path``, read from disk once.  A plain file
    (see ``_plain_table``; blank cells spelled ``nan`` first) is parsed in whole columns,
    each float one copied, not a strided view, so it sums as the row reader's does.  One it
    declines, or whose columns ``build`` refuses with a :class:`DomainError`, goes through
    ``_records`` from the same text, which names the bad row or the file."""
    text = _read_text(path)  # ",," is in no header, and a curve row holding it has 3+ cells
    plain = text.replace(",,", ",nan,")  # ",,," needs a second pass: ",nan,," after one
    table = _plain_table(plain.replace(",,", ",nan,") if len(plain) != len(text) else plain,
                         header, dtype)
    if table is not None:
        with suppress(DomainError):  # a list: star-unpacking a generator left more heap
            return build(*[table[name].copy() if kind is float else table[name].tolist()
                           for name, kind in dtype])
    rows = _records(path, text, header, parse)
    try:
        return build(*(zip(*rows) if rows else [()] * len(header)))
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _table(path, header, parse, empty) -> tuple:
    """``_records`` of the CSV file at ``path``; with none, a :class:`DataError` says ``empty``."""
    rows = tuple(_records(path, _read_text(path), header, parse))
    if not rows:
        raise DataError(f"{path}: {empty}")
    return rows


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
    return _read_columns(path, _CURVE_HEADER, [("angle", float), ("moment", float)],
                         _curve_point, lambda *columns: TorqueCurve(*columns, posture_label))


def write_torque_curve(path, curve: TorqueCurve) -> None:
    """Each ``_CSV_CHUNK``-row slice of the columns becomes Python floats as it is written."""
    chunks = (slice(i, i + _CSV_CHUNK) for i in range(0, len(curve.angles), _CSV_CHUNK))
    _write_csv(path, _CURVE_HEADER, chain.from_iterable(
        zip(map(repr, curve.angles[s].tolist()), map(repr, curve.moments[s].tolist()))
        for s in chunks))


# ---------------------------------------------------------------------------
# spring catalogs
# ---------------------------------------------------------------------------

def read_spring_catalog(path) -> tuple:
    listed = set()  # a second entry would let one design name a spring twice

    def entry(cells):
        name, stiffness = cells
        if not name:
            raise ValueError("empty spring name")
        if name in listed:
            raise ValueError(f"spring {name!r} already listed")
        listed.add(name)
        return SpringCatalogEntry(name, _number("stiffness_Nmm_per_deg", stiffness))
    return _table(path, _CATALOG_HEADER, entry, "catalog has no entries")


# ---------------------------------------------------------------------------
# trial logs
# ---------------------------------------------------------------------------

def parse_trial_filename(name: str) -> trials.TrialMeta | None:
    """Extract the experimental condition from a trial file name.

    Returns None for file names not following the convention; callers
    treat those as non-trial files rather than errors.  The labels are
    interned, so the trials of a study share one string per label.
    """
    match = TRIAL_NAME_RE.match(name)
    if match is None:
        return None
    try:
        return trials.TrialMeta(sys.intern("P" + match["participant"]),
                                sys.intern("POS" + str(int(match["posture"]))),
                                sys.intern(match["load"]), sys.intern(match["spring"]),
                                int(match["trial"]))
    except DomainError:
        return None


def _trial_sample(cells) -> tuple:
    t, angle, current, button = cells
    sample = (_number("t_s", t), _number("angle_deg", angle, math.nan),
              _number("current_mA", current, math.nan), button)
    if button not in trials.BUTTONS:
        raise ValueError(f"unknown button {button!r}")
    return sample


def read_trial_log(path, meta: trials.TrialMeta | None = None) -> trials.TrialLog:
    """Read a trial log; empty angle/current cells become NaN (missing)."""
    return _read_columns(path, _TRIAL_HEADER, [("t", float), ("angle", float), ("current", float),
                         ("button", "U3")], _trial_sample,  # U3: a longer label is unknown
                         lambda *columns: trials.TrialLog(*columns, meta))


def write_trial_log(path, log: trials.TrialLog) -> None:
    def cell(value):  # a finite value reads back bit for bit; any other is blank
        return repr(float(value)) if math.isfinite(value) else ""
    _write_csv(path, _TRIAL_HEADER,
               ((cell(t), cell(a), cell(i), b)
                for t, a, i, b in zip(log.time, log.angle_deg, log.current_ma, log.button)))


def read_likert_responses(path) -> tuple:
    answered = set()  # (participant, item): a second answer would count one person twice

    def response(cells):
        participant, item, score = cells
        if (participant, item) in answered:
            raise ValueError(f"{participant} already answered {item!r}")
        answered.add((participant, item))
        try:
            value = int(score)
        except ValueError:
            raise ValueError(f"score is not an integer: {score!r}") from None
        return trials.LikertResponse(participant, item, value)
    return _table(path, _LIKERT_HEADER, response, "no responses")


# ---------------------------------------------------------------------------
# reports and plot data
# ---------------------------------------------------------------------------

def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it where ``indent``
    starts a line, each float first re-quantized to 6 significant digits."""
    if isinstance(value, float):  # most of a report's values
        text = repr(float(f"{value:.6g}"))
        return _NON_FINITE.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return "".join(_pieces(value, indent, 1))


def _pieces(value, indent="\n", depth=2):
    """``_json(value, indent)`` of a dict, list, tuple or ``trials.TrialRecords`` (walked, not
    copied) in pieces, one per member of its first ``depth`` levels; any other value, or a key
    that is not a str, is a ``TypeError``."""
    if isinstance(value, dict):
        brackets, members = "{}", [(encode_basestring_ascii(key) + ": ", value[key])
                                   for key in sorted(value)]
    elif isinstance(value, (list, tuple)) or isinstance(value, trials.TrialRecords):
        brackets, members = "[]", (("", child) for child in value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    inner = indent + "  "
    for n, (prefix, child) in enumerate(members):
        yield ("," if n else brackets[0]) + inner + prefix
        if depth > 1 and not isinstance(child, _SCALARS):
            yield from _pieces(child, inner, depth - 1)
        else:
            yield _json(child, inner)
    yield indent + brackets[1] if len(value) else brackets


def render_report(report: dict) -> str:
    """Deterministic JSON text, sorted keys and 6-digit floats: ``write_report``'s bytes."""
    return "".join(_pieces(report)) + "\n"


def write_report(path, report: dict) -> None:
    """Write the bytes of ``render_report(report)`` one section or trial record at a time."""
    _write_text(path, chain(_pieces(report), ["\n"]))


def read_report(path) -> dict:
    try:
        report = json.loads(_read_text(path))
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
    if isinstance(value, str) and any(char in value for char in ',"\r\n'):  # quoted as csv does
        return '"' + value.replace('"', '""') + '"'
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def write_plot_csvs(report: dict, out_dir) -> list:
    """Write the ``rom_boxplot.csv``, ``torque_boxplot.csv`` and ``repeatability.csv`` of a
    study report into ``out_dir``; returns the paths written."""
    out_dir = Path(out_dir)
    written = []
    for fname, section in (("rom_boxplot.csv", "rom_total_deg"),
                           ("torque_boxplot.csv", "tau_rms_nm")):
        groups = report.get(section, {})
        written.append(out_dir / fname)
        _write_csv(written[-1], ["spring", *_BOX_KEYS],
                   ([_fmt(spring)] + [_fmt(groups[spring][k]) for k in _BOX_KEYS]
                    for spring in sorted(groups)))
    repeat = report.get("repeatability", {})
    written.append(out_dir / "repeatability.csv")
    _write_csv(written[-1], ["spring", "posture", "mean_delta_deg", "sd_delta_deg", "n"],
               (list(map(_fmt, (spring, posture, cell["mean"], cell["sd"], cell["n"])))
                for spring in sorted(repeat)
                for posture, cell in sorted(repeat[spring].items())))
    return written
