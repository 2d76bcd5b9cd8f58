import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wristkit.biomech import TorqueCurve
from wristkit.errors import DataError
from wristkit.transmission import Gearing
from wristkit.trials import BUTTONS, TrialLog, clean_interpolate, trial_metrics
from wristkit import fileio

import corpus


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=20,
                       unique_by=lambda point: point[0]))
@example(points=[(-1e308, 1e308), (1e308, -1e308)])  # np.diff of the angles overflows
@example(points=[(-0.0, -0.0), (5e-324, -5e-324), (0.52, 2.2250738585072014e-308)])
def test_torque_curve_round_trip(tmp_path_factory, points):
    angles, moments = zip(*sorted(points))
    curve = TorqueCurve(np.array(angles), np.array(moments), "P2")
    path = tmp_path_factory.getbasetemp() / "curve.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fileio.write_torque_curve(path, curve)
        back = fileio.read_torque_curve(path, "P2")
    assert path.read_text() == "angle_rad,moment_Nm\n" + "".join(
        f"{a!r},{m!r}\n" for a, m in zip(angles, moments))
    for column, written in ((back.angles, curve.angles), (back.moments, curve.moments)):
        assert column.tobytes() == written.tobytes()  # -0.0 keeps its sign
        assert column.flags.c_contiguous  # fit_linear sums it
    assert back.posture_label == "P2"


def test_long_curve_is_written_in_bounded_chunks(tmp_path, monkeypatch):
    angles = np.linspace(-1.0, 1.0, 10_000)
    moments = np.sin(7.0 * angles) / 3.0
    pieces = []
    write_text = fileio._write_text

    def spy(path, text):
        assert not isinstance(text, str)
        write_text(path, (pieces.append(piece) or piece for piece in text))
    monkeypatch.setattr(fileio, "_write_text", spy)
    path = tmp_path / "curve.csv"
    fileio.write_torque_curve(path, TorqueCurve(angles, moments))
    assert path.read_text() == "angle_rad,moment_Nm\n" + "".join(
        f"{a!r},{m!r}\n" for a, m in zip(angles.tolist(), moments.tolist()))
    assert "".join(pieces) == path.read_text()
    assert len(pieces) == 20 and max(piece.count("\n") for piece in pieces) <= 512


def _curve_write_peak(path, n) -> int:
    """Bytes ``write_torque_curve`` adds at its peak for an ``n``-row curve, traced."""
    curve = TorqueCurve(np.linspace(-1.0, 1.0, n), np.sin(np.linspace(-7.0, 7.0, n)) / 3.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fileio.write_torque_curve(path, curve)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_curve_write_peak_does_not_grow_with_the_curve(tmp_path):
    """Only one chunk's slice of each column is turned into Python floats at a time:
    whole-column lists made the peak grow by about 1.1 MiB from 2,000 to 20,000 rows."""
    small = _curve_write_peak(tmp_path / "c.csv", 2_000)
    large = _curve_write_peak(tmp_path / "c.csv", 20_000)
    assert large - small <= 16 * 1024


def test_torque_curve_header_and_parse_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("theta,torque\n0,0.1\n")
    with pytest.raises(DataError, match="h.csv:1"):
        fileio.read_torque_curve(bad_header)

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("angle_rad,moment_Nm\n0.0,0.1\noops,0.2\n")
    with pytest.raises(DataError, match="v.csv:3"):
        fileio.read_torque_curve(bad_value)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        fileio.read_torque_curve(empty)

    unordered = tmp_path / "u.csv"
    unordered.write_text("angle_rad,moment_Nm\n0.5,0.1\n0.2,0.2\n")
    with pytest.raises(DataError, match="increasing"):
        fileio.read_torque_curve(unordered)

    with pytest.raises(DataError):
        fileio.read_torque_curve(tmp_path / "missing.csv")


def test_spring_catalog(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("name,stiffness_Nmm_per_deg\nS1,10.66\nS2,11.71\nS3,13.2\n")
    entries = fileio.read_spring_catalog(path)
    assert [e.name for e in entries] == ["S1", "S2", "S3"]
    assert entries[2].stiffness == 13.2

    path.write_text("name,stiffness_Nmm_per_deg\nS1,-4\n")
    with pytest.raises(DataError, match="catalog.csv:2"):
        fileio.read_spring_catalog(path)

    path.write_text("name,stiffness_Nmm_per_deg\n")
    with pytest.raises(DataError, match="no entries"):
        fileio.read_spring_catalog(path)


def test_parse_trial_filename():
    meta = fileio.parse_trial_filename("P1_POS1_loaded_300g_S1_T3.csv")
    assert meta is not None
    assert meta.participant == "P1"
    assert meta.posture == "POS1"
    assert meta.load == "loaded_300g"
    assert meta.spring == "S1"
    assert meta.trial_index == 3

    meta = fileio.parse_trial_filename("P12_POS2_unloaded_S3_T1.csv")
    assert meta is not None and meta.participant == "P12" and meta.spring == "S3"
    # a posture is its number, as a trial index is, so POS01 and POS\u0661 are POS1
    assert {fileio.parse_trial_filename(name).posture
            for name in ("P1_POS1_unloaded_S1_T1.csv", "P1_POS01_unloaded_S1_T1.csv",
                         "P1_POS\u0661_unloaded_S1_T1.csv")} == {"POS1"}
    # a study's trials share their label strings and hold no per-record dict
    again = fileio.parse_trial_filename("P12_POS2_unloaded_S3_T2.csv")
    assert all(getattr(again, label) is getattr(meta, label)
               for label in ("participant", "posture", "load", "spring"))
    assert not hasattr(meta, "__dict__")

    for name in ("likert.csv", "report.json", "P1_POS1_S1_T1.csv",
                 "P1_POS1_heavy_S1_T1.csv", "P1_POSX_unloaded_S1_T1.csv",
                 "P1_POS1_unloaded_S1_T0.csv"):
        assert fileio.parse_trial_filename(name) is None


def test_read_trial_log(tmp_path):
    path = tmp_path / "P1_POS1_unloaded_S1_T1.csv"
    path.write_text("t_s,angle_deg,current_mA,button\n"
                    "0,-1.5,100,B2\n"
                    "0.01,,110,\n"
                    "0.02,3.5,,B4\n")
    log = fileio.read_trial_log(path, fileio.parse_trial_filename(path.name))
    assert list(log.time) == [0.0, 0.01, 0.02]
    assert log.angle_deg[0] == -1.5 and math.isnan(log.angle_deg[1])
    assert math.isnan(log.current_ma[2])
    assert log.button == ("B2", "", "B4")
    assert log.meta.participant == "P1"


def test_read_trial_log_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t_s,angle_deg,current_mA,button\n0,1,2,B7\n")
    with pytest.raises(DataError, match="button"):
        fileio.read_trial_log(path)
    path.write_text("t_s,angle_deg,current_mA,button\n")
    with pytest.raises(DataError, match="no samples"):
        fileio.read_trial_log(path)
    path.write_text("t_s,angle_deg,current_mA,button\n0,1,2\n")
    with pytest.raises(DataError, match="t.csv:2"):
        fileio.read_trial_log(path)
    path.write_text("t_s,angle_deg,current_mA,button\n0.02,1,2,\n0.01,1,2,\n")
    with pytest.raises(DataError, match="increasing"):
        fileio.read_trial_log(path)


@pytest.mark.parametrize("times, message", [
    (("-1e308", "1e308"), None),  # np.diff of these times overflows
    (("0.01", "0.01"), "timestamps must be strictly increasing"),
    (("0.02", "0.01"), "timestamps must be strictly increasing"),
    # a time that is not finite is named as such wherever it lies, even beside a repeat
    (("0", "nan", "0.02"), "timestamps must be finite"),
    (("0", "0.01", "inf"), "timestamps must be finite"),
    (("-inf", "0", "0.01"), "timestamps must be finite"),
    (("0.01", "0.01", "nan"), "timestamps must be finite"),
    (("nan",), "timestamps must be finite"),
    (("0", "0.01", "0.01", "0.02"), "timestamps must be strictly increasing")])
def test_trial_log_time_order_is_checked_without_overflow(tmp_path, times, message):
    path = tmp_path / "t.csv"
    path.write_text("t_s,angle_deg,current_mA,button\n" + "".join(f"{t},1,2,\n" for t in times))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert fileio.read_trial_log(path).time.tolist() == [-1e308, 1e308]
            return
        with pytest.raises(DataError) as info:
            fileio.read_trial_log(path)
    assert str(info.value) == f"{path}: {message}"


def test_trial_log_round_trip(tmp_path):
    src = tmp_path / "P3_POS2_unloaded_S2_T1.csv"
    angle, current, buttons = corpus._trace_cents(5000, 420)
    src.write_text(corpus._csv_text(angle, current, buttons, missing=(150,)))
    log = fileio.read_trial_log(src, fileio.parse_trial_filename(src.name))
    dst = tmp_path / "copy.csv"
    fileio.write_trial_log(dst, log)
    again = fileio.read_trial_log(dst)
    assert np.array_equal(log.time, again.time)
    assert np.array_equal(log.angle_deg, again.angle_deg, equal_nan=True)
    assert np.array_equal(log.current_ma, again.current_ma, equal_nan=True)
    assert log.button == again.button


_CHANNEL = st.one_of(_FINITE, st.just(math.nan))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(samples=st.lists(st.tuples(_FINITE, _CHANNEL, _CHANNEL, st.sampled_from(BUTTONS)),
                        min_size=1, max_size=20, unique_by=lambda sample: sample[0]))
@example(samples=[(10000.0, 1.2345678, math.nan, ""), (10000.01, 0.0, 1.0, "B2")])
def test_trial_log_write_then_read_is_exact(tmp_path_factory, samples):
    time, angle, current, button = zip(*sorted(samples))
    log = TrialLog(np.array(time), np.array(angle), np.array(current), button)
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    fileio.write_trial_log(path, log)
    back = fileio.read_trial_log(path)
    assert np.array_equal(back.time, log.time)
    assert np.array_equal(back.angle_deg, log.angle_deg, equal_nan=True)
    assert np.array_equal(back.current_ma, log.current_ma, equal_nan=True)
    assert back.button == log.button


def test_row_error_names_the_line_after_a_multi_line_cell(tmp_path):
    # the quoted cell opened on line 2 closes on line 3, so the bad row is line 5
    path = tmp_path / "t.csv"
    path.write_text('t_s,angle_deg,current_mA,button\n"1\n",2,3,\n2,1,1,\nx,1,1,\n')
    with pytest.raises(DataError, match=r"t\.csv:5: t_s is not a number: 'x'$"):
        fileio.read_trial_log(path)


def test_csv_reader_rejects_undecodable_or_oversized_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"t_s,angle_deg,current_mA,button\n0,1,2,\n0.01,1\xff,2,\n")
    with pytest.raises(DataError, match=r"t.csv:3: not UTF-8 text"):
        fileio.read_trial_log(path)
    path.write_text("t_s,angle_deg,current_mA,button\n0," + "1" * 200_000 + ",2,\n")
    with pytest.raises(DataError, match=r"t.csv:2: field larger than field limit"):
        fileio.read_trial_log(path)


def _trial_log_outcome(path):
    """What ``read_trial_log`` makes of ``path``: the channels' bytes (NaN bits
    included) and the buttons, or the ``DataError`` message."""
    try:
        log = fileio.read_trial_log(path)
    except DataError as exc:
        return str(exc)
    return log.time.tobytes(), log.angle_deg.tobytes(), log.current_ma.tobytes(), log.button


def _curve_outcome(path):
    """What ``read_torque_curve`` makes of ``path``: the columns' bytes, or the
    ``DataError`` message."""
    try:
        curve = fileio.read_torque_curve(path)
    except DataError as exc:
        return str(exc)
    return curve.angles.tobytes(), curve.moments.tobytes()


def _assert_readers_agree(path, outcome=_trial_log_outcome):
    """The column reader and the row reader alone give the same ``outcome``."""
    with mock.patch.object(fileio, "_plain_table", lambda text, header, dtype: None):
        by_rows = outcome(path)
    assert outcome(path) == by_rows
    return by_rows


_HOSTILE = ["", "1.5", "-3", "1e999", "-inf", "nan", "-nan", "1_0", "\u0661", " 1", "1 ",
            "\xa0", "\xa01", "1\x1f", "\x0b1", "\x1f", "\x00", '"2"', '"', "\t", "x", "1e",
            "1,2", ",", "B2", "0x10", "1" * 20, "+3.5", ".5", "5.", "-0", "1E-5", "infinity",
            "+nan", "nan(1)", "0x1p3", "1d5", "1.2345678901234567", "1\x85", "\u20281"]
_BUTTON_CELLS = [*BUTTONS, "B7", "b2", " B2", "B2\xa0", '"B2"', "B2,", "1", "\x00", "B2\x00",
                 "B2\x1c", "B22"]


@st.composite
def _near_valid_trial_logs(draw):
    """Trial-log text: increasing times and plausible cells, some of them hostile."""
    n = draw(st.integers(1, 12))
    rows = []
    for k in range(n):
        cells = [f"{k / 100}", draw(st.sampled_from(["", "1.5", "-2.25", "40"])),
                 draw(st.sampled_from(["", "350", "412.5"])), draw(st.sampled_from(BUTTONS))]
        if draw(st.integers(0, 5)) == 0:
            column = draw(st.integers(0, 3))
            cells[column] = draw(st.sampled_from(_BUTTON_CELLS if column == 3 else _HOSTILE)
                                 | st.text(max_size=3))
        rows.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.sampled_from(["", ",,,", ",,", ",,,,", "\xa0,,,"])))
    header = "t_s,angle_deg,current_mA,button"
    header = draw(st.sampled_from([header] * 4 + [header.replace(",", ", ", 1), "\ufeff" + header]))
    eol = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r", "\x0b", "\u2028"]))
    return eol.join([header, *rows]) + draw(st.sampled_from([eol, ""]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=_near_valid_trial_logs())
@example(text='t_s,angle_deg,current_mA,button\n0,"1.5",2,\n0.01,1,2,B2\n')
@example(text="t_s,angle_deg,current_mA,button\r\n0,1.5,2,\r\n0.01,1,2,B2\r\n")
@example(text="t_s,angle_deg,current_mA,button\n0, 1.5 ,2,\n0.01,1,2,B2\n")
@example(text="t_s,angle_deg,current_mA,button\n0,1_0,2,\n0.01,1,2,B2\n")
@example(text="t_s,angle_deg,current_mA,button\n0,1,2,,0.01\n1,2,\n")  # 5 + 3 cells
@example(text="t_s,angle_deg,current_mA,button\n0,\x0b1,2,\n")  # a line break to the row reader
@example(text="t_s,angle_deg,current_mA,buttons\n0,1,2,\n")  # another header
@example(text="t_s,angle_deg,current_mA,button\n0,1,2,B22\n")  # U2 would cut it to B2
@example(text="t_s,angle_deg,current_mA,button\n0,1,2,B2\x00\n")  # numpy drops a trailing NUL
# loadtxt strips each of these around a number, where splitlines ends the line
@example(text="t_s,angle_deg,current_mA,button\n0,1\x0b,2,\n")
@example(text="t_s,angle_deg,current_mA,button\n0,1\x0c,2,\n")
@example(text="t_s,angle_deg,current_mA,button\n0,1\x1c,2,\n")
@example(text="t_s,angle_deg,current_mA,button\n0,1\x1d,2,\n")
@example(text="t_s,angle_deg,current_mA,button\n0,1\x1e,2,\n")
@example(text="t_s,angle_deg,current_mA,button\n0,1\x85,2,\n")  # and non-ASCII ones
def test_column_and_row_readers_agree(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _assert_readers_agree(path)


@st.composite
def _near_valid_curves(draw):
    """Curve text: increasing angles and plausible moments, some cells hostile and
    some rows of the wrong shape."""
    rows = []
    for k in range(draw(st.integers(1, 12))):
        cells = [f"{k / 10 - 0.5}", draw(st.sampled_from(["0.25", "-1.5e-3", "0", "7"]))]
        if draw(st.integers(0, 4)) == 0:
            cells[draw(st.integers(0, 1))] = draw(st.sampled_from(_HOSTILE) | st.text(max_size=3))
        rows.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.sampled_from(["", ",", "0.05", "0.05,1,2", "\xa0,"])))
    header = "angle_rad,moment_Nm"
    header = draw(st.sampled_from([header] * 4 + [header.replace(",", ", "), "\ufeff" + header]))
    eol = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r", "\x0b", "\u2028"]))
    return eol.join([header, *rows]) + draw(st.sampled_from([eol, ""]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=_near_valid_curves())
@example(text="angle_rad,moment_Nm\n0,1_0\n0.1,2\n")
@example(text="angle_rad,moment_Nm\n0, 1 \n0.1,2\n")  # a padded cell
@example(text="angle_rad,moment_Nm\n0,nan\n0.1,2\n")
@example(text="angle_rad,moment_Nm\n0,1\ninf,2\n")
@example(text="angle_rad,moment_Nm\n")  # header only
@example(text="angle_rad,moment_Nm\n0\u2028,1\n")  # loadtxt strips it, splitlines ends the line
def test_curve_column_and_row_readers_agree(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "curve.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _assert_readers_agree(path, _curve_outcome)


@pytest.mark.parametrize("reader, text, message", [
    (fileio.read_trial_log, "t_s,angle_deg,current_mA,button\n0,1,2,\n0.01,x,2,\n",
     "3: angle_deg is not a number: 'x'"),
    (fileio.read_torque_curve, "angle_rad,moment_Nm\n0,1\n0.1,1,2\n",
     "3: expected 2 fields, got 3"),
    # plainly written, so parsed in columns, which the log or curve then refuses
    (fileio.read_trial_log, "t_s,angle_deg,current_mA,button\n0,1,2,\n0.01,1,2,B7\n",
     "3: unknown button 'B7'"),
    (fileio.read_trial_log, "t_s,angle_deg,current_mA,button\n0,1,2,\n0,1,2,\n",
     " timestamps must be strictly increasing"),
    (fileio.read_torque_curve, "angle_rad,moment_Nm\n0,nan\n0.1,1\n",
     " curve samples must be finite")],
    ids=["trial log", "curve", "unknown button", "repeated time", "nan moment"])
def test_a_malformed_file_is_read_from_disk_once(tmp_path, reader, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with mock.patch.object(fileio, "_read_text", wraps=fileio._read_text) as read_text:
        with pytest.raises(DataError) as info:
            reader(path)
    assert str(info.value) == f"{path}:{message}"
    assert read_text.call_count == 1


@pytest.mark.parametrize("text, message", [
    ("angle_rad,moment_Nm\n0,1\n0.1,,2\n", ":3: expected 2 fields, got 3"),
    ("angle_rad,moment_Nm\n0,1\n0.1,2,,\n", ":3: expected 2 fields, got 4")])
def test_a_curve_row_holding_two_commas_keeps_its_message(tmp_path, text, message):
    """Blank cells are spelled ``nan`` for every plain file, but such a curve row has a
    third cell, so ``loadtxt`` declines it and the row reader names it."""
    path = tmp_path / "c.csv"
    path.write_text(text)
    assert _assert_readers_agree(path, _curve_outcome) == f"{path}{message}"


def test_a_blank_curve_row_of_commas_is_skipped(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("angle_rad,moment_Nm\n0,1\n0.1,2\n")
    plain = _curve_outcome(path)
    path.write_text("angle_rad,moment_Nm\n0,1\n,,\n0.1,2\n")
    assert _assert_readers_agree(path, _curve_outcome) == plain


@pytest.mark.parametrize("reader, text, message", [
    (fileio.read_torque_curve, "angle_rad,moment_Nm\n0,1\n0.1,x\n",
     ":3: moment_Nm is not a number: 'x'"),
    (fileio.read_torque_curve, "angle_rad,moment_Nm\n0,nan\n0.1,1\n",
     ": curve samples must be finite"),
    (fileio.read_trial_log, "t_s,angle_deg,current_mA,button\n0,1,2,\n0.01,1,2,B7\n",
     ":3: unknown button 'B7'"),
    (fileio.read_trial_log, "t_s,angle_deg,current_mA,button\n0,1,2,\n0,1,2,\n",
     ": timestamps must be strictly increasing"),
    (fileio.read_spring_catalog, "name,stiffness_Nmm_per_deg\n,10\n", ":2: empty spring name"),
    (fileio.read_spring_catalog, "name,stiffness_Nmm_per_deg\n", ": catalog has no entries"),
    (fileio.read_likert_responses, "participant,item\n", ":1: expected header "
     "'participant,item,score', got 'participant,item'"),
    (fileio.read_report, "{\n]", ":2: malformed JSON: Expecting property name enclosed in "
     "double quotes"),
    (fileio.read_report, "[]", ": report must be a JSON object")],
    ids=["curve row", "curve", "log row", "log", "catalog row", "catalog", "likert",
         "report line", "report"])
def test_a_file_is_named_as_its_caller_wrote_it(tmp_path, monkeypatch, reader, text, message):
    """A row error and a refusal of the whole file both name ``./x.csv``, not ``x.csv``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text(text)
    with pytest.raises(DataError) as info:
        reader("./x.csv")
    assert str(info.value) == f"./x.csv{message}"


def test_a_trial_log_with_a_byte_order_mark_gives_the_same_metrics(tmp_path, corpus_dir):
    log = sorted(corpus_dir.glob("P*.csv"))[0]
    marked = tmp_path / log.name
    marked.write_bytes(b"\xef\xbb\xbf" + log.read_bytes())

    def metrics(path):
        cleaned, fraction = clean_interpolate(fileio.read_trial_log(path))
        return trial_metrics(cleaned, Gearing(), fraction)
    assert metrics(marked) == metrics(log)


@pytest.mark.parametrize("outcome, text", [
    (_curve_outcome, "angle_rad,moment_Nm\n0,1\n0.1,2\n"),
    (_curve_outcome, "angle_rad,moment_Nm\n0,1\n0.1,x\n"),
    (fileio.read_spring_catalog, "name,stiffness_Nmm_per_deg\nS1,10\n"),
    (fileio.read_likert_responses, "participant,item,score\nP1,size,3\n"),
    (fileio.read_report, '{"n_trials": 1}\n')],
    ids=["curve", "curve row error", "catalog", "likert", "report"])
def test_a_byte_order_mark_is_dropped(tmp_path, outcome, text):
    """Spreadsheets that save "CSV UTF-8" start the file with one."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text)
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert str(outcome(marked)).replace("marked", "plain") == str(outcome(plain))


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order mark"])
def test_a_bad_byte_names_its_line(tmp_path, mark):
    path = tmp_path / "t.csv"
    path.write_bytes(mark + b"t_s,angle_deg,current_mA,button\n0,1,2,\n0.01,\xff,2,\n")
    with pytest.raises(DataError) as info:
        fileio.read_trial_log(path)
    assert str(info.value) == f"{path}:3: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order mark"])
@pytest.mark.parametrize("body", [b"a,b\nc\n", b"a,b\r\nc\r\n", b"a,b\rc\r",
                                  b"a\r\nb\rc\nd\r\r\ne\n\rf\r", b"a\r", b"\r\n", b""],
                         ids=["LF", "CRLF", "CR", "mixed", "trailing CR", "CRLF only", "empty"])
def test_read_text_reads_as_a_text_file(tmp_path, mark, body):
    """Line ends as universal newlines read them, the mark dropped as before."""
    path = tmp_path / "t.csv"
    path.write_bytes(mark + body * 1000)
    with open(path, encoding="utf-8") as handle:
        assert fileio._read_text(path) == handle.read().removeprefix("\ufeff")


@pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
def test_a_bad_byte_past_the_first_8_kib_names_its_line(tmp_path, end):
    path = tmp_path / "t.csv"
    lines = [b"t_s,angle_deg,current_mA,button"] + [b"%d,1,2," % k for k in range(2000)]
    lines[1500] = b"1500,\xff,2,"
    path.write_bytes(end.join(lines) + end)
    assert path.stat().st_size > 8192 * 2
    with pytest.raises(DataError) as info:
        fileio.read_trial_log(path)
    assert str(info.value) == f"{path}:1501: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
def test_the_start_of_a_byte_order_mark_is_not_text(tmp_path, data):
    """Read through a text file, "utf-8-sig" would take these bytes for an empty file."""
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(DataError) as info:
        fileio.read_trial_log(path)
    assert str(info.value) == f"{path}:1: not UTF-8 text (unexpected end of data)"


_WRITTEN_NUMBER = st.tuples(st.floats(allow_infinity=False),
                            st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_WRITTEN_NUMBER, min_size=3, max_size=3), min_size=1, max_size=20))
def test_column_path_reads_each_number_as_float_does(tmp_path_factory, rows):
    by_time = {}  # rows in order of distinct finite times, as a trial log needs them
    for row in rows:
        cells = [fmt(value) for value, fmt in row]
        if math.isfinite(float(cells[0])):
            by_time.setdefault(float(cells[0]), cells)
    assume(by_time)
    cells = [by_time[t] for t in sorted(by_time)]
    path = tmp_path_factory.getbasetemp() / "t.csv"
    path.write_text("\n".join(["t_s,angle_deg,current_mA,button",
                               *(",".join(row) + "," for row in cells)]))
    with mock.patch.object(fileio, "_records", side_effect=AssertionError("row reader")):
        log = fileio.read_trial_log(path)  # so the columns are loadtxt's
    for k, column in enumerate((log.time, log.angle_deg, log.current_ma)):
        # compared as bytes, so NaN bits count too
        assert column.tobytes() == np.array([float(row[k]) for row in cells]).tobytes()
        assert column.flags.c_contiguous  # a strided view may sum to other bits


@pytest.mark.parametrize("reader, header, message, body", [
    pytest.param(reader, header, message, body, id=prefix + body)
    for prefix, reader, header, message in [
        ("", fileio.read_trial_log, "t_s,angle_deg,current_mA,button", "trial log has no samples"),
        ("curve", fileio.read_torque_curve, "angle_rad,moment_Nm",
         "curve must contain at least one sample")]
    for body in ["", "\n", "\n\n\n"]])
def test_a_log_without_samples_fails_without_a_warning(tmp_path, capsys, reader, header,
                                                       message, body):
    path = tmp_path / "t.csv"
    path.write_text(header + "\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as info:
            reader(path)
    assert str(info.value) == f"{path}: {message}"
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("row, message", [
    ("0.95,n/a,350,", "angle_deg is not a number: 'n/a'"),
    ("0.95,1.5,350,B7", "unknown button 'B7'")])
def test_late_bad_row_keeps_its_line_number(tmp_path, row, message):
    rows = [f"{k / 100},1.5,350,B2" for k in range(100)]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(["t_s,angle_deg,current_mA,button", *rows]) + "\n")
    with mock.patch.object(fileio, "_records", side_effect=AssertionError("row reader")):
        fileio.read_trial_log(path)  # plain: read column-wise
    rows[95] = row  # in the last tenth of the rows, on line 97
    path.write_text("\n".join(["t_s,angle_deg,current_mA,button", *rows]) + "\n")
    assert _assert_readers_agree(path) == f"{path}:97: {message}"


def test_likert_reader(tmp_path):
    path = tmp_path / "likert.csv"
    path.write_text("participant,item,score\nP1,size,3\nP2,weight,7\n")
    responses = fileio.read_likert_responses(path)
    assert len(responses) == 2
    assert responses[1].item == "weight" and responses[1].score == 7
    path.write_text("participant,item,score\nP1,size,high\n")
    with pytest.raises(DataError, match="likert.csv:2"):
        fileio.read_likert_responses(path)
    path.write_text("participant,item,score\nP1,size,12\n")
    with pytest.raises(DataError, match="likert.csv:2"):
        fileio.read_likert_responses(path)
    path.write_text("participant,item,score\n\n")
    with pytest.raises(DataError, match=r"likert\.csv: no responses$"):
        fileio.read_likert_responses(path)


def test_likert_reader_rejects_a_repeated_answer(tmp_path):
    """A second answer to one item would count its participant twice."""
    path = tmp_path / "likert.csv"
    path.write_text("participant,item,score\nP1,size,2\nP2,size,4\nP1,weight,5\nP1,size,9\n")
    with pytest.raises(DataError) as info:
        fileio.read_likert_responses(path)
    assert str(info.value) == f"{path}:5: P1 already answered 'size'"


def test_report_rendering_is_deterministic(tmp_path):
    report = {"b": 1.23456789, "a": {"z": [0.1, 2.0]}, "n": 3}
    text1 = fileio.render_report(report)
    text2 = fileio.render_report(json.loads(text1))
    assert text1 == text2
    assert json.loads(text1)["b"] == 1.23457  # six significant digits
    path = tmp_path / "r.json"
    fileio.write_report(path, report)
    assert fileio.read_report(path) == json.loads(text1)
    path.write_text("not json")
    with pytest.raises(DataError, match="malformed"):
        fileio.read_report(path)
    path.write_text("[1, 2]")
    with pytest.raises(DataError, match="object"):
        fileio.read_report(path)


def test_report_reader_rejects_undecodable_or_unparsable_json(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(b'{"a":\n "\xff"}\n')
    with pytest.raises(DataError, match=r"r.json:2: not UTF-8 text"):
        fileio.read_report(path)
    for text in ('{"n": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000):
        path.write_text(text)
        with pytest.raises(DataError, match=r"r.json: malformed JSON"):
            fileio.read_report(path)


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\udc80é😀')),
               max_size=6)
_FLOATS = st.one_of(st.floats(), st.floats().map(np.float64), st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 1e16,
     999999.5, 9.999995e-5]))
_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200), _FLOATS,
              _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=40)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tree=st.dictionaries(_TEXT, _TREES, max_size=5))
def test_report_rendering_matches_the_json_module(tmp_path_factory, tree):
    text = corpus.render(tree)  # json.dumps of the rounded copy, the report contract
    assert fileio.render_report(tree) == text
    path = tmp_path_factory.getbasetemp() / "report.json"
    fileio.write_report(path, tree)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("tree", [
    {"a": object()}, {"a": [1.0, {"b": (2, object())}]}, {"a": np.int64(1)},
    {1: 2.0}, {"a": {None: 1}}, {"a": {"b": 1, 2: 3}}])
def test_report_rendering_refuses_what_json_cannot_write(tree):
    with pytest.raises(TypeError):
        fileio.render_report(tree)


def test_float_rounding_examples():
    rendered = fileio.render_report({
        "x": 0.7975034567, "y": 123456.789, "tiny": 1.2345678e-7, "i": 42})
    data = json.loads(rendered)
    assert data["x"] == 0.797503
    assert data["y"] == 123457.0
    assert data["tiny"] == 1.23457e-7
    assert data["i"] == 42 and isinstance(data["i"], int)


def test_plot_csvs(tmp_path):
    report = {
        "rom_total_deg": {"S1": {"min": 40.0, "q1": 45.0, "median": 50.0,
                                 "q3": 55.0, "max": 60.0, "n": 10}},
        "tau_rms_nm": {"S1": {"min": 0.001, "q1": 0.002, "median": 0.003,
                              "q3": 0.004, "max": 0.005, "n": 10}},
        "repeatability": {"S1": {"POS1": {"mean": 2.5, "sd": 0.5, "n": 5},
                                 "overall": {"mean": 2.5, "sd": 0.5, "n": 5}}},
    }
    written = fileio.write_plot_csvs(report, tmp_path / "plots")
    assert [p.name for p in written] == ["rom_boxplot.csv", "torque_boxplot.csv",
                                         "repeatability.csv"]
    rom_text = (tmp_path / "plots" / "rom_boxplot.csv").read_text()
    assert rom_text.splitlines()[0] == "spring,min,q1,median,q3,max,n"
    assert rom_text.splitlines()[1] == "S1,40,45,50,55,60,10"
    rep_text = (tmp_path / "plots" / "repeatability.csv").read_text()
    assert rep_text.splitlines()[1] == "S1,POS1,2.5,0.5,5"
    assert rep_text.splitlines()[2] == "S1,overall,2.5,0.5,5"


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_bytes(b"old report\n")
    # an unencodable character fails the write after the temporary file is open
    with pytest.raises(UnicodeEncodeError):
        fileio._write_text(target, "new \udc80 report\n")
    assert target.read_bytes() == b"old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    # a report that fails to render part way through is never half written
    report = {"n_trials": 3, "trials": [{"rom_total_deg": 50.0}, {"rom_total_deg": 51.0},
                                        {"rom_total_deg": object()}]}
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        fileio.write_report(target, report)
    assert target.read_bytes() == b"old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    # a failing rename (a full disk, say) names the target, not the temporary file
    def no_space(src, dst):
        raise OSError(28, "No space left on device", str(src))
    monkeypatch.setattr(fileio.os, "replace", no_space)
    with pytest.raises(OSError, match=r"No space left on device: '.*/report\.json'$"):
        fileio.write_report(target, {"n_trials": 1})
    assert target.read_bytes() == b"old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
