import csv
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wristkit.cli import MAX_SAMPLES, _plain_args, build_parser, main
from wristkit import fileio

import corpus


def run(argv):
    return main(argv)


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--posture", "P9", "--out", "x.csv"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        run(["frobnicate"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 1
    capsys.readouterr()


def test_simulate_single_posture(tmp_path, capsys):
    out = tmp_path / "p3.csv"
    assert run(["simulate", "--posture", "P3", "--samples", "50",
                "--out", str(out)]) == 0
    curve = fileio.read_torque_curve(out)
    assert len(curve.angles) == 50
    assert capsys.readouterr().out.startswith("P3:")


def test_simulate_all_flags_worst_case(tmp_path, capsys):
    out = tmp_path / "curves"
    assert run(["simulate", "--posture", "all", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["P1.csv", "P2.csv", "P3.csv"]
    assert "worst case: P3" in capsys.readouterr().out


def test_simulate_custom_posture(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run(["simulate", "--posture", "custom", "--shoulder-deg", "10",
                "--elbow-deg", "90", "--pronation-deg", "45",
                "--out", str(out)]) == 0
    assert out.exists()
    assert run(["simulate", "--posture", "custom", "--out", str(out)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--shoulder-deg", "--elbow-deg", "--pronation-deg"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_custom_angle(tmp_path, capsys, flag, value):
    angles = {"--shoulder-deg": "10", "--elbow-deg": "90", "--pronation-deg": "45", flag: value}
    out = tmp_path / "c.csv"
    argv = [arg for pair in angles.items() for arg in pair]
    assert run(["simulate", "--posture", "custom", *argv, "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"config error: {flag} must be finite, got {value}\n")
    assert not out.exists()


def test_simulate_takes_a_negative_angle_in_exponent_form_after_equals(tmp_path, capsys):
    """argparse reads ``-1e1`` or ``-inf`` after a space as an option, not a value."""
    angles = ["--elbow-deg", "90", "--pronation-deg", "45"]
    for name, shoulder in (("a.csv", ["--shoulder-deg=-1e1"]),
                           ("b.csv", ["--shoulder-deg", "-10"])):
        assert run(["simulate", "--posture", "custom", *shoulder, *angles,
                    "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    capsys.readouterr()
    out = tmp_path / "c.csv"
    assert run(["simulate", "--posture", "custom", "--shoulder-deg", "10", "--elbow-deg", "90",
                "--pronation-deg=-inf", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "config error: --pronation-deg must be finite, got -inf\n")
    assert not out.exists()


@pytest.mark.parametrize("posture, angles, flag", [
    ("P1", ["--shoulder-deg", "5"], "--shoulder-deg"),
    ("all", ["--elbow-deg", "nan"], "--elbow-deg"),
    ("P3", ["--pronation-deg=-1e1", "--shoulder-deg", "0"], "--shoulder-deg"),
    (None, ["--pronation-deg", "45"], "--pronation-deg")])
def test_simulate_refuses_a_custom_angle_with_a_preset_posture(tmp_path, capsys, posture,
                                                                angles, flag):
    """A preset posture would ignore the angle flag and write its own curve."""
    out = tmp_path / "curves"
    argv = ["simulate", *(["--posture", posture] if posture else []), *angles, "--out", str(out)]
    assert run(argv) == 3
    assert capsys.readouterr() == ("", f"config error: {flag} needs --posture custom, "
                                       f"got --posture {posture or 'all'}\n")
    assert not out.exists()


@pytest.mark.parametrize("samples", [1, MAX_SAMPLES + 1, 10**20])
def test_simulate_rejects_a_sample_count_out_of_range(tmp_path, capsys, samples):
    # never run a count inside the bound but large: numpy would allocate it
    out = tmp_path / "curves"
    assert run(["simulate", "--samples", str(samples), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"config error: --samples must be an integer in "
                                       f"[2, {MAX_SAMPLES}], got {samples}\n")
    assert not out.exists()


def test_fit_golden_line(tmp_path, capsys):
    curve_path = tmp_path / "worst.csv"
    angles = np.linspace(-0.767945, 0.523599, 50)
    lines = ["angle_rad,moment_Nm"]
    lines += [f"{float(a)!r},{float(-0.7054 * a + 0.4157)!r}" for a in angles]
    curve_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "design.json"
    assert run(["fit", str(curve_path), "--out", str(out)]) == 0
    design = json.loads(out.read_text())
    assert design["fit"]["slope_nm_per_rad"] == pytest.approx(-0.7054, rel=1e-6)
    assert design["spring"]["stiffness_nm_per_rad"] == pytest.approx(0.7054, rel=1e-6)
    assert design["spring"]["stiffness_nmm_per_deg"] == pytest.approx(12.3117, abs=1e-3)
    assert design["spring"]["neutral_angle_rad"] == pytest.approx(0.589, abs=5e-4)
    assert design["catalog"]["nominal"]["name"] == "S2"
    assert design["catalog"]["softer"]["name"] == "S1"
    assert design["catalog"]["stiffer"]["name"] == "S3"
    assert design["worst_case"] == "worst"
    capsys.readouterr()


def test_fit_rejects_malformed_curve(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("angle_rad,moment_Nm\n0.0,zzz\n")
    assert run(["fit", str(bad)]) == 2
    assert "bad.csv:2" in capsys.readouterr().err
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["fit", str(empty)]) == 2
    capsys.readouterr()


def test_fit_names_a_curve_as_it_was_written(tmp_path, capsys, monkeypatch):
    """A bad row and a curve the type refuses name ``./x.csv`` alike."""
    monkeypatch.chdir(tmp_path)
    Path("row.csv").write_text("angle_rad,moment_Nm\n0,1\n0.1,x\n")
    Path("nan.csv").write_text("angle_rad,moment_Nm\n0,nan\n0.1,1\n")
    assert run(["fit", "./row.csv"]) == 2
    assert capsys.readouterr() == ("", "data error: ./row.csv:3: moment_Nm is not a number: "
                                       "'x'\n")
    assert run(["fit", "./nan.csv"]) == 2
    assert capsys.readouterr() == ("", "data error: ./nan.csv: curve samples must be finite\n")


@pytest.mark.parametrize("rows, message", [
    (["0.1,0.5"], "fit needs at least 2 samples"),
    (["-1e308,0", "0,1", "1e308,2"],
     "fit sums are not finite: the curve's angles or moments are too large"),
    (["0,-1", "1,-2"], "derived neutral angle -1 rad is negative: "
                       "the spring stays loaded across the whole motion range"),
    (["0,1", "1,2"], "fit slope 1 N*m/rad rises with angle: a clock spring's torque "
                     "falls with angle, so this spring would add to the moment"),
    (["0,0.4", "0.1,0.4", "0.2,0.4"], "cannot derive a spring from a zero-slope fit"),
], ids=["one-row", "angles-near-the-float-limit", "negative-neutral-angle-as-error",
        "rising-fit-as-error", "flat-curve"])
def test_fit_names_the_curve_it_cannot_size_a_spring_from(tmp_path, capsys, rows, message):
    mild, worst = tmp_path / "mild.csv", tmp_path / "worst.csv"
    mild.write_text("angle_rad,moment_Nm\n0,0.1\n1,0.2\n")
    worst.write_text("\n".join(["angle_rad,moment_Nm", *rows, ""]))
    out = tmp_path / "design.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["fit", str(mild), str(worst), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"data error: {worst}: {message}\n")
    assert not out.exists()


def test_fit_warning_names_the_worst_case_curve(tmp_path):
    mild, worst = tmp_path / "mild.csv", tmp_path / "worst.csv"
    mild.write_text("angle_rad,moment_Nm\n0,0.1\n1,0.2\n")
    worst.write_text("angle_rad,moment_Nm\n0,-1\n1,-2\n")
    out = tmp_path / "design.json"
    done = _python(["-m", "wristkit", "fit", str(mild), str(worst), "--out", str(out)],
                   "default")
    assert done.returncode == 0, done.stderr
    assert done.stderr == (f"warning: {worst}: derived neutral angle -1 rad is negative: "
                           "the spring stays loaded across the whole motion range\n")
    assert json.loads(out.read_text())["spring"]["neutral_angle_rad"] == -1.0


def test_simulate_writes_nothing_when_a_curve_cannot_be_fitted(tmp_path, capsys):
    cfg = tmp_path / "heavy.ini"
    cfg.write_text("[segments]\nhand_mass_kg = 1e300\n")
    out = tmp_path / "curves"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", str(cfg), "simulate", "--posture", "all", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "data error: P1: fit sums are not finite: "
                                       "the curve's angles or moments are too large\n")
    assert not out.exists()


def test_simulate_names_the_posture_whose_curve_is_not_finite(tmp_path, capsys):
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[load]\nhandheld_mass_kg = 1e308\ngrip_offset_m = 1e308\n")
    out = tmp_path / "curves"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", str(cfg), "simulate", "--posture", "all", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "data error: P1: curve samples must be finite\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["fit", "./ok.csv", "--out", "./outdir"], 2,
     "i/o error: [Errno 21] Is a directory: './outdir'"),
    (["--config", "./bad2.ini", "simulate", "--out", "./c.csv"], 3,
     "config error: ./bad2.ini: While reading from './bad2.ini' [line 2]: "
     "section 'load' already exists"),
    (["analyze", "./nonexist"], 2, "data error: not a directory: ./nonexist"),
    (["--config", "./bad.ini", "simulate", "--out", "./c.csv"], 3,
     "config error: ./bad.ini:3: not UTF-8 text (invalid start byte)"),
    # ./a is a file: the error names the output, not the directory it needed
    (["fit", "./ok.csv", "--out", "./a/b.json"], 2,
     "i/o error: [Errno 20] Not a directory: './a/b.json'"),
    (["fit", "./ok.csv", "--out", "./a/x/y.json"], 2,
     "i/o error: [Errno 20] Not a directory: './a/x/y.json'"),
    (["simulate", "--posture", "all", "--out", "./a"], 2,
     "i/o error: [Errno 20] Not a directory: './a/P1.csv'"),
    # a relative catalog_path joins the config file's directory as written
    (["--config", "./cfg/missing.ini", "simulate", "--out", "./c.csv"], 3,
     "config error: [springs] catalog_path not found: ./cfg/./nowhere.csv"),
    (["--config", "./cfg/t.ini", "simulate", "--out", "./c.csv"], 3,
     "config error: ./cfg/./s.csv:2: stiffness_Nmm_per_deg is not a number: 'bad'"),
    # a catalog lists each spring once, so no design names one spring twice
    (["fit", "./ok.csv", "--catalog", "./cfg/twice.csv"], 2,
     "data error: ./cfg/twice.csv:3: spring 'S3' already listed"),
    (["--config", "./cfg/twice.ini", "fit", "./ok.csv"], 3,
     "config error: ./cfg/./twice.csv:3: spring 'S3' already listed"),
    # a curve is labelled by its file's stem, so no design names a worst case two files share
    (["fit", "./ok.csv", "cfg/ok.csv"], 2,
     "data error: cfg/ok.csv: curve label 'ok' already used by ./ok.csv"),
    # an empty path is named '', as OSError names it
    (["--config", "", "simulate", "--out", "./c.csv"], 3,
     "config error: config file not found: ''"),
    (["analyze", ""], 2, "data error: not a directory: ''"),
    (["report", ""], 2, "data error: '': No such file or directory"),
], ids=["output-path", "config-file", "trial-dir", "config-byte", "parent-is-a-file",
        "ancestor-is-a-file", "out-dir-is-a-file", "catalog-missing", "catalog-bad-row",
        "catalog-repeat", "config-catalog-repeat", "curve-label-repeat", "empty-config",
        "empty-trial-dir", "empty-report"])
def test_messages_name_a_path_as_it_was_written(tmp_path, capsys, monkeypatch, argv, code,
                                                message):
    monkeypatch.chdir(tmp_path)
    Path("ok.csv").write_text("angle_rad,moment_Nm\n0,1\n1,0\n")
    Path("outdir").mkdir()
    Path("bad2.ini").write_text("[load]\n[load]\n")
    Path("bad.ini").write_bytes(b"[load]\nhandheld_mass_kg = 0.3\n# \xff\n")
    Path("a").write_text("not a directory\n")
    Path("cfg").mkdir()
    Path("cfg/missing.ini").write_text("[springs]\ncatalog_path = ./nowhere.csv\n")
    Path("cfg/t.ini").write_text("[springs]\ncatalog_path = ./s.csv\n")
    Path("cfg/s.csv").write_text("name,stiffness_Nmm_per_deg\nA,bad\n")
    Path("cfg/twice.ini").write_text("[springs]\ncatalog_path = ./twice.csv\n")
    Path("cfg/twice.csv").write_text("name,stiffness_Nmm_per_deg\nS3,13.2\nS3,11\nS4,9\n")
    assert run(argv) == code
    assert capsys.readouterr() == ("", message + "\n")
    assert sorted(os.listdir()) == ["a", "bad.ini", "bad2.ini", "cfg", "ok.csv", "outdir"]
    assert sorted(os.listdir("cfg")) == ["missing.ini", "s.csv", "t.ini", "twice.csv",
                                         "twice.ini"]
    assert os.listdir("outdir") == []


def test_fit_reports_the_pretension_of_a_pre_wound_spring(tmp_path, capsys):
    cfg = tmp_path / "wound.ini"
    cfg.write_text("[springs]\npre_wind_rad = 0.35\n")
    curve, out = tmp_path / "P3.csv", tmp_path / "design.json"
    assert run(["simulate", "--posture", "P3", "--out", str(curve)]) == 0
    assert run(["--config", str(cfg), "fit", str(curve), "--out", str(out)]) == 0
    spring = json.loads(out.read_text())["spring"]
    assert spring["pre_wind_rad"] == 0.35
    assert spring["pretension_torque_nm"] == pytest.approx(
        spring["stiffness_nm_per_rad"] * 0.35, rel=1e-5)
    capsys.readouterr()


def test_fit_to_stdout(tmp_path, capsys):
    curve_path = tmp_path / "c.csv"
    fileio_lines = ["angle_rad,moment_Nm"] + [f"{a / 10},{0.3 - 0.5 * a / 10}"
                                              for a in range(-5, 6)]
    curve_path.write_text("\n".join(fileio_lines) + "\n")
    assert run(["fit", str(curve_path)]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)
    assert payload["spring"]["stiffness_nm_per_rad"] == pytest.approx(0.5, rel=1e-9)
    assert run(["fit", str(curve_path), "--out", str(tmp_path / "design.json")]) == 0
    assert (tmp_path / "design.json").read_bytes() == stdout.encode()
    capsys.readouterr()
    # one path given twice is one curve
    assert run(["fit", str(curve_path), str(curve_path)]) == 0
    assert capsys.readouterr().out == stdout


def test_bad_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[transmission]\nefficiency = 2\n")
    assert run(["--config", str(cfg), "simulate", "--posture", "P1",
                "--out", str(tmp_path / "x.csv")]) == 3
    assert run(["--config", str(tmp_path / "missing.ini"), "simulate",
                "--posture", "P1", "--out", str(tmp_path / "x.csv")]) == 3
    capsys.readouterr()


def test_analyze_empty_dir_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert run(["analyze", str(tmp_path / "empty"),
                "--out", str(tmp_path / "r.json")]) == 2
    assert run(["analyze", str(tmp_path / "not-a-dir"),
                "--out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_analyze_corpus(tmp_path, capsys, corpus_dir):
    out = tmp_path / "report.json"
    plots = tmp_path / "plots"
    assert run(["analyze", str(corpus_dir), "--out", str(out),
                "--plots-dir", str(plots)]) == 0
    report = json.loads(out.read_text())
    assert report["n_trials"] == 180
    assert [r["file"] for r in report["rejected"]] == [corpus.REJECTED_NAME]
    assert set(report["friedman"]) == {"rom_total_deg", "tau_rms_nm"}
    assert report["likert"]["size"]["mean"] == pytest.approx(3.2)
    for name in ("rom_boxplot.csv", "torque_boxplot.csv", "repeatability.csv"):
        assert (plots / name).is_file()
    text = (plots / "rom_boxplot.csv").read_text()
    assert text.splitlines()[0] == "spring,min,q1,median,q3,max,n"
    assert len(text.splitlines()) == 4  # header + S1..S3
    capsys.readouterr()


def test_analyze_survives_torques_near_the_float_limit(tmp_path, capsys, corpus_dir,
                                                       expected_report_text):
    # every trial's tau_rms is finite near 1e308, but a sum of two is not:
    # the Friedman cell means must not overflow, and they keep their ranks
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[transmission]\ngear_ratio = 1\nefficiency = 1\n"
                   "torque_constant_nm_per_a = 1e308\n")
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["--config", str(cfg), "analyze", str(corpus_dir), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert max(t["tau_rms_nm"] for t in report["trials"]) > 1e307
    assert report["friedman"] == json.loads(expected_report_text)["friedman"]
    capsys.readouterr()


def test_analyze_window_beyond_half_a_turn_is_a_config_error(tmp_path, capsys, corpus_dir):
    # a window of +-1.7e308 deg let a trace's ROM overflow and stop the whole study
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[analysis]\nangle_min_deg = -1.7e308\nangle_max_deg = 1.7e308\n")
    out = tmp_path / "report.json"
    assert run(["--config", str(cfg), "analyze", str(corpus_dir), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "config error: [analysis] angle_min_deg must lie in "
                                       "[-180, 180], got -1.7e+308\n")
    assert not out.exists()


def test_analyze_ignores_unrelated_files(tmp_path, capsys, corpus_dir):
    # a stray file that is no trial log must not break the run
    work = tmp_path / "trials"
    work.mkdir()
    for src in corpus_dir.iterdir():
        if src.name.startswith("P1_POS1_unloaded_S1"):
            (work / src.name).write_text(src.read_text())
    (work / "notes.txt").write_text("see protocol\n")
    out = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="friedman test .* omitted"):
        assert run(["analyze", str(work), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_trials"] == 2
    capsys.readouterr()


def test_analyze_rejects_second_file_of_a_trial(tmp_path, capsys, corpus_dir):
    # T01 and T1 both name trial 1; keeping both would pair a trial with itself
    work = tmp_path / "trials"
    work.mkdir()
    for src in corpus_dir.glob("P1_POS1_unloaded_S1_T*.csv"):
        shutil.copy(src, work / src.name)
    shutil.copy(work / "P1_POS1_unloaded_S1_T1.csv", work / "P1_POS1_unloaded_S1_T01.csv")
    out = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="friedman test .* omitted"):
        assert run(["analyze", str(work), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_trials"] == 2
    assert [t["trial"] for t in report["trials"]] == [1, 2]
    assert report["rejected"] == [{
        "file": "P1_POS1_unloaded_S1_T1.csv",
        "reason": "same condition and trial index as P1_POS1_unloaded_S1_T01.csv"}]
    assert "2 trials analyzed, 1 rejected" in capsys.readouterr().out


def test_analyze_rejects_a_posture_written_with_another_number_spelling(tmp_path, capsys,
                                                                       corpus_dir):
    # POS01 and POS\u0661 both name posture 1, as T01 and T1 name trial 1
    work = tmp_path / "trials"
    work.mkdir()
    for src in corpus_dir.glob("P1_POS1_unloaded_S1_T*.csv"):
        shutil.copy(src, work / src.name.replace("POS1", "POS01"))
    shutil.copy(work / "P1_POS01_unloaded_S1_T1.csv", work / "P1_POS\u0661_unloaded_S1_T1.csv")
    shutil.copy(corpus_dir / "P1_POS1_unloaded_S1_T1.csv", work)
    out = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="friedman test .* omitted"):
        assert run(["analyze", str(work), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_trials"] == 2
    assert {t["posture"] for t in report["trials"]} == {"POS1"}
    assert report["rejected"] == [
        {"file": name, "reason": "same condition and trial index as P1_POS01_unloaded_S1_T1.csv"}
        for name in sorted(["P1_POS1_unloaded_S1_T1.csv", "P1_POS\u0661_unloaded_S1_T1.csv"])]
    capsys.readouterr()


def _plot_rows(plots):
    """The rows of each plot CSV, read back by the csv module."""
    rows = {}
    for name in ("rom_boxplot.csv", "torque_boxplot.csv", "repeatability.csv"):
        with open(plots / name, newline="", encoding="utf-8") as handle:
            rows[name] = list(csv.reader(handle))
    return rows


def test_analyze_quotes_plot_labels_that_hold_a_comma_or_quote(tmp_path, capsys, corpus_dir):
    work = tmp_path / "trials"
    work.mkdir()
    for spring, label in (("S1", "S1,x"), ("S2", 'S2"y')):
        for src in corpus_dir.glob(f"P1_POS1_unloaded_{spring}_T*.csv"):
            shutil.copy(src, work / src.name.replace(f"_{spring}_", f"_{label}_"))
    plots = tmp_path / "plots"
    with pytest.warns(UserWarning, match="friedman test .* omitted"):
        assert run(["analyze", str(work), "--out", str(tmp_path / "r.json"),
                    "--plots-dir", str(plots)]) == 0
    rows = _plot_rows(plots)
    for name in ("rom_boxplot.csv", "torque_boxplot.csv"):
        assert [len(row) for row in rows[name]] == [7, 7, 7]
        assert [row[0] for row in rows[name][1:]] == ["S1,x", 'S2"y']
    assert [row[:2] for row in rows["repeatability.csv"][1:]] == [
        ["S1,x", "POS1"], ["S1,x", "overall"], ['S2"y', "POS1"], ['S2"y', "overall"]]
    assert {len(row) for row in rows["repeatability.csv"]} == {5}
    capsys.readouterr()


def test_report_quotes_plot_labels_as_the_csv_module_does(tmp_path, capsys):
    labels = ["S1,x", 'S"2', "S3\nz", "S4\r", 'a,"b"\r\nc', "plain"]
    box = {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0, "n": 6}
    report = {"rom_total_deg": {label: box for label in labels},
              "tau_rms_nm": {label: box for label in labels},
              "repeatability": {label: {label: {"mean": 1.5, "sd": 0.5, "n": 2}}
                                for label in labels}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    plots = tmp_path / "plots"
    assert run(["report", str(path), "--plots-dir", str(plots)]) == 0
    rows = _plot_rows(plots)
    for name in ("rom_boxplot.csv", "torque_boxplot.csv"):
        assert rows[name][1:] == [[label, "1", "2", "3", "4", "5", "6"]
                                  for label in sorted(labels)]
    assert rows["repeatability.csv"][1:] == [[label, label, "1.5", "0.5", "2"]
                                             for label in sorted(labels)]
    capsys.readouterr()


def test_analyze_rejects_an_undecodable_trial_log(tmp_path, capsys, corpus_dir):
    work = tmp_path / "trials"
    work.mkdir()
    for src in corpus_dir.glob("P1_POS1_unloaded_S1_T*.csv"):
        shutil.copy(src, work / src.name)
    bad = work / "P1_POS1_unloaded_S1_T2.csv"
    bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff", 1))
    out = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="friedman test .* omitted"):
        assert run(["analyze", str(work), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_trials"] == 1
    assert report["rejected"] == [{
        "file": bad.name, "reason": f"{bad}:2: not UTF-8 text (invalid start byte)"}]
    capsys.readouterr()


def test_analyze_rejects_a_bad_likert_file(tmp_path, capsys, corpus_dir):
    # a bad likert.csv is rejected like a bad trial log; the study still runs
    work = tmp_path / "trials"
    shutil.copytree(corpus_dir, work)
    (work / "likert.csv").write_text("participant,item,score\nP1,size,eleven\n")
    out = tmp_path / "report.json"
    assert run(["analyze", str(work), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "likert" not in report
    assert {"file": "likert.csv",
            "reason": f"{work / 'likert.csv'}:2: score is not an integer: 'eleven'"
            } in report["rejected"]
    assert capsys.readouterr().err == ""


def test_analyze_rejects_a_repeated_likert_answer(tmp_path, capsys, corpus_dir):
    # counted twice, P1's two answers to 'size' gave mean 5.5, n 2
    work = tmp_path / "trials"
    shutil.copytree(corpus_dir, work)
    (work / "likert.csv").write_text("participant,item,score\nP1,size,2\nP1,size,9\n")
    out = tmp_path / "report.json"
    assert run(["analyze", str(work), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "likert" not in report
    assert {"file": "likert.csv",
            "reason": f"{work / 'likert.csv'}:3: P1 already answered 'size'"
            } in report["rejected"]
    assert capsys.readouterr().err == ""


def test_analyze_rejects_a_likert_score_too_large_for_a_float(tmp_path, capsys, corpus_dir):
    work = tmp_path / "trials"
    work.mkdir()
    log = sorted(corpus_dir.glob("P*.csv"))[0]
    shutil.copy(log, work / log.name)
    (work / "likert.csv").write_text(f"participant,item,score\nP1,size,{10**400}\n")
    out = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="friedman test .* omitted") as caught:
        assert run(["analyze", str(work), "--out", str(out)]) == 0
    assert len(caught) == 2
    report = json.loads(out.read_text())
    assert report["n_trials"] == 1
    assert "likert" not in report
    assert report["rejected"] == [{
        "file": "likert.csv", "reason": f"{work / 'likert.csv'}:2: "
        f"score must be an integer in [1, 10], got {10**400}"}]
    capsys.readouterr()


def test_analyze_rejects_a_header_only_likert_file(tmp_path, capsys, corpus_dir):
    work = tmp_path / "trials"
    shutil.copytree(corpus_dir, work)
    (work / "likert.csv").write_text("participant,item,score\n")
    out = tmp_path / "report.json"
    assert run(["analyze", str(work), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "likert" not in report
    assert {"file": "likert.csv", "reason": f"{work / 'likert.csv'}: no responses"
            } in report["rejected"]
    capsys.readouterr()


def test_analyze_with_no_usable_trial_names_every_rejection(tmp_path, capsys):
    work = tmp_path / "trials"
    work.mkdir()
    log = work / "P1_POS1_unloaded_S1_T1.csv"
    log.write_text("t_s,angle_deg,current_mA,button\n0,1,2,\n0.01,1,2,B9\n")
    (work / "likert.csv").write_text("participant,item,score\nP1,size,x\n")
    out = tmp_path / "report.json"
    assert run(["analyze", str(work), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"rejected {log.name}: {log}:3: unknown button 'B9'",
        f"rejected likert.csv: {work / 'likert.csv'}:2: score is not an integer: 'x'",
        f"data error: no usable trial logs in {work}"]
    assert not out.exists()


def test_warnings_print_as_one_line(tmp_path, capsys):
    cfg = tmp_path / "old.ini"
    cfg.write_text("[transmission]\nfriction_mu = 0.1\n")
    argv = ["--config", str(cfg), "simulate", "--posture", "P1", "--out", str(tmp_path / "c.csv")]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "default"}
    done = subprocess.run([sys.executable, "-m", "wristkit", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == f"warning: {cfg}: [transmission] friction_mu is retired and ignored\n"
    # in process the warning is still raised, and the formatter is put back
    formatter = warnings.formatwarning
    with pytest.warns(UserWarning, match="friction_mu is retired"):
        assert run(argv) == 0
    assert warnings.formatwarning is formatter
    capsys.readouterr()


def _python(args, warning="error"):
    """``python -W <warning> <args>`` on this checkout's sources, as a user runs it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-W", warning, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _readme_blocks(language):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", readme, re.M | re.S)


def test_readme_python_blocks_run_with_warnings_as_errors():
    blocks = _readme_blocks("python")
    assert blocks
    for block in blocks:
        done = _python(["-c", block])
        assert (done.returncode, done.stderr) == (0, ""), done.stderr


def test_readme_config_sizes_the_spring_for_the_worst_case_posture(tmp_path):
    # the paper's chain as a user runs it: every preset posture, then the fit
    (ini,) = _readme_blocks("ini")
    cfg = tmp_path / "readme.ini"
    cfg.write_text(ini)
    curves, design = tmp_path / "curves", tmp_path / "design.json"
    for argv in (["simulate", "--posture", "all", "--out", str(curves)],
                 ["fit", *(str(curves / f"{p}.csv") for p in ("P1", "P2", "P3")),
                  "--out", str(design)]):
        done = _python(["-m", "wristkit", "--config", str(cfg), *argv], "error::UserWarning")
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert json.loads(design.read_text())["worst_case"] == "P3"


def test_warning_as_error_in_config_exits_3(tmp_path):
    cfg = tmp_path / "old.ini"
    cfg.write_text("[transmission]\nfriction_mu = 0.1\n")
    out = tmp_path / "c.csv"
    done = _python(["-m", "wristkit", "--config", str(cfg), "simulate", "--posture", "P1",
                    "--out", str(out)])
    assert done.returncode == 3, done.stderr
    assert done.stderr == f"config error: {cfg}: [transmission] friction_mu is retired and ignored\n"
    assert done.stdout == "" and not out.exists()


def test_warning_as_error_in_analyze_exits_2(tmp_path, corpus_dir):
    work = tmp_path / "two"
    work.mkdir()
    for src in sorted(p for p in corpus_dir.iterdir() if p.name.startswith("P1_"))[:2]:
        shutil.copy(src, work / src.name)
    out = tmp_path / "report.json"
    done = _python(["-m", "wristkit", "analyze", str(work), "--out", str(out)])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("data error: friedman test on rom_total_deg omitted: ")
    assert done.stderr.count("\n") == 1
    assert done.stdout == "" and list(tmp_path.iterdir()) == [work]


def test_analyze_does_not_import_numpy_ma(tmp_path, corpus_dir):
    """numpy.ma adds to a fresh process's memory and start-up time, and the
    study statistics need no masked array."""
    code = ("import sys, numpy\n"
            "eager = 'numpy.ma' in sys.modules\n"
            "from wristkit.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(eager, rc, 'numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, "analyze", str(corpus_dir), "--out",
         str(tmp_path / "report.json")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    eager, rc, imported = done.stdout.splitlines()[-1].split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself (numpy 1.x)")
    assert (rc, imported) == ("0", "False"), done.stderr


# Ends a CLI call with its exit code, for wristkit.trials and wristkit.stats whether the
# module's code ran (type(), not an attribute: any attribute of a lazy module runs it), and
# whether wristkit loaded dataclasses, counted from after numpy's import and a throwaway
# argparse parser's help text: either may load it (argparse's colour theme does on 3.14).
_RAN_TRIALS = ("import argparse, sys, types\n"
               "import numpy\n"
               "parser = argparse.ArgumentParser()\n"
               "parser.add_argument('--x')\n"
               "parser.format_help()\n"
               "before = set(sys.modules)\n"
               "from wristkit.cli import main\n"
               "try:\n"
               "    rc = main(sys.argv[1:])\n"
               "except SystemExit as exc:\n"
               "    rc = exc.code\n"
               "print(rc, *(type(sys.modules[f'wristkit.{name}']) is types.ModuleType\n"
               "            for name in ('trials', 'stats')),\n"
               "      'dataclasses' in sys.modules.keys() - before)\n")


@pytest.fixture(scope="module")
def design_files(tmp_path_factory, corpus_dir):
    """Preset curves and a study report, made in process, for the calls below to read."""
    path = tmp_path_factory.mktemp("design")
    assert main(["simulate", "--posture", "all", "--out", str(path / "curves")]) == 0
    assert main(["analyze", str(corpus_dir), "--out", str(path / "report.json")]) == 0
    return path


@pytest.mark.parametrize("argv, ran", [
    (["simulate", "--posture", "all", "--out", "{tmp}/curves"], "0 False False False"),
    (["fit", "{design}/curves/P1.csv", "{design}/curves/P2.csv", "{design}/curves/P3.csv",
      "--out", "{tmp}/design.json"], "0 False False False"),
    (["fit", "{design}/curves/P1.csv", "{design}/curves/P2.csv", "{design}/curves/P3.csv"],
     "0 False False False"),
    (["report", "{design}/report.json", "--plots-dir", "{tmp}/plots"], "0 False False False"),
    (["simulate"], "1 False False False"),
    (["--help"], "0 False False False"),
    (["analyze", "{corpus}", "--out", "{tmp}/report.json"], "0 True True False"),  # the control
], ids=["simulate", "fit-to-file", "fit-to-stdout", "report", "usage-error", "help", "analyze"])
def test_only_analyze_runs_the_trial_analysis_code(tmp_path, design_files, corpus_dir, argv,
                                                   ran):
    argv = [a.format(tmp=tmp_path, design=design_files, corpus=corpus_dir) for a in argv]
    done = _python(["-c", _RAN_TRIALS, *argv])
    assert done.stdout.splitlines()[-1] == ran, done.stderr


# Command lines written plainly: the benchmark's design sweep (seed 1) and study analysis,
# then README's quick start.  main() reads each without argparse.
_PLAIN_ARGV = [
    ["--config", "design.ini", "simulate", "--posture", "all", "--samples", "2000",
     "--out", "out/curves"],
    ["--config", "design.ini", "fit", "out/curves/P1.csv", "out/curves/P2.csv",
     "out/curves/P3.csv", "--out", "out/design_presets.json"],
    ["--config", "design.ini", "simulate", "--posture", "custom", "--samples", "2000",
     "--shoulder-deg", "71.0", "--elbow-deg", "88.4", "--pronation-deg", "11.0",
     "--out", "out/curves/C1.csv"],
    ["--config", "design.ini", "simulate", "--posture", "custom", "--samples", "2000",
     "--shoulder-deg", "21.5", "--elbow-deg", "33.5", "--pronation-deg", "-72.0",
     "--out", "out/curves/C2.csv"],
    ["--config", "design.ini", "fit", "out/curves/P1.csv", "out/curves/P2.csv",
     "out/curves/P3.csv", "out/curves/C1.csv", "out/curves/C2.csv",
     "--out", "out/design_all.json"],
    ["analyze", "trials", "--out", "out/report.json"],
    ["simulate", "--posture", "all", "--out", "curves/"],
    ["fit", "curves/P1.csv", "curves/P2.csv", "curves/P3.csv", "--out", "design.json"],
    ["analyze", "trials/", "--out", "report/report.json"],
    ["report", "report/report.json", "--plots-dir", "plots/"],
]
_FLAGS = {"simulate": ["--posture", "--samples", "--out", "--shoulder-deg", "--elbow-deg",
                       "--pronation-deg"],
          "fit": ["--catalog", "--out"], "analyze": ["--out", "--plots-dir"],
          "report": ["--plots-dir"]}
_VALUES = ["", "x.csv", "P1", "all", "custom", "5", " 7 ", "1_0", "0x10", "-10", "-1e1", "nan",
           "1e3"]
# the commands, every full flag name, spellings only argparse reads, and the values
_TOKENS = [*_FLAGS, "--config", *_FLAGS["simulate"], "--catalog", "--plots-dir",
           "--ou", "--samp", "--out=x", "-h", "--help", "--", "-", *_VALUES]


@st.composite
def _argv(draw):
    """Any tokens, or (3 times in 4) a command line shaped like a plain one, with (1 time
    in 4) a token put in it."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=8))
    command = draw(st.sampled_from(list(_FLAGS)))
    pairs = draw(st.lists(st.tuples(st.sampled_from(_FLAGS[command]), st.sampled_from(_VALUES)),
                          max_size=5))
    if command == "simulate" and draw(st.integers(0, 3)):  # its --out is required
        pairs.append(("--out", draw(st.sampled_from(_VALUES))))
    flags = [token for pair in pairs for token in pair]
    at = 2 * draw(st.integers(0, len(pairs)))
    config = draw(st.one_of(st.just([]), st.sampled_from(_VALUES).map(lambda v: ["--config", v])))
    argv = [*config, command,
            *flags[:at], *draw(st.lists(st.sampled_from(_VALUES), max_size=2)), *flags[at:]]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    return argv


def _fields(args):  # repr: a NaN angle equals itself
    return repr(sorted(vars(args).items()))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(_argv())
@example(["--config", "--out", "report", "r.json"])  # a flag is no --config value
@example(["simulate", "--samples", "", "--samples", "5", "--out", "x"])  # each value must pass
def test_a_command_line_read_without_argparse_reads_as_argparse_reads_it(argv):
    plain = _plain_args(argv)
    if plain is not None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}")
        assert _fields(plain) == _fields(args)


@pytest.mark.parametrize("argv", _PLAIN_ARGV)
def test_plainly_written_command_lines_are_read_without_argparse(argv):
    plain = _plain_args(argv)
    assert plain is not None
    assert _fields(plain) == _fields(build_parser().parse_args(argv))


# Ends a CLI call with its exit code and which of argparse, gettext and locale it loaded,
# counted from after numpy's import.
_LOADED_ARGPARSE = ("import sys\n"
                    "import numpy\n"
                    "before = set(sys.modules)\n"
                    "from wristkit.cli import main\n"
                    "rc = main(sys.argv[1:])\n"
                    "print(rc, *sorted({'argparse', 'gettext', 'locale'}\n"
                    "                  & (sys.modules.keys() - before)))\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--posture", "all", "--out", "{tmp}/curves"],
    ["fit", "{design}/curves/P1.csv", "{design}/curves/P2.csv", "{design}/curves/P3.csv",
     "--out", "{tmp}/design.json"],
    ["analyze", "{corpus}", "--out", "{tmp}/report.json"],
    ["report", "{design}/report.json", "--plots-dir", "{tmp}/plots"],
], ids=["simulate", "fit", "analyze", "report"])
def test_a_plain_command_line_loads_no_argparse(tmp_path, design_files, corpus_dir, argv):
    argv = [a.format(tmp=tmp_path, design=design_files, corpus=corpus_dir) for a in argv]
    done = _python(["-c", _LOADED_ARGPARSE, *argv])
    assert done.stdout.splitlines()[-1] == "0", done.stderr


def test_help_and_usage_errors_still_go_through_argparse(tmp_path):
    assert _python(["-m", "wristkit", "--help"]).returncode == 0
    # 80 columns and no colour (argparse colours its messages from Python 3.14)
    env = {**os.environ, "COLUMNS": "80", "PYTHON_COLORS": "0",
           "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    done = subprocess.run([sys.executable, "-m", "wristkit", "simulate", "--posture", "P9",
                           "--out", str(tmp_path / "x")], env=env, capture_output=True,
                          text=True, timeout=60)
    usage = ("usage: wristkit simulate [-h] [--posture {{P1,P2,P3,all,custom}}]\n"
             "                         [--samples SAMPLES] --out PATH\n"
             "                         [--shoulder-deg SHOULDER_DEG] [--elbow-deg ELBOW_DEG]\n"
             "                         [--pronation-deg PRONATION_DEG]\n"
             "wristkit simulate: error: argument --posture: invalid choice: 'P9' (choose from "
             "{})\n")
    # newer argparse releases print the choices with str(), not repr()
    assert done.stderr in {usage.format("'P1', 'P2', 'P3', 'all', 'custom'"),
                           usage.format("P1, P2, P3, all, custom")}
    assert (done.returncode, done.stdout) == (1, "")


def test_an_empty_out_path_is_an_output_path(tmp_path, capsys, monkeypatch, corpus_dir):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--posture", "P3", "--out", "P3.csv"]) == 0
    capsys.readouterr()
    ends = {}
    for argv in (["simulate", "--posture", "P3", "--out", ""], ["fit", "P3.csv", "--out", ""],
                 ["analyze", str(corpus_dir), "--out", ""]):
        ends[argv[0]] = run(argv), capsys.readouterr()
    assert set(ends.values()) == {(2, ("", "i/o error: [Errno 21] Is a directory: ''\n"))}
    assert os.listdir() == ["P3.csv"]


def test_an_empty_plots_dir_is_the_working_directory(tmp_path, capsys, monkeypatch, corpus_dir):
    here, report = tmp_path / "here", tmp_path / "out" / "report.json"
    here.mkdir()
    monkeypatch.chdir(here)
    plots = ["repeatability.csv", "rom_boxplot.csv", "torque_boxplot.csv"]
    assert run(["analyze", str(corpus_dir), "--out", str(report), "--plots-dir", ""]) == 0
    assert capsys.readouterr().out.endswith(" + 3 plot CSVs in ''\n")
    assert sorted(os.listdir()) == plots
    assert os.listdir(report.parent) == ["report.json"]
    for name in plots:
        os.remove(name)
    assert run(["report", str(report), "--plots-dir", ""]) == 0
    assert capsys.readouterr().out == "re-rendered 3 plot CSVs in ''\n"
    assert sorted(os.listdir()) == plots
    assert os.listdir(report.parent) == ["report.json"]


def test_an_empty_catalog_path_is_read(tmp_path, capsys):
    curve = tmp_path / "P3.csv"
    assert run(["simulate", "--posture", "P3", "--out", str(curve)]) == 0
    capsys.readouterr()
    assert run(["fit", str(curve), "--catalog", ""]) == 2
    assert capsys.readouterr() == ("", "data error: '': No such file or directory\n")


def test_a_zero_amplitude_simulate_names_the_motion_amplitude(tmp_path, capsys):
    config = tmp_path / "toolkit.ini"
    config.write_text("[motion]\namplitude_deg = 0\n")
    out = tmp_path / "P1.csv"
    assert run(["--config", str(config), "simulate", "--posture", "P1", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "data error: P1: motion amplitude 0.0 rad: no angle range to sweep\n")
    assert not out.exists()


@pytest.mark.parametrize("amplitude_deg, samples, message", [
    ("1e-15", "50", "motion amplitude 1.7453292519943298e-17 rad: too narrow for 50 distinct "
                    "angles"),
    ("1e-12", "1000000", "motion amplitude 1.7453292519943295e-14 rad: too narrow for 1000000 "
                         "distinct angles")], ids=["default-samples", "most-samples"])
def test_a_motion_too_narrow_for_its_samples_names_the_amplitude(tmp_path, capsys,
                                                                 amplitude_deg, samples, message):
    config = tmp_path / "toolkit.ini"
    config.write_text(f"[motion]\namplitude_deg = {amplitude_deg}\n")
    out = tmp_path / "P1.csv"
    assert run(["--config", str(config), "simulate", "--posture", "P1", "--samples", samples,
                "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"data error: P1: {message}\n")
    assert not out.exists()


def test_retired_config_keys_change_no_output(tmp_path, capsys, corpus_dir, retired_config):
    path, expected = retired_config
    outputs = {}
    for name, config in (("plain", []), ("retired", ["--config", str(path)])):
        out = tmp_path / name
        curves = [str(out / "curves" / f"{p}.csv") for p in ("P1", "P2", "P3")]
        for argv in (["simulate", "--posture", "all", "--out", str(out / "curves")],
                     ["fit", *curves, "--out", str(out / "design.json")],
                     ["analyze", str(corpus_dir), "--out", str(out / "report.json")]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(config + argv) == 0
            assert [str(w.message) for w in caught] == (expected if config else [])
        outputs[name] = {f.relative_to(out): f.read_bytes() for f in out.rglob("*.*")}
    assert len(outputs["plain"]) == 8
    assert outputs["retired"] == outputs["plain"]
    capsys.readouterr()


def test_report_rerenders_plot_csvs(tmp_path, capsys, corpus_dir):
    out = tmp_path / "report.json"
    plots1 = tmp_path / "plots1"
    run(["analyze", str(corpus_dir), "--out", str(out), "--plots-dir", str(plots1)])
    plots2 = tmp_path / "plots2"
    assert run(["report", str(out), "--plots-dir", str(plots2)]) == 0
    for name in ("rom_boxplot.csv", "torque_boxplot.csv", "repeatability.csv"):
        assert (plots1 / name).read_bytes() == (plots2 / name).read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("mangle, message", [
    (lambda r: r["rom_total_deg"]["S1"].pop("min"), "rom_total_deg.S1 lacks 'min'"),
    (lambda r: r["repeatability"]["S1"]["overall"].pop("mean"),
     "repeatability.S1.overall lacks 'mean'"),
    (lambda r: r["tau_rms_nm"].__setitem__("S2", [1, 2]), "tau_rms_nm.S2 must be a JSON object"),
    (lambda r: r["repeatability"].__setitem__("S2", 3), "repeatability.S2 must be a JSON object"),
    (lambda r: r.__setitem__("rom_total_deg", None), "rom_total_deg must be a JSON object"),
    (lambda r: r["tau_rms_nm"]["S1"].__setitem__("q1", "1,2"), "tau_rms_nm.S1.q1 must be a number"),
], ids=["box-min", "repeat-mean", "box-group", "repeat-posture", "section", "non-number"])
def test_report_on_malformed_report_exits_2(tmp_path, capsys, mangle, message):
    report = {
        "rom_total_deg": {"S1": {"min": 40.0, "q1": 45.0, "median": 50.0,
                                 "q3": 55.0, "max": 60.0, "n": 10}},
        "tau_rms_nm": {"S1": {"min": 0.001, "q1": 0.002, "median": 0.003,
                              "q3": 0.004, "max": 0.005, "n": 10}},
        "repeatability": {"S1": {"overall": {"mean": 2.5, "sd": 0.5, "n": 5}}},
    }
    mangle(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    plots = tmp_path / "plots"
    assert run(["report", str(path), "--plots-dir", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(path) in err and message in err
    assert not plots.exists()


def test_simulate_fit_round_trip(tmp_path, capsys):
    # noiseless pipeline: fit coefficients must match a direct fit of the
    # simulated curve to high precision
    curves = tmp_path / "curves"
    curves.mkdir()
    run(["simulate", "--posture", "P3", "--out", str(curves / "P3.csv")])
    capsys.readouterr()  # drop the simulate summary line
    assert run(["fit", str(curves / "P3.csv")]) == 0
    payload = json.loads(capsys.readouterr().out)
    from wristkit.springs import fit_linear
    direct = fit_linear(fileio.read_torque_curve(curves / "P3.csv"))
    assert payload["fit"]["slope_nm_per_rad"] == pytest.approx(direct.slope, rel=1e-6)
    assert payload["fit"]["intercept_nm"] == pytest.approx(direct.intercept, rel=1e-6)
