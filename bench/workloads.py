"""Seeded benchmark inputs and the checks on what the CLI makes of them.

This module never imports wristkit.  Trial traces are built from integer
hundredths ("cents"), so every value written to CSV parses back to the
exact float the expectation uses.  Invalid samples (blank cells or
out-of-range angles) sit strictly inside constant dwell segments, where
any correct linear interpolation restores the dwell value exactly.  So
each trial's ROM, sample count, repaired fraction and torque, and the
list of rejected files with their reasons, are known when the files are
written.

Each workload is a list of :class:`Job` objects: one CLI call each, with
the argv it runs (relative to the run directory), the outputs it writes
and a check that returns the problems found in those outputs.
"""

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Contract values of wristkit's default config, restated independently.
MAX_FRACTION = 0.05
TORQUE_CONSTANT = 0.0105
GEAR_RATIO, GEAR_EFFICIENCY = 128.0, 0.78
MOTION_RANGE_DEG = (-44.0, 30.0)        # mean -7 deg, amplitude 37 deg
NMM_PER_DEG_PER_NM_PER_RAD = 1000.0 * math.pi / 180.0

TRIAL_HEADER = "t_s,angle_deg,current_mA,button"
SPRINGS = ("S1", "S2", "S3")
LOADS = ("unloaded", "loaded_300g")
LIKERT_ITEMS = ("size", "weight", "don_doff")
PLOT_CSVS = ("rom_boxplot.csv", "torque_boxplot.csv", "repeatability.csv")

# One movement cycle at 100 Hz: rest, abduct ramp, abduct dwell, adduct
# ramp, adduct dwell, return ramp, rest (segment end indices).
CYCLE = 600
_SEG = (30, 120, 210, 360, 450, 570, CYCLE)
_DWELLS = ((120, 210), (360, 450))
_MAX_BURST = _DWELLS[0][1] - _DWELLS[0][0] - 4   # leaves valid dwell samples around it

_OUT = "out"           # every job writes below here; cleared before each repetition


@dataclass
class Job:
    argv: list
    outputs: list                         # paths relative to the run directory
    check: Callable[[Path], list]         # run directory -> list of problems


@dataclass
class Workload:
    name: str
    jobs: list


# ---------------------------------------------------------------------------
# trial traces
# ---------------------------------------------------------------------------

def _cycle(ab, ad, current_ma):
    """(angle cents, current cents, buttons) of one movement cycle."""
    dwell_c, ramp_c = current_ma * 20, current_ma * 100
    angle, current = [], []
    for i in range(CYCLE):
        if i < _SEG[0]:
            a, c = 0, dwell_c
        elif i < _SEG[1]:
            a, c = ab * (i - _SEG[0] + 1) // (_SEG[1] - _SEG[0]), ramp_c
        elif i < _SEG[2]:
            a, c = ab, dwell_c
        elif i < _SEG[3]:
            a, c = ab - (ab + ad) * (i - _SEG[2] + 1) // (_SEG[3] - _SEG[2]), -ramp_c
        elif i < _SEG[4]:
            a, c = -ad, dwell_c
        elif i < _SEG[5]:
            a, c = -ad + ad * (i - _SEG[4] + 1) // (_SEG[5] - _SEG[4]), ramp_c
        else:
            a, c = 0, dwell_c
        angle.append(a)
        current.append(c)
    button = [""] * CYCLE
    button[_SEG[0]], button[_SEG[2]], button[_SEG[4]] = "B2", "B3", "B4"
    return angle, current, button


def _bursts(rng, n_cycles, n_bad):
    """Spread ``n_bad`` invalid samples over distinct dwells, strictly inside each."""
    dwells = [(k * CYCLE + lo, k * CYCLE + hi) for k in range(n_cycles) for lo, hi in _DWELLS]
    rng.shuffle(dwells)
    bursts = []
    while n_bad > 0:
        lo, hi = dwells.pop()
        shortest = max(1, n_bad - len(dwells) * _MAX_BURST)   # the rest must still fit
        length = min(n_bad, rng.randint(shortest, _MAX_BURST))
        start = rng.randint(lo + 2, hi - 2 - length)
        bursts.append((start, length, rng.choice(("blank", "blank_both", "out_of_range"))))
        n_bad -= length
    return bursts


@functools.cache
def _time_text(n):
    """The t_s column of an ``n``-sample log at 100 Hz."""
    return tuple(f"{i / 100:g}" for i in range(n))


@functools.cache
def _cents(value):
    return f"{value / 100:g}"


@dataclass
class Trial:
    """One trial log as generated, with the outcome analyze must report."""

    name: str
    participant: str
    posture: str
    load: str
    spring: str
    index: int
    cycles: list              # (ab, ad) cents per cycle
    current_ma: int
    n_bad: int = 0
    malformed: tuple = ()     # (line number, column, text) of the first bad cell

    @property
    def n_samples(self):
        return CYCLE * len(self.cycles)

    def reject_reason(self, trial_dir):
        if self.malformed:
            line, column, text = self.malformed
            if column == "button":
                return f"{trial_dir}/{self.name}:{line}: unknown button {text!r}"
            return f"{trial_dir}/{self.name}:{line}: {column} is not a number: {text!r}"
        fraction = self.n_bad / self.n_samples
        if fraction > MAX_FRACTION:
            return (f"{fraction:.1%} of samples invalid, "
                    f"above the {MAX_FRACTION:.1%} limit")
        return None

    def write(self, path, rng):
        angle, current, button = [], [], []
        for ab, ad in self.cycles:
            a, c, b = _cycle(ab, ad, self.current_ma)
            angle += a
            current += c
            button += b
        a_text = [_cents(v) for v in angle]
        c_text = [_cents(v) for v in current]
        for start, length, kind in _bursts(rng, len(self.cycles), self.n_bad):
            for i in range(start, start + length):
                if kind == "out_of_range":
                    a_text[i] = _cents(9950 if angle[i] >= 0 else -7525)
                else:
                    a_text[i] = ""
                    if kind == "blank_both":
                        c_text[i] = ""
        if self.malformed:
            line, column, text = self.malformed
            i = line - 2
            if column == "button":
                button[i] = text
            else:
                a_text[i] = text
        rows = zip(_time_text(self.n_samples), a_text, c_text, button)
        path.write_text(TRIAL_HEADER + "\n" + "\n".join(map(",".join, rows)) + "\n",
                        encoding="utf-8")

    def expected_record(self):
        rom_ab = max(ab for ab, _ in self.cycles) / 100
        rom_ad = max(ad for _, ad in self.cycles) / 100
        current = np.concatenate([np.array(_cycle(ab, ad, self.current_ma)[1]) / 100
                                  for ab, ad in self.cycles])
        tau = float(np.sqrt(np.mean(np.square(current / 1000.0))) * TORQUE_CONSTANT)
        return {
            "participant": self.participant, "posture": self.posture,
            "load": self.load, "spring": self.spring, "trial": self.index,
            "rom_ab_deg": rom_ab, "rom_ad_deg": rom_ad, "rom_total_deg": rom_ab + rom_ad,
            "tau_rms_nm": tau, "joint_torque_nm": tau * GEAR_RATIO * GEAR_EFFICIENCY,
            "n_samples": self.n_samples,
            "interpolated_fraction": self.n_bad / self.n_samples,
        }


def _trial_name(participant, posture, load, spring, index):
    return f"{participant}_{posture}_{load}_{spring}_T{index}.csv"


def _conditions(participants, postures, loads, n_trials):
    for participant in participants:
        for spring in SPRINGS:
            for posture in postures:
                for load in loads:
                    for index in range(1, n_trials + 1):
                        yield participant, posture, load, spring, index


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _close(got, want):
    """Equal within rel 1e-6, plus half a unit in the 6th significant digit
    that the report's float rendering can cost."""
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if want == 0:
        return got == 0
    rendering = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 5)
    return abs(got - want) <= 1e-6 * abs(want) + rendering


def _compare(got, want, where):
    """Problems where ``got`` differs from ``want``; floats via :func:`_close`."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object, got {got!r}"]
        problems = []
        if set(got) != set(want):
            problems.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
        for key in sorted(set(got) & set(want)):
            problems += _compare(got[key], want[key], f"{where}.{key}")
        return problems
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected {len(want)} items, got {got!r:.80}"]
        problems = []
        for i, (g, w) in enumerate(zip(got, want)):
            problems += _compare(g, w, f"{where}[{i}]")
        return problems
    if isinstance(want, float):
        return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _read_json(path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]


def _analyze_check(trials, trial_dir):
    by_name = [(t, t.reject_reason(trial_dir)) for t in sorted(trials, key=lambda t: t.name)]
    want_records = [t.expected_record() for t, reason in by_name if reason is None]
    want_rejected = [{"file": t.name, "reason": reason} for t, reason in by_name if reason]

    def check(run_dir):
        report, problems = _read_json(run_dir / _OUT / "report.json")
        if report is None:
            return problems
        problems += _compare(report.get("n_trials"), len(want_records), "n_trials")
        problems += _compare(report.get("trials"), want_records, "trials")
        problems += _compare(report.get("rejected"), want_rejected, "rejected")
        problems += [f"missing {name}" for name in PLOT_CSVS
                     if not (run_dir / _OUT / name).is_file()]
        return problems

    return check


def _analyze_job(trials, trial_dir):
    return Job(["analyze", trial_dir, "--out", f"{_OUT}/report.json"],
               [f"{_OUT}/report.json"] + [f"{_OUT}/{name}" for name in PLOT_CSVS],
               _analyze_check(trials, trial_dir))


def _write_trials(run_dir, trial_dir, trials, rng):
    root = run_dir / trial_dir
    root.mkdir(parents=True)
    for trial in trials:
        trial.write(root / trial.name, rng)
    return root


def _write_likert(root, participants, rng):
    lines = ["participant,item,score"]
    for participant in participants:
        for item in LIKERT_ITEMS:
            lines.append(f"{participant},{item},{rng.randint(1, 10)}")
    (root / "likert.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

STUDY_PARTICIPANTS = 50
STUDY_REJECTS = 18
# Names analyze skips without reading: not trial logs, or an unknown load.
STUDY_NON_TRIALS = ("notes.txt", "P1_calibration.csv", "P7_POS1_heavy_S1_T1.csv",
                    "session_summary.csv")


def analyze_study(run_dir, seed, participants=STUDY_PARTICIPANTS, rejects=STUDY_REJECTS):
    """The x10 study: many 600-sample logs, so per-file cost dominates."""
    rng = random.Random(f"analyze-study:{seed}")
    names = [f"P{i}" for i in range(1, participants + 1)]
    spring_offset = {s: rng.randint(-600, 600) for s in SPRINGS}
    trials = []
    for participant, posture, load, spring, index in _conditions(
            names, ("POS1", "POS2", "POS3"), LOADS, 2):
        ab = rng.randint(1500, 2500) + spring_offset[spring] // 2
        ad = rng.randint(2000, 3200) + spring_offset[spring] // 2
        n_bad = rng.choice((0, 0, 0, 1, 2, 3, rng.randint(4, 30)))
        trials.append(Trial(_trial_name(participant, posture, load, spring, index),
                            participant, posture, load, spring, index, [(ab, ad)],
                            rng.randint(300, 500), n_bad))
    picked = rng.sample(trials, rejects + 2)
    for trial in picked[:rejects]:
        trial.n_bad = rng.randint(31, 2 * _MAX_BURST)
    # Two logs that go bad late in the file, so the reader's DataError path runs.
    bad_cell, bad_button = picked[rejects:]
    bad_cell.malformed = (rng.randint(CYCLE * 9 // 10, CYCLE) + 1, "angle_deg", "n/a")
    bad_button.malformed = (rng.randint(CYCLE * 9 // 10, CYCLE) + 1, "button", "B7")
    root = _write_trials(run_dir, "trials", trials, rng)
    _write_likert(root, names, rng)
    for name in STUDY_NON_TRIALS:
        (root / name).write_text("not a trial log\n", encoding="utf-8")
    (root / "raw").mkdir()
    return Workload("analyze-study", [_analyze_job(trials, "trials")])


SWEEP_SAMPLES = 2000
CUSTOM_POSTURES = 2
CATALOG = (("CS-080", 8.05), ("CS-095", 9.5), ("CS-107", 10.66), ("CS-117", 11.71),
           ("CS-132", 13.2), ("CS-150", 15.0))
PRE_WIND_RAD = 0.35

# `fit` over the three preset curves at SWEEP_SAMPLES with the config above,
# as rendered by the seed commit (3d600bb).
PINNED_PRESET_DESIGN = {
    "worst_case": "P3",
    "fit": {"slope_nm_per_rad": -0.798826, "intercept_nm": 0.358247,
            "r_squared": 0.989928, "n_points": 2000},
    "spring": {"stiffness_nm_per_rad": 0.798826, "stiffness_nmm_per_deg": 13.9421,
               "neutral_angle_rad": 0.448467, "neutral_angle_deg": 25.6953,
               "pre_wind_rad": 0.35, "pretension_torque_nm": 0.279589},
    "catalog": {"nominal": {"name": "CS-132", "stiffness_nmm_per_deg": 13.2},
                "softer": {"name": "CS-117", "stiffness_nmm_per_deg": 11.71},
                "stiffer": {"name": "CS-150", "stiffness_nmm_per_deg": 15.0}},
}


def _curve_check(path, samples):
    lo, hi = (math.radians(a) for a in MOTION_RANGE_DEG)

    def check(run_dir):
        try:
            theta, moment = _read_curve(run_dir / path)
        except (OSError, ValueError) as exc:
            return [f"{path}: {exc}"]
        if theta.size != samples:
            return [f"{path}: expected {samples} rows, got {theta.size}"]
        problems = []
        if not (math.isclose(theta[0], lo, rel_tol=1e-12)
                and math.isclose(theta[-1], hi, rel_tol=1e-12)
                and (np.diff(theta) > 0).all()):
            problems.append(f"{path}: angles do not span the motion range in order")
        basis = np.column_stack([np.cos(theta), np.sin(theta)])
        coef = np.linalg.lstsq(basis, moment, rcond=None)[0]
        residual = float(np.abs(basis @ coef - moment).max())
        if residual > 1e-9 * float(np.abs(moment).max()):
            problems.append(f"{path}: not A cos + B sin (residual {residual:.3g})")
        return problems

    return check


def _read_curve(path):
    """(angles, moments) of a torque-curve CSV; ValueError when it is not one."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != ["angle_rad,moment_Nm"] or not rows or any(len(r) != 2 for r in rows):
        raise ValueError("not a torque-curve CSV")
    data = np.array([[float(a), float(m)] for a, m in rows])
    return data[:, 0], data[:, 1]


def _expected_design(curve_paths, catalog):
    """The design `fit` must report, by normal equations on the worst curve."""
    curves = [(path.stem, *_read_curve(path)) for path in curve_paths]
    label, x, y = min(curves, key=lambda c: (-float(np.abs(c[2]).max()), c[0]))
    n = x.size
    sx, sy, sxx, sxy = math.fsum(x), math.fsum(y), math.fsum(x * x), math.fsum(x * y)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    ss_res = math.fsum((y - slope * x - intercept) ** 2)
    ss_tot = math.fsum((y - sy / n) ** 2)
    stiffness = abs(slope)
    target = stiffness * NMM_PER_DEG_PER_NM_PER_RAD
    entries = sorted(catalog, key=lambda e: e[1])
    nominal = min(entries, key=lambda e: (abs(e[1] - target), e[1]))
    k = entries.index(nominal)

    def entry(i):
        if not 0 <= i < len(entries):
            return None
        return {"name": entries[i][0], "stiffness_nmm_per_deg": entries[i][1]}

    neutral = -intercept / slope
    return {
        "worst_case": label,
        "fit": {"slope_nm_per_rad": slope, "intercept_nm": intercept,
                "r_squared": 1.0 - ss_res / ss_tot, "n_points": n},
        "spring": {"stiffness_nm_per_rad": stiffness, "stiffness_nmm_per_deg": target,
                   "neutral_angle_rad": neutral, "neutral_angle_deg": math.degrees(neutral),
                   "pre_wind_rad": PRE_WIND_RAD,
                   "pretension_torque_nm": stiffness * PRE_WIND_RAD},
        "catalog": {"nominal": entry(k), "softer": entry(k - 1), "stiffer": entry(k + 1)},
    }


def _fit_check(out, curves, want=None):
    def check(run_dir):
        design, problems = _read_json(run_dir / out)
        if design is None:
            return problems
        try:
            expected = want or _expected_design([run_dir / c for c in curves], CATALOG)
        except (OSError, ValueError) as exc:
            return [f"{out}: cannot read the curves it fits: {exc}"]
        return problems + _compare(design, expected, out)

    return check


def design_sweep(run_dir, seed, samples=SWEEP_SAMPLES, customs=CUSTOM_POSTURES):
    """simulate every preset and a few seeded custom postures, then fit them."""
    rng = random.Random(f"design-sweep:{seed}")
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "catalog.csv").write_text(
        "name,stiffness_Nmm_per_deg\n" + "".join(f"{n},{k:g}\n" for n, k in CATALOG),
        encoding="utf-8")
    (run_dir / "design.ini").write_text(
        f"[springs]\ncatalog_path = catalog.csv\npre_wind_rad = {PRE_WIND_RAD}\n",
        encoding="utf-8")
    config = ["--config", "design.ini"]
    presets = [f"{_OUT}/curves/{p}.csv" for p in ("P1", "P2", "P3")]
    jobs = [Job(config + ["simulate", "--posture", "all", "--samples", str(samples),
                          "--out", f"{_OUT}/curves"],
                presets,
                lambda d: sum((_curve_check(p, samples)(d) for p in presets), []))]
    pinned = PINNED_PRESET_DESIGN if samples == SWEEP_SAMPLES else None
    jobs.append(Job(config + ["fit", *presets, "--out", f"{_OUT}/design_presets.json"],
                    [f"{_OUT}/design_presets.json"],
                    _fit_check(f"{_OUT}/design_presets.json", presets, pinned)))
    curves = list(presets)
    for k in range(1, customs + 1):
        out = f"{_OUT}/curves/C{k}.csv"
        angles = (rng.uniform(0, 90), rng.uniform(0, 140), rng.uniform(-90, 90))
        jobs.append(Job(config + ["simulate", "--posture", "custom", "--samples", str(samples),
                                  "--shoulder-deg", f"{angles[0]:.1f}",
                                  "--elbow-deg", f"{angles[1]:.1f}",
                                  "--pronation-deg", f"{angles[2]:.1f}", "--out", out],
                        [out], _curve_check(out, samples)))
        curves.append(out)
    jobs.append(Job(config + ["fit", *curves, "--out", f"{_OUT}/design_all.json"],
                    [f"{_OUT}/design_all.json"],
                    _fit_check(f"{_OUT}/design_all.json", curves)))
    return Workload("design-sweep", jobs)


WORKLOADS = {
    "analyze-study": analyze_study,
    "design-sweep": design_sweep,
}
