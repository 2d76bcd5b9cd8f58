import itertools
import json
import math
import random
import statistics
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from wristkit import fileio, trials
from wristkit.errors import DataError, DomainError, TrialRejected
from wristkit.transmission import Gearing
from wristkit.trials import (FriedmanResult, LikertResponse, TrialLog, TrialMeta,
                             TrialMetrics, aggregate_report, clean_interpolate,
                             friedman_test, joint_torque_estimate, likert_summary,
                             repeatability, rms_torque, rom_metrics, trial_metrics)

import oracles

GEAR = Gearing()
NAN = math.nan


def make_log(angles, currents=None, meta=None):
    n = len(angles)
    if currents is None:
        currents = [0.0] * n
    return TrialLog(np.arange(n) * 0.01, np.asarray(angles, float),
                    np.asarray(currents, float), [""] * n, meta)


def make_metrics(total, ab=None, meta=None, tau=0.005):
    ab = total if ab is None else ab
    return TrialMetrics(ab, total - ab, total, tau, 100, 0.0, meta)


def meta_for(participant="P1", posture="POS1", load="unloaded", spring="S1", trial=1):
    return TrialMeta(participant, posture, load, spring, trial)


# ---------------------------------------------------------------------------
# log construction and cleaning
# ---------------------------------------------------------------------------

def test_log_validation():
    with pytest.raises(DomainError):
        TrialLog(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), ["", ""])
    with pytest.raises(DomainError):
        TrialLog(np.array([0.0, 0.1]), np.zeros(2), np.zeros(2), ["", "B9"])
    with pytest.raises(DomainError):
        TrialLog(np.array([]), np.array([]), np.array([]), [])


def test_unknown_button_message_names_the_first_in_sample_order():
    with pytest.raises(DomainError) as info:
        TrialLog(np.arange(4) * 0.01, np.zeros(4), np.zeros(4), ["", "B9", "B2", "B7"])
    assert str(info.value) == "button must be one of ('', 'B2', 'B3', 'B4'), got 'B9'"
    with pytest.raises(DomainError, match="got 'B7'$"):
        TrialLog(np.arange(4) * 0.01, np.zeros(4), np.zeros(4), ["B7", "B9", "B7", ""])


def test_metrics_rom_sum_invariant():
    with pytest.raises(DomainError):
        TrialMetrics(4.0, 5.0, 10.0, 0.0, 10, 0.0)
    with pytest.raises(DomainError):
        TrialMetrics(-1.0, 1.0, 0.0, 0.0, 10, 0.0)


def test_clean_midpoint_fill():
    log = make_log([0.0, NAN, 2.0])
    cleaned, fraction = clean_interpolate(log, max_fraction=0.5)
    assert list(cleaned.angle_deg) == [0.0, 1.0, 2.0]
    assert fraction == pytest.approx(1 / 3)


def test_clean_rejects_above_threshold():
    log = make_log([0.0, NAN, 2.0])
    with pytest.raises(TrialRejected) as info:
        clean_interpolate(log)
    assert info.value.fraction == pytest.approx(1 / 3)


def test_clean_single_gap_in_hundred():
    angles = [float(i % 7) for i in range(100)]
    angles[50] = NAN
    angles[49], angles[51] = 4.0, 6.0
    cleaned, fraction = clean_interpolate(make_log(angles))
    assert cleaned.angle_deg[50] == pytest.approx(5.0)
    assert fraction == pytest.approx(0.01)
    assert len(cleaned) == 100


def test_clean_no_invalid_is_identity():
    log = make_log([1.0, 2.0, 3.0])
    cleaned, fraction = clean_interpolate(log)
    assert cleaned is log
    assert fraction == 0.0


def test_clean_drops_leading_and_trailing():
    log = make_log([NAN, 1.0, 2.0, NAN])
    cleaned, fraction = clean_interpolate(log, max_fraction=0.6)
    assert list(cleaned.angle_deg) == [1.0, 2.0]
    assert list(cleaned.time) == pytest.approx([0.01, 0.02])
    assert fraction == 0.5


def test_clean_out_of_bounds_angle_is_invalid():
    log = make_log([0.0, 50.0, 2.0])  # 50 deg is beyond the +45 deg bound
    cleaned, fraction = clean_interpolate(log, max_fraction=0.5)
    assert cleaned.angle_deg[1] == pytest.approx(1.0)
    assert fraction == pytest.approx(1 / 3)


def test_clean_interpolates_current_too():
    log = make_log([0.0, NAN, 2.0], currents=[10.0, 300.0, 20.0])
    cleaned, _ = clean_interpolate(log, max_fraction=0.5)
    assert cleaned.current_ma[1] == pytest.approx(15.0)


def test_clean_rejects_fully_invalid():
    with pytest.raises(TrialRejected):
        clean_interpolate(make_log([NAN, NAN]), max_fraction=1.0)


def test_clean_is_idempotent():
    rng = random.Random(5)
    angles = [rng.uniform(-40, 40) for _ in range(200)]
    for i in rng.sample(range(1, 199), 8):
        angles[i] = NAN
    once, fraction = clean_interpolate(make_log(angles))
    twice, fraction2 = clean_interpolate(once)
    assert fraction2 == 0.0
    assert np.array_equal(once.angle_deg, twice.angle_deg)
    assert np.array_equal(once.time, twice.time)


def test_clean_preserves_buttons():
    log = TrialLog(np.arange(4) * 0.01, np.array([NAN, 1.0, NAN, 2.0]),
                   np.zeros(4), ["", "B2", "B3", ""])
    cleaned, _ = clean_interpolate(log, max_fraction=0.6)
    assert cleaned.button == ("B2", "B3", "")


def test_read_then_clean_checks_each_log_once(tmp_path):
    # clean, repaired inside, and repaired with a dropped first and last sample
    texts = ["0,1,2,B2\n0.01,2,3,\n0.02,3,4,B3\n",
             "0,1,2,B2\n0.01,,3,\n0.02,3,,B3\n0.03,4,5,\n",
             "0,,2,\n0.01,1,3,B2\n0.02,99,4,\n0.03,3,5,B4\n0.04,4,,\n"]
    checked = []
    post_init = TrialLog.__post_init__

    def counting(self):
        checked.append(self)
        post_init(self)

    for k, text in enumerate(texts):
        path = tmp_path / f"t{k}.csv"
        path.write_text("t_s,angle_deg,current_mA,button\n" + text)
        with mock.patch.object(TrialLog, "__post_init__", counting):
            cleaned, _ = clean_interpolate(fileio.read_trial_log(path), max_fraction=0.6)
        assert len(checked) == k + 1
        # the check would neither reject nor convert anything in the repaired log
        again = TrialLog(cleaned.time, cleaned.angle_deg, cleaned.current_ma, cleaned.button)
        for name in ("time", "angle_deg", "current_ma"):
            assert getattr(cleaned, name).dtype == float
            assert getattr(cleaned, name).tobytes() == getattr(again, name).tobytes()
        assert type(cleaned.button) is tuple and cleaned.button == again.button
    assert list(cleaned.angle_deg) == [1.0, 2.0, 3.0]
    assert list(cleaned.current_ma) == [3.0, 4.0, 5.0]


# ---------------------------------------------------------------------------
# per-trial metrics
# ---------------------------------------------------------------------------

def test_rom_examples():
    assert rom_metrics(make_log([-10.0, 0.0, 20.0, 5.0, -15.0])) == (20.0, 15.0, 35.0)
    assert rom_metrics(make_log([0.0, 0.0, 0.0])) == (0.0, 0.0, 0.0)
    assert rom_metrics(make_log([5.0, 10.0])) == (10.0, 0.0, 10.0)


def test_rom_components_clamp_at_positive_zero():
    """A trace whose lowest angle is 0.0 (highest -0.0) has no adduction
    (abduction) excursion: the report says 0.0, not -0.0."""
    logs = [make_log([0.0, 5.0, 10.0], meta=meta_for(trial=1)),
            make_log([-10.0, -5.0, -0.0], meta=meta_for(trial=2))]
    with pytest.warns(UserWarning, match="omitted"):
        report = aggregate_report([trial_metrics(log, GEAR) for log in logs], GEAR)
    records = json.loads(fileio.render_report(report))["trials"]
    rows = [(r["rom_ab_deg"], r["rom_ad_deg"]) for r in records]
    assert [tuple(v.hex() for v in row) for row in rows] == [
        ((10.0).hex(), (0.0).hex()), ((0.0).hex(), (10.0).hex())]


def test_rom_matches_scan_oracle():
    rng = random.Random(99)
    for _ in range(200):
        angles = [rng.uniform(-59, 44) for _ in range(rng.randint(1, 60))]
        assert rom_metrics(make_log(angles)) == oracles.rom_scan(angles)


def test_rom_requires_clean_log():
    with pytest.raises(DomainError):
        rom_metrics(make_log([1.0, NAN]))


def test_rms_torque():
    assert rms_torque(make_log([0.0] * 4, currents=[476.0] * 4), GEAR) == pytest.approx(
        4.998e-3, rel=1e-12)
    square = make_log([0.0] * 6, currents=[300.0, -300.0] * 3)
    assert rms_torque(square, GEAR) == pytest.approx(GEAR.torque_constant * 0.3, rel=1e-12)
    assert rms_torque(make_log([0.0] * 5), GEAR) == 0.0


def test_rms_invariances_and_qm_am():
    rng = random.Random(17)
    currents = [rng.uniform(-500, 500) for _ in range(64)]
    base = rms_torque(make_log([0.0] * 64, currents=currents), GEAR)
    shuffled = currents[:]
    rng.shuffle(shuffled)
    assert rms_torque(make_log([0.0] * 64, currents=shuffled), GEAR) == pytest.approx(
        base, rel=1e-12)
    flipped = [-c for c in currents]
    assert rms_torque(make_log([0.0] * 64, currents=flipped), GEAR) == pytest.approx(
        base, rel=1e-12)
    mean_abs = GEAR.torque_constant * sum(abs(c) for c in currents) / len(currents) / 1000
    assert base >= mean_abs - 1e-15


def test_joint_torque_estimate():
    assert joint_torque_estimate(5e-3, GEAR) == pytest.approx(0.4992, rel=1e-12)
    assert joint_torque_estimate(0.0, GEAR) == 0.0
    ideal = Gearing(ratio=128, efficiency=1.0, torque_constant=0.0105)
    assert joint_torque_estimate(5e-3, ideal) == pytest.approx(0.64, rel=1e-12)
    with pytest.raises(DomainError):
        joint_torque_estimate(-0.1, GEAR)


def test_trial_metrics_bundles_everything():
    log = make_log([-10.0, 0.0, 20.0], currents=[476.0] * 3, meta=meta_for())
    metrics = trial_metrics(log, GEAR, interpolated_fraction=0.01)
    assert (metrics.rom_ab, metrics.rom_ad, metrics.rom_total) == (20.0, 10.0, 30.0)
    assert metrics.tau_rms == pytest.approx(4.998e-3, rel=1e-12)
    assert metrics.n_samples == 3
    assert metrics.meta == meta_for()


def test_trial_metrics_rejects_a_current_whose_torque_overflows():
    # squares overflow above about 1.3e157 mA; a finite tau_rms can still
    # overflow through the gear ratio
    with pytest.raises(DataError, match=r"^joint torque is not finite \(RMS motor torque inf"):
        trial_metrics(make_log([0.0, 1.0], currents=[1e200, 0.0]), GEAR)
    with pytest.raises(DataError, match="not finite"):
        trial_metrics(make_log([0.0], currents=[1e152]), Gearing(ratio=1e300))


# ---------------------------------------------------------------------------
# repeatability
# ---------------------------------------------------------------------------

def test_repeatability_examples():
    assert repeatability(make_metrics(50.0), make_metrics(47.5)) == 2.5
    assert repeatability(make_metrics(33.0), make_metrics(33.0)) == 0.0
    assert repeatability(make_metrics(40.0), make_metrics(45.0)) == 5.0


def test_repeatability_symmetry_and_labels():
    m1 = make_metrics(50.0, meta=meta_for(trial=1))
    m2 = make_metrics(47.5, meta=meta_for(trial=2))
    assert repeatability(m1, m2) == repeatability(m2, m1) == 2.5


def test_repeatability_condition_mismatch():
    m1 = make_metrics(50.0, meta=meta_for(spring="S1"))
    m2 = make_metrics(47.5, meta=meta_for(spring="S2"))
    with pytest.raises(DomainError):
        repeatability(m1, m2)
    with pytest.raises(DomainError):
        repeatability(m1, make_metrics(47.5))


# ---------------------------------------------------------------------------
# Friedman test
# ---------------------------------------------------------------------------

def test_friedman_unanimous_ranking():
    data = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.1, 0.2, 0.3],
            [10.0, 20.0, 30.0], [2.0, 4.0, 8.0]]
    result = friedman_test(data)
    assert result.chi2 == 10.0
    assert result.p_value == pytest.approx(math.exp(-5.0), rel=1e-9)
    assert result.df == 2


def test_friedman_all_tied():
    assert friedman_test([[3.0, 3.0, 3.0], [5.0, 5.0, 5.0]]) == FriedmanResult(0.0, 1.0, 2)


def test_friedman_matches_scipy_with_and_without_ties():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(3, 9)
        m = rng.randint(3, 5)
        if rng.random() < 0.5:
            data = [[float(rng.randint(0, 4)) for _ in range(m)] for _ in range(n)]
            if all(len(set(row)) == 1 for row in data):
                continue
        else:
            data = [[rng.uniform(0, 10) for _ in range(m)] for _ in range(n)]
        expected = scipy.stats.friedmanchisquare(
            *(np.array([row[j] for row in data]) for j in range(m)))
        result = friedman_test(data)
        assert result.chi2 == pytest.approx(expected.statistic, rel=1e-9, abs=1e-12)
        assert result.p_value == pytest.approx(expected.pvalue, rel=1e-9, abs=1e-12)


def test_friedman_rank_invariance_under_monotone_maps():
    data = [[0.5, 2.0, 1.0], [3.0, 1.0, 2.0], [0.2, 0.4, 0.3], [1.0, 3.0, 2.0]]
    base = friedman_test(data)
    cubed = friedman_test([[v ** 3 for v in row] for row in data])
    exped = friedman_test([[math.exp(v) for v in row] for row in data])
    assert base == cubed == exped


def test_friedman_df2_identity():
    result = friedman_test([[1.0, 3.0, 2.0], [2.0, 3.0, 1.0], [1.0, 2.0, 3.0]])
    assert result.p_value == pytest.approx(math.exp(-result.chi2 / 2), rel=1e-6)


def test_friedman_validation():
    with pytest.raises(DomainError):
        friedman_test([[1.0, 2.0]])
    with pytest.raises(DomainError):
        friedman_test([[1.0], [2.0]])
    with pytest.raises(DomainError):
        friedman_test([[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(DomainError):
        friedman_test([[1.0, 2.0], [NAN, 2.0]])


# ---------------------------------------------------------------------------
# Likert summaries
# ---------------------------------------------------------------------------

def test_likert_summary():
    responses = [LikertResponse(f"P{i}", "weight", s)
                 for i, s in enumerate((1, 1, 1, 5, 3), start=1)]
    summary = likert_summary(responses)
    assert summary["weight"]["mean"] == pytest.approx(2.2)
    assert summary["weight"]["n"] == 5

    same = likert_summary([LikertResponse("P1", "size", 4), LikertResponse("P2", "size", 4)])
    assert same["size"] == {"mean": 4.0, "sd": 0.0, "n": 2}

    two = likert_summary([LikertResponse("P1", "size", 2), LikertResponse("P2", "size", 4)])
    assert two["size"]["sd"] == pytest.approx(math.sqrt(2))

    with pytest.warns(UserWarning, match="single response"):
        single = likert_summary([LikertResponse("P1", "don_doff", 7)])
    assert single["don_doff"] == {"mean": 7.0, "sd": 0.0, "n": 1}

    assert likert_summary([]) == {}


def test_likert_validation():
    with pytest.raises(DomainError):
        LikertResponse("P1", "comfort", 5)
    with pytest.raises(DomainError):
        LikertResponse("P1", "size", 0)
    with pytest.raises(DomainError):
        LikertResponse("P1", "size", 11)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _complete_design():
    metrics = []
    totals = {("A", "S1"): 50.0, ("A", "S2"): 47.0,
              ("B", "S1"): 52.0, ("B", "S2"): 49.0}
    for (participant, spring), total in totals.items():
        for trial, shift in ((1, 0.5), (2, -0.5)):
            meta = TrialMeta(participant, "POS1", "unloaded", spring, trial)
            metrics.append(make_metrics(total + shift, meta=meta))
    return metrics


def test_aggregate_report_structure():
    metrics = _complete_design()
    report = aggregate_report(metrics, GEAR, rejected=[("bad.csv", "too many gaps")],
                              likert_responses=[LikertResponse("A", "size", 3),
                                                LikertResponse("B", "size", 5)])
    assert report["n_trials"] == 8
    assert len(report["trials"]) == 8
    assert set(report["rom_total_deg"]) == {"S1", "S2"}
    assert report["rom_total_deg"]["S1"]["n"] == 4
    assert report["rom_total_deg"]["S1"]["max"] == 52.5
    assert report["repeatability"]["S1"]["POS1"]["mean"] == pytest.approx(1.0)
    assert report["repeatability"]["S1"]["overall"]["n"] == 2
    assert report["friedman"]["rom_total_deg"]["df"] == 1
    assert report["friedman"]["rom_total_deg"]["chi2"] == pytest.approx(2.0)
    assert report["likert"]["size"]["mean"] == 4.0
    assert report["rejected"] == [{"file": "bad.csv", "reason": "too many gaps"}]
    for record in report["trials"]:
        assert record["joint_torque_nm"] == pytest.approx(
            record["tau_rms_nm"] * 128 * 0.78, rel=1e-12)


# finite report values of 1e-5 to 1e5 in magnitude, or at two decimals; never -0.0
_REPORT_VALUE = st.one_of(
    st.builds(lambda sign, size: sign * size, st.sampled_from((1.0, -1.0)),
              st.floats(min_value=1e-5, max_value=1e5)),
    st.integers(-10**7, 10**7).map(lambda cents: cents / 100))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_five_number_matches_numpy_percentile(data):
    """The box-plot summary is np.percentile's on the sorted values, bit for bit,
    also with ties.  -0.0 is left out: np.percentile partitions its input, so
    with mixed signed zeros it may return either; the values summarized
    (rom_total, tau_rms) are never -0.0."""
    pool = data.draw(st.lists(_REPORT_VALUE, min_size=1, max_size=80))
    values = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    want = np.percentile(np.sort(values), [0, 25, 50, 75, 100]).tolist()
    got = trials._five_number(values)
    assert [got[key].hex() for key in ("min", "q1", "median", "q3", "max")] == [
        v.hex() for v in want]
    assert got["n"] == len(values)


def test_aggregate_single_trial_has_no_friedman():
    metrics = [make_metrics(40.0, meta=meta_for())]
    with pytest.warns(UserWarning, match="omitted"):
        report = aggregate_report(metrics, GEAR)
    assert report["n_trials"] == 1
    assert "omitted" in report["friedman"]["rom_total_deg"]
    assert report["rom_total_deg"]["S1"]["n"] == 1
    assert "likert" not in report


def test_aggregate_incomplete_design_omits_friedman():
    metrics = _complete_design()
    metrics = [m for m in metrics if not (m.meta.participant == "B"
                                          and m.meta.spring == "S2")]
    with pytest.warns(UserWarning, match="omitted"):
        report = aggregate_report(metrics, GEAR)
    assert "omitted" in report["friedman"]["rom_total_deg"]


def test_aggregate_requires_meta():
    with pytest.raises(DomainError):
        aggregate_report([make_metrics(40.0)], GEAR)
    with pytest.raises(DomainError):
        aggregate_report([], GEAR)


_QUARTER_DEG = st.integers(0, 160).map(lambda quarters: quarters / 4)  # ties are common


@st.composite
def _shuffled_study(draw):
    """(metrics, the same metrics shuffled): 0 to 4 trials per condition, their
    indices drawn from 1-6 so they have gaps (T1, T3, T4), absent conditions."""
    metrics = []
    for participant, posture, load, spring in itertools.product(
            ("A", "B", "C")[:draw(st.integers(1, 3))], ("POS1", "POS2"), trials.LOADS,
            ("S1", "S2")):
        for index in draw(st.lists(st.integers(1, 6), max_size=4, unique=True)):
            ab, ad = draw(_QUARTER_DEG), draw(_QUARTER_DEG)
            metrics.append(TrialMetrics(ab, ad, ab + ad, draw(st.integers(1, 9)) / 1000, 100,
                                        0.0, TrialMeta(participant, posture, load, spring, index)))
    assume(metrics)
    return metrics, draw(st.permutations(metrics))


def _report_sections(metrics):
    """The report's bytes without its per-trial records, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = aggregate_report(metrics, GEAR)
    del report["trials"]
    return report, fileio.render_report(report), [str(w.message) for w in caught]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(study=_shuffled_study())
def test_report_sections_and_pairs_do_not_depend_on_ingestion_order(study):
    metrics, shuffled = study
    report, text, caught = _report_sections(metrics)
    assert _report_sections(shuffled)[1:] == (text, caught)

    # each trial pairs with the next higher index of its condition, if any
    want = {}
    for m in metrics:
        later = [o for o in metrics if o.meta.condition() == m.meta.condition()
                 and o.meta.trial_index > m.meta.trial_index]
        if later:
            after = min(later, key=lambda o: o.meta.trial_index)
            want.setdefault(m.meta.spring, {}).setdefault(m.meta.posture, []).append(
                abs(m.rom_total - after.rom_total))
    assert list(report["repeatability"]) == sorted(want)
    for spring, by_posture in want.items():
        by_posture["overall"] = [d for deltas in by_posture.values() for d in deltas]
        assert list(report["repeatability"][spring]) == [*sorted(by_posture.keys() - {"overall"}),
                                                         "overall"]
        for posture, deltas in by_posture.items():
            cell = report["repeatability"][spring][posture]
            sd = statistics.stdev(deltas) if len(deltas) > 1 else 0.0
            assert cell["n"] == len(deltas)
            assert cell["mean"] == pytest.approx(statistics.fmean(deltas), rel=1e-12, abs=1e-12)
            assert cell["sd"] == pytest.approx(sd, rel=1e-9, abs=1e-9)


def _corpus_metrics(corpus_dir):
    metrics = []
    for path in sorted(corpus_dir.iterdir()):
        meta = fileio.parse_trial_filename(path.name)
        if meta is None:
            continue
        try:
            cleaned, fraction = clean_interpolate(fileio.read_trial_log(path, meta))
        except DataError:
            continue
        metrics.append(trial_metrics(cleaned, GEAR, fraction))
    return metrics


def test_trial_records_are_the_list_they_replace(corpus_dir):
    metrics = _corpus_metrics(corpus_dir)
    report = aggregate_report(metrics, GEAR)
    want = [{
        "participant": m.meta.participant,
        "posture": m.meta.posture,
        "load": m.meta.load,
        "spring": m.meta.spring,
        "trial": m.meta.trial_index,
        "rom_ab_deg": m.rom_ab,
        "rom_ad_deg": m.rom_ad,
        "rom_total_deg": m.rom_total,
        "tau_rms_nm": m.tau_rms,
        "joint_torque_nm": joint_torque_estimate(m.tau_rms, GEAR),
        "n_samples": m.n_samples,
        "interpolated_fraction": m.interpolated_fraction,
    } for m in metrics]
    records = report["trials"]
    assert len(records) == len(want) == 180
    assert (records[0], records[-1], records[-180]) == (want[0], want[-1], want[0])
    assert list(records) == want
    with pytest.raises(IndexError):
        records[180]
    with pytest.raises(TypeError):
        records[:2]
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps(report)
    assert fileio.render_report(report) == fileio.render_report({**report, "trials": want})


def _study_metrics(participants):
    rng = random.Random(17)
    metrics = []
    for p in range(participants):
        for posture, load, spring, trial in itertools.product(
                ("POS1", "POS2", "POS3"), trials.LOADS, ("S1", "S2", "S3"), (1, 2)):
            ab, ad = rng.uniform(10.0, 40.0), rng.uniform(10.0, 40.0)
            metrics.append(TrialMetrics(ab, ad, ab + ad, rng.uniform(1e-3, 1e-2), 1000, 0.0,
                                        TrialMeta(f"P{p}", posture, load, spring, trial)))
    return metrics


def _traced_peak(metrics, path) -> int:
    """Bytes ``aggregate_report`` and ``write_report`` add at their peak, traced."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fileio.write_report(path, aggregate_report(metrics, GEAR))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_report_peak_grows_by_at_most_300_bytes_per_trial(tmp_path):
    """No per-trial record outlives its rendering: the records are built as the report
    is written.  What a trial still adds at the peak is its repeatability difference and
    its place in the grouping lists, about 200 B on CPython 3.11; a list of the record
    dicts, built before writing, makes it about 720 B."""
    small, large = _study_metrics(20), _study_metrics(60)
    grown = _traced_peak(large, tmp_path / "r.json") - _traced_peak(small, tmp_path / "r.json")
    assert grown / (len(large) - len(small)) <= 300
