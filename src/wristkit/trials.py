"""Trial-log metrics, repeatability, Friedman statistics, Likert summaries.

Trial logs are 100 Hz traces of wrist angle (deg), motor current (mA),
and operator button events.  Invalid samples (non-finite, or angle
outside plausible bounds) are repaired by linear interpolation in time;
trials needing too much repair are rejected.  Metrics per trial are the
abduction/adduction range-of-motion split and the RMS motor-side torque;
across trials the toolkit reports per-spring distributions, trial-pair
repeatability, a Friedman test across spring conditions, and Likert
questionnaire summaries.

Aggregate statistics (means, standard deviations, percentiles) are
always evaluated on values put in order by ``sorted()`` so that reports
are bit-stable regardless of the order trials were ingested.
"""

import math
import operator
import warnings

import numpy as np

from .errors import DataError, DomainError, Record, TrialRejected, check_real
from .stats import chi2_survival
from .transmission import Gearing

BUTTONS = ("", "B2", "B3", "B4")  # B2 abduct, B3 adduct, B4 return to neutral
_BUTTON_SET = frozenset(BUTTONS)
LOADS = ("unloaded", "loaded_300g")
LIKERT_ITEMS = ("size", "weight", "don_doff")

DEFAULT_ANGLE_BOUNDS = (-60.0, 45.0)  # deg, hardware range plus calibration slack
DEFAULT_MAX_INTERP_FRACTION = 0.05


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class TrialMeta(Record):
    """Experimental condition identifying one trial."""

    participant: str
    posture: str
    load: str
    spring: str
    trial_index: int

    def __post_init__(self):
        if not self.participant or not self.posture or not self.spring:
            raise DomainError("participant, posture, and spring labels must be non-empty")
        if self.load not in LOADS:
            raise DomainError(f"load must be one of {LOADS}, got {self.load!r}")
        if not self.trial_index >= 1:
            raise DomainError(f"trial_index must be >= 1, got {self.trial_index}")

    def condition(self) -> tuple:
        """Everything but the trial index; repeated trials share this."""
        return (self.participant, self.posture, self.load, self.spring)


class TrialLog(Record):
    """Time-aligned angle/current/button channels for one trial."""

    time: np.ndarray        # s, strictly increasing
    angle_deg: np.ndarray
    current_ma: np.ndarray
    button: tuple           # per-sample event label, "" = none
    meta: TrialMeta | None = None

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        angle = np.asarray(self.angle_deg, dtype=float)
        current = np.asarray(self.current_ma, dtype=float)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "angle_deg", angle)
        object.__setattr__(self, "current_ma", current)
        object.__setattr__(self, "button", tuple(self.button))
        n = time.size
        if n == 0:
            raise DomainError("trial log has no samples")
        if (time.ndim != 1 or angle.shape != time.shape or current.shape != time.shape
                or len(self.button) != n):
            raise DomainError("trial log channels must be 1-d arrays of equal length")
        # one pass: NaN compares false, so increasing between finite ends is finite throughout
        if not (math.isfinite(time[0]) and math.isfinite(time[-1])
                and (time[1:] > time[:-1]).all()):  # np.diff would overflow at ±1e308
            if not np.isfinite(time).all():
                raise DomainError("timestamps must be finite")
            raise DomainError("timestamps must be strictly increasing")
        if not _BUTTON_SET.issuperset(self.button):
            first = next(b for b in self.button if b not in _BUTTON_SET)
            raise DomainError(f"button must be one of {BUTTONS}, got {first!r}")

    def __len__(self) -> int:
        return self.time.size


class TrialMetrics(Record):
    """Scalar outcomes of one cleaned trial."""

    rom_ab: float                 # deg
    rom_ad: float                 # deg
    rom_total: float              # deg
    tau_rms: float                # N*m, motor side
    n_samples: int
    interpolated_fraction: float
    meta: TrialMeta | None = None

    def __post_init__(self):
        if not (self.rom_ab >= 0 and self.rom_ad >= 0):
            raise DomainError("ROM components must be >= 0")
        if self.rom_total != self.rom_ab + self.rom_ad:
            raise DomainError("rom_total must equal rom_ab + rom_ad exactly")
        if not self.tau_rms >= 0:
            raise DomainError("tau_rms must be >= 0")
        if not self.n_samples >= 1:
            raise DomainError("n_samples must be >= 1")
        if not 0.0 <= self.interpolated_fraction <= 1.0:
            raise DomainError("interpolated_fraction must lie in [0, 1]")


class FriedmanResult(Record):
    chi2: float
    p_value: float
    df: int


class LikertResponse(Record):
    """One questionnaire answer on the 10-point discomfort/burden scale."""

    participant: str
    item: str
    score: int

    def __post_init__(self):
        if self.item not in LIKERT_ITEMS:
            raise DomainError(f"item must be one of {LIKERT_ITEMS}, got {self.item!r}")
        object.__setattr__(self, "score", check_real("score", self.score, "[1, 10]", True))


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------

def clean_interpolate(log: TrialLog,
                      angle_bounds: tuple = DEFAULT_ANGLE_BOUNDS,
                      max_fraction: float = DEFAULT_MAX_INTERP_FRACTION):
    """Repair invalid samples by linear interpolation in time.

    A sample is invalid when its angle or current is non-finite or its
    angle falls outside ``angle_bounds`` (deg).  Interior invalid runs
    are filled channel-wise by linear interpolation between the nearest
    valid neighbors; invalid samples at the very start or end have no
    bracketing neighbors and are dropped instead.

    Returns ``(cleaned_log, fraction)`` where ``fraction`` is the share
    of samples that needed repair.  Raises :class:`TrialRejected` when
    the fraction exceeds ``max_fraction``.
    """
    lo, hi = angle_bounds
    if not lo < hi:
        raise DomainError(f"angle_bounds must satisfy lo < hi, got {angle_bounds}")
    angle = log.angle_deg
    current = log.current_ma
    valid = (np.isfinite(angle) & np.isfinite(current)
             & (angle >= lo) & (angle <= hi))
    n = valid.size
    n_bad = n - int(np.count_nonzero(valid))  # Python numbers, so fraction is a float
    fraction = n_bad / n
    if fraction > max_fraction:
        raise TrialRejected(
            f"{fraction:.1%} of samples invalid, above the {max_fraction:.1%} limit",
            fraction)
    if n_bad == 0:
        return log, 0.0

    if n_bad == n:
        raise TrialRejected("no valid samples", fraction)
    idx_valid = np.flatnonzero(valid)
    keep = slice(idx_valid[0], idx_valid[-1] + 1)
    time = log.time[keep]
    angle = angle[keep].copy()
    current = current[keep].copy()
    good = valid[keep]
    bad = ~good
    bad_t, good_t = time[bad], time[good]
    angle[bad] = np.interp(bad_t, good_t, angle[good])
    current[bad] = np.interp(bad_t, good_t, current[good])
    return TrialLog(time, angle, current, log.button[keep], log.meta), fraction


# ---------------------------------------------------------------------------
# per-trial metrics
# ---------------------------------------------------------------------------

def rom_metrics(log: TrialLog) -> tuple:
    """(rom_ab, rom_ad, rom_total) in degrees from a cleaned angle trace.

    Abduction ROM is the peak positive excursion, adduction ROM the peak
    negative excursion magnitude; each clamps at +0.0 when the trace
    never crosses to that side.
    """
    top, bottom = float(log.angle_deg.max()), float(log.angle_deg.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):  # NaN propagates through both
        raise DomainError("rom_metrics needs a cleaned log (finite angles)")
    # max keeps its first argument on a tie, so a -0.0 excursion clamps to +0.0
    rom_ab = max(0.0, top)
    rom_ad = max(0.0, -bottom)
    return rom_ab, rom_ad, rom_ab + rom_ad


def rms_torque(log: TrialLog, gear: Gearing) -> float:
    """Root-mean-square motor-side torque (N*m) over the trial; inf when the
    squares overflow (a current above about 1.3e157 mA)."""
    with np.errstate(over="ignore"):  # np.mean's pairwise sum and division, without its Python
        squares = np.square(log.current_ma / 1000.0)
        return float(np.sqrt(np.add.reduce(squares) / squares.size) * gear.torque_constant)


def joint_torque_estimate(tau_motor: float, gear: Gearing) -> float:
    """Joint-side torque implied by a motor-side torque through the gearing."""
    return check_real("tau_motor", tau_motor, ">= 0") * gear.ratio * gear.efficiency


def trial_metrics(log: TrialLog, gear: Gearing,
                  interpolated_fraction: float = 0.0) -> TrialMetrics:
    """Bundle ROM and RMS-torque outcomes for one cleaned trial.

    Every per-trial check is made here, so :func:`aggregate_report` never
    raises for metrics this returns: a total ROM that is not finite, or a
    torque with no finite joint torque through the gearing, raises
    :class:`DataError`, which rejects the one log.
    """
    rom_ab, rom_ad, rom_total = rom_metrics(log)
    if not math.isfinite(rom_total):
        raise DataError(f"total ROM is not finite ({rom_ab} + {rom_ad} deg)")
    tau_rms = rms_torque(log, gear)
    if not math.isfinite(tau_rms * gear.ratio * gear.efficiency):
        raise DataError(f"joint torque is not finite (RMS motor torque {tau_rms} N*m)")
    return TrialMetrics(rom_ab, rom_ad, rom_total, tau_rms,
                        len(log), interpolated_fraction, log.meta)


def repeatability(m1: TrialMetrics, m2: TrialMetrics) -> float:
    """|rom_total difference| (deg) between two repeats of the same condition."""
    if (m1.meta is None) != (m2.meta is None):
        raise DomainError("both metrics need metadata to pair, or neither")
    if m1.meta is not None and m1.meta.condition() != m2.meta.condition():
        raise DomainError(
            f"trials are from different conditions: "
            f"{m1.meta.condition()} vs {m2.meta.condition()}")
    return abs(m1.rom_total - m2.rom_total)


# ---------------------------------------------------------------------------
# statistics across trials
# ---------------------------------------------------------------------------

def friedman_test(data) -> FriedmanResult:
    """Friedman rank test over an n-subjects x m-conditions matrix.

    Each subject's row is ranked ascending (ties take average ranks);
    the statistic is the normalized spread of the column rank sums,
    divided by the standard tie-correction factor, and referred to a
    chi-squared distribution with m - 1 degrees of freedom.  A matrix
    whose every row is fully tied carries no ordering information and
    returns (chi2=0, p=1).
    """
    rows = [list(map(float, row)) for row in data]
    n = len(rows)
    if n < 2:
        raise DomainError(f"need at least 2 subjects, got {n}")
    m = len(rows[0])
    if m < 2:
        raise DomainError(f"need at least 2 conditions, got {m}")
    for row in rows:
        if len(row) != m:
            raise DomainError("all rows must have the same number of conditions")
        if not all(math.isfinite(v) for v in row):
            raise DomainError("matrix cells must be finite (no missing cells)")

    # A cell's average 1-based rank is the count of smaller cells in its row (its
    # first index in the sorted row) plus (t + 1) / 2 for its tie group of size t, a
    # half-integer, so every sum is exact; a group's t cells sum t**2 - 1 to t**3 - t.
    ranks = [[ordered.index(v) + (row.count(v) + 1) / 2 for v in row]
             for row, ordered in zip(rows, map(sorted, rows))]
    col_sums = [sum(column) for column in zip(*ranks)]
    tie_sum = sum(row.count(v) ** 2 - 1 for row in rows for v in row)
    sum_sq = sum(c * c for c in col_sums)
    chi2 = 12.0 * sum_sq / (n * m * (m + 1)) - 3.0 * n * (m + 1)
    correction = 1.0 - tie_sum / (n * (m ** 3 - m))
    df = m - 1
    if correction == 0.0:  # every row fully tied
        return FriedmanResult(0.0, 1.0, df)
    chi2 /= correction
    return FriedmanResult(chi2, chi2_survival(chi2, df), df)


def likert_summary(responses) -> dict:
    """Per-item mean and sample standard deviation of Likert scores.

    Items with no responses are simply absent.  An item with a single
    response gets sd = 0 by convention and a warning, since no spread
    can be estimated.
    """
    by_item = {}
    for resp in responses:
        by_item.setdefault(resp.item, []).append(resp.score)
    summary = {}
    for item in sorted(by_item):
        if len(by_item[item]) == 1:
            warnings.warn(f"likert item {item!r} has a single response; sd set to 0",
                          stacklevel=2)
        summary[item] = _mean_sd(by_item[item])
    return summary


# ---------------------------------------------------------------------------
# study-level aggregation
# ---------------------------------------------------------------------------

def _percentile(ordered, q) -> float:
    """The ``q`` quantile (0 <= q <= 1) of the sorted list ``ordered`` by
    ``np.percentile``'s default ("linear") rule, bit for bit: the same two
    neighbours (the last value twice once the index reaches n - 1), weight and
    ``_lerp`` formula.  ``np.percentile`` itself imports ``numpy.ma`` on first use."""
    n = len(ordered)
    index = (n - 1) * q
    lo = hi = -1
    if index < n - 1:
        lo = math.floor(index)
        hi = lo + 1
    t = index - lo
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _five_number(values) -> dict:
    ordered = sorted(map(float, values))
    summary = {key: _percentile(ordered, q) for key, q in (
        ("min", 0.0), ("q1", 0.25), ("median", 0.5), ("q3", 0.75), ("max", 1.0))}
    summary["n"] = len(ordered)
    return summary


def _scaled(values) -> tuple:
    """``(values sorted, over 2**exp; exp)``: the power of two that bounds them scales
    them exactly and keeps their order, and no sum of them then overflows."""
    ordered = sorted(values)
    _, exp = math.frexp(max(abs(ordered[0]), abs(ordered[-1])))
    return np.ldexp(ordered, -exp), exp


def _mean(values) -> float:
    scaled, exp = _scaled(values)
    return math.ldexp(float(scaled.mean()), exp)


def _mean_sd(values) -> dict:
    scaled, exp = _scaled(values)
    sd = math.ldexp(float(scaled.std(ddof=1)), exp) if scaled.size > 1 else 0.0
    return {"mean": math.ldexp(float(scaled.mean()), exp), "sd": sd, "n": int(scaled.size)}


_OUTCOMES = (("rom_total_deg", operator.attrgetter("rom_total")),
             ("tau_rms_nm", operator.attrgetter("tau_rms")))


class TrialRecords:
    """The report's per-trial records in the order of ``metrics``, each built on access:
    a read-only sequence, so no list of them is held (``list(records)`` makes one)."""

    def __init__(self, metrics, gear: Gearing):
        self._metrics, self._gear = metrics, gear

    def __len__(self) -> int:
        return len(self._metrics)

    def __getitem__(self, index) -> dict:
        return self._record(self._metrics[operator.index(index)])

    def __iter__(self):
        return map(self._record, self._metrics)

    def _record(self, m) -> dict:
        return {
            "participant": m.meta.participant,
            "posture": m.meta.posture,
            "load": m.meta.load,
            "spring": m.meta.spring,
            "trial": m.meta.trial_index,
            "rom_ab_deg": m.rom_ab,
            "rom_ad_deg": m.rom_ad,
            "rom_total_deg": m.rom_total,
            "tau_rms_nm": m.tau_rms,
            "joint_torque_nm": joint_torque_estimate(m.tau_rms, self._gear),
            "n_samples": m.n_samples,
            "interpolated_fraction": m.interpolated_fraction,
        }


def aggregate_report(metrics, gear: Gearing, rejected=(), likert_responses=()) -> dict:
    """Reduce per-trial metrics to the study-level report structure.

    ``metrics`` must all carry metadata.  The report holds per-trial
    records (a :class:`TrialRecords`, in the given order), per-spring
    distribution summaries, per-spring-and-posture repeatability of trial
    pairs, Friedman tests across springs on total ROM and RMS torque
    (omitted with a warning when the design is incomplete), Likert
    summaries when responses are given, and the list of rejected trials.
    """
    metrics = list(metrics)
    if not metrics:
        raise DomainError("no usable trials to aggregate")
    by_condition, by_spring = {}, {}
    for m in metrics:
        if m.meta is None:
            raise DomainError("aggregate_report needs metadata on every trial")
        by_condition.setdefault(m.meta.condition(), []).append(m)
        by_spring.setdefault(m.meta.spring, []).append(m)
    springs = sorted(by_spring)

    report = {"n_trials": len(metrics), "trials": TrialRecords(metrics, gear)}
    for key, value_of in _OUTCOMES:
        report[key] = {s: _five_number(map(value_of, by_spring[s])) for s in springs}

    # a condition joins its Friedman cell; its consecutive trial indices are repeat pairs
    cells, deltas = {}, {}
    for (participant, posture, _, spring), group in by_condition.items():
        cells.setdefault((participant, spring), []).extend(group)
        group.sort(key=lambda m: m.meta.trial_index)
        if len(group) > 1:
            deltas.setdefault(spring, {}).setdefault(posture, []).extend(
                map(repeatability, group, group[1:]))
    repeat = {}
    for s, by_posture in sorted(deltas.items()):
        repeat[s] = {posture: _mean_sd(by_posture[posture]) for posture in sorted(by_posture)}
        repeat[s]["overall"] = _mean_sd([d for pairs in by_posture.values() for d in pairs])
    report["repeatability"] = repeat

    # the Friedman test needs every (participant, spring) cell: one reason omits both outcomes
    participants = sorted({participant for participant, _ in cells})
    omitted = next((f"participant {p!r} has no {s!r} trials"
                    for p in participants for s in springs if (p, s) not in cells), None)
    if omitted is None and min(len(participants), len(springs)) < 2:
        omitted = "need at least 2 participants and 2 springs"
    friedman = {}
    for key, value_of in _OUTCOMES:
        if omitted is not None:
            warnings.warn(f"friedman test on {key} omitted: {omitted}", stacklevel=2)
            friedman[key] = {"omitted": omitted}
            continue
        result = friedman_test([[_mean(map(value_of, cells[p, s])) for s in springs]
                                for p in participants])
        friedman[key] = {"chi2": result.chi2, "p": result.p_value, "df": result.df}
    report["friedman"] = friedman

    if likert_responses:
        report["likert"] = likert_summary(likert_responses)
    report["rejected"] = [{"file": name, "reason": reason} for name, reason in rejected]
    return report
