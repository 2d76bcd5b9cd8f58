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
always evaluated on value-sorted arrays so that reports are bit-stable
regardless of the order trials were ingested.
"""

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, TrialRejected, check_real
from .stats import chi2_survival
from .transmission import Gearing

BUTTONS = ("", "B2", "B3", "B4")  # B2 abduct, B3 adduct, B4 return to neutral
LOADS = ("unloaded", "loaded_300g")
LIKERT_ITEMS = ("size", "weight", "don_doff")

DEFAULT_ANGLE_BOUNDS = (-60.0, 45.0)  # deg, hardware range plus calibration slack
DEFAULT_MAX_INTERP_FRACTION = 0.05


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TrialMeta:
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
        if self.trial_index < 1:
            raise DomainError(f"trial_index must be >= 1, got {self.trial_index}")

    def condition(self) -> tuple:
        """Everything but the trial index; repeated trials share this."""
        return (self.participant, self.posture, self.load, self.spring)


@dataclass(frozen=True)
class TrialLog:
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
        if time.ndim != 1 or n == 0:
            raise DomainError("trial log must contain at least one sample")
        if angle.shape != time.shape or current.shape != time.shape or len(self.button) != n:
            raise DomainError("trial log channels must have equal length")
        if not np.isfinite(time).all():
            raise DomainError("timestamps must be finite")
        if not (time[1:] > time[:-1]).all():  # np.diff would overflow at ±1e308
            raise DomainError("timestamps must be strictly increasing")
        unknown = set(self.button).difference(BUTTONS)
        if unknown:
            first = next(b for b in self.button if b in unknown)
            raise DomainError(f"button must be one of {BUTTONS}, got {first!r}")

    def __len__(self) -> int:
        return self.time.size


@dataclass(frozen=True, slots=True)
class TrialMetrics:
    """Scalar outcomes of one cleaned trial."""

    rom_ab: float                 # deg
    rom_ad: float                 # deg
    rom_total: float              # deg
    tau_rms: float                # N*m, motor side
    n_samples: int
    interpolated_fraction: float
    meta: TrialMeta | None = None

    def __post_init__(self):
        if self.rom_ab < 0 or self.rom_ad < 0:
            raise DomainError("ROM components must be >= 0")
        if self.rom_total != self.rom_ab + self.rom_ad:
            raise DomainError("rom_total must equal rom_ab + rom_ad exactly")
        if self.tau_rms < 0:
            raise DomainError("tau_rms must be >= 0")
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if not 0.0 <= self.interpolated_fraction <= 1.0:
            raise DomainError("interpolated_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class FriedmanResult:
    chi2: float
    p_value: float
    df: int


@dataclass(frozen=True)
class LikertResponse:
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
    n_bad = int(n - valid.sum())
    fraction = n_bad / n
    if fraction > max_fraction:
        raise TrialRejected(
            f"{fraction:.1%} of samples invalid, above the {max_fraction:.1%} limit",
            fraction)
    if n_bad == 0:
        return log, 0.0

    if not valid.any():
        raise TrialRejected("no valid samples", fraction)
    idx_valid = np.flatnonzero(valid)
    first, last = idx_valid[0], idx_valid[-1]
    keep = slice(first, last + 1)
    time = log.time[keep]
    angle = angle[keep].copy()
    current = current[keep].copy()
    bad = ~valid[keep]
    if bad.any():
        good_t = time[~bad]
        angle[bad] = np.interp(time[bad], good_t, angle[~bad])
        current[bad] = np.interp(time[bad], good_t, current[~bad])
    cleaned = object.__new__(TrialLog)  # a slice of a checked log: no re-check needed
    cleaned.__dict__.update(time=time, angle_deg=angle, current_ma=current,
                            button=log.button[keep], meta=log.meta)
    return cleaned, fraction


# ---------------------------------------------------------------------------
# per-trial metrics
# ---------------------------------------------------------------------------

def rom_metrics(log: TrialLog) -> tuple:
    """(rom_ab, rom_ad, rom_total) in degrees from a cleaned angle trace.

    Abduction ROM is the peak positive excursion, adduction ROM the peak
    negative excursion magnitude; each clamps at +0.0 when the trace
    never crosses to that side.
    """
    angle = log.angle_deg
    if not np.isfinite(angle).all():
        raise DomainError("rom_metrics needs a cleaned log (finite angles)")
    # max keeps its first argument on a tie, so a -0.0 excursion clamps to +0.0
    rom_ab = max(0.0, float(angle.max()))
    rom_ad = max(0.0, -float(angle.min()))
    return rom_ab, rom_ad, rom_ab + rom_ad


def rms_torque(log: TrialLog, gear: Gearing) -> float:
    """Root-mean-square motor-side torque (N*m) over the trial; inf when the
    squares overflow (a current above about 1.3e157 mA)."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(np.square(log.current_ma / 1000.0)))
                     * gear.torque_constant)


def joint_torque_estimate(tau_motor: float, gear: Gearing) -> float:
    """Joint-side torque implied by a motor-side torque through the gearing."""
    return check_real("tau_motor", tau_motor, ">= 0") * gear.ratio * gear.efficiency


def trial_metrics(log: TrialLog, gear: Gearing,
                  interpolated_fraction: float = 0.0) -> TrialMetrics:
    """Bundle ROM and RMS-torque outcomes for one cleaned trial.

    Every per-trial check is made here, so :func:`aggregate_report` never
    raises for metrics this returns: a torque with no finite joint torque
    through the gearing raises :class:`DataError`, which rejects the one log.
    """
    rom_ab, rom_ad, rom_total = rom_metrics(log)
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
    matrix = np.array(rows)

    # A cell's average 1-based rank is the count of smaller cells in its
    # row plus (t + 1) / 2 for its tie group of size t (itself included);
    # summing t**2 - 1 over the t cells of a group gives its t**3 - t.
    below = (matrix[:, :, None] > matrix[:, None, :]).sum(2)
    ties = (matrix[:, :, None] == matrix[:, None, :]).sum(2)
    col_sums = (below + (ties + 1) / 2).sum(0)
    tie_sum = float((ties ** 2 - 1).sum())

    sum_sq = float((col_sums * col_sums).sum())
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


def _mean_sd(values) -> dict:
    arr = np.sort(np.asarray(values, dtype=float))
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "sd": sd, "n": int(arr.size)}


_OUTCOMES = (("rom_total_deg", operator.attrgetter("rom_total")),
             ("tau_rms_nm", operator.attrgetter("tau_rms")))


def _friedman_matrix(cells, participants, springs, value_of):
    """``(participant x spring matrix of per-cell means over 2**k, None)``, or ``(None,
    reason)`` naming the first missing cell; ``cells`` maps (participant, spring) to trials."""
    for p in participants:
        for s in springs:
            if (p, s) not in cells:
                return None, f"participant {p!r} has no {s!r} trials"
    # one power of two for every cell scales exactly, keeps the ranks and
    # bounds each cell sum, which near the float limit would overflow
    _, exp = math.frexp(max(abs(value_of(m)) for group in cells.values() for m in group))
    return [[float(np.sort(np.ldexp(list(map(value_of, cells[p, s])), -exp)).mean())
             for s in springs] for p in participants], None


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
            by_posture, overall = deltas.setdefault(spring, ({}, []))
            pairs = list(map(repeatability, group, group[1:]))
            by_posture.setdefault(posture, []).extend(pairs)
            overall.extend(pairs)
    repeat = {}
    for s in sorted(deltas):
        by_posture, overall = deltas[s]
        repeat[s] = {posture: _mean_sd(by_posture[posture]) for posture in sorted(by_posture)}
        repeat[s]["overall"] = _mean_sd(overall)
    report["repeatability"] = repeat

    participants = sorted({participant for participant, _ in cells})
    friedman = {}
    for key, value_of in _OUTCOMES:
        matrix, reason = _friedman_matrix(cells, participants, springs, value_of)
        if matrix is None or len(matrix) < 2 or len(matrix[0]) < 2:
            reason = reason or "need at least 2 participants and 2 springs"
            warnings.warn(f"friedman test on {key} omitted: {reason}", stacklevel=2)
            friedman[key] = {"omitted": reason}
            continue
        result = friedman_test(matrix)
        friedman[key] = {"chi2": result.chi2, "p": result.p_value, "df": result.df}
    report["friedman"] = friedman

    if likert_responses:
        report["likert"] = likert_summary(likert_responses)
    report["rejected"] = [{"file": name, "reason": reason} for name, reason in rejected]
    return report
