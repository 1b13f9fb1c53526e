"""Verification and morph-robustness metrics.

One decision rule is used everywhere: a comparison at threshold tau is
a match iff its similarity score is strictly greater than tau. So
FNMR(tau) is the fraction of genuine scores <= tau, FMR(tau) the
fraction of impostor scores > tau, and a morph counts as a successful
attack iff the minimum of its per-subject scores exceeds tau.

All curves are piecewise constant between observed scores, so the
candidate threshold grid (distinct scores plus the sentinels -1 and +1)
captures every attainable value; operating points are taken on that
grid without interpolation, ties broken toward the smallest threshold.
A zero on a grid is +0.0, whichever zeros the scores hold.
Every operating point is read off curves that fnmr_fmr_curves and
mmpmr_curve built: FNMR steps only at genuine scores and MMPMR only at
trial minima, so min-RMMR needs no grid beyond the FNMR curve's plus
the trial minima. The morph metrics mmpmr, mmpmr_curve and min_rmmr
take MorphTrials only and read its sorted minima. Every rate is
computed as an integer count divided by the pool size, which makes
outputs reproducible bit-for-bit by direct enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericInputError, UnattainableOperatingPointError, check_real
from .floattext import row_texts

FROM_BELOW = "from_below"
FROM_ABOVE = "from_above"


def _scores_array(scores, name: str, shape: str) -> np.ndarray:
    try:
        arr = np.asarray(scores, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} need a numeric {shape} array, got ragged or non-numeric values") from exc
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(np.abs(arr) > 1.0)):
        raise NumericInputError(f"{name} must be finite similarity scores in [-1, 1]")
    return arr


@dataclass(frozen=True)
class VerificationSet:
    """Genuine and impostor similarity scores of a 1-1 protocol."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "genuine", _scores_array(self.genuine, "genuine scores", "(N,)").ravel())
        object.__setattr__(self, "impostor", _scores_array(self.impostor, "impostor scores", "(N,)").ravel())


@dataclass(frozen=True)
class MorphTrial:
    """Row morph_id of a MorphTrials: one morph's scores against its subjects."""

    morph_id: int
    subject_scores: np.ndarray


@dataclass(frozen=True, eq=False)
class MorphTrials:
    """Morph trials as one (T, K) score array, T >= 1 and K >= 2, checked once.

    minima holds the per-trial minimum scores in ascending order, a zero
    as +0.0; mmpmr, mmpmr_curve and min_rmmr read only it. Item t (so
    iteration) is the MorphTrial view of row t.
    """

    scores: np.ndarray
    minima: np.ndarray = field(init=False)

    def __post_init__(self):
        scores = _scores_array(self.scores, "subject scores", "(T, K >= 2)")
        if scores.ndim != 2 or scores.shape[1] < 2:
            raise ConfigError(f"morph trials need a (T, K >= 2) score array, got shape {scores.shape}")
        if len(scores) == 0:
            raise ConfigError("need at least one morph trial")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "minima", np.sort(scores.min(axis=1)) + 0.0)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, index: int) -> MorphTrial:
        return MorphTrial(range(len(self))[index], self.scores[index])


def _match_rate(sorted_scores: np.ndarray, thresholds):
    """Share of sorted scores above each threshold: the FMR of impostor
    scores, the MMPMR of trial minimum scores."""
    return (sorted_scores.size - np.searchsorted(sorted_scores, thresholds, side="right")) / sorted_scores.size


@dataclass(frozen=True)
class ThresholdCurve:
    """A rate evaluated over a strictly increasing threshold grid."""

    thresholds: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=np.float64)
        val = np.asarray(self.values, dtype=np.float64)
        if thr.shape != val.shape or thr.ndim != 1 or thr.size == 0:
            raise ConfigError("curve needs matching nonempty threshold/value vectors")
        if not np.all(np.isfinite(thr)) or np.any(np.diff(thr) <= 0):
            raise ConfigError("curve thresholds must be finite and strictly increasing")
        if not np.all((val >= 0) & (val <= 1)):
            raise ConfigError("curve values must lie in [0, 1]")
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "values", val)


def fnmr_fmr_curves(verification: VerificationSet):
    """FNMR and FMR over the union of all scores plus sentinels."""
    genuine, impostor = verification.genuine, verification.impostor
    if genuine.size == 0 or impostor.size == 0:
        raise ConfigError("curves need nonempty genuine and impostor score lists")
    # + 0.0 keeps every float and makes a zero +0.0, whichever zero np.unique kept.
    grid = np.unique(np.concatenate([genuine, impostor, [-1.0, 1.0]])) + 0.0
    fnmr = ThresholdCurve(grid, np.searchsorted(np.sort(genuine), grid, side="right") / genuine.size)
    return fnmr, ThresholdCurve(grid, _match_rate(np.sort(impostor), grid))


def threshold_at(curve: ThresholdCurve, target: float, direction: str):
    """Smallest threshold whose value satisfies the target.

    direction FROM_BELOW: the value must have risen to >= target (use
    for non-decreasing curves such as FNMR, approaching the target from
    below). direction FROM_ABOVE: the value must have dropped to
    <= target (use for non-increasing curves such as FMR). Returns
    (threshold, achieved value); raises if the curve never satisfies
    the target, carrying the closest achievable value.
    """
    if not (0.0 <= target <= 1.0):
        raise ConfigError(f"target rate must lie in [0, 1], got {target}")
    if direction == FROM_BELOW:
        mask = curve.values >= target
        closest = float(curve.values.max())
    elif direction == FROM_ABOVE:
        mask = curve.values <= target
        closest = float(curve.values.min())
    else:
        raise ConfigError(f"unknown direction {direction!r}")
    if not mask.any():
        raise UnattainableOperatingPointError(
            f"no threshold reaches target {target} ({direction})", closest
        )
    idx = int(np.argmax(mask))
    return float(curve.thresholds[idx]), float(curve.values[idx])


def mmpmr(trials: MorphTrials, tau: float) -> float:
    """Fraction of morphs whose weakest subject score still exceeds tau."""
    return float(_match_rate(trials.minima, tau))


def mmpmr_curve(trials: MorphTrials, thresholds) -> ThresholdCurve:
    """Pointwise match rate over a sorted threshold grid."""
    grid = np.asarray(thresholds, dtype=np.float64)
    return ThresholdCurve(grid, _match_rate(trials.minima, grid))


def rmmr(mmpmr_value: float, fnmr_value: float) -> float:
    """Combined robustness/recognition rate: match rate plus FNMR.

    Algebraically identical to 1 + (match rate - true match rate).
    """
    for name, v in (("mmpmr", mmpmr_value), ("fnmr", fnmr_value)):
        if not (0.0 <= v <= 1.0):
            raise ConfigError(f"{name} value must lie in [0, 1], got {v}")
    return mmpmr_value + fnmr_value


def min_rmmr(trials: MorphTrials, fnmr: ThresholdCurve):
    """Minimize mmpmr(tau) + fnmr(tau) over the FNMR curve's grid plus the trial minima.

    FNMR steps only at genuine scores and MMPMR only at trial minima, so
    the sum is constant from each such score, or from -1, up to the next.
    Hence the smallest minimizer over all distinct scores plus the
    sentinels is one of these points, which this smaller grid holds, and
    its value is the same counts over the same pool sizes. FNMR is read
    off the curve at the largest threshold <= tau, so the curve must
    start at the -1 sentinel; ties resolve to the smallest threshold.
    """
    if fnmr.thresholds[0] != -1.0:
        raise ConfigError("min-RMMR needs an FNMR curve whose first threshold is -1")
    grid = np.union1d(fnmr.thresholds, trials.minima)
    values = _match_rate(trials.minima, grid) + fnmr.values[np.searchsorted(fnmr.thresholds, grid, side="right") - 1]
    idx = int(np.argmin(values))
    return float(grid[idx]), float(values[idx])


@dataclass(frozen=True)
class OperatingPoint:
    """One row of an operating-point report."""

    metric: str
    target: float
    achieved: float
    threshold: float
    value: float


def check_target(kind: str, target: float):
    check_real(f"{kind} target", target, 0.0, 1.0)


def mmpmr_at_fnmr(match: ThresholdCurve, fnmr: ThresholdCurve, fnmr_targets) -> list[OperatingPoint]:
    """Morph match rate at thresholds pinned by FNMR targets, read off an MMPMR and an FNMR curve on
    one threshold grid; on the grid fnmr_fmr_curves builds, the +1 sentinel reaches every target."""
    if not np.array_equal(match.thresholds, fnmr.thresholds):
        raise ConfigError("MMPMR and FNMR curves must share one threshold grid")
    points = []
    for target in fnmr_targets:
        check_target("FNMR", target)
        tau, achieved = threshold_at(fnmr, target, FROM_BELOW)
        value = float(match.values[np.searchsorted(fnmr.thresholds, tau)])
        points.append(OperatingPoint("mmpmr_at_fnmr", float(target), achieved, tau, value))
    return points


def fnmr_at_fmr(fnmr: ThresholdCurve, fmr: ThresholdCurve, fmr_targets) -> list[OperatingPoint]:
    """Verification FNMR at thresholds pinned by FMR targets, read off curves on one threshold grid."""
    if not np.array_equal(fnmr.thresholds, fmr.thresholds):
        raise ConfigError("FNMR and FMR curves must share one threshold grid")
    points = []
    for target in fmr_targets:
        check_target("FMR", target)
        tau, achieved = threshold_at(fmr, target, FROM_ABOVE)
        value = float(fnmr.values[np.searchsorted(fmr.thresholds, tau)])
        points.append(OperatingPoint("fnmr_at_fmr", float(target), achieved, tau, value))
    return points


# --- serialization ---------------------------------------------------------


def save_curve_csv(curve: ThresholdCurve, path):
    """Write a curve as `threshold,value` rows, each value repr(float(v))."""
    rows = row_texts(np.column_stack((curve.thresholds, curve.values)), ",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("threshold,value\n")
        fh.write(("%s\n" * len(rows)) % tuple(rows))


OPERATING_POINT_HEADER = "metric,target,achieved,threshold,value"


def operating_point_row(point: OperatingPoint) -> str:
    """One CSV row under OPERATING_POINT_HEADER, without the newline.

    Fields without a meaningful value for a metric (e.g. the target of
    min_rmmr) are left empty.
    """
    optional = ("" if v is None else repr(float(v)) for v in (point.target, point.achieved, point.threshold))
    return ",".join((point.metric, *optional, repr(float(point.value))))


def save_operating_points_csv(points, path):
    """Write one operating_point_row per point under its header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(OPERATING_POINT_HEADER + "\n")
        fh.writelines(operating_point_row(point) + "\n" for point in points)


def save_scores_csv(verification: VerificationSet, path):
    """Write scores as `label,score` rows, genuine first, each score repr(float(s))."""
    genuine = verification.genuine.size
    texts = row_texts(np.concatenate((verification.genuine, verification.impostor))[:, None], ",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("label,score\n")
        fh.write(("genuine,%s\n" * genuine) % tuple(texts[:genuine]))
        fh.write(("impostor,%s\n" * (len(texts) - genuine)) % tuple(texts[genuine:]))


def save_trials_json(trials: MorphTrials, path):
    """Write MorphTrials as a JSON array of id/score objects, ids counting rows.

    The bytes are json.dump(records, fh, indent=1)'s plus a newline, built
    from one record template and repr(float(s)) of each score.
    """
    rows = row_texts(trials.scores, ",\n   ")
    records = ",\n".join(f' {{\n  "morph_id": {t},\n  "subject_scores": [\n   {row}\n  ]\n }}'
                          for t, row in enumerate(rows))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[\n{records}\n]\n")
