"""Readers of the CLI's report files, for tests that read outputs back.

Each is the inverse of a writer in morphguard.metrics: the floats are
written with repr, so parsing recovers the exact binary values.
"""

import csv
import json

import numpy as np

from morphguard.errors import DataError
from morphguard.metrics import MorphTrials, OperatingPoint, ThresholdCurve, VerificationSet


def load_curve_csv(path) -> ThresholdCurve:
    thresholds, values = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            thresholds.append(float(row["threshold"]))
            values.append(float(row["value"]))
    return ThresholdCurve(np.array(thresholds), np.array(values))


def load_operating_points_csv(path) -> list[OperatingPoint]:
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            points.append(
                OperatingPoint(
                    metric=row["metric"],
                    target=float(row["target"]) if row["target"] else None,
                    achieved=float(row["achieved"]) if row["achieved"] else None,
                    threshold=float(row["threshold"]) if row["threshold"] else None,
                    value=float(row["value"]),
                )
            )
    return points


def load_scores_csv(path) -> VerificationSet:
    genuine, impostor = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["label"] == "genuine":
                genuine.append(float(row["score"]))
            elif row["label"] == "impostor":
                impostor.append(float(row["score"]))
            else:
                raise DataError(f"unknown score label {row['label']!r}")
    return VerificationSet(np.array(genuine), np.array(impostor))


def load_trials_json(path) -> MorphTrials:
    """The MorphTrials save_trials_json wrote; morph ids must count the rows."""
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    try:
        if [int(r["morph_id"]) for r in records] != list(range(len(records))):
            raise DataError(f"trials file {path} does not number its morphs 0, 1, ...")
        return MorphTrials(np.array([r["subject_scores"] for r in records], dtype=np.float64))
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed trials file {path}") from exc
