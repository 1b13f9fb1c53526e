"""Output checks that do not rely on the code they check.

The operating points are recomputed by enumerating every candidate
threshold and counting scores on either side of it; nothing here
imports ``morphguard.metrics``. Every rate is an integer count divided
by a pool size, as in the library, so agreement must be bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


def _count_le(scores: np.ndarray, tau: float) -> int:
    return int(np.count_nonzero(scores <= tau))


def _count_gt(scores: np.ndarray, tau: float) -> int:
    return int(np.count_nonzero(scores > tau))


def expected_points(genuine, impostor, subject_scores, fnmr_targets, fmr_targets) -> dict:
    """Brute-force operating points keyed by (metric, target).

    Values are (achieved, threshold, value); min_rmmr has no target and
    no achieved rate. A comparison matches iff its score is strictly
    greater than the threshold; ties go to the smallest threshold.
    """
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    subject_scores = np.asarray(subject_scores, dtype=np.float64)
    mins = subject_scores.min(axis=1)
    verification_grid = sorted({-1.0, 1.0, *genuine.tolist(), *impostor.tolist()})

    points = {}
    for target in fnmr_targets:
        for tau in verification_grid:
            fnmr = _count_le(genuine, tau) / genuine.size
            if fnmr >= target:
                break
        points[("mmpmr_at_fnmr", float(target))] = (fnmr, tau, _count_gt(mins, tau) / mins.size)
    for target in fmr_targets:
        for tau in verification_grid:
            fmr = _count_gt(impostor, tau) / impostor.size
            if fmr <= target:
                break
        points[("fnmr_at_fmr", float(target))] = (fmr, tau, _count_le(genuine, tau) / genuine.size)

    best_tau, best_value = None, math.inf
    for tau in sorted(set(verification_grid) | set(subject_scores.ravel().tolist())):
        value = _count_gt(mins, tau) / mins.size + _count_le(genuine, tau) / genuine.size
        if value < best_value:
            best_tau, best_value = tau, value
    points[("min_rmmr", None)] = (None, best_tau, best_value)
    return points


def _hex(value):
    return None if value is None else float(value).hex()


def point_failures(reported, expected: dict) -> list[str]:
    """Compare reported (metric, target, achieved, threshold, value)
    rows bit for bit against expected_points()."""
    failures = []
    seen = set()
    for metric, target, achieved, threshold, value in reported:
        if metric == "morph_spread":
            continue
        key = (metric, None if target is None else float(target))
        seen.add(key)
        want = expected.get(key)
        got = (achieved, threshold, value)
        if want is None or [_hex(v) for v in got] != [_hex(v) for v in want]:
            failures.append(f"{metric}@{target}: reported {got}, brute force {want}")
    for key in expected.keys() - seen:
        failures.append(f"{key[0]}@{key[1]}: missing from the report")
    return failures


def protocol_failures(pairs, subset_of, samples_per_identity: int) -> list[str]:
    """Every pair is cross-subset (subset-1 parent first), in range, and unique.

    pairs holds (identity_a, identity_b, sample_a, sample_b) tuples.
    """
    failures = []
    seen = set()
    for pair in pairs:
        identity_a, identity_b, sample_a, sample_b = pair
        if (subset_of(identity_a), subset_of(identity_b)) != (1, 2):
            failures.append(f"pair {pair} is not oriented subset 1 -> subset 2")
        if not (0 <= sample_a < samples_per_identity and 0 <= sample_b < samples_per_identity):
            failures.append(f"pair {pair} refers outside the training pool")
        if pair in seen:
            failures.append(f"pair {pair} repeats")
        seen.add(pair)
    return failures


def loss_failures(losses) -> list[str]:
    bad = [loss for loss in losses if not math.isfinite(loss)]
    return [f"{len(bad)} non-finite epoch losses, first {bad[0]!r}"] if bad else []


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def combined_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()
