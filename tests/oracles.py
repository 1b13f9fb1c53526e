"""Independent oracles the tests compare the library against.

Everything here is deliberately written as plain loops and direct
formula transcriptions, independent of the implementation paths it
checks: finite differences for gradients, O(n^2) enumeration for every
rate metric, and closed-form geometry. Rates divide the same integer
count by the same pool size as the library, so agreement is expected
bit-for-bit.
"""

import math

import numpy as np


def fd_gradient(func, x, h=1e-6):
    """Central-difference gradient of a scalar function, elementwise."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = func(x)
        flat[i] = orig - h
        f_minus = func(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric):
    """max |a - n| / max(1, |a|, |n|), the usual gradcheck ratio."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


# --- verification / morph metrics by direct enumeration --------------------


def oracle_fnmr(genuine, tau):
    count = sum(1 for g in genuine if g <= tau)
    return count / len(genuine)


def oracle_fmr(impostor, tau):
    count = sum(1 for s in impostor if s > tau)
    return count / len(impostor)


def oracle_grid(*groups):
    values = {-1.0, 1.0}
    for group in groups:
        values.update(float(v) for v in group)
    return sorted(values)


def oracle_curves(genuine, impostor):
    grid = oracle_grid(genuine, impostor)
    fnmr = [oracle_fnmr(genuine, t) for t in grid]
    fmr = [oracle_fmr(impostor, t) for t in grid]
    return grid, fnmr, fmr


def oracle_threshold_at(thresholds, values, target, direction):
    """First threshold whose value has reached the target; None if never."""
    for t, v in zip(thresholds, values):
        if (direction == "from_below" and v >= target) or (
            direction == "from_above" and v <= target
        ):
            return t, v
    return None


def oracle_mmpmr(trial_scores, tau):
    hits = sum(1 for scores in trial_scores if min(scores) > tau)
    return hits / len(trial_scores)


def oracle_min_rmmr(trial_scores, genuine, impostor):
    grid = oracle_grid(genuine, impostor, [s for scores in trial_scores for s in scores])
    best_tau, best_value = None, None
    for tau in grid:
        value = oracle_mmpmr(trial_scores, tau) + oracle_fnmr(genuine, tau)
        if best_value is None or value < best_value:
            best_tau, best_value = tau, value
    return best_tau, best_value


def oracle_mmpmr_at_fnmr(trial_scores, genuine, impostor, targets):
    grid, fnmr, _ = oracle_curves(genuine, impostor)
    out = []
    for target in targets:
        found = oracle_threshold_at(grid, fnmr, target, "from_below")
        assert found is not None
        tau, achieved = found
        out.append((target, achieved, tau, oracle_mmpmr(trial_scores, tau)))
    return out


# --- feature alignment, one triplet at a time ------------------------------


def oracle_align_triplet(bona_a, bona_b, morph):
    """Aligned (3, 2) points of one (bona_a, bona_b, morph) feature triplet.

    Projects each vector to (mean of even entries, mean of odd entries),
    rotates by pi/4 - atan2(anchor direction), with the angle and its
    cosine and sine taken from libm, and translates the anchor midpoint
    to the origin. The rotation is one 2x2 matrix product per triplet.
    """
    points = np.array([[np.mean(v[0::2]), np.mean(v[1::2])] for v in (bona_a, bona_b, morph)])
    (ax, ay), (bx, by) = points[0], points[1]
    angle = math.pi / 4 - math.atan2(by - ay, bx - ax)
    c, s = math.cos(angle), math.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    translation = -(((points[0] + points[1]) / 2) @ rotation.T)
    return points @ rotation.T + translation


# --- morph trials, one protocol pair at a time -----------------------------


def oracle_morph_trials(morph_embeddings, probes, protocol, seed):
    """(T, 2) trial scores: two scalar probe draws and two dot products per pair.

    The draws come from the trial-probe stream (tag 11) of the README's
    seeding scheme, subset-1 parent first.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 11])))
    scores = []
    for idx, pair in enumerate(protocol.pairs):
        probe_a = probes[pair.identity_a][int(rng.integers(len(probes[pair.identity_a])))]
        probe_b = probes[pair.identity_b][int(rng.integers(len(probes[pair.identity_b])))]
        scores.append(np.clip([morph_embeddings[idx] @ probe_a, morph_embeddings[idx] @ probe_b], -1.0, 1.0))
    return np.array(scores).reshape(-1, 2)
