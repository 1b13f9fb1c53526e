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


# --- the dual-head training step, one head at a time -----------------------


def _oracle_cross_entropy_rows(logits, targets):
    rows = np.arange(logits.shape[0])
    shifted = logits - logits.max(axis=1)[:, None]
    exps = np.exp(shifted)
    target_exp = exps[rows, targets]
    exps_rest = exps.copy()
    exps_rest[rows, targets] = 0.0
    rest = exps_rest.sum(axis=1)
    a = shifted[rows, targets]
    losses = np.log1p(np.expm1(a) + rest) - a
    probs = exps / (rest + target_exp)[:, None]
    grads = probs.copy()
    grads[rows, targets] -= 1.0
    return losses, grads


def _oracle_margin_ce_rows(cosines, targets, scale, margins):
    rows = np.arange(cosines.shape[0])
    cos_t = cosines[rows, targets]
    theta = np.arccos(cos_t)
    sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 0.0))
    interior = cos_t * np.cos(margins) - sin_t * np.sin(margins)
    over = theta + margins > math.pi
    under = theta + margins < 0.0
    adjusted = np.clip(np.where(over, -1.0, np.where(under, 1.0, interior)), -1.0, 1.0)
    cos_banded = np.clip(cos_t, -1.0 + 1e-12, 1.0 - 1e-12)
    sin_banded = np.sqrt(1.0 - cos_banded * cos_banded)
    chain = np.cos(margins) + np.sin(margins) * cos_banded / sin_banded
    chain = np.where(over | under, 0.0, chain)

    logits = scale * cosines
    logits[rows, targets] = scale * adjusted
    losses, logit_grads = _oracle_cross_entropy_rows(logits, targets)
    cosine_grads = scale * logit_grads
    cosine_grads[rows, targets] *= chain
    return losses, cosine_grads


def oracle_batch_gradients(model, inputs, first_labels, second_labels, is_morph, margin):
    """(loss, grads) of one batch, each head scored on its own.

    The step as it stood before the heads were stacked: per-head
    normalization with np.linalg.norm, one cosine GEMM and one
    margin-softmax pass per head, out-of-place softmax, and the
    input-gradient GEMM of every layer. The fused step performs the
    same floating-point operations in the same order, so the two agree
    bit for bit.
    """
    activations, pre_acts, h = [inputs], [], inputs
    last = len(model.layers) - 1
    for i, (w, b) in enumerate(model.layers):
        z = h @ w.T + b
        pre_acts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
        activations.append(h)
    emb_norms = np.linalg.norm(h, axis=1)
    embeddings = h / emb_norms[:, None]

    margins = np.where(is_morph, margin.morph_margin, margin.bona_fide_margin)
    n = inputs.shape[0]
    grads, sample_losses, into_emb = {}, [], []
    for name, head, labels in (("head1", model.head1, first_labels), ("head2", model.head2, second_labels)):
        norms = np.linalg.norm(head, axis=1)
        unit = head / norms[:, None]
        cos = np.clip(embeddings @ unit.T, -1.0, 1.0)
        losses, cos_grads = _oracle_margin_ce_rows(cos, labels, margin.scale, margins)
        cos_grads = cos_grads / n
        sample_losses.append(losses)
        grads[name] = (cos_grads.T @ embeddings - (cos_grads * cos).sum(axis=0)[:, None] * unit) / norms[:, None]
        into_emb.append((cos_grads, unit))
    loss = float((sample_losses[0] + sample_losses[1]).sum() / n)

    grad_emb = into_emb[0][0] @ into_emb[0][1] + into_emb[1][0] @ into_emb[1][1]
    radial = (grad_emb * embeddings).sum(axis=1, keepdims=True)
    upstream = (grad_emb - radial * embeddings) / emb_norms[:, None]
    for i in range(last, -1, -1):
        w, _ = model.layers[i]
        if i != last:
            upstream = upstream * (pre_acts[i] > 0.0)
        grads[f"layer{i}.weight"] = upstream.T @ activations[i]
        grads[f"layer{i}.bias"] = upstream.sum(axis=0)
        upstream = upstream @ w
    return loss, grads


def oracle_train(model, dataset, config):
    """SGD over seeded-shuffled batches, each step from oracle_batch_gradients.

    The shuffle of epoch e draws from the per-epoch stream (tag 8, e) of
    the README's seeding scheme; the learning rate falls linearly from
    lr_start to lr_end over all steps. Returns the per-epoch mean loss.
    """
    inputs = np.stack([np.asarray(s.input, dtype=np.float64) for s in dataset])
    first = np.array([s.labels.first_label for s in dataset])
    second = np.array([s.labels.second_label for s in dataset])
    is_morph = np.array([s.labels.kind.value == "morph" for s in dataset])
    n, size = len(dataset), config.batch_size
    lrs = np.linspace(config.lr_start, config.lr_end, config.epochs * -(-n // size))
    step, epoch_losses = 0, []
    for epoch in range(config.epochs):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(config.seed), 8, epoch])))
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, size):
            idx = order[start : start + size]
            loss, grads = oracle_batch_gradients(
                model, inputs[idx], first[idx], second[idx], is_morph[idx], config.margin
            )
            for name, param in model.parameters():
                param -= lrs[step] * grads[name]
            loss_sum += loss * len(idx)
            step += 1
        epoch_losses.append(loss_sum / n)
    return epoch_losses
