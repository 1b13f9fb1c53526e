"""Independent oracles the tests compare the library against.

Everything here is deliberately written as plain loops and direct
formula transcriptions, independent of the implementation paths it
checks: finite differences for gradients, O(n^2) enumeration for every
rate metric, closed-form geometry, and the data path built one Sample
object at a time. Rates divide the same integer count by the same pool
size as the library, so agreement is expected bit-for-bit.
"""

import contextlib
import json
import math
from dataclasses import astuple, dataclass

import numpy as np
import pytest

from morphguard import experiment
from morphguard.datagen import (
    _KIND_CODES,
    MORPH,
    IdentityUniverse,
    LabelPair,
    MorphPair,
    MorphPairProtocol,
    SampleKind,
    SampleSet,
    _check_label_rules,
    check_synth_settings,
    split_identities,
)
from morphguard.encoder import _forward_batch
from morphguard.errors import INT64, CapacityError, ConfigError, DataError, NumericInputError, ProtocolError
from morphguard.experiment import _held_out_per_identity
from morphguard.losses import morphguard_loss_arrays
from morphguard.metrics import MorphTrial, MorphTrials
from morphguard.seeding import (
    STREAM_PAIRS,
    STREAM_PROTOTYPES,
    STREAM_SAMPLES,
    STREAM_SELFMORPH,
    STREAM_TRIALS,
    rng_for,
)


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


def padded_trials(ragged):
    """MorphTrials of ragged 2- or 3-score rows: a 2-score row is padded
    with its first score, which keeps its minimum and the set of scores."""
    return MorphTrials([list(row) + list(row[: 3 - len(row)]) for row in ragged])


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


# --- the per-sample loss API the acceptance criteria are written in ----------


def softmax_ce(logits, target):
    """(loss, gradient) of the softmax cross-entropy of one row of raw logits."""
    losses, grads = _oracle_cross_entropy_rows(np.array([logits], dtype=np.float64), [target])
    return float(losses[0]), grads[0]


def margin_softmax_ce(cosines, target, scale, margin):
    """(loss, cosine gradient) of one margin-softmax row scored against target."""
    losses, grads = _oracle_margin_ce_rows(np.array([cosines], dtype=np.float64), [target], scale, np.array([margin]))
    return float(losses[0]), grads[0]


def morphguard_loss(batch, config):
    """morphguard_loss_arrays on a list of (head-1 cosines, head-2 cosines, LabelPair)."""
    return morphguard_loss_arrays(
        np.array([np.concatenate((cos1, cos2)) for cos1, cos2, _ in batch]),
        np.array([(pair.first_label, pair.second_label) for *_, pair in batch]),
        np.array([pair.kind is SampleKind.MORPH for *_, pair in batch]),
        config,
    )


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


# --- the per-sample data path, one Sample object at a time -----------------
#
# The synthesis, split, pairing, training-set and trial functions as they
# stood before samples became columns, copied with their helpers; only the
# names carry an oracle_ prefix. The columnar versions must match them bit
# for bit.

@dataclass(frozen=True)
class OracleSample:
    """One input vector with its label pair and contributing identities."""

    input: np.ndarray
    labels: LabelPair
    source_ids: tuple

    def __post_init__(self):
        if self.labels.kind is SampleKind.MORPH:
            if len(self.source_ids) != 2:
                raise ProtocolError("morph sample needs two source identities")
            if self.source_ids != (self.labels.first_label, self.labels.second_label):
                raise ProtocolError("morph source ids must match the label pair in order")
        else:
            if len(self.source_ids) != 1 or self.source_ids[0] != self.labels.first_label:
                raise ProtocolError(
                    f"{self.labels.kind.value} sample must cite exactly its own identity"
                )


def _oracle_unit(vec):
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise NumericInputError("cannot normalize a (near-)zero vector")
    return vec / norm


def _oracle_blend(a, b, alpha):
    """The morph and selfmorph input: alpha weights the first vector."""
    return _oracle_unit(alpha * a + (1.0 - alpha) * b)


def oracle_synth_identities(num_classes, samples_per_class, input_dim, spread, seed):
    check_synth_settings(num_classes, samples_per_class, input_dim, spread)

    proto_rng = rng_for(seed, STREAM_PROTOTYPES)
    prototypes = proto_rng.standard_normal((num_classes, input_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1)[:, None]
    universe = IdentityUniverse(
        num_classes=num_classes,
        prototypes=prototypes,
        subsets=split_identities(num_classes, seed),
    )

    noise_rng = rng_for(seed, STREAM_SAMPLES)
    samples = []
    for identity in range(num_classes):
        for _ in range(samples_per_class):
            vec = _oracle_unit(prototypes[identity] + spread * noise_rng.standard_normal(input_dim))
            samples.append(
                OracleSample(
                    input=vec,
                    labels=LabelPair(identity, identity, SampleKind.BONA_FIDE),
                    source_ids=(identity,),
                )
            )
    return universe, samples


def oracle_group_by_identity(samples):
    grouped = {}
    for row, sample in enumerate(samples):
        if sample.labels.kind is not SampleKind.BONA_FIDE:
            raise ProtocolError(f"pool row {row} is a {sample.labels.kind.value}; a pool holds only bona fides")
        grouped.setdefault(sample.labels.first_label, []).append(sample)
    return grouped


def oracle_holdout_split(bona_fides, samples_per_class, fraction):
    num_train = samples_per_class - _held_out_per_identity(samples_per_class, fraction)
    grouped = oracle_group_by_identity(bona_fides)
    train, hold = [], []
    for identity in sorted(grouped):
        if len(grouped[identity]) != samples_per_class:
            raise DataError(f"identity {identity} has {len(grouped[identity])} samples, not {samples_per_class}")
        train.extend(grouped[identity][:num_train])
        hold.extend(grouped[identity][num_train:])
    return train, hold


def oracle_pair_protocol(universe, samples, num_morphs, seed):
    if num_morphs < 0:
        raise ConfigError(f"num_morphs must be >= 0, got {num_morphs}")
    grouped = oracle_group_by_identity(samples)
    side1 = [(i, k) for i in sorted(grouped) if universe.subsets[i] == 1 for k in range(len(grouped[i]))]
    side2 = [(i, k) for i in sorted(grouped) if universe.subsets[i] == 2 for k in range(len(grouped[i]))]
    if not side1 or not side2:
        raise ConfigError("both subsets need at least one sample to pair across")
    capacity = len(side1) * len(side2)
    if num_morphs > capacity:
        raise CapacityError(
            f"requested {num_morphs} morphs but only {capacity} distinct cross-subset pairs exist"
        )
    chosen = rng_for(seed, STREAM_PAIRS).choice(capacity, size=num_morphs, replace=False)
    pairs = []
    for flat in chosen.tolist():
        ia, ka = side1[flat // len(side2)]
        ib, kb = side2[flat % len(side2)]
        pairs.append(MorphPair(identity_a=ia, identity_b=ib, sample_a=ka, sample_b=kb))
    return MorphPairProtocol(np.array([astuple(p) for p in pairs], dtype=np.int64).reshape(-1, 4))


def _oracle_single_identity_of(sample):
    if sample.labels.kind is SampleKind.MORPH:
        raise ProtocolError("a morph cannot be a blending parent")
    return sample.labels.first_label


def oracle_make_morph(universe, sample_a, sample_b, alpha=0.5):
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    id_a = _oracle_single_identity_of(sample_a)
    id_b = _oracle_single_identity_of(sample_b)
    sub_a = int(universe.subsets[id_a])
    sub_b = int(universe.subsets[id_b])
    if sub_a == sub_b:
        raise ProtocolError(
            f"identities {id_a} and {id_b} share subset {sub_a}; morphing within a subset "
            "would make the labeling ambiguous"
        )
    if sub_a != 1:
        raise ProtocolError(f"identities {id_a} and {id_b} run subset {sub_a} -> {sub_b}, not 1 -> 2")
    blended = _oracle_blend(sample_a.input, sample_b.input, alpha)
    return OracleSample(
        input=blended,
        labels=LabelPair(id_a, id_b, SampleKind.MORPH),
        source_ids=(id_a, id_b),
    )


def oracle_make_selfmorph(sample_a, sample_b):
    id_a = _oracle_single_identity_of(sample_a)
    id_b = _oracle_single_identity_of(sample_b)
    if id_a != id_b:
        raise ProtocolError(f"selfmorph parents must share an identity, got {id_a} and {id_b}")
    blended = _oracle_blend(sample_a.input, sample_b.input, 0.5)
    return OracleSample(
        input=blended,
        labels=LabelPair(id_a, id_a, SampleKind.SELF_MORPH),
        source_ids=(id_a,),
    )


def oracle_protocol_parents(grouped, pairs):
    parents = []
    for pair in pairs:
        pool_a, pool_b = grouped.get(pair.identity_a, ()), grouped.get(pair.identity_b, ())
        if not (0 <= pair.sample_a < len(pool_a) and 0 <= pair.sample_b < len(pool_b)):
            raise CapacityError(f"protocol pair {pair} refers outside the bona fide pool")
        parents.append((pool_a[pair.sample_a], pool_b[pair.sample_b]))
    return parents


def oracle_build_training_set(universe, bona_fides, protocol, ratios=(2, 1, 1), seed=0, alpha=0.5):
    r_bf, r_m, r_s = (float(r) for r in ratios)
    if min(r_bf, r_m, r_s) < 0 or max(r_bf, r_m, r_s) == 0:
        raise ConfigError(f"ratios must be nonnegative and not all zero, got {ratios}")
    grouped = oracle_group_by_identity(bona_fides)

    if r_bf > 0:
        unit = len(bona_fides) / r_bf
        kept_bona_fides = list(bona_fides)
    elif r_m > 0:
        unit = len(protocol.pairs) / r_m
        kept_bona_fides = []
    else:
        unit = len(bona_fides) / r_s
        kept_bona_fides = []
    num_morphs = int(round(unit * r_m))
    num_selfmorphs = int(round(unit * r_s))

    if num_morphs > len(protocol.pairs):
        raise CapacityError(
            f"training set needs {num_morphs} morphs but the protocol holds {len(protocol.pairs)}"
        )
    morphs = [
        oracle_make_morph(universe, parent_a, parent_b, alpha=alpha)
        for parent_a, parent_b in oracle_protocol_parents(grouped, protocol.pairs[:num_morphs])
    ]

    rich = [i for i in sorted(grouped) if len(grouped[i]) >= 2]
    if num_selfmorphs > 0 and not rich:
        raise CapacityError("no identity has two samples to selfmorph")
    # The 0.3.0 draw as scalar calls: every identity, then every first
    # sample, then every second sample among the identity's other samples.
    self_rng = rng_for(seed, STREAM_SELFMORPH)
    identities = [rich[int(self_rng.integers(len(rich)))] for _ in range(num_selfmorphs)]
    firsts = [int(self_rng.integers(len(grouped[i]))) for i in identities]
    seconds = [int(self_rng.integers(len(grouped[i]) - 1)) for i in identities]
    selfmorphs = []
    for identity, first, second in zip(identities, firsts, seconds):
        second += second >= first
        selfmorphs.append(oracle_make_selfmorph(grouped[identity][first], grouped[identity][second]))

    return kept_bona_fides + morphs + selfmorphs


def oracle_build_trial_triplets(train_bona, protocol, alpha):
    parents = oracle_protocol_parents(oracle_group_by_identity(train_bona), protocol.pairs)
    return [(a.input, b.input, _oracle_blend(a.input, b.input, alpha)) for a, b in parents]


def oracle_trial_features(model, train_bona, protocol, alpha):
    """(T, 3, E) embeddings of every (parent_a, parent_b, morph) triplet: the
    3T rows of oracle_build_trial_triplets, each parent once per pair it
    enters, through one forward batch."""
    rows = np.stack([v for t in oracle_build_trial_triplets(train_bona, protocol, alpha) for v in t])
    return _forward_batch(model, rows)[0].reshape(len(protocol.pairs), 3, -1)


@contextlib.contextmanager
def recorded_forward_calls():
    """A context in which every experiment._forward_batch call is recorded,
    in call order, as (inputs, embeddings): a copy of the batch it was
    given and the embeddings it returned. A row's bytes need not show its
    place in a batch, so tests read the batches themselves from here."""
    calls = []

    def recording(model, inputs):
        batch = inputs.copy()
        embeddings, norms = _forward_batch(model, inputs)
        calls.append((batch, embeddings))
        return embeddings, norms

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "_forward_batch", recording)
        yield calls


def oracle_probe_pool(probes):
    """Per-identity held-out embeddings stacked as experiment.embed_holdout
    returns them: (pool, counts, offsets, identities), identities ascending."""
    identities = sorted(probes)
    counts = np.array([len(probes[i]) for i in identities], dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.concatenate([probes[i] for i in identities]), counts, offsets, np.array(identities, dtype=np.int64)


def probes_by_identity(held):
    """embed_holdout's (pool, counts, offsets, identities) as the per-identity dict the trial oracles read."""
    pool, counts, offsets, identities = held
    return {i: pool[o : o + n] for i, n, o in zip(identities.tolist(), counts.tolist(), offsets.tolist())}


def _oracle_cosines(a, b):
    return np.clip((a[..., None, :] @ b[..., :, None])[..., 0, 0], -1.0, 1.0)


def oracle_morph_trial_list(morph_embeddings, probes, protocol, seed):
    """The MorphTrial list of the whole-array trial draw, one object per pair."""
    pool, counts, offsets, identities = oracle_probe_pool(probes)
    position = {identity: k for k, identity in enumerate(identities.tolist())}
    parents = np.array(
        [(position[p.identity_a], position[p.identity_b]) for p in protocol.pairs], dtype=np.int64
    ).reshape(-1, 2)
    picks = rng_for(seed, STREAM_TRIALS).integers(counts[parents])
    scores = _oracle_cosines(morph_embeddings[:, None, :], pool[offsets[parents] + picks])
    return [MorphTrial(idx, row) for idx, row in enumerate(scores)]


def oracle_save_dataset(samples, path):
    """Line-delimited JSON records, one json.dumps per sample; the source ids
    are a morph's two labels in order, else its one identity."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            first, second, kind = sample.labels.first_label, sample.labels.second_label, sample.labels.kind
            record = {
                "kind": kind.value,
                "y_dot": first,
                "y_ddot": second,
                "source_ids": [first, second] if kind is SampleKind.MORPH else [first],
                "input": [float(v) for v in sample.input],
            }
            fh.write(json.dumps(record) + "\n")


def oracle_load_dataset(path):
    """save_dataset's records read with json.loads alone: the reader before
    orjson parsed any line, kept as the reference for its records and its
    DataError texts."""
    labels, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                where = f"{path} line {number}"
                try:
                    record = json.loads(line)
                    kind, first, second = _KIND_CODES[record["kind"]], record["y_dot"], record["y_ddot"]
                    ids, row = record["source_ids"], np.array(record["input"])
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise DataError(f"{where} is not a JSON dataset record: {exc!r}") from exc
                implied = [first, second] if kind == MORPH else [first]
                if ids != implied or not all(type(v) is int for v in (first, second, *ids)):
                    raise DataError(f"{where}: labels must be JSON integers and source ids {implied}, got {ids!r}")
                if first not in INT64 or second not in INT64:
                    raise DataError(f"{where}: labels ({first}, {second}) do not fit in a 64-bit integer")
                if (row.ndim != 1 or row.dtype.kind not in "fiu" or (rows and row.size != rows[0].size)
                        or bool in map(type, record["input"])):
                    raise DataError(f"{where}: input is not a list of JSON numbers as long as the first record's")
                labels.append((number, kind, first, second))
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    line_numbers, kinds, firsts, seconds = np.array(labels, dtype=np.int64).reshape(-1, 4).T
    inputs = np.array(rows, dtype=np.float64).reshape(len(rows), rows[0].size if rows else 0)
    finite = np.isfinite(inputs).all(axis=1)
    if not finite.all():
        raise DataError(f"{path} line {line_numbers[np.argmin(finite)]}: input has non-finite values")
    _check_label_rules(firsts, seconds, kinds, lambda k: f"{path} line {line_numbers[k]}: the record")
    return SampleSet(inputs, firsts, seconds, kinds)


def oracle_row_texts(block, sep):
    """Each row of block as repr(float(numpy scalar)) of its values, joined by sep."""
    return [sep.join(repr(float(v)) for v in row) for row in block]


def oracle_save_curve_csv(curve, path):
    """`threshold,value` rows, each value formatted as repr(float(numpy scalar))."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("threshold,value\n")
        for t, v in zip(curve.thresholds, curve.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def oracle_save_scores_csv(verification, path):
    """`label,score` rows, genuine first, each score repr(float(numpy scalar))."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("label,score\n")
        for score in verification.genuine:
            fh.write(f"genuine,{float(score)!r}\n")
        for score in verification.impostor:
            fh.write(f"impostor,{float(score)!r}\n")


def oracle_save_aligned_csv(aligned_points, path):
    """`triplet_id,role,x,y` rows, one point at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("triplet_id,role,x,y\n")
        for t, triple in enumerate(aligned_points):
            for role, point in zip(("bona_a", "bona_b", "morph"), triple):
                fh.write(f"{t},{role},{float(point[0])!r},{float(point[1])!r}\n")


def oracle_save_trials_json(trials, path):
    """json.dump of one {"morph_id", "subject_scores"} record per trial at indent=1, plus a newline."""
    records = [{"morph_id": t, "subject_scores": [float(s) for s in row]} for t, row in enumerate(trials.scores)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
