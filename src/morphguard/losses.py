"""Softmax, angular-margin softmax, and the dual-branch morph loss.

All operations work on cosine logits computed between L2-normalized
embeddings and L2-normalized class-weight rows, return analytic
gradients with respect to those raw cosines, and are pure functions of
their inputs (float64 throughout).

The dual-branch loss averages, over the batch, the sum of two
margin-softmax cross-entropy terms: head 1 scored against each sample's
first label and head 2 against its second label. Bona fide and
selfmorph samples carry the bona fide margin on both terms; morph
samples carry the morph margin (bona fide margin plus a signed offset)
on both terms, with the two labels naming the two contributing
identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    EmptyBatchError,
    NumericInputError,
    ProtocolError,
    check_real,
)

# |cos theta| is kept this far away from 1 inside derivative
# denominators, so 1/sqrt(1 - cos^2) never produces inf or NaN.
_COS_DERIV_BAND = 1e-12
# Inputs may exceed the mathematical domain [-1, 1] by at most this
# much (accumulated rounding); beyond it they are rejected.
_COS_INPUT_TOL = 1e-9


class SampleKind(str, Enum):
    """What a training sample is, which decides its margin and labels."""

    BONA_FIDE = "bona_fide"
    MORPH = "morph"
    SELF_MORPH = "selfmorph"


@dataclass(frozen=True)
class MarginConfig:
    """Hyperparameters of the dual-branch margin loss.

    scale: multiplier applied to cosines before the softmax.
    bona_fide_margin: additive angular margin (radians) for bona fide
        and selfmorph samples.
    morph_offset: signed offset added to the bona fide margin for morph
        samples; negative values penalize morphs more softly.
    """

    scale: float = 64.0
    bona_fide_margin: float = 0.5
    morph_offset: float = 0.0

    def __post_init__(self):
        check_real("scale", self.scale, 0.0)
        check_real("bona_fide_margin", self.bona_fide_margin)
        check_real("morph_offset", self.morph_offset)
        if not (0.0 <= self.bona_fide_margin < math.pi / 2):
            raise ConfigError(
                f"bona fide margin must lie in [0, pi/2), got {self.bona_fide_margin}"
            )
        if not (-math.pi / 2 < self.morph_margin < math.pi / 2):
            raise ConfigError(
                f"effective morph margin {self.morph_margin} outside (-pi/2, pi/2)"
            )

    @property
    def morph_margin(self) -> float:
        """Effective margin applied to morph samples."""
        return self.bona_fide_margin + self.morph_offset


@dataclass(frozen=True)
class LabelPair:
    """Per-head target labels of one sample.

    Bona fide and selfmorph samples repeat one identity on both heads;
    morph samples carry the two contributing identities (head 1 gets
    the first, head 2 the second).
    """

    first_label: int
    second_label: int
    kind: SampleKind

    def __post_init__(self):
        if self.first_label < 0 or self.second_label < 0:
            raise ProtocolError(
                f"labels must be nonnegative, got ({self.first_label}, {self.second_label})"
            )
        if self.kind is SampleKind.MORPH:
            if self.first_label == self.second_label:
                raise ProtocolError(
                    f"morph sample must carry two distinct labels, got {self.first_label} twice"
                )
        elif self.first_label != self.second_label:
            raise ProtocolError(
                f"{self.kind.value} sample must repeat one label, got "
                f"({self.first_label}, {self.second_label})"
            )


@dataclass(frozen=True)
class MorphGuardResult:
    """Batch loss plus everything the backward pass needs.

    ``cosine_grads`` (N, 2C) is laid out like the stacked cosines, with
    views ``first_grads`` and ``second_grads`` on its halves; it already
    includes the 1/N batch-mean factor. ``sample_losses`` holds the
    unaveraged two-term loss of each sample.
    """

    loss: float
    cosine_grads: np.ndarray
    sample_losses: np.ndarray
    first_grads = property(lambda self: self.cosine_grads[:, : self.cosine_grads.shape[1] // 2])
    second_grads = property(lambda self: self.cosine_grads[:, self.cosine_grads.shape[1] // 2 :])


def _as_batch_f64(array, name: str) -> np.ndarray:
    out = np.asarray(array, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise NumericInputError(f"{name} contains non-finite values")
    return out


def _cross_entropy_rows(logits: np.ndarray, targets: np.ndarray):
    """Row-wise -log softmax[target] with gradient, overflow-free.

    The loss is evaluated as log1p(expm1(a) + R) - a with a the shifted
    target logit and R the summed non-target exponentials, which keeps
    losses far below float64 epsilon exact instead of rounding them to
    zero. Works in place: ``logits`` is overwritten with the gradient
    and returned as it.
    """
    rows = np.arange(logits.shape[0])
    logits -= logits.max(axis=1)[:, None]
    a = logits[rows, targets]
    exps = np.exp(logits, out=logits)
    target_exp = exps[rows, targets]
    exps[rows, targets] = 0.0
    rest = exps.sum(axis=1)
    losses = np.log1p(np.expm1(a) + rest) - a

    total = rest + target_exp
    exps /= total[:, None]
    exps[rows, targets] = target_exp / total - 1.0
    return losses, exps


def softmax_ce(logits, target: int):
    """Cross-entropy of a softmax over raw logits.

    Returns (loss, gradient) where the gradient is softmax(logits)
    minus the one-hot target and therefore sums to zero.
    """
    vec = _as_batch_f64(logits, "logits").reshape(1, -1)
    if not (0 <= target < vec.shape[1]):
        raise IndexError(f"target class {target} out of range for {vec.shape[1]} classes")
    losses, grads = _cross_entropy_rows(vec.copy(), np.array([target]))
    return float(losses[0]), grads[0]


def _check_cosines(cosines: np.ndarray, name: str) -> np.ndarray:
    if np.any(np.abs(cosines) > 1.0 + _COS_INPUT_TOL):
        raise NumericInputError(f"{name} outside [-1, 1] beyond the {_COS_INPUT_TOL} tolerance band")
    return np.clip(cosines, -1.0, 1.0)


def margin_adjust(cos_theta: float, margin: float) -> float:
    """cos of the margin-shifted angle, clamped to the [0, pi] arc.

    Evaluated through the angle-sum identity
    cos(theta)cos(m) - sin(theta)sin(m); when theta + m leaves [0, pi]
    the result saturates at cos(pi) = -1 or cos(0) = 1.
    """
    value = _check_cosines(np.asarray([float(cos_theta)]), "cos_theta")[0]
    if not math.isfinite(margin):
        raise NumericInputError(f"margin must be finite, got {margin}")
    adjusted, _ = _adjust_rows(np.asarray([value]), np.asarray([float(margin)]))
    return float(adjusted[0])


def _adjust_rows(cos_t: np.ndarray, margins: np.ndarray):
    """Vectorized margin shift plus its derivative wrt the raw cosine.

    Strictly beyond the clamp the output is constant, so the derivative
    is zero; exactly on the boundary the one-sided interior limit is
    used, with sin(theta) kept at least _COS_DERIV_BAND away from zero
    so the chain factor stays finite.
    """
    shifted = np.arccos(cos_t) + margins
    cos_m, sin_m = np.cos(margins), np.sin(margins)
    sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 0.0))
    interior = cos_t * cos_m - sin_t * sin_m

    over = shifted > math.pi
    under = shifted < 0.0
    adjusted = np.clip(np.where(over, -1.0, np.where(under, 1.0, interior)), -1.0, 1.0)

    cos_banded = np.clip(cos_t, -1.0 + _COS_DERIV_BAND, 1.0 - _COS_DERIV_BAND)
    sin_banded = np.sqrt(1.0 - cos_banded * cos_banded)
    chain = cos_m + sin_m * cos_banded / sin_banded
    chain = np.where(over | under, 0.0, chain)
    return adjusted, chain


def _margin_ce_rows(cosines: np.ndarray, targets: np.ndarray, scale: float, margins: np.ndarray):
    """Row-wise margin-softmax cross-entropy with cosine gradients."""
    rows = np.arange(cosines.shape[0])
    adjusted, chain = _adjust_rows(cosines[rows, targets], margins)

    logits = scale * cosines
    logits[rows, targets] = scale * adjusted
    losses, grads = _cross_entropy_rows(logits, targets)

    grads *= scale
    grads[rows, targets] *= chain
    return losses, grads


def margin_softmax_ce(cosines, target: int, scale: float, margin: float):
    """Scaled softmax cross-entropy with an additive angular margin.

    The margin shifts only the target-class angle; the returned
    gradient is with respect to each raw cosine and includes the
    d cos(theta+m)/d cos(theta) chain factor on the target entry.
    With margin 0 this reduces exactly to softmax_ce over the scaled
    cosines.
    """
    vec = _check_cosines(_as_batch_f64(cosines, "cosines"), "cosines").reshape(1, -1)
    if not (0 <= target < vec.shape[1]):
        raise IndexError(f"target class {target} out of range for {vec.shape[1]} classes")
    if not (0 < scale < math.inf):
        raise ConfigError(f"scale must be positive and finite, got {scale}")
    if not math.isfinite(margin):
        raise NumericInputError(f"margin must be finite, got {margin}")
    losses, grads = _margin_ce_rows(vec, np.array([target]), float(scale), np.asarray([float(margin)]))
    return float(losses[0]), grads[0]


def morphguard_loss_arrays(
    cosines: np.ndarray, labels: np.ndarray, is_morph: np.ndarray, config: MarginConfig
) -> MorphGuardResult:
    """Batched dual-branch loss on the stacked cosines of both heads.

    The trainer's fast path; ``morphguard_loss`` wraps it for per-sample
    inputs. ``cosines`` (N, 2C) holds each sample's head-1 cosines, then
    its head-2 ones; ``labels`` (N, 2) its first and second label. Read
    as (2N, C) without a copy, row 2i is head 1 of sample i and row
    2i + 1 its head 2, so one row-wise margin-softmax pass over the
    interleaved targets scores both heads with the bytes of two passes.
    Margins are the morph margin where ``is_morph`` holds, else the bona
    fide margin.
    """
    n = cosines.shape[0]
    if n == 0:
        raise EmptyBatchError("loss requires a nonempty batch")
    margins = np.where(is_morph, config.morph_margin, config.bona_fide_margin)
    losses, grads = _margin_ce_rows(
        cosines.reshape(2 * n, -1), labels.reshape(-1), config.scale, np.repeat(margins, 2)
    )
    sample_losses = losses[0::2] + losses[1::2]
    grads /= n
    return MorphGuardResult(
        loss=float(sample_losses.sum() / n), cosine_grads=grads.reshape(n, -1), sample_losses=sample_losses
    )


def morphguard_loss(batch, config: MarginConfig) -> MorphGuardResult:
    """Dual-branch margin loss of a batch of (cosines1, cosines2, LabelPair).

    Each sample contributes two margin-softmax terms, head 1 against
    its first label and head 2 against its second; the batch loss is
    their mean. Morph samples receive the morph margin on both terms.
    """
    if len(batch) == 0:
        raise EmptyBatchError("loss requires a nonempty batch")
    first, second = (
        _check_cosines(_as_batch_f64(np.stack([np.ravel(item[head]) for item in batch]), name), name)
        for head, name in ((0, "first cosines"), (1, "second cosines"))
    )
    if first.shape != second.shape:
        raise ConfigError(f"cosine shapes differ between heads: {first.shape} vs {second.shape}")
    num_classes = first.shape[1]
    labels = [pair for _, _, pair in batch]
    for pair in labels:
        if not isinstance(pair, LabelPair):
            raise ProtocolError(f"expected a LabelPair, got {type(pair).__name__}")
        if pair.first_label >= num_classes or pair.second_label >= num_classes:
            raise ProtocolError(
                f"label pair ({pair.first_label}, {pair.second_label}) out of range "
                f"for {num_classes} classes"
            )
    return morphguard_loss_arrays(
        np.concatenate((first, second), axis=1),
        np.array([(p.first_label, p.second_label) for p in labels]),
        np.array([p.kind is SampleKind.MORPH for p in labels]),
        config,
    )
