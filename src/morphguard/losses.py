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
identities. ``morphguard_loss_arrays`` is the one entry point; the
softmax and margin passes below are its row-wise parts.
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


class _Rows:
    """Targets, margins and work arrays of a margin-softmax pass over
    ``count`` rows of ``num_classes`` logits.

    A trainer allocates one per batch shape and refills ``targets`` and
    ``margins`` each step; a call without one makes a fresh one.
    """

    def __init__(self, count: int, num_classes: int):
        self.offsets = np.arange(count) * num_classes  # flat index of each row's first entry
        self.targets = np.empty(count, dtype=np.int64)  # flat index of each row's target entry
        self.margins = np.empty((3, count))  # each row's margin, its cosine and its sine
        self.logits = np.empty((count, num_classes))
        self.transposed = np.empty((num_classes, count))
        self.shifted, self.sin_t, self.adjusted, self.spare, self.chain, self.row_max, self.rest, self.losses = (
            np.empty((8, count))
        )

    def set_targets(self, labels: np.ndarray):
        """Point each row at the entry of its label."""
        np.add(self.offsets, labels, out=self.targets)


def _margin_table(is_morph, config: MarginConfig) -> np.ndarray:
    """(3, N, 2): the margin of each (sample, head) row, its cosine and its
    sine; morph samples carry the morph margin, all others the bona fide one."""
    margins = np.repeat(np.where(is_morph, config.morph_margin, config.bona_fide_margin), 2)
    return np.stack((margins, np.cos(margins), np.sin(margins))).reshape(3, -1, 2)


def _check_label_range(labels: np.ndarray, num_classes: int):
    """Reject a label pair naming no class: its flat target index would
    read a neighbouring row's logit instead of failing."""
    outside = (labels < 0) | (labels >= num_classes)
    if outside.any():
        row = int(np.argmax(outside.any(axis=1)))
        raise ProtocolError(f"label pair {labels[row].tolist()} of row {row} is outside [0, {num_classes})")


def _cross_entropy_rows(logits: np.ndarray, rows: _Rows):
    """Row-wise -log softmax[target] with gradient, overflow-free.

    The loss is evaluated as log1p(expm1(a) + R) - a with a the shifted
    target logit and R the summed non-target exponentials, which keeps
    losses far below float64 epsilon exact instead of rounding them to
    zero. Works in place: ``logits`` (C-contiguous) is overwritten with
    the gradient and returned as it.
    """
    flat, targets = logits.reshape(-1), rows.targets
    # A max is exact in any order, and reducing a transposed copy over
    # its first axis is the fast way to take it for each row.
    np.copyto(rows.transposed, logits.T)
    logits -= np.maximum.reduce(rows.transposed, axis=0, out=rows.row_max)[:, None]
    a = flat[targets]
    exps = np.exp(logits, out=logits)
    target_exp = flat[targets]
    flat[targets] = 0.0
    rest = np.add.reduce(exps, axis=1, out=rows.rest)
    losses = np.expm1(a, out=rows.losses)
    losses += rest
    np.log1p(losses, out=losses)
    losses -= a

    total = np.add(rest, target_exp, out=rest)
    exps /= total[:, None]
    target_exp /= total
    target_exp -= 1.0
    flat[targets] = target_exp
    return losses, exps


def _adjust_rows(cos_t: np.ndarray, rows: _Rows):
    """Vectorized margin shift plus its derivative wrt the raw cosine.

    Strictly beyond the clamp the output is constant, so the derivative
    is zero; exactly on the boundary the one-sided interior limit is
    used, with sin(theta) kept at least _COS_DERIV_BAND away from zero
    so the chain factor stays finite. Both results are views of ``rows``.
    """
    margins, cos_m, sin_m = rows.margins
    shifted = np.arccos(cos_t, out=rows.shifted)
    shifted += margins
    sin_t = np.multiply(cos_t, cos_t, out=rows.sin_t)
    np.subtract(1.0, sin_t, out=sin_t)
    np.maximum(sin_t, 0.0, out=sin_t)
    np.sqrt(sin_t, out=sin_t)
    adjusted = np.multiply(cos_t, cos_m, out=rows.adjusted)
    adjusted -= np.multiply(sin_t, sin_m, out=rows.spare)

    # fmax and fmin skip NaNs, so a NaN row cannot hide a clamped one.
    clamped = np.fmax.reduce(shifted) > math.pi or np.fmin.reduce(shifted) < 0.0
    if clamped:
        over, under = shifted > math.pi, shifted < 0.0
        adjusted[under] = 1.0
        adjusted[over] = -1.0
    np.minimum(adjusted, 1.0, out=adjusted)
    np.maximum(adjusted, -1.0, out=adjusted)

    # Inside the band the banded cosine is cos_t itself, and its sine sin_t.
    if np.fmax.reduce(cos_t) > 1.0 - _COS_DERIV_BAND or np.fmin.reduce(cos_t) < -1.0 + _COS_DERIV_BAND:
        cos_t = np.clip(cos_t, -1.0 + _COS_DERIV_BAND, 1.0 - _COS_DERIV_BAND)
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
    chain = np.multiply(sin_m, cos_t, out=rows.chain)
    chain /= sin_t
    chain += cos_m
    if clamped:
        chain[over | under] = 0.0
    return adjusted, chain


def _margin_ce_rows(cosines: np.ndarray, scale: float, rows: _Rows):
    """Row-wise margin-softmax cross-entropy with cosine gradients."""
    targets = rows.targets
    adjusted, chain = _adjust_rows(cosines.reshape(-1)[targets], rows)

    logits = np.multiply(cosines, scale, out=rows.logits)
    adjusted *= scale
    logits.reshape(-1)[targets] = adjusted
    losses, grads = _cross_entropy_rows(logits, rows)

    grads *= scale
    flat = grads.reshape(-1)
    target_grads = flat[targets]
    target_grads *= chain
    flat[targets] = target_grads
    return losses, grads


def morphguard_loss_arrays(
    cosines: np.ndarray, labels: np.ndarray, is_morph: np.ndarray, config: MarginConfig, _rows: _Rows | None = None
) -> MorphGuardResult:
    """Batched dual-branch loss on the stacked cosines of both heads.

    The library's one loss entry. ``cosines`` (N, 2C) holds each
    sample's head-1 cosines, then its head-2 ones; ``labels`` (N, 2) its
    first and second label; ``is_morph`` (N,) its morph flag. Read as
    (2N, C) without a copy, row 2i is head 1 of sample i and row 2i + 1
    its head 2, so one row-wise margin-softmax pass over the interleaved
    targets scores both heads with the bytes of two passes. Margins are
    the morph margin where ``is_morph`` holds, else the bona fide margin.

    Cosines must be finite float64 and may leave [-1, 1] by at most
    ``_COS_INPUT_TOL`` (rounding), which is clipped away; each labels
    entry must name one of the C classes. A failed check raises
    NumericInputError (cosines), EmptyBatchError or ProtocolError
    (labels, morph flags).

    ``train`` passes ``_rows``, the rows of its batch shape already
    filled from checked ``labels`` and ``is_morph``; no input is checked
    then, and the result's arrays are views of it, valid until the next
    step refills it.
    """
    if _rows is None:
        cosines = np.asarray(cosines)
        if cosines.dtype != np.float64 or cosines.ndim != 2 or cosines.shape[1] % 2:
            raise NumericInputError(f"need float64 (N, 2C) cosines, got {cosines.dtype} of shape {cosines.shape}")
        if not np.isfinite(cosines).all():
            raise NumericInputError("cosines contain non-finite values")
        if np.abs(cosines).max(initial=0.0) > 1.0 + _COS_INPUT_TOL:
            raise NumericInputError(f"cosines outside [-1, 1] beyond the {_COS_INPUT_TOL} tolerance band")
        cosines = np.clip(cosines, -1.0, 1.0)
        n, num_classes = cosines.shape[0], cosines.shape[1] // 2
        labels, is_morph = np.asarray(labels), np.asarray(is_morph)
        if labels.shape != (n, 2) or not np.issubdtype(labels.dtype, np.integer):
            raise ProtocolError(f"need ({n}, 2) integer labels, got {labels.dtype} of shape {labels.shape}")
        if is_morph.shape != (n,):
            raise ProtocolError(f"need ({n},) morph flags, got shape {is_morph.shape}")
        _check_label_range(labels, num_classes)
        _rows = _Rows(2 * n, num_classes)
        _rows.set_targets(labels.reshape(-1))
        _rows.margins[:] = _margin_table(is_morph, config).reshape(3, -1)
    n = cosines.shape[0]
    if n == 0:
        raise EmptyBatchError("loss requires a nonempty batch")
    losses, grads = _margin_ce_rows(cosines.reshape(2 * n, -1), config.scale, _rows)
    sample_losses = losses[0::2] + losses[1::2]
    grads /= n
    return MorphGuardResult(
        loss=float(sample_losses.sum() / n), cosine_grads=grads.reshape(n, -1), sample_losses=sample_losses
    )
