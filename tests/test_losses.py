import math

import numpy as np
import pytest

from morphguard.errors import (
    ConfigError,
    EmptyBatchError,
    MorphGuardError,
    NumericInputError,
    DegenerateWeightError,
    ProtocolError,
)
from morphguard import encoder
from morphguard.encoder import DualHeadModel, batch_gradients
from morphguard.datagen import LabelPair, SampleKind
from morphguard.losses import MarginConfig, _adjust_rows, _Rows, morphguard_loss_arrays

from oracles import fd_gradient, margin_softmax_ce, max_rel_err, morphguard_loss, softmax_ce

# Frozen from a 50-digit mpmath evaluation of the closed forms;
# test_frozen_values_match_extended_precision rederives them.
SOFTMAX_DERIVED_LOSS = 2.7841874452731163
SOFTMAX_DERIVED_GRAD = [0.7526255553805631, -0.9382207323222754, 0.18559517694171228]
MARGIN_ADJUST_DERIVED = 0.14300910625086123
MARGIN_CE_DERIVED_LOSS = 0.042958805619071349
MARGIN_CE_DERIVED_GRAD = [-0.6378084710367685, 0.4129284373887292, 0.007563048146101246]


def test_frozen_values_match_extended_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    logits = [mp.mpf("2.1"), mp.mpf("-0.4"), mp.mpf("0.7")]
    z = sum(mp.e**l for l in logits)
    assert float(-mp.log(mp.e ** logits[1] / z)) == pytest.approx(SOFTMAX_DERIVED_LOSS, abs=1e-15)
    grad = [float(mp.e**l / z) - (1.0 if j == 1 else 0.0) for j, l in enumerate(logits)]
    np.testing.assert_allclose(grad, SOFTMAX_DERIVED_GRAD, atol=1e-15)

    c, m = mp.mpf("0.6"), mp.mpf("0.5")
    assert float(c * mp.cos(m) - mp.sqrt(1 - c**2) * mp.sin(m)) == pytest.approx(
        MARGIN_ADJUST_DERIVED, abs=1e-15
    )

    cos = [mp.mpf("0.8"), mp.mpf("0.1"), mp.mpf("-0.3")]
    s = mp.mpf(10)
    adjusted = cos[0] * mp.cos(m) - mp.sqrt(1 - cos[0] ** 2) * mp.sin(m)
    lg = [s * v for v in cos]
    lg[0] = s * adjusted
    z = sum(mp.e**l for l in lg)
    assert float(-mp.log(mp.e ** lg[0] / z)) == pytest.approx(MARGIN_CE_DERIVED_LOSS, abs=1e-15)
    chain = mp.cos(m) + mp.sin(m) * cos[0] / mp.sqrt(1 - cos[0] ** 2)
    grad = [float(s * (mp.e**l / z - (1 if j == 0 else 0))) for j, l in enumerate(lg)]
    grad[0] = float(s * (mp.e ** lg[0] / z - 1) * chain)
    np.testing.assert_allclose(grad, MARGIN_CE_DERIVED_GRAD, atol=1e-14)


def head_loss(cosines, target, scale, margin):
    """(loss, cosine gradient) of one head's margin-softmax row, through
    morphguard_loss_arrays: one morph sample carries the row and the label
    on both heads, with morph margin ``margin``, so its loss is exactly
    twice the head's."""
    row = np.asarray(cosines, dtype=np.float64)
    config = MarginConfig(scale=scale, bona_fide_margin=0.0, morph_offset=margin)
    result = morphguard_loss_arrays(
        np.concatenate((row, row))[None], np.array([[target, target]]), np.array([True]), config
    )
    return float(result.sample_losses[0] / 2), result.first_grads[0]


def plain_ce(logits, target):
    """(loss, logit gradient) of softmax cross-entropy over raw logits, through
    the same path at margin 0: the logits are cosines times a power-of-two
    scale, so neither conversion rounds."""
    logits = np.asarray(logits, dtype=np.float64)
    scale = 2.0 ** math.ceil(math.log2(max(np.abs(logits).max(), 1.0)))
    loss, grad = head_loss(logits / scale, target, scale, 0.0)
    return loss, grad / scale


def margin_adjust(cos_theta, margin):
    """cos(theta + m) by the loss's own margin shift, ``_adjust_rows``."""
    rows = _Rows(1, 1)
    rows.margins[:, 0] = margin, np.cos(margin), np.sin(margin)
    adjusted, _ = _adjust_rows(np.array([cos_theta], dtype=np.float64), rows)
    return float(adjusted[0])


class TestSoftmaxCE:
    def test_uniform_logits(self):
        loss, grad = plain_ce([0.0, 0.0, 0.0], 0)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)
        np.testing.assert_allclose(grad, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_saturated_no_overflow(self):
        loss, _ = plain_ce([30.0, -30.0], 0)
        # ln(1 + e^-60), far below float64 epsilon but still exact
        assert loss == pytest.approx(8.756510762696520e-27, rel=1e-12)
        assert loss > 0.0

    def test_derived_values(self):
        loss, grad = plain_ce([2.1, -0.4, 0.7], 1)
        assert loss == pytest.approx(SOFTMAX_DERIVED_LOSS, abs=1e-12)
        np.testing.assert_allclose(grad, SOFTMAX_DERIVED_GRAD, atol=1e-12)

    def test_grad_sums_to_zero_and_probs_normalize(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.integers(2, 9)
            logits = rng.normal(scale=5.0, size=c)
            target = int(rng.integers(c))
            loss, grad = plain_ce(logits, target)
            assert loss >= 0.0
            assert abs(grad.sum()) < 1e-12
            probs = grad.copy()
            probs[target] += 1.0
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_errors(self):
        # A target naming no class is a label outside [0, C); a NaN is a non-finite cosine.
        for target in (2, -1):
            with pytest.raises(ProtocolError):
                head_loss([0.0, 1.0], target, 1.0, 0.0)
        with pytest.raises(NumericInputError):
            head_loss([0.0, np.nan], 0, 1.0, 0.0)

    def test_input_left_unchanged(self):
        cosines = np.array([[0.525, -0.1, 0.175, 0.525, -0.1, 0.175]])
        morphguard_loss_arrays(cosines, np.array([[1, 1]]), np.array([False]), MarginConfig())
        assert cosines.tolist() == [[0.525, -0.1, 0.175, 0.525, -0.1, 0.175]]


def head1_cosines(monkeypatch, embedding, head):
    """The head-1 cosine logits batch_gradients hands the loss for one unit
    embedding, through a model whose one identity layer passes it on."""
    seen = []

    def spy(cosines, *args):
        seen.append(cosines.copy())
        return morphguard_loss_arrays(cosines, *args)

    monkeypatch.setattr(encoder, "morphguard_loss_arrays", spy)
    emb = np.asarray(embedding, dtype=np.float64)
    model = DualHeadModel([(np.eye(emb.size), np.zeros(emb.size))], head, head.copy())
    labels = np.zeros(1, dtype=np.int64)
    batch_gradients(model, emb[None], labels, labels, np.zeros(1, dtype=bool), MarginConfig())
    return seen[0][0, : head.shape[0]]


class TestCosineLogits:
    def test_self_and_orthogonal(self, monkeypatch):
        head = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        values = head1_cosines(monkeypatch, [1.0, 0.0, 0.0], head)
        assert values[0] == 1.0
        assert values[1] == 0.0

    def test_matches_bruteforce_dots(self, monkeypatch):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=4)
        emb /= np.linalg.norm(emb)
        head = rng.normal(size=(3, 4))
        values = head1_cosines(monkeypatch, emb, head)
        for j in range(3):
            expected = float(np.dot(emb, head[j] / np.linalg.norm(head[j])))
            assert values[j] == pytest.approx(expected, abs=1e-12)
        assert np.all(np.abs(values) <= 1.0)

    def test_degenerate_row(self, monkeypatch):
        with pytest.raises(DegenerateWeightError):
            head1_cosines(monkeypatch, [1.0, 0.0], np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestMarginAdjust:
    def test_zero_margin_is_identity(self):
        assert margin_adjust(0.6, 0.0) == 0.6

    def test_derived_value(self):
        assert margin_adjust(0.6, 0.5) == pytest.approx(MARGIN_ADJUST_DERIVED, abs=1e-15)

    def test_clamp_at_pi(self):
        assert margin_adjust(-1.0, 0.5) == -1.0

    def test_clamp_at_zero_for_negative_margin(self):
        assert margin_adjust(1.0, -0.5) == 1.0
        # interior for cos(theta) away from 1: plain angle sum
        assert margin_adjust(0.0, -0.5) == pytest.approx(math.cos(math.pi / 2 - 0.5), abs=1e-12)

    def test_tolerance_band_and_rejection(self):
        # A cosine within the band is clipped to 1 before the shift; one beyond it is rejected.
        assert margin_adjust(1.0, 0.3) == pytest.approx(math.cos(0.3), abs=1e-12)
        inside, at_one = (head_loss([cos_t, 0.2, -0.2], 0, 16.0, 0.3) for cos_t in (1.0 + 1e-10, 1.0))
        assert inside[0] == at_one[0]
        np.testing.assert_array_equal(inside[1], at_one[1])
        with pytest.raises(NumericInputError):
            head_loss([1.0 + 1e-6, 0.2, -0.2], 0, 16.0, 0.3)


class TestMarginSoftmaxCE:
    def test_zero_margin_reduces_to_softmax_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.integers(2, 7)
            cosines = rng.uniform(-0.95, 0.95, size=c)
            target = int(rng.integers(c))
            s = 10.0 ** rng.uniform(0, 2)
            loss_m, grad_m = head_loss(cosines, target, s, 0.0)
            loss_p, grad_p = softmax_ce(s * cosines, target)
            assert loss_m == loss_p
            np.testing.assert_array_equal(grad_m, s * grad_p)

    def test_perfectly_separated(self):
        loss, _ = head_loss([1.0, -1.0], 0, 64.0, 0.0)
        assert 0.0 < loss < 1e-50

    def test_derived_values_and_fd(self):
        cosines = np.array([0.8, 0.1, -0.3])
        loss, grad = head_loss(cosines, 0, 10.0, 0.5)
        assert loss == pytest.approx(MARGIN_CE_DERIVED_LOSS, abs=1e-12)
        np.testing.assert_allclose(grad, MARGIN_CE_DERIVED_GRAD, atol=1e-12)
        numeric = fd_gradient(lambda c: head_loss(c, 0, 10.0, 0.5)[0], cosines)
        assert max_rel_err(grad, numeric) < 1e-4

    def test_gradients_match_fd_over_random_inputs(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            c = int(rng.integers(2, 7))
            cosines = rng.uniform(-0.9, 0.9, size=c)
            target = int(rng.integers(c))
            margin = float(rng.uniform(-0.4, 0.6))
            s = float(rng.uniform(2.0, 40.0))
            theta = math.acos(cosines[target])
            if not (0.05 < theta + margin < math.pi - 0.05):
                continue
            _, grad = head_loss(cosines, target, s, margin)
            numeric = fd_gradient(lambda x: head_loss(x, target, s, margin)[0], cosines)
            assert max_rel_err(grad, numeric) < 1e-4
            checked += 1

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            cosines = rng.uniform(-0.9, 0.9, size=4)
            target = int(rng.integers(4))
            theta = math.acos(cosines[target])
            margins = np.linspace(0.0, min(1.0, math.pi - theta - 1e-3), 6)
            losses = [head_loss(cosines, target, 16.0, m)[0] for m in margins]
            assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_never_nan_at_cosine_extremes(self):
        for cos_t in (1.0, -1.0):
            cosines = np.array([cos_t, 0.2, -0.2])
            loss, grad = head_loss(cosines, 0, 32.0, 0.5)
            assert math.isfinite(loss)
            assert np.all(np.isfinite(grad))


class TestMarginConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MarginConfig(scale=0.0)
        with pytest.raises(ConfigError):
            MarginConfig(scale=math.inf)
        with pytest.raises(ConfigError):
            MarginConfig(bona_fide_margin=math.pi / 2)
        with pytest.raises(ConfigError):
            MarginConfig(bona_fide_margin=0.5, morph_offset=-0.5 - math.pi / 2)

    def test_morph_margin(self):
        cfg = MarginConfig(scale=64.0, bona_fide_margin=0.5, morph_offset=-0.1)
        assert cfg.morph_margin == pytest.approx(0.4)


class TestMorphGuardLoss:
    def _random_batch(self, rng, n, c):
        batch = []
        for _ in range(n):
            kind = SampleKind.MORPH if rng.random() < 0.5 else SampleKind.BONA_FIDE
            first = int(rng.integers(c))
            if kind is SampleKind.MORPH:
                second = int((first + 1 + rng.integers(c - 1)) % c)
                pair = LabelPair(first, second, kind)
            else:
                pair = LabelPair(first, first, kind)
            batch.append((rng.uniform(-0.9, 0.9, size=c), rng.uniform(-0.9, 0.9, size=c), pair))
        return batch

    def test_two_term_symmetry(self):
        rng = np.random.default_rng(5)
        cosines = rng.uniform(-0.9, 0.9, size=5)
        pair = LabelPair(2, 2, SampleKind.BONA_FIDE)
        cfg = MarginConfig(scale=12.0, bona_fide_margin=0.3)
        result = morphguard_loss([(cosines, cosines, pair)], cfg)
        single, _ = margin_softmax_ce(cosines, 2, 12.0, 0.3)
        assert result.loss == 2.0 * single

    def test_zero_offset_gives_identical_margins(self):
        rng = np.random.default_rng(9)
        cos1 = rng.uniform(-0.9, 0.9, size=4)
        cos2 = rng.uniform(-0.9, 0.9, size=4)
        cfg = MarginConfig(scale=20.0, bona_fide_margin=0.5, morph_offset=0.0)
        morph = morphguard_loss([(cos1, cos2, LabelPair(0, 1, SampleKind.MORPH))], cfg)
        expected = (
            margin_softmax_ce(cos1, 0, 20.0, 0.5)[0] + margin_softmax_ce(cos2, 1, 20.0, 0.5)[0]
        )
        assert morph.sample_losses[0] == expected

    def test_compositional_oracle(self):
        rng = np.random.default_rng(13)
        cfg = MarginConfig(scale=10.0, bona_fide_margin=0.5, morph_offset=-0.1)
        m1, m2 = rng.uniform(-0.9, 0.9, size=4), rng.uniform(-0.9, 0.9, size=4)
        b1, b2 = rng.uniform(-0.9, 0.9, size=4), rng.uniform(-0.9, 0.9, size=4)
        batch = [
            (m1, m2, LabelPair(0, 3, SampleKind.MORPH)),
            (b1, b2, LabelPair(1, 1, SampleKind.BONA_FIDE)),
        ]
        result = morphguard_loss(batch, cfg)
        expected = (
            (margin_softmax_ce(m1, 0, 10.0, 0.4)[0] + margin_softmax_ce(m2, 3, 10.0, 0.4)[0])
            + (margin_softmax_ce(b1, 1, 10.0, 0.5)[0] + margin_softmax_ce(b2, 1, 10.0, 0.5)[0])
        ) / 2.0
        assert result.loss == pytest.approx(expected, abs=1e-15)

    def test_reduction_to_plain_softmax(self):
        rng = np.random.default_rng(21)
        cfg = MarginConfig(scale=8.0, bona_fide_margin=0.0)
        batch = []
        expected = 0.0
        for _ in range(6):
            c1, c2 = rng.uniform(-0.9, 0.9, size=5), rng.uniform(-0.9, 0.9, size=5)
            label = int(rng.integers(5))
            batch.append((c1, c2, LabelPair(label, label, SampleKind.BONA_FIDE)))
            expected += softmax_ce(8.0 * c1, label)[0] + softmax_ce(8.0 * c2, label)[0]
        result = morphguard_loss(batch, cfg)
        assert result.loss == pytest.approx(expected / 6.0, abs=1e-12)

    def test_selfmorph_gets_bona_fide_margin(self):
        rng = np.random.default_rng(29)
        c1, c2 = rng.uniform(-0.9, 0.9, size=4), rng.uniform(-0.9, 0.9, size=4)
        cfg = MarginConfig(scale=20.0, bona_fide_margin=0.5, morph_offset=-0.3)
        selfmorph = morphguard_loss([(c1, c2, LabelPair(2, 2, SampleKind.SELF_MORPH))], cfg)
        bona = morphguard_loss([(c1, c2, LabelPair(2, 2, SampleKind.BONA_FIDE))], cfg)
        assert selfmorph.loss == bona.loss

    def test_grads_scaled_by_batch_size(self):
        rng = np.random.default_rng(31)
        batch = self._random_batch(rng, 4, 5)
        cfg = MarginConfig(scale=10.0, bona_fide_margin=0.4, morph_offset=-0.1)
        result = morphguard_loss(batch, cfg)
        for i, (c1, c2, pair) in enumerate(batch):
            margin = cfg.morph_margin if pair.kind is SampleKind.MORPH else cfg.bona_fide_margin
            _, g1 = margin_softmax_ce(c1, pair.first_label, cfg.scale, margin)
            _, g2 = margin_softmax_ce(c2, pair.second_label, cfg.scale, margin)
            np.testing.assert_array_equal(result.first_grads[i], g1 / 4.0)
            np.testing.assert_array_equal(result.second_grads[i], g2 / 4.0)

    def test_determinism(self):
        rng = np.random.default_rng(37)
        batch = self._random_batch(rng, 8, 4)
        cfg = MarginConfig()
        r1 = morphguard_loss(batch, cfg)
        r2 = morphguard_loss(batch, cfg)
        assert r1.loss == r2.loss
        np.testing.assert_array_equal(r1.first_grads, r2.first_grads)
        np.testing.assert_array_equal(r1.second_grads, r2.second_grads)

    def test_errors(self):
        cfg = MarginConfig()
        with pytest.raises(EmptyBatchError):
            morphguard_loss_arrays(np.zeros((0, 6)), np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=bool), cfg)
        pair = LabelPair(0, 5, SampleKind.MORPH)  # valid pair, out of range for C=3
        with pytest.raises(ProtocolError):
            morphguard_loss([(np.zeros(3), np.zeros(3), pair)], cfg)

    @pytest.mark.parametrize(
        "labels", [[[0, 1], [2, 3]], [[0, 1], [-1, 2]], [[0, 1]]], ids=["label_3", "label_-1", "one_pair"]
    )
    def test_arrays_reject_labels_that_name_no_class(self, labels):
        # Three classes per head; a flat target index must not reach a neighbouring row.
        with pytest.raises(ProtocolError):
            morphguard_loss_arrays(np.zeros((2, 6)), np.array(labels), np.array([False, True]), MarginConfig())


def with_entry(array, index, value):
    array = array.copy()
    array[index] = value
    return array


class TestPublicInputChecks:
    """Called without the trainer's rows, the loss checks its inputs: each
    failure is one line of a MorphGuardError subclass."""

    COSINES = np.array([[0.5, -0.25, 0.0, 0.75, 0.125, -0.5], [0.25, 0.5, -0.75, 0.0, 0.5, 0.25]])
    LABELS = np.array([[0, 1], [2, 2]])
    IS_MORPH = np.array([True, False])

    @pytest.mark.parametrize(
        "cosines, labels, is_morph, error",
        [
            (with_entry(COSINES, (0, 1), np.nan), LABELS, IS_MORPH, NumericInputError),
            (with_entry(COSINES, (1, 4), np.inf), LABELS, IS_MORPH, NumericInputError),
            (with_entry(COSINES, (1, 0), -np.inf), LABELS, IS_MORPH, NumericInputError),
            (with_entry(COSINES, (0, 0), 1.0 + 1e-6), LABELS, IS_MORPH, NumericInputError),
            (with_entry(COSINES, (1, 5), -1.0 - 1e-6), LABELS, IS_MORPH, NumericInputError),
            (with_entry(COSINES, (0, 2), 1.5), LABELS, IS_MORPH, NumericInputError),
            (COSINES[0], LABELS[:1], IS_MORPH[:1], NumericInputError),
            (COSINES[:, :5], LABELS, IS_MORPH, NumericInputError),
            (COSINES.astype(np.float32), LABELS, IS_MORPH, NumericInputError),
            (COSINES, LABELS, IS_MORPH[:1], ProtocolError),
            (COSINES, LABELS, np.array([True, False, False]), ProtocolError),
            (COSINES, LABELS.astype(np.float64), IS_MORPH, ProtocolError),
        ],
        ids=["nan", "inf", "-inf", "above_1", "below_-1", "1.5", "1d", "odd_width", "float32",
             "short_is_morph", "long_is_morph", "float_labels"],
    )
    def test_rejects_with_one_line(self, cosines, labels, is_morph, error):
        with pytest.raises(error) as caught:
            morphguard_loss_arrays(cosines, labels, is_morph, MarginConfig())
        assert isinstance(caught.value, MorphGuardError)
        assert len(str(caught.value).splitlines()) == 1

    @pytest.mark.parametrize("index, edge", [((0, 0), 1.0), ((1, 2), -1.0)], ids=["above_1", "below_-1"])
    def test_rounding_past_the_domain_is_clipped(self, index, edge):
        past = with_entry(self.COSINES, index, edge * (1.0 + 1e-10))
        inside = morphguard_loss_arrays(past, self.LABELS, self.IS_MORPH, MarginConfig())
        at_edge = morphguard_loss_arrays(with_entry(self.COSINES, index, edge), self.LABELS, self.IS_MORPH,
                                         MarginConfig())
        assert inside.loss == at_edge.loss
        np.testing.assert_array_equal(inside.cosine_grads, at_edge.cosine_grads)
        assert past[index] == edge * (1.0 + 1e-10)  # the caller's array is left as it was

