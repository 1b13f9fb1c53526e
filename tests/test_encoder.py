import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from morphguard import encoder, losses
from morphguard.datagen import BONA_FIDE, MORPH, SampleSet, build_training_set, synth_identities
from morphguard.encoder import (
    DualHeadModel,
    TrainConfig,
    _forward_batch,
    _sgd_update,
    batch_gradients,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from morphguard.errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    DegenerateEmbeddingError,
    NumericError,
    ProtocolError,
)
from morphguard.experiment import (
    ExperimentConfig, adaptation_configs, fresh_model, generate_bundle, holdout_split, run_adaptation
)
from morphguard.losses import MarginConfig

from oracles import fd_gradient, max_rel_err, oracle_batch_gradients, oracle_train

# A two-stage regime small enough to run twice in a test.
ADAPT_CONFIG = {
    "seed": 4,
    "data": {"num_classes": 6, "samples_per_class": 10, "input_dim": 16, "spread": 0.15},
    "model": {"hidden_dims": [16], "embedding_dim": 8},
    "train": {"batch_size": 32},
    "eval": {"genuine_pairs": 50, "impostor_pairs": 50},
    "adapt": {"stage1_epochs": 2, "stage2_epochs": 2},
}


def models_equal(a: DualHeadModel, b: DualHeadModel) -> bool:
    if len(a.layers) != len(b.layers):
        return False
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        if not (np.array_equal(wa, wb) and np.array_equal(ba, bb)):
            return False
    return np.array_equal(a.head1, b.head1) and np.array_equal(a.head2, b.head2)


def random_batch(rng, n, input_dim, num_classes, morph_fraction=0.5):
    inputs, labels = [], []
    for _ in range(n):
        vec = rng.normal(size=input_dim)
        vec /= np.linalg.norm(vec)
        first = int(rng.integers(num_classes))
        if num_classes > 1 and rng.random() < morph_fraction:
            second = int((first + 1 + rng.integers(num_classes - 1)) % num_classes)
            labels.append((first, second, MORPH))
        else:
            labels.append((first, first, BONA_FIDE))
        inputs.append(vec)
    first, second, kinds = np.array(labels, dtype=np.int64).reshape(-1, 3).T
    return SampleSet(np.array(inputs).reshape(n, input_dim), first, second, kinds)


def columns(batch):
    """batch_gradients' (inputs, first, second, is_morph) arguments of a SampleSet."""
    return batch.inputs, batch.first, batch.second, batch.is_morph


def relabeled(samples, rows, first, second, kinds):
    """samples with the label pairs and kinds of the given rows replaced."""
    new = [samples.first.copy(), samples.second.copy(), samples.kinds.copy()]
    for column, values in zip(new, (first, second, kinds)):
        column[rows] = values
    return SampleSet(samples.inputs, *new)


def embed(model, x):
    """The unit embedding of one input vector, from a one-row forward batch."""
    return _forward_batch(model, np.asarray(x, dtype=np.float64)[None])[0][0]


def flatten_params(model):
    return np.concatenate([arr.ravel() for _, arr in model.parameters()])


def set_params(model, flat):
    offset = 0
    for _, arr in model.parameters():
        arr.flat[:] = flat[offset : offset + arr.size]
        offset += arr.size


class TestInit:
    def test_deterministic(self):
        a = init_model(6, [5], 4, 3, seed=42)
        b = init_model(6, [5], 4, 3, seed=42)
        assert models_equal(a, b)
        c = init_model(6, [5], 4, 3, seed=43)
        assert not models_equal(a, c)

    def test_no_hidden_layers(self):
        model = init_model(7, [], 4, 3, seed=1)
        assert len(model.layers) == 1
        assert model.layers[0][0].shape == (4, 7)

    def test_uniform_moment(self):
        # mean |w| of U(-a, a) is a/2 with a = 1/sqrt(fan_in)
        model = init_model(100, [100], 8, 4, seed=5)
        w = model.layers[0][0]
        assert w.size == 10_000
        expected = 0.5 / np.sqrt(100)
        assert abs(np.abs(w).mean() - expected) < 0.2 * expected

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            init_model(0, [], 4, 3, seed=1)
        with pytest.raises(ConfigError):
            init_model(4, [], 4, 0, seed=1)


class TestForward:
    def test_identity_single_layer(self):
        model = DualHeadModel(
            layers=[(np.eye(3), np.zeros(3))], head1=np.eye(3), head2=np.eye(3)
        )
        x = np.array([1.0, 0.0, 0.0])
        emb = embed(model, x)
        np.testing.assert_allclose(emb, x, atol=1e-12)

    def test_input_width_must_match_model(self):
        model = init_model(6, [5], 4, 3, seed=2)
        with pytest.raises(DataError):
            _forward_batch(model, np.ones((1, 5)))
        with pytest.raises(DataError):
            train(model, random_batch(np.random.default_rng(4), 8, 7, 3), TrainConfig(epochs=1))

    def test_final_layer_scaling_invariance(self):
        # cosines, losses, and argmax all ride on the embedding alone
        rng = np.random.default_rng(2)
        model = init_model(6, [5], 4, 3, seed=2)
        x = rng.normal(size=6)
        margin = MarginConfig(scale=12.0, bona_fide_margin=0.3)

        def snapshot():
            emb = embed(model, x)
            cosines = model.head1 @ emb / np.linalg.norm(model.head1, axis=1)
            loss, _ = batch_gradients(model, x[None], [1], [1], [False], margin)
            return emb, cosines, loss, int(np.argmax(cosines))

        emb_before, cos_before, loss_before, arg_before = snapshot()
        w, b = model.layers[-1]
        model.layers[-1] = (10.0 * w, 10.0 * b)
        emb_after, cos_after, loss_after, arg_after = snapshot()
        np.testing.assert_allclose(emb_after, emb_before, atol=1e-12)
        np.testing.assert_allclose(cos_after, cos_before, atol=1e-12)
        assert loss_after == pytest.approx(loss_before, abs=1e-10)
        assert arg_after == arg_before

    def test_unit_norm_property(self):
        rng = np.random.default_rng(3)
        model = init_model(8, [6], 5, 4, seed=3)
        for emb in _forward_batch(model, rng.normal(size=(1000, 8)))[0]:
            assert abs(np.linalg.norm(emb) - 1.0) < 1e-12

    def test_embedding_only_call_keeps_no_activations(self):
        model = init_model(6, [5, 4], 3, 2, seed=5)
        x = np.random.default_rng(5).normal(size=(7, 6))
        embeddings, norms = _forward_batch(model, x)
        assert embeddings.shape == (7, 3) and norms.shape == (7,)
        # A training step runs its own forward in its buffers, keeping each layer's input for the backward pass.
        buffers = encoder._StepTables(model, x, [0] * 7, [0] * 7, [False] * 7, MarginConfig()).gather(np.arange(7))
        batch_gradients(model, None, None, None, None, MarginConfig(), buffers)
        assert [a.shape for a in buffers.layer_inputs] == [(7, 6), (7, 5), (7, 4)]
        assert buffers.outputs[-1].tobytes() == embeddings.tobytes()
        assert buffers.norms.tobytes() == norms.tobytes()

    def test_degenerate_embedding(self):
        model = DualHeadModel(
            layers=[(np.zeros((3, 3)), np.zeros(3))], head1=np.eye(3), head2=np.eye(3)
        )
        with pytest.raises(DegenerateEmbeddingError):
            _forward_batch(model, np.ones((1, 3)))


class TestGradients:
    def test_single_sample_matches_fd(self):
        rng = np.random.default_rng(11)
        model = init_model(5, [4], 3, 4, seed=11)
        batch = random_batch(rng, 1, 5, 4)
        margin = MarginConfig(scale=16.0, bona_fide_margin=0.4, morph_offset=-0.1)
        inputs, first, second, is_morph = columns(batch)

        loss, grads = batch_gradients(model, inputs, first, second, is_morph, margin)
        flat_grad = np.concatenate([grads[name].ravel() for name, _ in model.parameters()])

        probe = model.copy()

        def objective(theta):
            set_params(probe, theta)
            value, _ = batch_gradients(probe, inputs, first, second, is_morph, margin)
            return value

        numeric = fd_gradient(objective, flatten_params(model))
        assert max_rel_err(flat_grad, numeric) < 1e-4

    def test_duplicated_sample_equals_single(self):
        rng = np.random.default_rng(13)
        model = init_model(5, [4], 3, 4, seed=13)
        sample = random_batch(rng, 1, 5, 4)[0]
        margin = MarginConfig(scale=8.0, bona_fide_margin=0.3)
        inputs1 = sample.input[None, :]
        inputs2 = np.stack([sample.input, sample.input])
        labels1 = np.array([sample.labels.first_label])
        kinds1 = np.array([False])
        _, g1 = batch_gradients(model, inputs1, labels1, labels1, kinds1, margin)
        _, g2 = batch_gradients(
            model,
            inputs2,
            np.repeat(labels1, 2),
            np.repeat(labels1, 2),
            np.repeat(kinds1, 2),
            margin,
        )
        for name, _ in model.parameters():
            np.testing.assert_allclose(g2[name], g1[name], rtol=1e-12, atol=1e-13)

    def test_random_small_models_match_fd(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            input_dim = int(rng.integers(3, 9))
            emb_dim = int(rng.integers(3, 7))
            num_classes = int(rng.integers(2, 6))
            hidden = [int(rng.integers(3, 8))] if rng.random() < 0.7 else []
            model = init_model(input_dim, hidden, emb_dim, num_classes, seed=100 + trial)
            batch = random_batch(rng, int(rng.integers(1, 5)), input_dim, num_classes)
            margin = MarginConfig(
                scale=float(rng.uniform(4, 32)),
                bona_fide_margin=float(rng.uniform(0.0, 0.6)),
                morph_offset=float(rng.uniform(-0.3, 0.2)),
            )
            inputs, first, second, is_morph = columns(batch)
            _, grads = batch_gradients(model, inputs, first, second, is_morph, margin)
            flat_grad = np.concatenate([grads[n].ravel() for n, _ in model.parameters()])

            probe = model.copy()

            def objective(theta):
                set_params(probe, theta)
                value, _ = batch_gradients(probe, inputs, first, second, is_morph, margin)
                return value

            numeric = fd_gradient(objective, flatten_params(model))
            assert max_rel_err(flat_grad, numeric) < 1e-4


def assert_same_bytes(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype, what
    assert actual.tobytes() == expected.tobytes(), what


class TestFusedStepExactness:
    """The stacked two-head step against the per-head oracle, byte for byte."""

    @staticmethod
    def check(model, batch, margin):
        args = (model, *columns(batch), margin)
        loss, grads = batch_gradients(*args)
        expected_loss, expected = oracle_batch_gradients(*args)
        assert_same_bytes(loss, expected_loss, "loss")
        assert sorted(grads) == sorted(expected)
        for name in expected:
            assert_same_bytes(grads[name], expected[name], name)

    # OpenBLAS picks its kernel by GEMM shape: a (N, 2C) cosine GEMM
    # differs from two (N, C) ones at C = 40 for N in 16..30, and a
    # (2C, E) head-gradient GEMM from two (C, E) ones at C = 6, N = 1001.
    @pytest.mark.parametrize("emb_dim", [32, 128])
    @pytest.mark.parametrize(
        "classes, batch_size", [(40, 1), (40, 7), (40, 23), (40, 33), (40, 77), (40, 127), (6, 23), (6, 1001)]
    )
    def test_random_batches(self, emb_dim, classes, batch_size):
        rng = np.random.default_rng(1000 * emb_dim + batch_size)
        model = init_model(64, [64], emb_dim, classes, seed=batch_size)
        margin = MarginConfig(scale=16.0, bona_fide_margin=0.5, morph_offset=-0.1)
        self.check(model, random_batch(rng, batch_size, 64, classes), margin)

    @pytest.mark.parametrize(
        "bona_fide_margin, offset, fires_under", [(1.2, 0.3, False), (1.2, -0.3, False), (0.2, -0.3, True)]
    )
    def test_clamped_regime(self, bona_fide_margin, offset, fires_under):
        # A margin of at least 0.9 never shifts an angle below 0, so the
        # under-clamp needs a negative morph margin (0.2 - 0.3).
        rng = np.random.default_rng(41)
        model = init_model(16, [32], 32, 10, seed=41)
        batch = relabeled(random_batch(rng, 31, 16, 10), [0, 1], [3, 5], [4, 5], [MORPH, BONA_FIDE])
        # Head rows parallel and antiparallel to an embedding put the
        # morph's head-1 target angle at 0 and the bona fide's head-2 one at pi.
        model.head1[3] = 2.0 * embed(model, batch[0].input)
        model.head2[5] = -embed(model, batch[1].input)
        margin = MarginConfig(scale=30.0, bona_fide_margin=bona_fide_margin, morph_offset=offset)

        inputs, first, second, is_morph = columns(batch)
        embeddings = np.stack([embed(model, x) for x in inputs])
        margins = np.where(is_morph, margin.morph_margin, margin.bona_fide_margin)
        shifted = []
        for head, labels in ((model.head1, first), (model.head2, second)):
            unit = head / np.linalg.norm(head, axis=1)[:, None]
            cos_t = np.clip(np.sum(embeddings * unit[labels], axis=1), -1.0, 1.0)
            shifted.append(np.arccos(cos_t) + margins)
        shifted = np.concatenate(shifted)
        assert np.any(shifted > np.pi)
        assert np.any(shifted < 0.0) == fires_under
        self.check(model, batch, margin)

    @pytest.mark.parametrize(
        "dims, batch_size", [((16, [24], 8, 6), 32), ((64, [64], 32, 40), 128)]
    )
    def test_two_epoch_train_matches_oracle_loop(self, dims, batch_size):
        input_dim, hidden, emb_dim, classes = dims
        rng = np.random.default_rng(input_dim)
        dataset = random_batch(rng, 2 * batch_size + 23, input_dim, classes)
        config = TrainConfig(
            epochs=2,
            lr_start=3e-2,
            lr_end=1e-3,
            batch_size=batch_size,
            seed=5,
            margin=MarginConfig(scale=16.0, bona_fide_margin=0.5, morph_offset=-0.1),
        )
        model = init_model(input_dim, hidden, emb_dim, classes, seed=7)
        expected = model.copy()
        expected_losses = oracle_train(expected, dataset, config)
        trained, history = train(model, dataset, config)
        assert_same_bytes(history.epoch_mean_loss, expected_losses, "epoch losses")
        for (name, actual), (_, reference) in zip(trained.parameters(), expected.parameters()):
            assert_same_bytes(actual, reference, name)


def clamped_run(batch_size):
    """A model, a 31-sample set and a config under which the first step
    shifts a morph's head-1 target angle below 0 and a bona fide's
    head-2 one past pi (the construction of test_clamped_regime)."""
    rng = np.random.default_rng(43)
    model = init_model(16, [32], 32, 10, seed=43)
    dataset = relabeled(random_batch(rng, 31, 16, 10), [0, 1], [3, 5], [4, 5], [MORPH, BONA_FIDE])
    model.head1[3] = 2.0 * embed(model, dataset[0].input)
    model.head2[5] = -embed(model, dataset[1].input)
    margin = MarginConfig(scale=30.0, bona_fide_margin=0.2, morph_offset=-0.6)
    config = TrainConfig(epochs=3, lr_start=1e-3, lr_end=1e-4, batch_size=batch_size, seed=3, margin=margin)
    return model, dataset, config


def assert_matches_oracle(model, dataset, config):
    """train(model, ...) leaves the bytes oracle_train leaves on a copy."""
    expected = model.copy()
    expected_losses = oracle_train(expected, dataset, config)
    _, history = train(model, dataset, config)
    assert_same_bytes(history.epoch_mean_loss, expected_losses, "epoch losses")
    for (name, actual), (_, reference) in zip(model.parameters(), expected.parameters()):
        assert_same_bytes(actual, reference, name)


class TestTrainStep:
    """train's per-run tables and buffers against the per-head oracle loop."""

    # 8 gives three full batches and a partial one; 64 > 31 one partial batch.
    @pytest.mark.parametrize("batch_size", [8, 64])
    def test_clamped_run_matches_oracle(self, batch_size, monkeypatch):
        fired = {"over": 0, "under": 0}
        adjust = losses._adjust_rows

        def spy(cos_t, rows):
            shifted = np.arccos(cos_t) + rows.margins[0]
            fired["over"] += bool(np.any(shifted > np.pi))
            fired["under"] += bool(np.any(shifted < 0.0))
            return adjust(cos_t, rows)

        monkeypatch.setattr(losses, "_adjust_rows", spy)
        assert_matches_oracle(*clamped_run(batch_size))
        assert fired["over"] > 0 and fired["under"] > 0

    @pytest.mark.parametrize("n, batch_size, epochs", [(31, 8, 3), (31, 64, 2), (32, 8, 2), (5, 1, 1)])
    def test_one_gradient_and_one_loss_call_per_step(self, n, batch_size, epochs, monkeypatch):
        calls = {"batch_gradients": 0, "morphguard_loss_arrays": 0}
        for name in calls:
            original = getattr(encoder, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(encoder, name, counted)
        dataset = random_batch(np.random.default_rng(n), n, 6, 4)
        train(init_model(6, [5], 4, 4, seed=n), dataset, TrainConfig(epochs=epochs, batch_size=batch_size))
        steps = epochs * -(-n // batch_size)
        assert calls == {"batch_gradients": steps, "morphguard_loss_arrays": steps}

    def test_updates_in_place_and_keeps_no_state_between_runs(self):
        model, dataset, config = clamped_run(8)
        arrays = [id(array) for _, array in model.parameters()]
        trained, _ = train(model, dataset, config)
        assert trained is model
        assert [id(array) for _, array in model.parameters()] == arrays
        # A second run with another sample set, batch shape and margin.
        other = random_batch(np.random.default_rng(5), 45, 16, 10)
        margin = MarginConfig(scale=16.0, bona_fide_margin=0.5, morph_offset=0.2)
        assert_matches_oracle(model, other, dataclasses.replace(config, batch_size=16, margin=margin))
        assert [id(array) for _, array in model.parameters()] == arrays

    def test_batch_columns_must_match_the_input_rows(self):
        model = init_model(6, [5], 4, 4, seed=1)
        with pytest.raises(DataError):
            batch_gradients(model, np.ones((3, 6)), [0, 1], [0, 1], [False, False], MarginConfig())

    # With 4 classes, label 4 of row 0 would read row 1's class 0 through a flat target index.
    @pytest.mark.parametrize("first", [[4, 0], [0, -1]], ids=["label_4", "label_-1"])
    def test_batch_labels_must_name_a_class(self, first):
        model = init_model(6, [5], 4, 4, seed=1)
        with pytest.raises(ProtocolError, match=r"outside \[0, 4\)"):
            batch_gradients(model, np.ones((2, 6)), first, [0, 0], [False, False], MarginConfig())

    # Cast to int64, [1.7, 0.2] and [True, False] would both train as labels [1, 0].
    @pytest.mark.parametrize("labels", [[1.7, 0.2], [True, False]], ids=["float", "bool"])
    @pytest.mark.parametrize("column", ["first", "second"])
    def test_batch_labels_must_be_integers(self, labels, column):
        model = init_model(4, [4], 4, 3, seed=1)
        first, second = (labels, [1, 0]) if column == "first" else ([1, 0], labels)
        with pytest.raises(ProtocolError, match=rf"need integer {column} labels, got"):
            batch_gradients(model, np.ones((2, 4)), first, second, [False, False], MarginConfig())

    def test_first_non_finite_loss_stops_the_run(self):
        model = init_model(6, [5], 4, 4, seed=1)
        config = TrainConfig(epochs=2, lr_start=1e300, lr_end=1e300, batch_size=8)
        with pytest.raises(NumericError, match=r"training diverged: the loss of epoch 1, step 2 of 4 is nan"):
            train(model, random_batch(np.random.default_rng(1), 31, 6, 4), config)

    @pytest.mark.parametrize(
        "where, message",
        [("head", "a head row's norm"), ("layer", "an embedding's norm")],
        ids=["head", "layer"],
    )
    def test_overflowing_norm_stops_the_run(self, where, message):
        """A row whose norm overflows normalizes to zeros and would never move,
        under a finite loss: the run stops at the first such step."""
        _, samples = synth_identities(4, 10, 8, spread=0.2, seed=4)
        model = init_model(8, [8], 6, 4, seed=1)
        if where == "head":
            model.head1[0] = 1e160
        else:
            model.layers[-1][0][:] *= 1e160
        with pytest.raises(NumericError, match=rf"^training diverged: {message} is not finite at epoch 1, step 1 of 3$"):
            train(model, samples, TrainConfig(epochs=2, batch_size=16))

    @pytest.mark.parametrize("inputs", [[[np.nan, 1, 1, 1], [1, 0, 1, 0]], [[1e300] * 4] * 2], ids=["nan", "overflow"])
    def test_direct_call_rejects_a_non_finite_step(self, inputs):
        """A NaN input gives a NaN loss; 1e300 inputs overflow their embedding
        norms, which normalize the rows to zeros under a finite loss. A direct
        call raises one NumericError line for either, with no numpy warning."""
        model = init_model(4, [4], 4, 3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^the batch's loss is .* and its largest row norm (nan|inf)$"):
                batch_gradients(model, np.array(inputs), [0, 1], [0, 1], [False, False], MarginConfig())


class TestTraining:
    def _dataset(self, seed=0):
        _, samples = synth_identities(4, 50, 8, spread=0.2, seed=seed)
        return samples

    def test_zero_lr_is_noop(self):
        rng = np.random.default_rng(19)
        model = init_model(5, [4], 3, 4, seed=19)
        before = model.copy()
        batch = random_batch(rng, 3, 5, 4)
        loss, grads = batch_gradients(model, *columns(batch), MarginConfig())
        _sgd_update(model, grads, 0.0)
        assert np.isfinite(loss)
        assert models_equal(model, before)

    def test_single_step_run(self):
        dataset = self._dataset()
        model = init_model(8, [8], 6, 4, seed=7)
        config = TrainConfig(epochs=1, lr_start=0.01, lr_end=0.01, batch_size=len(dataset), seed=7)
        _, history = train(model, dataset, config)
        assert len(history.epoch_mean_loss) == 1
        assert history.epoch_lr == [0.01]

    def test_lr_schedule_endpoints(self):
        """Each step's rate is the bytes of np.linspace's entry for it: one
        step, two, equal rates, a step that underflows to zero, and random
        schedules."""
        rng = np.random.default_rng(0)
        cases = [(1e-3, 1e-5, 50), (1e-3, 1e-5, 1), (1e-3, 1e-5, 2), (0.01, 0.01, 7), (1.5e-323, 5e-324, 5)]
        for _ in range(200):
            start, end = sorted(10.0 ** rng.uniform(-8, 1, size=2), reverse=True)
            cases.append((float(start), float(end), int(rng.integers(1, 300))))
        for start, end, n in cases:
            rates = np.array([encoder._step_rate(start, end, i, n) for i in range(n)])
            assert rates.tobytes() == np.linspace(start, end, n).tobytes(), (start, end, n)

    def test_train_builds_no_schedule(self, monkeypatch):
        """train takes each step's rate as it goes: 10**6 one-step epochs,
        stopped at the first step, peak under 1 MB, where an array of their
        rates alone would be 8 MB."""

        class FirstStep(Exception):
            pass

        def first_step(*args):
            raise FirstStep

        monkeypatch.setattr(encoder, "batch_gradients", first_step)
        _, samples = synth_identities(4, 3, 8, spread=0.2, seed=1)
        model = init_model(8, [8], 4, 4, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(FirstStep):
                train(model, samples, TrainConfig(epochs=10**6, batch_size=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_loss_decreases_on_separable_set(self):
        decreasing = 0
        for seed in range(1, 6):
            _, dataset = synth_identities(4, 50, 8, spread=0.2, seed=seed)
            model = init_model(8, [8], 8, 4, seed=seed)
            config = TrainConfig(epochs=5, lr_start=1e-3, lr_end=1e-4, batch_size=64, seed=seed)
            _, history = train(model, dataset, config)
            losses = history.epoch_mean_loss
            assert all(np.isfinite(l) and l >= 0 for l in losses)
            if all(b < a for a, b in zip(losses, losses[1:])):
                decreasing += 1
        assert decreasing >= 3  # median over the 5 seeds decreases

    def test_training_deterministic(self):
        dataset = self._dataset(3)
        config = TrainConfig(epochs=2, lr_start=1e-3, lr_end=1e-4, batch_size=32, seed=5)
        m1, h1 = train(init_model(8, [8], 6, 4, seed=5), dataset, config)
        m2, h2 = train(init_model(8, [8], 6, 4, seed=5), dataset, config)
        assert models_equal(m1, m2)
        assert h1.epoch_mean_loss == h2.epoch_mean_loss

    def test_empty_dataset(self):
        model = init_model(8, [], 6, 4, seed=1)
        with pytest.raises(ConfigError):
            train(model, self._dataset()[:0], TrainConfig())

    def test_label_beyond_class_count(self):
        # Only the second label of the one morph is out of range.
        dataset = relabeled(self._dataset()[np.r_[0:10, 0]], 10, 0, 4, MORPH)
        model = init_model(8, [], 6, 4, seed=1)
        before = model.copy()
        with pytest.raises(ProtocolError):
            train(model, dataset, TrainConfig(epochs=1))
        assert models_equal(model, before)


class TestAdapt:
    def test_equivalent_to_train_continuation(self):
        """Stage 2 of run_adaptation is train() continued from a copy of the
        stage-1 model, and the stage-1 model it returns is left as stage 1 made it."""
        config = ExperimentConfig.from_dict(ADAPT_CONFIG)
        bundle = generate_bundle(config)
        stage1_config, stage2_config = adaptation_configs(config)
        (m1, _, _), (m2, h2, _) = run_adaptation(config)
        train_rows, _ = holdout_split(bundle.bona_fides, config.data.samples_per_class, config.data.holdout_fraction)
        stage1_set = build_training_set(
            bundle.universe, bundle.bona_fides, train_rows, bundle.protocol, ratios=(1, 0, 0), seed=config.seed
        )
        # Without blends the set is the training rows run_adaptation's stage 1 trains on, byte for byte.
        for name in ("inputs", "first", "second", "kinds"):
            assert getattr(stage1_set, name).tobytes() == getattr(bundle.bona_fides[train_rows], name).tobytes()
        expected1, _ = train(fresh_model(config), stage1_set, stage1_config)
        assert models_equal(m1, expected1)
        expected2, expected_h2 = train(m1.copy(), bundle.train_set, stage2_config)
        assert models_equal(m2, expected2)
        assert h2.epoch_mean_loss == expected_h2.epoch_mean_loss
        assert not models_equal(m1, m2)

    def test_class_count_mismatch(self):
        _, dataset = synth_identities(4, 5, 8, spread=0.2, seed=2)
        model = init_model(8, [], 6, 2, seed=1)
        with pytest.raises(ProtocolError):
            train(model, dataset, TrainConfig())

    def test_deterministic(self):
        _, dataset = synth_identities(4, 10, 8, spread=0.2, seed=4)
        config = TrainConfig(epochs=1, lr_start=1e-4, lr_end=1e-5, batch_size=8, seed=11)
        base = init_model(8, [], 6, 4, seed=11)
        a, _ = train(base.copy(), dataset, config)
        b, _ = train(base.copy(), dataset, config)
        assert models_equal(a, b)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = init_model(6, [5, 4], 3, 7, seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert models_equal(model, loaded)
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_truncated(self, tmp_path):
        model = init_model(6, [5], 3, 4, seed=22)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(path)
        assert err.value.offset > 0

    def test_trailing_bytes(self, tmp_path):
        model = init_model(4, [], 3, 2, seed=23)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)
