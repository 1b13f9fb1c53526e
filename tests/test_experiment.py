import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphguard import datagen
from morphguard.errors import ConfigError, DataError
from morphguard.featviz import align_feature_triplets, fit_rigid, project_2d
from morphguard.experiment import (
    EvalSettings,
    ExperimentConfig,
    adaptation_configs,
    embed_holdout,
    evaluate_from_files,
    evaluate_model,
    feature_analysis,
    fresh_model,
    generate_bundle,
    holdout_split,
    morph_trials,
    run_adaptation,
    run_margin_entry,
    run_sweep,
    train_config,
    trial_features,
    verification_scores,
)
from morphguard.encoder import DualHeadModel, _forward_batch, train
from morphguard.losses import MarginConfig, SampleKind
from oracles import oracle_align_triplet, oracle_morph_trials, oracle_probe_pool, probes_by_identity

SMALL = {
    "seed": 5,
    "data": {"num_classes": 6, "samples_per_class": 10, "input_dim": 16, "spread": 0.15},
    "model": {"hidden_dims": [16], "embedding_dim": 8},
    "train": {"epochs": 2, "lr_start": 2e-2, "lr_end": 1e-3, "batch_size": 32},
    "margin": {"scale": 16.0},
    "sweep_grid": [0.0, -0.1],
    "eval": {"genuine_pairs": 200, "impostor_pairs": 200},
}


def protocol_features(model, bundle, config):
    """trial_features of the bundle's protocol pairs, parents from its training pool."""
    parents = datagen.protocol_parents(bundle.train_bona, datagen.pair_columns(bundle.protocol.pairs))
    return trial_features(model, bundle.train_bona.inputs, parents, config.data.alpha)


def protocol_triplet_inputs(bundle, config):
    """(T, 3, D) parent_a, parent_b and morph input rows of the bundle's protocol pairs."""
    parents = datagen.protocol_parents(bundle.train_bona, datagen.pair_columns(bundle.protocol.pairs))
    a, b = bundle.train_bona.inputs[parents.T]
    return np.stack((a, b, datagen._blend(a, b, config.data.alpha)), axis=1)


def identity_model(dim: int, num_classes: int) -> DualHeadModel:
    """One identity layer: the embedding of a row is the row scaled to unit length."""
    heads = np.ones((2, num_classes, dim))
    return DualHeadModel(layers=[(np.eye(dim), np.zeros(dim))], head1=heads[0], head2=heads[1])


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig.from_dict(SMALL)


@pytest.fixture(scope="module")
def small_bundle(small_config):
    return generate_bundle(small_config)


class TestConfig:
    def test_roundtrip_through_dict_and_json(self):
        config = ExperimentConfig()
        raw = json.loads(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_dict(raw) == config
        small = ExperimentConfig.from_dict(SMALL)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(small.to_dict()))) == small

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"data": {"no_such_knob": 1}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"margin": {"no_such_knob": 1}})

    def test_ratio_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"data": {"ratios": [0, 1, 1]}})

    @pytest.mark.parametrize(
        "raw",
        [
            {"sweep_grid": [0.0, -3.0]},
            {"adapt": {"stage2_morph_offset": -3.0}},
            {"adapt": {"stage1_epochs": 0}},
            {"adapt": {"stage2_lr_start": 1e-5, "stage2_lr_end": 1e-4}},
            {"train": {"batch_size": 0}},
            {"margin": {"scale": 0.0}},
            {"seed": "x"},
            {"data": [1, 2]},
            {"sweep_grid": 3},
            [1, 2],
            {"model": {"embedding_dim": 31}},
            {"model": {"embedding_dim": 0}},
            {"eval": {"genuine_pairs": -5}},
            {"eval": {"impostor_pairs": 0}},
            {"eval": {"fnmr_targets": [0.01, 1.0]}},
            {"eval": {"fmr_targets": [0.0]}},
            {"data": {"samples_per_class": 5}},
            {"data": {"samples_per_class": 2, "holdout_fraction": 0.9}},
            {"data": {"num_classes": 7}},
            {"data": {"num_classes": 0}},
            {"data": {"input_dim": 1}},
            {"data": {"spread": 0.0}},
            {"data": {"ratios": [2, 0, 1]}},
            {"data": {"ratios": [2000, 1, 1]}},
            {"data": {"ratios": [2, float("inf"), 1]}},
            {"data": {"spread": float("inf")}},
            {"data": {"ratios": [2, 1000, 1]}},
            {"train": {"epochs": 1.5}},
            {"train": {"batch_size": 12.5}},
            {"train": {"epochs": True}},
            {"margin": {"scale": float("inf")}},
            {"seed": -3},
            {"seed": 1.5},
            {"train": {"lr_start": float("inf")}},
            {"data": {"num_classes": 40.0}},
            {"data": {"samples_per_class": 50.0}},
            {"data": {"input_dim": True}},
            {"model": {"hidden_dims": [64.0]}},
            {"model": {"hidden_dims": [False]}},
            {"model": {"embedding_dim": 32.0}},
            {"eval": {"genuine_pairs": 2.5}},
            {"eval": {"impostor_pairs": True}},
            {"data": {"alpha": "x"}},
            {"data": {"alpha": float("nan")}},
            {"data": {"alpha": 1.5}},
            {"data": {"alpha": True}},
            {"data": {"spread": True}},
            {"data": {"holdout_fraction": True}},
            {"margin": {"scale": True}},
            {"margin": {"bona_fide_margin": False}},
            {"margin": {"morph_offset": False}},
            {"margin": {"morph_offset": float("nan")}},
            {"train": {"lr_start": True}},
            {"train": {"lr_end": "x"}},
            {"adapt": {"stage2_lr_end": True}},
            {"adapt": {"stage2_morph_offset": True}},
            {"sweep_grid": [0.0, False]},
            {"eval": {"fnmr_targets": [0.01, float("nan")]}},
            {"data": {"ratios": [2, True, 1]}},
            {"sweep_grid": []},
            {"data": {"ratios": [2, 1, -1]}},
            {"data": {"ratios": [1e-320, 1, 1]}},
            {"data": {"ratios": [1e-300, 1e300, 1]}},
        ],
    )
    def test_untrainable_or_mistyped_config_rejected(self, raw):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_margin_section_is_a_margin_config_at_scale_16(self):
        config = ExperimentConfig.from_dict({"margin": {"bona_fide_margin": 0.4}})
        assert config.margin == MarginConfig(scale=16.0, bona_fide_margin=0.4)
        assert train_config(config, morph_offset=-0.1).margin == MarginConfig(16.0, 0.4, -0.1)

    def test_adaptation_configs_follow_settings(self):
        config = ExperimentConfig()
        stage1, stage2 = adaptation_configs(config)
        assert (stage1.epochs, stage1.lr_start, stage1.lr_end) == (
            config.adapt.stage1_epochs,
            config.adapt.stage1_lr_start,
            config.adapt.stage1_lr_end,
        )
        assert stage1.margin.morph_offset == 0.0
        assert (stage2.epochs, stage2.lr_start, stage2.lr_end) == (
            config.adapt.stage2_epochs,
            config.adapt.stage2_lr_start,
            config.adapt.stage2_lr_end,
        )
        assert stage2.margin.morph_offset == config.adapt.stage2_morph_offset


class TestHoldoutSplit:
    def test_per_identity_counts(self, small_bundle, small_config):
        spc = small_config.data.samples_per_class
        hold_per = max(1, round(spc * small_config.data.holdout_fraction))
        grouped_train = datagen.group_by_identity(small_bundle.train_bona)
        grouped_hold = datagen.group_by_identity(small_bundle.holdout)
        for identity in grouped_train:
            assert len(grouped_train[identity]) == spc - hold_per
            assert len(grouped_hold[identity]) == hold_per

    def test_holdout_disjoint_from_training_set(self, small_bundle):
        train_inputs = {s.input.tobytes() for s in small_bundle.train_set}
        for sample in small_bundle.holdout:
            assert sample.input.tobytes() not in train_inputs

    def test_fraction_bounds(self, small_bundle):
        with pytest.raises(ConfigError):
            holdout_split(small_bundle.bona_fides, 10, 0.99)

    def test_uneven_pool_rejected(self, small_bundle):
        pool = small_bundle.bona_fides
        labels = pool.first.copy()
        labels[9] = 1  # last sample of identity 0, relabeled as identity 1
        pool = datagen.SampleSet(pool.inputs, labels, labels, pool.kinds)
        with pytest.raises(DataError, match="identity 0 has 9"):
            holdout_split(pool, 10, 0.2)

    def test_morph_budget(self):
        assert datagen.mix_counts(1600, (2, 1, 1)) == (800, 800)
        assert datagen.mix_counts(48, (2, 1, 1)) == (24, 24)

    def test_selfmorphs_need_two_training_samples_per_identity(self):
        one_kept = {"samples_per_class": 3, "holdout_fraction": 0.5}
        with pytest.raises(ConfigError, match="selfmorphs"):
            ExperimentConfig.from_dict({"data": one_kept})
        config = ExperimentConfig.from_dict({"data": {**one_kept, "ratios": [2, 1, 0]}})
        assert len(generate_bundle(config).protocol.pairs) == 20


class TestBundle:
    def test_counts(self, small_bundle, small_config):
        data = small_config.data
        assert len(small_bundle.bona_fides) == data.num_classes * data.samples_per_class
        kinds = [s.labels.kind for s in small_bundle.train_set]
        n_train_bona = len(small_bundle.train_bona)
        assert kinds.count(SampleKind.BONA_FIDE) == n_train_bona
        num_morphs, num_selfmorphs = datagen.mix_counts(n_train_bona, data.ratios)
        assert kinds.count(SampleKind.MORPH) == num_morphs
        assert kinds.count(SampleKind.SELF_MORPH) == num_selfmorphs
        assert len(small_bundle.protocol.pairs) == num_morphs

    def test_protocol_holds_exactly_the_training_morphs(self):
        # n / r_bf * r_m is 227.49999999999997 and rounds to 227; n * r_m / r_bf is 227.5.
        config = ExperimentConfig.from_dict({"data": {"num_classes": 26, "ratios": [3.2, 0.7, 1]}})
        bundle = generate_bundle(config)
        assert len(bundle.protocol.pairs) == int(bundle.train_set.is_morph.sum()) == 227

    def test_deterministic(self, small_config, small_bundle):
        again = generate_bundle(small_config)
        assert len(again.train_set) == len(small_bundle.train_set)
        for a, b in zip(again.train_set, small_bundle.train_set):
            assert a.labels == b.labels
            np.testing.assert_array_equal(a.input, b.input)


class TestMixRule:
    @settings(max_examples=50, deadline=None)
    @given(
        num_classes=st.integers(1, 6).map(lambda half: 2 * half),
        # (samples per class, samples held out), so every holdout is a valid one
        split=st.integers(5, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
        ratios=st.tuples(st.floats(0.25, 4.0), st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
    )
    # 16 / 3.2 * 0.7 rounds to 4 morphs and 16 * 0.7 / 3.2 to 3.
    @example(num_classes=2, split=(10, 2), ratios=(3.2, 0.7, 1.0))
    def test_protocol_holds_the_training_morphs(self, num_classes, split, ratios):
        samples_per_class, held_out = split
        data = {
            "num_classes": num_classes,
            "samples_per_class": samples_per_class,
            "input_dim": 8,
            "holdout_fraction": held_out / samples_per_class,
            "ratios": ratios,
        }
        try:
            config = ExperimentConfig.from_dict({"data": data})
        except ConfigError:
            return
        bundle = generate_bundle(config)
        morphs = bundle.train_set.inputs[bundle.train_set.is_morph]
        assert len(bundle.protocol.pairs) == len(morphs)
        rebuilt = protocol_triplet_inputs(bundle, config)[:, 2]
        assert sorted(row.tobytes() for row in rebuilt) == sorted(row.tobytes() for row in morphs)


@pytest.fixture(scope="module")
def trained(small_config, small_bundle):
    model = fresh_model(small_config)
    model, _ = train(model, small_bundle.train_set, train_config(small_config))
    return model


class TestEvaluation:
    def test_verification_scores_shape_and_determinism(self, trained, small_bundle, small_config):
        vs1 = verification_scores(embed_holdout(trained, small_bundle.holdout), small_config.eval, small_config.seed)
        vs2 = verification_scores(embed_holdout(trained, small_bundle.holdout), small_config.eval, small_config.seed)
        assert vs1.genuine.shape == (200,)
        assert vs1.impostor.shape == (200,)
        np.testing.assert_array_equal(vs1.genuine, vs2.genuine)
        np.testing.assert_array_equal(vs1.impostor, vs2.impostor)

    def test_trials_match_protocol(self, trained, small_bundle, small_config):
        features = protocol_features(trained, small_bundle, small_config)
        trials = morph_trials(
            features[2::3],
            embed_holdout(trained, small_bundle.holdout),
            datagen.pair_columns(small_bundle.protocol.pairs),
            small_config.seed,
        )
        assert len(trials) == len(small_bundle.protocol.pairs)
        assert all(t.subject_scores.shape == (2,) for t in trials)

    def test_trials_need_probes_of_both_parents(self, trained, small_bundle, small_config):
        probes = probes_by_identity(embed_holdout(trained, small_bundle.holdout))
        del probes[small_bundle.protocol.pairs[0].identity_b]
        morphs = np.zeros((len(small_bundle.protocol.pairs), trained.embedding_dim))
        columns = datagen.pair_columns(small_bundle.protocol.pairs)
        with pytest.raises(DataError, match="without held-out probes"):
            morph_trials(morphs, oracle_probe_pool(probes), columns, small_config.seed)

    def test_trial_triplets_reproduce_training_morphs(self, small_bundle, small_config):
        train_morphs = small_bundle.train_set.inputs[small_bundle.train_set.is_morph]
        rebuilt = protocol_triplet_inputs(small_bundle, small_config)[:, 2]
        assert {row.tobytes() for row in train_morphs} == {row.tobytes() for row in rebuilt}
        # Through an identity layer, embedding is the same per-row scaling to unit length on
        # both sides, so trial_features must give the training morphs' embeddings.
        model = identity_model(small_config.data.input_dim, small_config.data.num_classes)
        embedded = {row.tobytes() for row in _forward_batch(model, train_morphs, keep_activations=False)[0]}
        assert {row.tobytes() for row in protocol_features(model, small_bundle, small_config)[2::3]} == embedded

    def test_report_contents(self, trained, small_bundle, small_config):
        report = evaluate_model(trained, small_bundle, small_config)
        metrics_seen = [p.metric for p in report.operating_points]
        assert metrics_seen == [
            "mmpmr_at_fnmr",
            "mmpmr_at_fnmr",
            "fnmr_at_fmr",
            "fnmr_at_fmr",
            "min_rmmr",
            "morph_spread",
        ]
        assert report.point("min_rmmr").value == report.min_rmmr_value
        assert report.point("morph_spread").value == report.ellipse.size
        assert report.ellipse.size == (report.ellipse.width + report.ellipse.height) / 2

    def test_file_driven_eval_matches_in_process(self, trained, small_bundle, small_config, tmp_path):
        datagen.save_dataset(small_bundle.bona_fides, tmp_path / "pool.jsonl")
        datagen.save_protocol(small_bundle.protocol, small_bundle.universe, tmp_path / "protocol.json")
        pool = datagen.load_dataset(tmp_path / "pool.jsonl")
        protocol = datagen.load_protocol(tmp_path / "protocol.json")
        from_files = evaluate_from_files(trained, pool, protocol, small_config)
        in_process = evaluate_model(trained, small_bundle, small_config)
        assert from_files.min_rmmr_value == in_process.min_rmmr_value
        np.testing.assert_array_equal(from_files.verification.genuine, in_process.verification.genuine)
        for a, b in zip(from_files.operating_points, in_process.operating_points):
            assert a == b

    def test_feature_analysis_shapes(self, trained, small_bundle, small_config):
        aligned, _ = feature_analysis(
            trained, small_bundle.bona_fides, small_bundle.protocol, small_config
        )
        assert aligned.shape == (len(small_bundle.protocol.pairs), 3, 2)

    def test_feature_analysis_matches_report(self, trained, small_bundle, small_config):
        aligned, ellipse = feature_analysis(
            trained, small_bundle.bona_fides, small_bundle.protocol, small_config
        )
        report = evaluate_model(trained, small_bundle, small_config)
        np.testing.assert_array_equal(aligned[:, 2, :], report.aligned_cloud)
        assert ellipse.size == report.ellipse.size
        assert (ellipse.width, ellipse.height, ellipse.orientation) == (
            report.ellipse.width,
            report.ellipse.height,
            report.ellipse.orientation,
        )


class TestWholeArrayDraws:
    """Evaluation draws made as whole arrays, against per-draw computations."""

    @pytest.mark.parametrize("hidden, width", [(64, 32), (256, 128)], ids=["desk", "wide"])
    def test_morph_trials_match_per_pair_oracle(self, hidden, width):
        # Half of each identity's 10 samples held out, so each probe draw has 5 choices.
        config = ExperimentConfig.from_dict(
            {
                **SMALL,
                "data": {**SMALL["data"], "holdout_fraction": 0.5},
                "model": {"hidden_dims": [hidden], "embedding_dim": width},
            }
        )
        bundle = generate_bundle(config)
        model, _ = train(fresh_model(config), bundle.train_set, train_config(config))
        held = embed_holdout(model, bundle.holdout)
        morphs = protocol_features(model, bundle, config)[2::3]
        trials = morph_trials(morphs, held, datagen.pair_columns(bundle.protocol.pairs), config.seed)
        expected = oracle_morph_trials(morphs, probes_by_identity(held), bundle.protocol, config.seed)
        assert [t.morph_id for t in trials] == list(range(len(bundle.protocol.pairs)))
        assert np.array([t.subject_scores for t in trials]).tobytes() == expected.tobytes()

    def test_verification_scores_are_exact_pair_scores(self):
        rng = np.random.default_rng(3)
        probes = {}
        for identity, count in zip((0, 2, 3, 7, 8), (2, 3, 5, 4, 7)):
            vectors = rng.standard_normal((count, 16))
            probes[identity] = vectors / np.linalg.norm(vectors, axis=1)[:, None]
        same = {
            float(np.clip(a @ b, -1.0, 1.0))
            for rows in probes.values()
            for i, a in enumerate(rows)
            for j, b in enumerate(rows)
            if i != j
        }
        cross = {
            float(np.clip(a @ b, -1.0, 1.0))
            for x in probes
            for y in probes
            if x != y
            for a in probes[x]
            for b in probes[y]
        }
        settings = EvalSettings(genuine_pairs=500, impostor_pairs=500)
        scores = verification_scores(oracle_probe_pool(probes), settings, seed=4)
        assert scores.genuine.shape == scores.impostor.shape == (500,)
        assert set(scores.genuine.tolist()) <= same
        assert set(scores.impostor.tolist()) <= cross
        again = verification_scores(oracle_probe_pool(probes), settings, seed=4)
        assert scores.genuine.tobytes() == again.genuine.tobytes()
        assert scores.impostor.tobytes() == again.impostor.tobytes()
        other = verification_scores(oracle_probe_pool(probes), settings, seed=5)
        assert scores.genuine.tobytes() != other.genuine.tobytes()
        assert scores.impostor.tobytes() != other.impostor.tobytes()


WIDE = {"data": {"num_classes": 200, "input_dim": 128}, "model": {"hidden_dims": [256], "embedding_dim": 128}}


class TestOnePassEmbedding:
    """Evaluation embeds each row once, in the bytes of one batch over every row it reads."""

    @pytest.fixture(
        scope="class",
        params=[{"seed": 1}, {"seed": 2}, {"seed": 1, **WIDE}],
        ids=["desk-seed1", "desk-seed2", "wide-seed1"],
    )
    def case(self, request):
        config = ExperimentConfig.from_dict(request.param)
        return config, generate_bundle(config), fresh_model(config)

    def test_trial_features_equal_one_batch_of_triplet_rows(self, case):
        config, bundle, model = case
        rows = protocol_triplet_inputs(bundle, config)
        expected = _forward_batch(model, rows.reshape(-1, rows.shape[2]), keep_activations=False)[0]
        assert len(np.unique(rows[:, :2].reshape(-1, rows.shape[2]), axis=0)) < 2 * len(rows)  # shared parents
        assert protocol_features(model, bundle, config).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("step", [1, -1], ids=["pool-order", "reversed"])
    def test_holdout_pool_equals_one_batch_in_identity_order(self, case, step):
        _, bundle, model = case
        holdout = bundle.holdout[::step]
        order = np.argsort(holdout.first, kind="stable")
        pool, counts, offsets, identities = embed_holdout(model, holdout)
        expected = _forward_batch(model, holdout.inputs[order], keep_activations=False)[0]
        assert pool.tobytes() == expected.tobytes()
        assert np.repeat(identities, counts).tolist() == holdout.first[order].tolist()
        assert offsets.tolist() == (np.cumsum(counts) - counts).tolist()


class TestBatchedAlignment:
    """The one batched alignment pass against per-triplet computations, bit for bit."""

    def test_matches_per_triplet_oracle(self, trained, small_bundle, small_config):
        rows = protocol_features(trained, small_bundle, small_config)
        triplets = rows.reshape(-1, 3, rows.shape[1])
        aligned = align_feature_triplets(triplets)
        expected = np.array([oracle_align_triplet(*t) for t in triplets])
        assert aligned.shape == (len(small_bundle.protocol.pairs), 3, 2)
        assert aligned.tobytes() == expected.tobytes()

    def test_batched_rigid_fit_equals_single_fits(self, trained, small_bundle, small_config):
        rows = protocol_features(trained, small_bundle, small_config)
        points = project_2d(rows.reshape(-1, 3, rows.shape[1]))
        batched = fit_rigid(points[:, 0], points[:, 1])
        image = batched.apply(points)
        for t, triple in enumerate(points):
            single = fit_rigid(triple[0], triple[1])
            assert batched.angle[t] == single.angle
            assert batched.translation[t].tobytes() == single.translation.tobytes()
            assert image[t].tobytes() == single.apply(triple).tobytes()


class TestRecipes:
    def test_sweep_entries_match_margin_entries(self, small_config):
        results = run_sweep(small_config)
        assert [off for off, _, _ in results] == list(small_config.sweep_grid)
        for offset, history, report in results:
            _, expected_history, expected_report = run_margin_entry(small_config, offset)
            assert history.epoch_mean_loss == expected_history.epoch_mean_loss
            assert report.min_rmmr_value == expected_report.min_rmmr_value
            assert report.operating_points == expected_report.operating_points

    def test_margin_entry_deterministic(self, small_config):
        _, h1, r1 = run_margin_entry(small_config, -0.1)
        _, h2, r2 = run_margin_entry(small_config, -0.1)
        assert h1.epoch_mean_loss == h2.epoch_mean_loss
        assert r1.min_rmmr_value == r2.min_rmmr_value

    def test_adaptation_stages(self, small_config):
        (m1, h1, r1), (m2, h2, r2) = run_adaptation(small_config)
        assert len(h1.epoch_mean_loss) == small_config.adapt.stage1_epochs
        assert len(h2.epoch_mean_loss) == small_config.adapt.stage2_epochs
        assert r1.min_rmmr_value >= 0 and r2.min_rmmr_value >= 0
        # stage 2 must have actually changed the model
        assert not np.array_equal(m1.head1, m2.head1)

    def test_adaptation_from_checkpoint_skips_stage1(self, small_config):
        (m1, h1, _), _ = run_adaptation(small_config)
        (m1b, h1b, _), (m2, h2, _) = run_adaptation(small_config, pretrained=m1.copy())
        assert h1b is None
