import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphguard import datagen, experiment, metrics
from morphguard.errors import ConfigError, DataError
from morphguard.featviz import align_feature_triplets, morph_spread, project_2d
from morphguard.experiment import (
    DataBundle,
    EvalSettings,
    ExperimentConfig,
    adaptation_configs,
    embed_holdout,
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
from morphguard.encoder import DualHeadModel, _forward_batch, init_model, train
from morphguard.datagen import SampleKind
from morphguard.losses import MarginConfig
from oracles import (
    oracle_align_triplet,
    oracle_morph_trials,
    oracle_probe_pool,
    oracle_trial_features,
    oracle_trial_picks,
    oracle_verification_draws,
    probes_by_identity,
    recorded_forward_calls,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from mem_peaks import peaks  # noqa: E402

SMALL = {
    "seed": 5,
    "data": {"num_classes": 6, "samples_per_class": 10, "input_dim": 16, "spread": 0.15},
    "model": {"hidden_dims": [16], "embedding_dim": 8},
    "train": {"epochs": 2, "lr_start": 2e-2, "lr_end": 1e-3, "batch_size": 32},
    "margin": {"scale": 16.0},
    "sweep_grid": [0.0, -0.1],
    "eval": {"genuine_pairs": 200, "impostor_pairs": 200},
}

# The wide tier: 200 identities, dims 128/256/128, so every trial batch runs in several blocks.
WIDE = {"data": {"num_classes": 200, "input_dim": 128}, "model": {"hidden_dims": [256], "embedding_dim": 128}}


def split_rows(pool, config):
    """holdout_split's (train_rows, held_rows) of a pool under config."""
    return holdout_split(pool, config.data.samples_per_class, config.data.holdout_fraction)


def train_part(bundle, config):
    """The training part of the bundle's pool, as a SampleSet."""
    return bundle.bona_fides[split_rows(bundle.bona_fides, config)[0]]


def held_grid(pool, config):
    """holdout_split's held-out rows of a pool as a (C, h) grid, one row per identity."""
    return split_rows(pool, config)[1].reshape(config.data.num_classes, -1)


def held_embeddings(model, bundle, config):
    """embed_holdout of the bundle's held-out grid."""
    return embed_holdout(model, bundle.bona_fides, held_grid(bundle.bona_fides, config))


def trial_args(model, bundle, config):
    """trial_features' (model, inputs, rows, parents, alpha) of the bundle's protocol pairs,
    parents from its training part."""
    pool, rows = bundle.bona_fides, split_rows(bundle.bona_fides, config)[0]
    return model, pool.inputs, rows, datagen.protocol_parents(pool, rows, bundle.protocol.columns), config.data.alpha


def protocol_features(model, bundle, config):
    """trial_features of the bundle's protocol pairs without probes: (morphs, triplets), the
    (T, E) morph embeddings its last forward blocks returned and the (T, 3, 2) projected triplets."""
    args = trial_args(model, bundle, config)
    with recorded_forward_calls() as calls:
        triplets, scores = trial_features(*args)
    assert scores is None
    morph_blocks = len(experiment._blocks(len(args[3])))
    return np.concatenate([embeddings for _, embeddings in calls[-morph_blocks:]]), triplets


def protocol_trials(model, bundle, config, held):
    """morph_trials of the bundle's protocol pairs against held: (trials, triplets)."""
    return morph_trials(*trial_args(model, bundle, config), held, config.seed)


def protocol_triplet_inputs(bundle, config):
    """(T, 3, D) parent_a, parent_b and morph input rows of the bundle's protocol pairs."""
    train_bona = train_part(bundle, config)
    parents = datagen.protocol_parents(train_bona, np.arange(len(train_bona)), bundle.protocol.columns)
    a, b = train_bona.inputs[parents.T]
    morphs = datagen._blend(train_bona.inputs, parents, config.data.alpha, np.empty_like(a))
    return np.stack((a, b, morphs), axis=1)


def interleaved(pool, seed):
    """The pool's records in a seeded order across identities, each identity's records in pool order."""
    owners = np.random.default_rng(seed).permutation(pool.first)
    rows = np.empty(len(pool), dtype=np.int64)
    rows[np.argsort(owners, kind="stable")] = np.argsort(pool.first, kind="stable")
    return pool[rows]


def evaluation(model, bundle, config):
    """(report, aligned): evaluate_model's report and morph_spread of its trial pass's triplets,
    which must be feature_analysis' aligned points and ellipse, and that ellipse the report's."""
    report = evaluate_model(model, bundle, config)
    _, triplets = protocol_trials(model, bundle, config, held_embeddings(model, bundle, config))
    aligned, ellipse = morph_spread(triplets)
    expected, expected_ellipse = feature_analysis(model, bundle.bona_fides, bundle.protocol, config)
    assert aligned.tobytes() == expected.tobytes()
    assert ellipse_values(ellipse) == ellipse_values(expected_ellipse) == ellipse_values(report.ellipse)
    return report, aligned


def assert_same_report(evaluated, expected_evaluated):
    """Two evaluations hold the same scores, curves, points and feature cloud, bit for bit."""
    (report, aligned), (expected, expected_aligned) = evaluated, expected_evaluated
    assert report.verification.genuine.tobytes() == expected.verification.genuine.tobytes()
    assert report.verification.impostor.tobytes() == expected.verification.impostor.tobytes()
    assert report.trials.scores.tobytes() == expected.trials.scores.tobytes()
    for name in ("fnmr_curve", "fmr_curve", "mmpmr_curve"):
        curve, expected_curve = getattr(report, name), getattr(expected, name)
        assert curve.thresholds.tobytes() == expected_curve.thresholds.tobytes()
        assert curve.values.tobytes() == expected_curve.values.tobytes()
    assert report.operating_points == expected.operating_points
    assert aligned.tobytes() == expected_aligned.tobytes()
    assert ellipse_values(report.ellipse) == ellipse_values(expected.ellipse)


def ellipse_values(ellipse):
    return (ellipse.center.tobytes(), ellipse.width, ellipse.height, ellipse.orientation)


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
        with pytest.raises(ConfigError, match="unknown config key 'data.no_such_knob'"):
            ExperimentConfig.from_dict({"data": {"no_such_knob": 1}})
        with pytest.raises(ConfigError, match="unknown config key 'margin.no_such_knob'"):
            ExperimentConfig.from_dict({"margin": {"no_such_knob": 1}})

    @pytest.mark.parametrize("key", ["foo", "sweep_gird"])
    def test_unknown_top_level_key_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_dict({**SMALL, key: 1})

    @pytest.mark.parametrize("value", [[], [["num_classes", 6]], None, "x", 1])
    def test_section_that_is_not_an_object_rejected(self, value):
        with pytest.raises(ConfigError, match=f"config section 'data' must be a JSON object, got {type(value).__name__}"):
            ExperimentConfig.from_dict({"data": value})

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
            # Arrays larger than numpy can create: the pool, the training set, each layer's
            # weights, the heads and each verification gather.
            {"data": {"input_dim": 2**62}},
            {"data": {"num_classes": 2**40, "samples_per_class": 2**20}},
            {"data": {"num_classes": 2**16, "input_dim": 2**20, "ratios": [1, 500000, 0]}},
            {"model": {"hidden_dims": [2**62]}},
            {"model": {"hidden_dims": [64, 2**60]}},
            {"data": {"num_classes": 2**20}, "model": {"embedding_dim": 2**40}},
            {"eval": {"genuine_pairs": 2**62}},
            {"eval": {"impostor_pairs": 2**62}},
            # One step more than a regime may take: a step index past 2**53 is not an exact float64.
            {"train": {"epochs": 2**53 + 1, "batch_size": 2**30}},
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
        num_train, num_classes = spc - hold_per, small_config.data.num_classes
        train_rows, held_rows = split_rows(small_bundle.bona_fides, small_config)
        # Identity-major rows of the identity-major pool: each identity's first (or last) samples.
        for rows, start, per in ((train_rows, 0, num_train), (held_rows, num_train, hold_per)):
            assert rows.tolist() == [i * spc + start + k for i in range(num_classes) for k in range(per)]

    def test_holdout_disjoint_from_training_set(self, small_bundle, small_config):
        train_inputs = {s.input.tobytes() for s in small_bundle.train_set}
        for row in small_bundle.bona_fides.inputs[split_rows(small_bundle.bona_fides, small_config)[1]]:
            assert row.tobytes() not in train_inputs

    def test_split_of_an_interleaved_pool_is_the_same_samples(self, small_bundle, small_config):
        pool = small_bundle.bona_fides
        shuffled = interleaved(pool, seed=3)
        assert not np.array_equal(shuffled.first, pool.first)
        for rows, shuffled_rows in zip(split_rows(pool, small_config), split_rows(shuffled, small_config)):
            assert shuffled.inputs[shuffled_rows].tobytes() == pool.inputs[rows].tobytes()

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
        n_train_bona = len(split_rows(small_bundle.bona_fides, small_config)[0])
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

    def test_fields_are_the_pool_protocol_and_training_set(self, small_bundle, small_config):
        names = [f.name for f in dataclasses.fields(DataBundle)]
        assert names == ["universe", "bona_fides", "protocol", "train_rows", "config"]
        # The bundle keeps the config the training set is drawn with, not the set's blended rows.
        assert small_bundle.config is small_config
        pool, protocol = small_bundle.bona_fides, small_bundle.protocol
        rows = split_rows(pool, small_config)[0]
        assert small_bundle.train_rows.tobytes() == rows.tobytes()
        # The set: the pool's training rows in split order, the morphs in protocol order, then the selfmorphs.
        train_set = small_bundle.train_set
        n, m = len(rows), len(protocol.columns)
        for name in ("inputs", "first", "second", "kinds"):
            assert getattr(train_set, name)[:n].tobytes() == getattr(pool, name)[rows].tobytes()
        assert train_set.first[n : n + m].tobytes() == protocol.columns[:, 0].tobytes()
        assert train_set.second[n : n + m].tobytes() == protocol.columns[:, 1].tobytes()
        morphs = protocol_triplet_inputs(small_bundle, small_config)[:, 2]
        assert train_set.inputs[n : n + m].tobytes() == morphs.tobytes()
        kinds = np.repeat([datagen.MORPH, datagen.SELF_MORPH], (m, len(train_set) - n - m))
        assert train_set.kinds[n:].tobytes() == kinds.astype(np.int8).tobytes()
        assert np.array_equal(train_set.first[n + m :], train_set.second[n + m :])

    def test_every_read_of_the_training_set_gives_the_same_bytes(self, small_bundle):
        first, second = small_bundle.train_set, small_bundle.train_set
        assert first.inputs is not second.inputs
        for name in ("inputs", "first", "second", "kinds"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()

    def test_file_driven_bundle_has_no_training_set(self, small_bundle):
        assert DataBundle(None, small_bundle.bona_fides, small_bundle.protocol).train_set is None

    def test_training_set_of_an_interleaved_pool(self, small_bundle, small_config):
        # Over the same samples in another record order the set holds the same rows in the same order.
        pool = interleaved(small_bundle.bona_fides, seed=3)
        rows = split_rows(pool, small_config)[0]
        assert not np.array_equal(rows, small_bundle.train_rows)
        shuffled = DataBundle(small_bundle.universe, pool, small_bundle.protocol, rows, small_config)
        train_set, expected = shuffled.train_set, small_bundle.train_set
        for name in ("inputs", "first", "second", "kinds"):
            assert getattr(train_set, name).tobytes() == getattr(expected, name).tobytes()

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
        train_set = bundle.train_set
        morphs = train_set.inputs[train_set.is_morph]
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
        held1, held2 = (held_embeddings(trained, small_bundle, small_config) for _ in range(2))
        vs1 = verification_scores(held1, small_config.eval, small_config.seed)
        vs2 = verification_scores(held2, small_config.eval, small_config.seed)
        assert vs1.genuine.shape == (200,)
        assert vs1.impostor.shape == (200,)
        np.testing.assert_array_equal(vs1.genuine, vs2.genuine)
        np.testing.assert_array_equal(vs1.impostor, vs2.impostor)

    def test_trials_match_protocol(self, trained, small_bundle, small_config):
        held = held_embeddings(trained, small_bundle, small_config)
        trials, triplets = protocol_trials(trained, small_bundle, small_config, held)
        assert triplets.tobytes() == protocol_features(trained, small_bundle, small_config)[1].tobytes()
        assert len(trials) == len(small_bundle.protocol.pairs)
        assert all(t.subject_scores.shape == (2,) for t in trials)

    def test_trial_triplets_reproduce_training_morphs(self, small_bundle, small_config):
        train_set = small_bundle.train_set
        train_morphs = train_set.inputs[train_set.is_morph]
        rebuilt = protocol_triplet_inputs(small_bundle, small_config)[:, 2]
        assert {row.tobytes() for row in train_morphs} == {row.tobytes() for row in rebuilt}
        # Through an identity layer, embedding is the same per-row scaling to unit length on
        # both sides, so trial_features must give the training morphs' embeddings.
        model = identity_model(small_config.data.input_dim, small_config.data.num_classes)
        embedded = {row.tobytes() for row in _forward_batch(model, train_morphs)[0]}
        assert {row.tobytes() for row in protocol_features(model, small_bundle, small_config)[0]} == embedded

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

    def test_report_builds_its_curves_once(self, trained, small_bundle, small_config, monkeypatch):
        curves, built = metrics.fnmr_fmr_curves, []

        def spy(verification):
            built.append(verification)
            return curves(verification)

        monkeypatch.setattr(metrics, "fnmr_fmr_curves", spy)
        report = evaluate_model(trained, small_bundle, small_config)
        assert built == [report.verification]

    def test_file_driven_eval_matches_in_process(self, trained, small_bundle, small_config, tmp_path):
        datagen.save_dataset(small_bundle.bona_fides, tmp_path / "pool.jsonl")
        datagen.save_protocol(small_bundle.protocol, small_bundle.universe, tmp_path / "protocol.json")
        pool = datagen.load_dataset(tmp_path / "pool.jsonl")
        protocol = datagen.load_protocol(tmp_path / "protocol.json")
        from_files = evaluation(trained, DataBundle(None, pool, protocol, None), small_config)
        in_process = evaluation(trained, small_bundle, small_config)
        assert_same_report(from_files, in_process)

    def test_evaluation_ignores_cross_identity_record_order(self, trained, small_bundle, small_config):
        pool = interleaved(small_bundle.bona_fides, seed=4)
        shuffled = DataBundle(None, pool, small_bundle.protocol, None)
        # Each evaluation also checks feature_analysis' points and ellipse against its trial pass.
        assert_same_report(evaluation(trained, shuffled, small_config), evaluation(trained, small_bundle, small_config))

    def test_feature_analysis_shapes(self, trained, small_bundle, small_config):
        aligned, _ = feature_analysis(
            trained, small_bundle.bona_fides, small_bundle.protocol, small_config
        )
        assert aligned.shape == (len(small_bundle.protocol.pairs), 3, 2)

    def test_feature_analysis_matches_report(self, trained, small_bundle, small_config):
        aligned, ellipse = feature_analysis(
            trained, small_bundle.bona_fides, small_bundle.protocol, small_config
        )
        report, expected = evaluation(trained, small_bundle, small_config)
        assert aligned.tobytes() == expected.tobytes()
        assert ellipse.size == report.ellipse.size
        assert (ellipse.width, ellipse.height, ellipse.orientation) == (
            report.ellipse.width,
            report.ellipse.height,
            report.ellipse.orientation,
        )


class TestWholeArrayDraws:
    """Evaluation draws made as whole arrays, against per-draw computations."""

    @pytest.mark.parametrize(
        "raw, trained",
        [
            # Half of each identity's 10 samples held out, so each probe draw has 5 choices.
            ({**SMALL, "data": {**SMALL["data"], "holdout_fraction": 0.5},
              "model": {"hidden_dims": [64], "embedding_dim": 32}}, True),
            ({**SMALL, "data": {**SMALL["data"], "holdout_fraction": 0.5},
              "model": {"hidden_dims": [256], "embedding_dim": 128}}, True),
            # 4000 morphs: the trial pass scores them in several blocks.
            ({"seed": 1, **WIDE}, False),
        ],
        ids=["desk", "wide", "wide-seed1"],
    )
    def test_morph_trials_match_per_pair_oracle(self, raw, trained):
        config = ExperimentConfig.from_dict(raw)
        bundle = generate_bundle(config)
        model = fresh_model(config)
        if trained:
            model, _ = train(model, bundle.train_set, train_config(config))
        held = held_embeddings(model, bundle, config)
        # The per-pair oracle scores the morphs of one forward batch, and the pass scores the
        # embeddings of its blocks, which must be those bytes.
        morphs = _forward_batch(model, protocol_triplet_inputs(bundle, config)[:, 2])[0]
        assert protocol_features(model, bundle, config)[0].tobytes() == morphs.tobytes()
        trials, _ = protocol_trials(model, bundle, config, held)
        probes = probes_by_identity(held, bundle.bona_fides)
        expected = oracle_morph_trials(morphs, probes, bundle.protocol, config.seed)
        assert [t.morph_id for t in trials] == list(range(len(bundle.protocol.pairs)))
        assert np.array([t.subject_scores for t in trials]).tobytes() == expected.tobytes()

    def test_verification_scores_are_exact_pair_scores(self):
        rng = np.random.default_rng(3)
        probes = {}
        for identity in (0, 2, 3, 7, 8):
            vectors = rng.standard_normal((4, 16))
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

    @pytest.mark.parametrize("raw", [{"seed": 1}, {"seed": 1, **WIDE}], ids=["desk", "wide"])
    def test_readme_draw_recipe(self, raw):
        # README "Determinism and seeding" in plain numpy on embed_holdout's (C, h, E) grid: its
        # scalar-bound draws give the per-identity oracle's array-bound indices and evaluation's scores.
        config = ExperimentConfig.from_dict(raw)
        bundle = generate_bundle(config)
        model = fresh_model(config)
        held = held_embeddings(model, bundle, config)
        num_ids, h = held.shape[:2]
        genuine_pairs, impostor_pairs = config.eval.genuine_pairs, config.eval.impostor_pairs

        def stream(tag):
            return np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, tag])))

        rng = stream(9)
        who = rng.integers(num_ids, size=genuine_pairs)
        i = rng.integers(h, size=genuine_pairs)
        j = rng.integers(h - 1, size=genuine_pairs)
        j += j >= i
        rng = stream(10)
        a = rng.integers(num_ids, size=impostor_pairs)
        b = rng.integers(num_ids - 1, size=impostor_pairs)
        b += b >= a
        sample_a = rng.integers(h, size=impostor_pairs)
        sample_b = rng.integers(h, size=impostor_pairs)
        columns = bundle.protocol.columns
        parents = np.searchsorted(np.unique(bundle.bona_fides.first), columns[:, :2])
        picks = stream(11).integers(h, size=(len(columns), 2))

        probes = probes_by_identity(held, bundle.bona_fides)
        genuine, impostor = oracle_verification_draws(probes, config.eval, config.seed)
        for recipe, oracle in zip((who, i, j, a, b, sample_a, sample_b), (*genuine, *impostor)):
            assert recipe.tolist() == oracle.tolist()
        expected_parents, expected_picks = oracle_trial_picks(probes, bundle.protocol, config.seed)
        assert parents.tolist() == expected_parents.tolist()
        assert picks.tolist() == expected_picks.tolist()

        def scores(x, y):
            return np.array([np.clip(u @ v, -1.0, 1.0) for u, v in zip(x, y)])

        verification = verification_scores(held, config.eval, config.seed)
        assert verification.genuine.tobytes() == scores(held[who, i], held[who, j]).tobytes()
        assert verification.impostor.tobytes() == scores(held[a, sample_a], held[b, sample_b]).tobytes()
        morphs, _ = protocol_features(model, bundle, config)
        trials, _ = protocol_trials(model, bundle, config, held)
        expected = scores(np.repeat(morphs, 2, axis=0), held[parents, picks].reshape(-1, held.shape[2]))
        assert trials.scores.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("raw", [{"seed": 1}, {"seed": 1, **WIDE}], ids=["desk", "wide"])
    def test_readme_selfmorph_recipe(self, raw):
        # README's stream-5 recipe in plain numpy picks the parents whose blends end the training set.
        config = ExperimentConfig.from_dict(raw)
        bundle = generate_bundle(config)
        kept = bundle.bona_fides.first[bundle.train_rows]
        identities, counts = np.unique(kept, return_counts=True)
        rich = np.flatnonzero(counts >= 2)
        num_selfmorphs = datagen.mix_counts(len(kept), config.data.ratios)[1]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 5])))
        group = rich[rng.integers(len(rich), size=num_selfmorphs)]
        i = rng.integers(counts[group])
        j = rng.integers(counts[group] - 1)
        j += j >= i
        parents = np.array([np.flatnonzero(kept == identities[k])[[a, b]] for k, a, b in zip(group, i, j)])

        train_set = bundle.train_set
        selfmorphs = train_set[len(train_set) - num_selfmorphs :]
        assert num_selfmorphs > 0 and set(selfmorphs.kinds.tolist()) == {datagen.SELF_MORPH}
        assert selfmorphs.first.tolist() == selfmorphs.second.tolist() == identities[group].tolist()
        inputs = bundle.bona_fides.inputs
        expected = datagen._blend(inputs, bundle.train_rows[parents], 0.5, np.empty((num_selfmorphs, inputs.shape[1])))
        assert selfmorphs.inputs.tobytes() == expected.tobytes()


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
        expected = _forward_batch(model, rows.reshape(-1, rows.shape[2]))[0]
        assert len(np.unique(rows[:, :2].reshape(-1, rows.shape[2]), axis=0)) < 2 * len(rows)  # shared parents
        morphs, triplets = protocol_features(model, bundle, config)
        assert morphs.tobytes() == expected[2::3].tobytes()
        assert triplets.tobytes() == project_2d(expected.reshape(rows.shape[0], 3, -1)).tobytes()

    def test_trial_pass_runs_in_blocks(self, case):
        # The distinct parents in ascending position order, then the morphs in pair order, each
        # split by _blocks; the wide tier's batches run in several blocks each.
        config, bundle, model = case
        _, inputs, rows, parents, alpha = trial_args(model, bundle, config)
        distinct = np.unique(parents)
        morph_inputs = protocol_triplet_inputs(bundle, config)[:, 2]
        with recorded_forward_calls() as calls:
            trial_features(model, inputs, rows, parents, alpha)
        expected = [inputs[rows[distinct[block]]] for block in experiment._blocks(len(distinct))]
        expected += [morph_inputs[block] for block in experiment._blocks(len(parents))]
        assert [batch.tobytes() for batch, _ in calls] == [batch.tobytes() for batch in expected]
        if config.data.num_classes == 200:
            assert min(len(distinct), len(parents)) >= 2 * experiment._BLOCK_ROWS

    def test_trial_path_equals_full_triplet_features(self, case):
        # The (T, 3, E) features with every parent embedded once per pair, against the 2-D points
        # and morph embeddings trial_features keeps: the points, the aligned cloud with its
        # ellipse and the trial scores keep their bytes.
        config, bundle, model = case
        features = oracle_trial_features(model, list(train_part(bundle, config)), bundle.protocol, config.data.alpha)
        morphs, triplets = protocol_features(model, bundle, config)
        assert morphs.tobytes() == features[:, 2].tobytes()
        assert triplets.shape == (len(features), 3, 2)
        assert triplets.tobytes() == project_2d(features).tobytes()
        aligned, ellipse = morph_spread(triplets)
        expected_aligned, expected_ellipse = morph_spread(project_2d(features))
        assert aligned.tobytes() == expected_aligned.tobytes()
        assert ellipse_values(ellipse) == ellipse_values(expected_ellipse)
        held = held_embeddings(model, bundle, config)
        trials, trial_triplets = protocol_trials(model, bundle, config, held)
        assert trial_triplets.tobytes() == triplets.tobytes()
        probes = probes_by_identity(held, bundle.bona_fides)
        expected = oracle_morph_trials(features[:, 2], probes, bundle.protocol, config.seed)
        assert trials.scores.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("step", [1, -1], ids=["pool-order", "reversed"])
    def test_holdout_pool_equals_one_batch_in_identity_order(self, case, step):
        config, bundle, model = case
        pool = bundle.bona_fides[::step]
        grid = held_grid(pool, config)
        held = pool[grid.ravel()]
        assert np.all(np.diff(held.first) >= 0)  # identities ascending, whatever the pool's order
        # Grid row k holds the k-th identity's held-out rows, and evaluation reads this grid.
        assert (pool.first[grid] == np.unique(pool.first)[:, None]).all()
        assert experiment._trial_rows(pool, bundle.protocol.columns, config)[1].tobytes() == grid.tobytes()
        embedded = embed_holdout(model, pool, grid)
        expected = _forward_batch(model, held.inputs)[0]
        assert embedded.shape == (*grid.shape, config.model.embedding_dim)
        assert embedded.tobytes() == expected.tobytes()


class TestBlocks:
    """Evaluation's forward passes run in _blocks, in the bytes of one batch over all their rows."""

    B = experiment._BLOCK_ROWS

    @pytest.mark.parametrize("factor, extra", [(0, 1), (1, -1), (1, 0), (2, -1), (2, 0), (2, 1), (5, 3)])
    def test_blocks_tile_the_batch_in_order(self, factor, extra):
        n = factor * self.B + extra
        blocks = experiment._blocks(n)
        assert [block.start for block in blocks] == [0] + [block.stop for block in blocks[:-1]]
        assert blocks[-1].stop == n and all(block.step is None for block in blocks)
        sizes = [block.stop - block.start for block in blocks]
        assert len(blocks) == max(1, n // self.B)
        assert max(sizes) - min(sizes) <= 1
        if n >= self.B:
            assert min(sizes) >= self.B

    @pytest.mark.parametrize("hidden, width, dim", [(64, 32, 64), (256, 128, 128)], ids=["desk", "wide"])
    @pytest.mark.parametrize("n", [2 * B, 2 * B + 1, 3 * B + 7, 5 * B + 3])
    def test_blocked_embeddings_equal_one_batch(self, hidden, width, dim, n):
        rng = np.random.default_rng(n)
        labels = np.sort(rng.integers(0, 50, size=n))
        pool = datagen.SampleSet(rng.standard_normal((n, dim)), labels, labels, np.zeros(n, dtype=np.int8))
        model = init_model(dim, [hidden], width, 50, seed=n)
        with recorded_forward_calls() as calls:
            embeddings = embed_holdout(model, pool, np.arange(n)[:, None])
        assert len(calls) == n // self.B > 1
        assert embeddings.shape == (n, 1, width)
        assert embeddings.tobytes() == _forward_batch(model, pool.inputs)[0].tobytes()


class TestMemory:
    """tracemalloc peaks of the wide tier at 200 identities (tools/mem_peaks.py), as multiples
    of the pool's input bytes. tracemalloc counts array buffers, whatever the heap's layout."""

    POOL = 200 * 50 * 128 * 8  # the pool's inputs.nbytes: 200 identities x 50 samples x 128 float64

    @pytest.fixture(scope="class")
    def figures(self):
        return peaks(experiment, 200)

    def test_bundle_holds_each_pool_row_once(self, figures):
        # The pool and the label columns make 1.05 pools; a bundle that also held the blended
        # block (0.8 pools) would hold 1.87.
        assert figures["bundle_holds"] < 1.2 * self.POOL

    def test_generate_bundle_peak(self, figures):
        # 1.12 pools. Pairing over a copy of the training rows' inputs peaks at 1.91, full-size
        # parent gathers and a copy of the training rows at 4.7.
        assert figures["generate_bundle_peak"] < 1.3 * self.POOL

    def test_train_set_peak(self, figures):
        # 2.75 pools from before the bundle: the bundle and the one (N+M+S, D) training array
        # (1.6 pools). A bundle that also holds the blended block peaks at 3.51.
        assert figures["train_set_peak"] < 3.0 * self.POOL

    def test_evaluate_model_peak(self, figures):
        # 0.81 pools over its start: the (H, E) held-out embeddings and one block's forward pass,
        # its hidden activations and embeddings beside the block's reused morph buffer. Embedding
        # the distinct trial parents and the morphs as whole batches, with the (T, E) morph
        # embeddings kept, peaks at 1.57, and keeping every triplet's (T, 3, E) embeddings at 3.26.
        assert figures["evaluate_model_peak"] < 1.0 * self.POOL

    def test_load_dataset_peak(self, figures):
        # 1.37 pools: the one preallocated (N, D) array and one block's lines, records and rows.
        # One array per row, stacked into an (N, D) copy at the end, peaks at 2.38.
        assert figures["load_dataset_peak"] < 1.45 * self.POOL


class TestBatchedAlignment:
    """The one batched alignment pass against per-triplet computations, bit for bit. The
    alignment of given features alone is test_featviz.py's TestOracleAlignment."""

    def test_matches_per_triplet_oracle(self, trained, small_bundle, small_config):
        # trial_features' blocked embeddings, aligned, against the oracle's one-batch features
        features = oracle_trial_features(
            trained, list(train_part(small_bundle, small_config)), small_bundle.protocol, small_config.data.alpha
        )
        expected = np.array([oracle_align_triplet(*t) for t in features])
        _, triplets = protocol_features(trained, small_bundle, small_config)
        aligned = align_feature_triplets(triplets)
        assert aligned.shape == (len(small_bundle.protocol.pairs), 3, 2)
        assert aligned.tobytes() == expected.tobytes()


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
