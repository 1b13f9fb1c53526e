"""Columnar sample sets and trial scores against the per-sample oracles, bit for bit."""

import dataclasses

import numpy as np
import pytest

from morphguard.datagen import (
    _BLEND_ROWS,
    KINDS,
    MORPH,
    SELF_MORPH,
    LabelPair,
    SampleKind,
    SampleSet,
    build_training_set,
    mix_counts,
    pair_protocol,
    protocol_parents,
    save_dataset,
    synth_identities,
)
from morphguard import experiment
from morphguard.encoder import _forward_batch
from morphguard.errors import DataError, ProtocolError
from morphguard.featviz import project_2d
from morphguard.experiment import (
    DataSettings,
    ExperimentConfig,
    ModelSettings,
    embed_holdout,
    fresh_model,
    holdout_split,
    morph_trials,
    trial_features,
)
from morphguard.metrics import MorphTrials

from oracles import (
    oracle_build_training_set,
    oracle_build_trial_triplets,
    oracle_holdout_split,
    oracle_morph_trial_list,
    oracle_pair_protocol,
    oracle_save_dataset,
    oracle_synth_identities,
    probes_by_identity,
    recorded_forward_calls,
)

CONFIGS = {
    "default-seed1": ExperimentConfig(seed=1),
    "default-seed2": ExperimentConfig(seed=2),
    "default-seed3": ExperimentConfig(seed=3),
    "200x50-d128": ExperimentConfig(
        seed=1,
        data=DataSettings(num_classes=200, samples_per_class=50, input_dim=128),
        model=ModelSettings(hidden_dims=(64,), embedding_dim=32),
    ),
}


def assert_same_samples(columns: SampleSet, samples: list):
    """A SampleSet holds the per-sample list's inputs, labels, kinds and source ids."""
    assert len(columns) == len(samples)
    assert columns.inputs.tobytes() == np.stack([s.input for s in samples]).tobytes()
    labels = [(s.labels.first_label, s.labels.second_label, s.labels.kind) for s in samples]
    assert labels == [(f, s, KINDS[k]) for f, s, k in zip(columns.first.tolist(), columns.second.tolist(), columns.kinds)]
    firsts, seconds = columns.first.tolist(), columns.second.tolist()
    implied = [(f, s) if k == MORPH else (f,) for f, s, k in zip(firsts, seconds, columns.kinds)]
    assert implied == [s.source_ids for s in samples]


def train_rows_of(bona_fides, config):
    """holdout_split's training rows of the pool under config."""
    return holdout_split(bona_fides, config.data.samples_per_class, config.data.holdout_fraction)[0]


def split_samples(bona_fides, samples_per_class, fraction):
    """holdout_split's two row arrays as the SampleSets they select from the pool."""
    return tuple(bona_fides[rows] for rows in holdout_split(bona_fides, samples_per_class, fraction))


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def pipelines(request):
    """The columnar and the per-sample data path of one config, stage by stage."""
    config = CONFIGS[request.param]
    d = config.data
    synth_args = (d.num_classes, d.samples_per_class, d.input_dim, d.spread, config.seed)
    stages = {}
    for name, synth, split, pairing in (
        ("columns", synth_identities, split_samples, pair_protocol),
        ("oracle", oracle_synth_identities, oracle_holdout_split, oracle_pair_protocol),
    ):
        universe, bona_fides = synth(*synth_args)
        train_bona, holdout = split(bona_fides, d.samples_per_class, d.holdout_fraction)
        protocol = pairing(universe, train_bona, mix_counts(len(train_bona), d.ratios)[0], config.seed)
        stages[name] = (universe, bona_fides, train_bona, holdout, protocol)
    return config, stages["columns"], stages["oracle"]


class TestAgainstPerSampleOracles:
    def test_synthesis_split_and_pairing(self, pipelines):
        _, columns, oracle = pipelines
        universe, o_universe = columns[0], oracle[0]
        assert universe.prototypes.tobytes() == o_universe.prototypes.tobytes()
        assert universe.subsets.tobytes() == o_universe.subsets.tobytes()
        for sample_set, sample_list in zip(columns[1:4], oracle[1:4]):
            assert_same_samples(sample_set, sample_list)
        assert columns[4].pairs == oracle[4].pairs

    @pytest.mark.parametrize("ratios", [None, (1, 0, 0), (2, 1, 0)], ids=["config", "1-0-0", "2-1-0"])
    def test_training_set(self, pipelines, ratios):
        config, (universe, bona_fides, _, _, protocol), oracle = pipelines
        kwargs = {"ratios": ratios or config.data.ratios, "seed": config.seed, "alpha": config.data.alpha}
        expected = oracle_build_training_set(oracle[0], oracle[2], oracle[4], **kwargs)
        rows = train_rows_of(bona_fides, config)
        assert_same_samples(build_training_set(universe, bona_fides, rows, protocol, **kwargs), expected)

    def test_trial_triplets_and_trials(self, pipelines):
        config, (_, bona_fides, _, _, protocol), oracle = pipelines
        expected = oracle_build_trial_triplets(oracle[2], oracle[4], config.data.alpha)
        columns = protocol.columns
        rows = train_rows_of(bona_fides, config)
        parents = protocol_parents(bona_fides, rows, columns)
        assert parents.shape == (len(protocol.pairs), 2)
        assert bona_fides.inputs[rows[parents]].tobytes() == np.array([t[:2] for t in expected]).tobytes()

        # Each distinct parent and each morph embedded once: the bytes of one batch of the 3T triplet
        # rows, the morphs' embeddings (the pass's last forward blocks) and every row's 2-D projection.
        model = fresh_model(config)
        with recorded_forward_calls() as calls:
            triplets, scores = trial_features(model, bona_fides.inputs, rows, parents, config.data.alpha)
        assert scores is None
        morphs = np.concatenate([embeddings for _, embeddings in calls[-len(experiment._blocks(len(parents))):]])
        features = _forward_batch(model, np.stack([v for t in expected for v in t]))[0]
        assert morphs.shape == (len(protocol.pairs), config.model.embedding_dim)
        assert triplets.shape == (len(protocol.pairs), 3, 2)
        assert morphs.tobytes() == features[2::3].tobytes()
        assert triplets.tobytes() == project_2d(features.reshape(triplets.shape[0], 3, -1)).tobytes()

        _, held_rows = holdout_split(bona_fides, config.data.samples_per_class, config.data.holdout_fraction)
        held = embed_holdout(model, bona_fides, held_rows.reshape(config.data.num_classes, -1))
        trials, trial_triplets = morph_trials(
            model, bona_fides.inputs, rows, parents, config.data.alpha, held, config.seed
        )
        assert trial_triplets.tobytes() == triplets.tobytes()
        expected = oracle_morph_trial_list(morphs, probes_by_identity(held, bona_fides), protocol, config.seed)
        assert [t.morph_id for t in trials] == [t.morph_id for t in expected]
        assert trials.scores.tobytes() == np.array([t.subject_scores for t in expected]).tobytes()

    def test_dataset_bytes(self, pipelines, tmp_path):
        config, (universe, bona_fides, _, _, protocol), oracle = pipelines
        kwargs = {"ratios": config.data.ratios, "seed": config.seed, "alpha": config.data.alpha}
        rows = train_rows_of(bona_fides, config)
        train_set = build_training_set(universe, bona_fides, rows, protocol, **kwargs)
        o_train_set = oracle_build_training_set(oracle[0], oracle[2], oracle[4], **kwargs)
        # The first 2000 records of a set: every kind occurs, and the wide case stays quick.
        for name, samples, o_samples in (("bona_fides", bona_fides, oracle[1]), ("dataset", train_set, o_train_set)):
            save_dataset(samples[:2000], tmp_path / f"{name}.jsonl")
            oracle_save_dataset(o_samples[:2000], tmp_path / f"{name}.oracle.jsonl")
            assert (tmp_path / f"{name}.jsonl").read_bytes() == (tmp_path / f"{name}.oracle.jsonl").read_bytes()


class TestPoolRows:
    """Blends and trial triplets read the pool through row arrays in any order, chunk by chunk."""

    @pytest.mark.parametrize("size", [_BLEND_ROWS - 1, _BLEND_ROWS, _BLEND_ROWS + 1, 2 * _BLEND_ROWS + 1])
    def test_blocks_at_chunk_edges(self, size):
        # Morph and selfmorph blocks of `size` rows each, from 600 pool rows in a seeded order.
        universe, pool = synth_identities(20, 40, 8, spread=0.1, seed=6)
        rows = np.random.default_rng(6).permutation(len(pool))[:600]
        protocol = pair_protocol(universe, pool[rows], size, seed=6)
        kwargs = {"ratios": (600, size, size), "seed": 6, "alpha": 0.3}
        train_set = build_training_set(universe, pool, rows, protocol, **kwargs)
        assert len(train_set) == len(rows) + 2 * size
        o_universe, o_pool = oracle_synth_identities(20, 40, 8, 0.1, 6)
        expected = oracle_build_training_set(o_universe, [o_pool[r] for r in rows], protocol, **kwargs)
        assert_same_samples(train_set, expected)

    @staticmethod
    def interleaved_pool(config):
        """(universe, pool): the pool's records in a seeded order across identities, each identity's in order."""
        d = config.data
        universe, ordered = synth_identities(d.num_classes, d.samples_per_class, d.input_dim, d.spread, config.seed)
        owners = np.random.default_rng(4).permutation(ordered.first)
        order = np.empty(len(ordered), dtype=np.int64)
        order[np.argsort(owners, kind="stable")] = np.argsort(ordered.first, kind="stable")
        return universe, ordered[order]

    def test_trial_features_of_an_interleaved_pool(self):
        # On an interleaved pool the training rows do not ascend.
        config = CONFIGS["default-seed1"]
        d = config.data
        universe, pool = self.interleaved_pool(config)
        rows = train_rows_of(pool, config)
        assert np.any(np.diff(rows) < 0)
        protocol = pair_protocol(universe, pool[rows], mix_counts(len(rows), d.ratios)[0], config.seed)
        parents = protocol_parents(pool, rows, protocol.columns)
        model = fresh_model(config)
        with recorded_forward_calls() as calls:
            triplets, _ = trial_features(model, pool.inputs, rows, parents, d.alpha)
        (parent_batch, _), (morph_batch, morphs) = calls
        expected = oracle_build_trial_triplets(list(pool[rows]), protocol, d.alpha)
        triplet_rows = np.stack([v for t in expected for v in t])
        features = _forward_batch(model, triplet_rows)[0]
        assert morphs.tobytes() == features[2::3].tobytes()
        assert triplets.tobytes() == project_2d(features.reshape(triplets.shape[0], 3, -1)).tobytes()
        # A row's bytes need not show its place in a batch, so the batches are checked too: the
        # distinct parents by ascending position in the training part, then the morphs in pair order.
        assert parent_batch.tobytes() == pool.inputs[rows][np.unique(parents)].tobytes()
        assert morph_batch.tobytes() == triplet_rows[2::3].tobytes()

    def test_held_out_batch_of_an_interleaved_pool(self):
        # embed_holdout forwards the held-out rows as one batch: identity-major, each identity's rows
        # in pool order, which on an interleaved pool is not ascending pool order.
        config = CONFIGS["default-seed1"]
        d = config.data
        _, pool = self.interleaved_pool(config)
        _, held_rows = holdout_split(pool, d.samples_per_class, d.holdout_fraction)
        model = fresh_model(config)
        grid = held_rows.reshape(d.num_classes, -1)
        with recorded_forward_calls() as calls:
            embeddings = embed_holdout(model, pool, grid)
        batches = [batch for batch, _ in calls]
        assert len(batches) == 1
        assert batches[0].tobytes() == pool.inputs[held_rows].tobytes()
        _, o_held = oracle_holdout_split(list(pool), d.samples_per_class, d.holdout_fraction)
        assert batches[0].tobytes() == np.stack([s.input for s in o_held]).tobytes()
        assert np.any(np.diff(held_rows) < 0)
        assert pool.first[grid].tolist() == [[k] * (len(o_held) // d.num_classes) for k in range(d.num_classes)]
        assert embeddings.shape == (*grid.shape, config.model.embedding_dim)
        assert embeddings.tobytes() == _forward_batch(model, batches[0])[0].tobytes()


class TestSampleSet:
    def test_views_slices_and_index_arrays(self):
        _, samples = synth_identities(4, 3, 8, spread=0.1, seed=1)
        assert len(samples) == 12 and len(list(samples)) == 12
        view = samples[-1]
        assert view.input.tobytes() == samples.inputs[11].tobytes()
        assert view.labels == LabelPair(3, 3, SampleKind.BONA_FIDE)
        assert samples[1:3].first.tolist() == [0, 0]
        assert samples[np.array([11, 0])].first.tolist() == [3, 0]
        with pytest.raises(IndexError):
            samples[12]

    @pytest.mark.parametrize(
        "first, second, kinds",
        [
            ([0, 1], [0, 1], [0, MORPH]),
            ([0, 1], [0, 2], [0, 0]),
            ([-1, 1], [-1, 1], [0, 0]),
            ([0, -1], [0, -1], [0, SELF_MORPH]),
            ([0, 1], [0, 1], [0, 3]),
        ],
        ids=["morph-repeats-label", "bona-fide-two-labels", "negative-label", "negative-selfmorph", "unknown-kind"],
    )
    def test_label_rules(self, first, second, kinds):
        with pytest.raises(ProtocolError, match=r"sample [01] has kind code"):
            SampleSet(np.ones((2, 4)), first, second, kinds)

    def test_shapes_checked(self):
        with pytest.raises(DataError):
            SampleSet(np.ones(4), [0], [0], [0])
        with pytest.raises(DataError):
            SampleSet(np.ones((2, 4)), [0], [0], [0])

    def test_frozen(self):
        _, samples = synth_identities(2, 2, 4, spread=0.1, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            samples.first = samples.second


class TestMorphTrials:
    def test_views_and_checks(self):
        trials = MorphTrials(np.array([[0.5, -0.25], [0.75, 0.125]]))
        assert [(t.morph_id, t.subject_scores.tolist()) for t in trials] == [(0, [0.5, -0.25]), (1, [0.75, 0.125])]
        assert trials[-1].morph_id == 1
        for bad in (np.array([[0.5, np.nan]]), np.array([[0.5, 1.5]]), np.array([[0.5]]), np.array([0.5, 0.5])):
            with pytest.raises(ValueError):
                MorphTrials(bad)
