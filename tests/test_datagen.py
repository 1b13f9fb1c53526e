import dataclasses
import decimal
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphguard.cli import main
from morphguard.datagen import (
    _READ_LINES,
    BONA_FIDE,
    KINDS,
    MORPH,
    SELF_MORPH,
    IdentityUniverse,
    LabelPair,
    MorphPair,
    MorphPairProtocol,
    Sample,
    SampleKind,
    SampleSet,
    _blend,
    _line_bound,
    build_training_set,
    load_dataset,
    load_protocol,
    mix_counts,
    pair_protocol,
    protocol_parents,
    save_dataset,
    save_protocol,
    split_identities,
    synth_identities,
)
from morphguard.encoder import init_model
from morphguard.errors import CapacityError, ConfigError, DataError, NumericInputError, ProtocolError
from morphguard.experiment import ExperimentConfig, generate_bundle, trial_features

from oracles import oracle_load_dataset


def whole_set(universe, pool, protocol, **kwargs):
    """The training set over every pool row: the pool, then its morphs and selfmorphs."""
    return build_training_set(universe, pool, np.arange(len(pool)), protocol, **kwargs)


def bona_fide(identity, vec):
    arr = np.asarray(vec, dtype=np.float64)
    return Sample(input=arr / np.linalg.norm(arr), labels=LabelPair(identity, identity, SampleKind.BONA_FIDE))


def morph_of(universe, sample_a, sample_b, alpha=0.5):
    """The morph build_training_set blends from a one-row protocol pairing
    sample_a (row 0 of its identity) with sample_b; alpha weights sample_a."""
    ids = [sample_a.labels.first_label, sample_b.labels.first_label]
    pool = SampleSet(np.stack((sample_a.input, sample_b.input)), ids, ids, [BONA_FIDE, BONA_FIDE])
    out = whole_set(universe, pool, MorphPairProtocol(np.array([[*ids, 0, 0]])), ratios=(2, 1, 0), alpha=alpha)
    assert out.kinds.tolist() == [BONA_FIDE, BONA_FIDE, MORPH]
    return out[2]


def selfmorph_of(identity, input_a, input_b):
    """The one selfmorph build_training_set draws from a pool of two samples of one identity."""
    universe, _ = synth_identities(2 * (identity // 2 + 1), 2, len(input_a), spread=0.1, seed=0)
    pool = SampleSet(np.stack((input_a, input_b)), [identity] * 2, [identity] * 2, [BONA_FIDE] * 2)
    empty = MorphPairProtocol(np.empty((0, 4), dtype=np.int64))
    return whole_set(universe, pool, empty, ratios=(2, 0, 1))[2]


class TestSynthIdentities:
    def test_small_spread_sticks_to_prototype(self):
        universe, samples = synth_identities(4, 3, 16, spread=1e-12, seed=0)
        for sample in samples:
            proto = universe.prototypes[sample.labels.first_label]
            assert np.linalg.norm(sample.input - proto) < 1e-9

    def test_counts_and_labels(self):
        _, samples = synth_identities(4, 3, 8, spread=0.1, seed=1)
        assert len(samples) == 12
        labels = [s.labels.first_label for s in samples]
        assert sorted(set(labels)) == [0, 1, 2, 3]
        assert all(labels.count(i) == 3 for i in range(4))
        assert all(s.labels.kind is SampleKind.BONA_FIDE for s in samples)

    def test_within_class_similarity_exceeds_between(self):
        # Monte-Carlo estimate over ~10^4 sample draws
        universe, samples = synth_identities(10, 1000, 32, spread=0.1, seed=2)
        grouped = {i: samples[i * 1000 : (i + 1) * 1000] for i in range(10)}  # identity-major
        assert all((grouped[i].first == i).all() for i in grouped)
        within = np.mean(
            [
                float(a.input @ b.input)
                for i in grouped
                for a, b in zip(grouped[i][:-1], grouped[i][1:])
            ]
        )
        rng = np.random.default_rng(3)
        between = np.mean(
            [
                float(grouped[i][rng.integers(1000)].input @ grouped[j][rng.integers(1000)].input)
                for i, j in itertools.combinations(range(10), 2)
                for _ in range(100)
            ]
        )
        assert within > between

    def test_unit_norm_outputs(self):
        universe, samples = synth_identities(4, 10, 8, spread=0.5, seed=4)
        for sample in samples:
            assert abs(np.linalg.norm(sample.input) - 1.0) < 1e-9
        assert np.all(np.abs(np.linalg.norm(universe.prototypes, axis=1) - 1.0) < 1e-9)

    def test_determinism(self):
        u1, s1 = synth_identities(4, 5, 8, spread=0.2, seed=9)
        u2, s2 = synth_identities(4, 5, 8, spread=0.2, seed=9)
        np.testing.assert_array_equal(u1.prototypes, u2.prototypes)
        np.testing.assert_array_equal(u1.subsets, u2.subsets)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.input, b.input)

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_identities(1, 3, 8, spread=0.1, seed=0)
        with pytest.raises(ConfigError):
            synth_identities(5, 3, 8, spread=0.1, seed=0)  # odd
        with pytest.raises(ConfigError):
            synth_identities(4, 1, 8, spread=0.1, seed=0)
        with pytest.raises(ConfigError):
            synth_identities(4, 3, 8, spread=0.0, seed=0)

    def test_overflowing_norm_is_named(self):
        # The squared norm of a row at spread 1e300 overflows float64;
        # dividing by the inf norm would turn every row into zeros.
        with pytest.raises(NumericInputError, match="row 0: its squared norm overflows float64"):
            synth_identities(4, 5, 8, spread=1e300, seed=1)


class TestSplitIdentities:
    def test_balanced_partition(self):
        subsets = split_identities(4, seed=0)
        assert sorted(subsets.tolist()).count(1) == 2
        assert sorted(subsets.tolist()).count(2) == 2

    def test_odd_count_differs_by_one(self):
        subsets = split_identities(7, seed=1)
        counts = [int((subsets == s).sum()) for s in (1, 2)]
        assert abs(counts[0] - counts[1]) == 1
        assert sum(counts) == 7

    def test_deterministic(self):
        np.testing.assert_array_equal(split_identities(10, seed=5), split_identities(10, seed=5))

    def test_too_few(self):
        with pytest.raises(ConfigError):
            split_identities(1, seed=0)


class TestIdentityUniverse:
    def test_identity_count_is_the_subset_count(self):
        universe, _ = synth_identities(6, 2, 4, spread=0.1, seed=3)
        assert universe.num_classes == len(universe.subsets) == 6

    @pytest.mark.parametrize("subsets", [[1, 1, 1], [2, 2], [1, 2, 3], [0, 1, 2], [1.5, 1, 2]])
    def test_subsets_must_partition_into_1_and_2(self, subsets):
        prototypes = np.eye(len(subsets))
        with pytest.raises(ConfigError, match="subsets must partition the identities into two nonempty groups"):
            IdentityUniverse(prototypes, np.array(subsets))


class TestPairProtocol:
    def test_exhaustive_cross_subset_enumeration(self):
        universe, samples = synth_identities(4, 2, 8, spread=0.1, seed=7)
        protocol = pair_protocol(universe, samples, num_morphs=16, seed=7)
        assert len(protocol.pairs) == 16
        seen = set()
        for pair in protocol.pairs:
            assert universe.subsets[pair.identity_a] == 1
            assert universe.subsets[pair.identity_b] == 2
            key = (pair.identity_a, pair.sample_a, pair.identity_b, pair.sample_b)
            assert key not in seen
            seen.add(key)
        side1 = [i for i in range(4) if universe.subsets[i] == 1]
        side2 = [i for i in range(4) if universe.subsets[i] == 2]
        expected = {
            (ia, ka, ib, kb)
            for ia in side1
            for ib in side2
            for ka in range(2)
            for kb in range(2)
        }
        assert seen == expected

    def test_within_subset_families_never_occur(self):
        universe, samples = synth_identities(4, 2, 8, spread=0.1, seed=8)
        protocol = pair_protocol(universe, samples, num_morphs=16, seed=8)
        families = {(p.identity_a, p.identity_b) for p in protocol.pairs}
        for a, b in families:
            assert universe.subsets[a] != universe.subsets[b]

    def test_empty_and_capacity(self):
        universe, samples = synth_identities(4, 2, 8, spread=0.1, seed=9)
        assert pair_protocol(universe, samples, 0, seed=9).pairs == ()
        with pytest.raises(CapacityError):
            pair_protocol(universe, samples, 17, seed=9)

    def test_deterministic(self):
        universe, samples = synth_identities(6, 3, 8, spread=0.1, seed=10)
        p1 = pair_protocol(universe, samples, 12, seed=10)
        p2 = pair_protocol(universe, samples, 12, seed=10)
        assert p1.pairs == p2.pairs

    def test_columns_hold_the_pairs_in_field_order(self):
        universe, samples = synth_identities(6, 3, 8, spread=0.1, seed=10)
        protocol = pair_protocol(universe, samples, 12, seed=10)
        assert protocol.columns.shape == (12, 4) and protocol.columns.dtype == np.int64
        assert [dataclasses.astuple(p) for p in protocol.pairs] == [tuple(row) for row in protocol.columns.tolist()]
        assert all(type(v) is int for p in protocol.pairs for v in dataclasses.astuple(p))
        assert [f.name for f in dataclasses.fields(MorphPair)] == ["identity_a", "identity_b", "sample_a", "sample_b"]
        assert MorphPairProtocol(protocol.columns.astype(np.int32)) == protocol
        assert MorphPairProtocol(protocol.columns[::-1]) != protocol
        assert protocol != protocol.pairs

    @pytest.mark.parametrize(
        "columns",
        [np.zeros((3, 3), dtype=np.int64), np.zeros(4, dtype=np.int64), np.zeros((3, 4)),
         np.zeros((3, 4), dtype=bool), np.zeros((3, 4), dtype=np.uint64), np.zeros((2, 3, 4), dtype=np.int64)],
        ids=["T-by-3", "1-D", "float", "bool", "uint64", "3-D"],
    )
    def test_protocol_needs_T_by_4_integer_columns(self, columns):
        with pytest.raises(DataError, match=r"need a \(T, 4\) integer array"):
            MorphPairProtocol(columns)

    def test_small_share_of_a_large_product_in_bounded_memory(self):
        # 100 x 40 samples per subset: 16e6 candidate pairs, of which 4000
        # are drawn. Permuting every candidate would peak near 123 MiB.
        universe, samples = synth_identities(200, 40, 2, spread=0.1, seed=19)
        tracemalloc.start()
        try:
            protocol = pair_protocol(universe, samples, 4000, seed=19)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        keys = {(p.identity_a, p.sample_a, p.identity_b, p.sample_b) for p in protocol.pairs}
        assert len(protocol.pairs) == len(keys) == 4000
        for pair in protocol.pairs:
            assert (universe.subsets[pair.identity_a], universe.subsets[pair.identity_b]) == (1, 2)
            assert 0 <= pair.identity_a < 200 and 0 <= pair.identity_b < 200
            assert 0 <= pair.sample_a < 40 and 0 <= pair.sample_b < 40


class TestMakeMorph:
    def _tiny_universe(self):
        universe, samples = synth_identities(2, 2, 8, spread=0.1, seed=11)
        grouped = {i: samples[samples.first == i] for i in range(2)}
        first = [i for i in range(2) if universe.subsets[i] == 1][0]
        second = [i for i in range(2) if universe.subsets[i] == 2][0]
        return universe, grouped, first, second

    def test_identical_inputs_blend_to_same(self):
        universe, grouped, first, second = self._tiny_universe()
        shared = grouped[first][0].input
        fake_b = Sample(input=shared.copy(), labels=LabelPair(second, second, SampleKind.BONA_FIDE))
        morph = morph_of(universe, grouped[first][0], fake_b, alpha=0.5)
        np.testing.assert_allclose(morph.input, shared, atol=1e-12)

    def test_pair_running_subset_2_to_1_rejected(self):
        """alpha weights the subset-1 parent, which gives the first label; a
        reversed row is refused rather than relabelled against its weights."""
        universe, grouped, first, second = self._tiny_universe()
        a, b = grouped[first][0], grouped[second][0]
        morph = morph_of(universe, a, b, alpha=0.3)
        assert morph.labels == LabelPair(first, second, SampleKind.MORPH)
        blended = _blend(np.stack((a.input, b.input)), np.array([[0, 1]]), 0.3, np.empty((1, len(a.input))))
        assert morph.input.tobytes() == blended[0].tobytes()
        reversed_pair = MorphPair(second, first, 0, 0)
        with pytest.raises(ProtocolError, match=re.escape(f"protocol pair {reversed_pair} runs subset 2 -> 1, not 1 -> 2")):
            morph_of(universe, b, a, alpha=0.3)

    def test_midpoint_cosine_closed_form(self):
        universe, grouped, first, second = self._tiny_universe()
        pa = universe.prototypes[first]
        pb = universe.prototypes[second]
        sample_a = Sample(input=pa, labels=LabelPair(first, first, SampleKind.BONA_FIDE))
        sample_b = Sample(input=pb, labels=LabelPair(second, second, SampleKind.BONA_FIDE))
        morph = morph_of(universe, sample_a, sample_b, alpha=0.5)
        expected = np.sqrt((1.0 + float(pa @ pb)) / 2.0)
        assert float(morph.input @ pa) == pytest.approx(expected, abs=1e-12)
        assert float(morph.input @ pb) == pytest.approx(expected, abs=1e-12)

    def test_same_subset_rejected(self):
        # A protocol pair within subset 1, as a hand-edited protocol could hold it.
        universe, samples = synth_identities(4, 2, 8, spread=0.1, seed=12)
        side1 = [i for i in range(4) if universe.subsets[i] == 1]
        within = MorphPairProtocol(np.array([[side1[0], side1[1], 0, 0]]))
        with pytest.raises(ProtocolError, match=f"identities {side1[0]} and {side1[1]} share subset 1"):
            whole_set(universe, samples, within, ratios=(8, 1, 0), seed=12)

    def test_alpha_range(self):
        universe, grouped, first, second = self._tiny_universe()
        with pytest.raises(ConfigError):
            morph_of(universe, grouped[first][0], grouped[second][0], alpha=0.0)


class TestMakeSelfmorph:
    def test_identical_inputs_are_fixed_point(self):
        s = bona_fide(3, [1.0, 2.0, 2.0])
        morph = selfmorph_of(3, s.input, s.input)
        np.testing.assert_allclose(morph.input, s.input, atol=1e-15)
        assert morph.labels.first_label == morph.labels.second_label == 3
        assert morph.labels.kind is SampleKind.SELF_MORPH

    def test_noise_averaging_improves_prototype_cosine(self):
        # selfmorphs average out within-class noise: over ~10^4 pairs the
        # blend should sit closer to the prototype than its parents
        universe, samples = synth_identities(2, 10000, 16, spread=0.1, seed=13)
        proto = universe.prototypes[0]
        pool = samples[samples.first == 0]
        a, b = pool[0::2], pool[1::2]
        selfmorphs = _blend(pool.inputs, np.arange(len(pool)).reshape(-1, 2), 0.5, np.empty_like(a.inputs))
        parent_cos = np.concatenate((a.inputs @ proto, b.inputs @ proto))
        assert np.mean(selfmorphs @ proto) > np.mean(parent_cos)


class TestBuildTrainingSet:
    def _setup(self, num_classes=4, per_class=100, seed=14):
        universe, samples = synth_identities(num_classes, per_class, 8, spread=0.1, seed=seed)
        capacity_protocol = pair_protocol(universe, samples, 300, seed=seed)
        return universe, samples, capacity_protocol

    def test_bona_fide_only(self):
        universe, samples, protocol = self._setup()
        out = whole_set(universe, samples, protocol, ratios=(1, 0, 0), seed=14)
        assert len(out) == len(samples)
        assert all(s.labels.kind is SampleKind.BONA_FIDE for s in out)

    def test_bona_fide_only_is_the_rows_in_order(self):
        # Without blends the set is the pool's rows, gathered in the order given, byte for byte.
        universe, samples, protocol = self._setup()
        rows = np.random.default_rng(3).permutation(len(samples))[:250]
        out = build_training_set(universe, samples, rows, protocol, ratios=(1, 0, 0), seed=14)
        for name in ("inputs", "first", "second", "kinds"):
            assert getattr(out, name).tobytes() == getattr(samples[rows], name).tobytes()

    @pytest.mark.parametrize("kind", [MORPH, SELF_MORPH], ids=["morph", "selfmorph"])
    def test_pool_holds_only_bona_fides(self, kind):
        """Each step that groups a pool names its first row that is not a bona fide."""
        universe, samples, protocol = self._setup()
        kinds, second = samples.kinds.copy(), samples.second.copy()
        kinds[7:9], second[7:9] = kind, second[7:9] + (kind == MORPH)
        pool = SampleSet(samples.inputs, samples.first, second, kinds)
        message = re.escape(f"pool row 7 is a {KINDS[kind].value}; a pool holds only bona fides")
        with pytest.raises(ProtocolError, match=message):
            pair_protocol(universe, pool, 10, seed=1)
        with pytest.raises(ProtocolError, match=message):
            protocol_parents(pool, np.arange(len(pool)), protocol.columns)
        with pytest.raises(ProtocolError, match=message):
            whole_set(universe, pool, protocol, ratios=(2, 1, 1), seed=14)

    def test_default_ratios_counts(self):
        universe, samples, protocol = self._setup()
        assert len(samples) == 400
        out = whole_set(universe, samples, protocol, ratios=(2, 1, 1), seed=14)
        kinds = [s.labels.kind for s in out]
        assert len(out) == 800
        assert kinds.count(SampleKind.BONA_FIDE) == 400
        assert kinds.count(SampleKind.MORPH) == 200
        assert kinds.count(SampleKind.SELF_MORPH) == 200

    def test_every_morph_is_cross_subset(self):
        universe, samples, protocol = self._setup()
        out = whole_set(universe, samples, protocol, seed=14)
        for sample in out:
            if sample.labels.kind is SampleKind.MORPH:
                assert universe.subsets[sample.labels.first_label] == 1
                assert universe.subsets[sample.labels.second_label] == 2
                assert sample.labels.first_label != sample.labels.second_label

    def test_unit_norm_and_determinism(self):
        universe, samples, protocol = self._setup()
        out1 = whole_set(universe, samples, protocol, seed=15)
        out2 = whole_set(universe, samples, protocol, seed=15)
        assert len(out1) == len(out2)
        for a, b in zip(out1, out2):
            assert a.labels == b.labels
            np.testing.assert_array_equal(a.input, b.input)
            assert abs(np.linalg.norm(a.input) - 1.0) < 1e-9

    def test_capacity_error(self):
        universe, samples, _ = self._setup()
        tiny = pair_protocol(universe, samples, 10, seed=16)
        with pytest.raises(CapacityError):
            whole_set(universe, samples, tiny, ratios=(2, 1, 1), seed=16)

    @pytest.mark.parametrize(
        "field, value", [("identity_a", 99), ("sample_a", 100), ("sample_b", -1)]
    )
    def test_pair_outside_pool_is_capacity_error(self, field, value):
        universe, samples, protocol = self._setup()
        pair = dataclasses.replace(protocol.pairs[0], **{field: value})
        rows = np.arange(len(samples))
        assert protocol_parents(samples, rows, protocol.columns).shape == (len(protocol.pairs), 2)
        with pytest.raises(CapacityError, match=re.escape(f"protocol pair {pair} refers outside")):
            protocol_parents(samples, rows, np.array([dataclasses.astuple(pair)]))

    def test_ratio_validation(self):
        universe, samples, protocol = self._setup()
        with pytest.raises(ConfigError):
            whole_set(universe, samples, protocol, ratios=(0, 0, 0), seed=0)
        with pytest.raises(ConfigError):
            whole_set(universe, samples, protocol, ratios=(1, -1, 0), seed=0)

    @pytest.mark.parametrize(
        "ratios",
        [(0, 1, 1), (2, 1, -1), (2, 1), (2, 1, 1, 1), (2, float("nan"), 1), (2, True, 1), (1e-320, 1, 1), (1e-300, 1e300, 1)],
    )
    def test_mix_counts_rejects_ratios(self, ratios):
        with pytest.raises(ConfigError):
            mix_counts(400, ratios)

    @pytest.mark.parametrize("ratios", [(1e-320, 1, 1), (1e-320, 0, 1), (1e-300, 1e300, 1)])
    def test_mix_counts_rejects_infinite_counts_naming_the_ratios(self, ratios):
        with pytest.raises(ConfigError, match=re.escape(f"ratios {ratios} give no finite")):
            mix_counts(1600, ratios)

    def test_trial_triplets_reject_alpha_outside_unit_interval(self):
        universe, samples, protocol = self._setup()
        model = init_model(samples.inputs.shape[1], [], 4, 2, seed=0)
        rows = np.arange(len(samples))
        parents = protocol_parents(samples, rows, protocol.columns)
        with pytest.raises(ConfigError):
            trial_features(model, samples.inputs, rows, parents, alpha=1.5)


def uneven_pool(counts, seed=21):
    """(universe, pool) where identity i keeps its first counts[i] samples."""
    universe, samples = synth_identities(len(counts), max(max(counts), 2), 8, spread=0.1, seed=seed)
    per_class = len(samples) // len(counts)
    rows = [i * per_class + k for i, n in enumerate(counts) for k in range(n)]
    return universe, samples[np.array(rows, dtype=np.int64)]


def selfmorph_set(counts, seed):
    universe, pool = uneven_pool(counts)
    no_pairs = MorphPairProtocol(np.empty((0, 4), dtype=np.int64))
    return pool, whole_set(universe, pool, no_pairs, ratios=(1, 0, 1), seed=seed)


class TestSelfmorphDraw:
    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4)
        .map(lambda pairs: [n for pair in pairs for n in pair])
        .filter(lambda counts: max(counts) >= 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parents_are_two_distinct_samples_of_one_rich_identity(self, counts, seed):
        pool, out = selfmorph_set(counts, seed)
        selfmorphs = out[out.kinds == SELF_MORPH]
        assert len(selfmorphs) == len(pool)
        for sample in selfmorphs:
            identity = sample.labels.first_label
            own = pool.inputs[pool.first == identity]
            assert counts[identity] >= 2 and len(own) == counts[identity]
            a, b = np.array(list(itertools.permutations(range(len(own)), 2))).T
            blends = {row.tobytes() for row in _blend(own, np.column_stack((a, b)), 0.5, np.empty((len(a), 8)))}
            assert sample.input.tobytes() in blends
        again = selfmorph_set(counts, seed)[1]
        assert again.inputs.tobytes() == out.inputs.tobytes() and again.first.tobytes() == out.first.tobytes()

    def test_draw_differs_across_seeds(self):
        draws = {selfmorph_set([1, 3, 2, 4, 1, 2], seed)[1].inputs.tobytes() for seed in range(4)}
        assert len(draws) == 4

    def test_pool_without_rich_identity(self):
        universe, pool = uneven_pool([1] * 6)
        protocol = pair_protocol(universe, pool, 3, seed=2)
        out = whole_set(universe, pool, protocol, ratios=(2, 1, 0), seed=2)
        assert len(out) == 9 and not (out.kinds == SELF_MORPH).any()
        with pytest.raises(CapacityError):
            whole_set(universe, pool, protocol, ratios=(2, 1, 1), seed=2)


class TestSerialization:
    def test_dataset_roundtrip(self, tmp_path):
        universe, samples = synth_identities(4, 5, 8, spread=0.2, seed=17)
        protocol = pair_protocol(universe, samples, 12, seed=17)
        dataset = whole_set(universe, samples, protocol, ratios=(2, 1, 1), seed=17)
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(dataset)
        for a, b in zip(dataset, loaded):
            assert a.labels == b.labels
            np.testing.assert_array_equal(a.input, b.input)
        firsts, seconds = dataset.first.tolist(), dataset.second.tolist()
        implied = [[f, s] if k == MORPH else [f] for f, s, k in zip(firsts, seconds, dataset.kinds)]
        assert [json.loads(line)["source_ids"] for line in path.read_text().splitlines()] == implied
        path2 = tmp_path / "again.jsonl"
        save_dataset(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_protocol_equals_the_saved_one(self, tmp_path):
        universe, samples = synth_identities(4, 3, 8, spread=0.2, seed=18)
        protocol = pair_protocol(universe, samples, 9, seed=18)
        save_protocol(protocol, universe, tmp_path / "protocol.json")
        assert load_protocol(tmp_path / "protocol.json") == protocol

    def test_protocol_roundtrip(self, tmp_path):
        universe, samples = synth_identities(4, 3, 8, spread=0.2, seed=18)
        protocol = pair_protocol(universe, samples, 9, seed=18)
        path = tmp_path / "protocol.json"
        save_protocol(protocol, universe, path)
        loaded = load_protocol(path)
        assert loaded.pairs == protocol.pairs
        path2 = tmp_path / "again.json"
        save_protocol(loaded, universe, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_ragged_dataset_rejected(self, tmp_path):
        _, samples = synth_identities(4, 5, 8, spread=0.2, seed=17)
        path = tmp_path / "dataset.jsonl"
        save_dataset(samples, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[7])
        record["input"] = record["input"][:-1]
        lines[7] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 8"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("input", [float("nan")] * 8, "line 4: input has non-finite values"),
            ("input", ["0.5"] * 8, "line 4: input is not a list of JSON numbers"),
            ("input", [True] * 8, "line 4: input is not a list of JSON numbers"),
            ("input", [[0.5]] * 8, "line 4: input is not a list of JSON numbers"),
            ("input", [0.5] * 9, "line 4: input is not a list of JSON numbers as long as"),
            ("input", [[0.5, 0.5]] + [0.5] * 7, "line 4 is not a JSON dataset record"),
            ("y_dot", 1.0, "line 4: labels must be JSON integers"),
            ("y_ddot", True, "line 4: labels must be JSON integers"),
            ("source_ids", [True], "line 4: labels must be JSON integers"),
            ("source_ids", [2], "line 4: labels must be JSON integers and source ids"),
            ("input", [0.5] * 7 + [True], "line 4: input is not a list of JSON numbers"),
            ("input", [1] * 7 + [False], "line 4: input is not a list of JSON numbers"),
            # A record that breaks a label rule with consistent source ids; field None edits several fields.
            (None, {"y_dot": -1, "y_ddot": -1, "source_ids": [-1]}, r"line 4: the record has kind code 0 and"),
            (None, {"kind": "morph", "y_dot": 0, "y_ddot": 0, "source_ids": [0, 0]}, r"line 4: .* labels \(0, 0\)"),
            (None, {"kind": "morph", "y_dot": 0, "y_ddot": -1, "source_ids": [0, -1]}, "line 4: the record has"),
            (None, {"y_dot": 0, "y_ddot": 1, "source_ids": [0]}, r"line 4: .* labels \(0, 1\)"),
        ],
    )
    def test_mistyped_dataset_record_rejected(self, tmp_path, field, value, message):
        _, samples = synth_identities(4, 5, 8, spread=0.2, seed=17)
        path = tmp_path / "dataset.jsonl"
        save_dataset(samples, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record.update(value if field is None else {field: value})
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("value", [1.7, "3", True, None])
    def test_non_integer_protocol_field_rejected(self, tmp_path, value):
        records, _ = self._saved_records(tmp_path)
        records[2]["sample_a"] = value
        with pytest.raises(DataError, match="pair 2 has a field that is not a JSON integer"):
            self._load_records(tmp_path, records)

    @staticmethod
    def _saved_records(tmp_path):
        universe, samples = synth_identities(6, 3, 8, spread=0.2, seed=18)
        path = tmp_path / "protocol.json"
        save_protocol(pair_protocol(universe, samples, 12, seed=18), universe, path)
        return json.loads(path.read_text()), universe

    def _load_records(self, tmp_path, records):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(records))
        return load_protocol(path)

    def test_swapped_protocol_rejected(self, tmp_path):
        records, _ = self._saved_records(tmp_path)
        for r in records:
            for key in ("identity", "sample", "subset"):
                r[f"{key}_a"], r[f"{key}_b"] = r[f"{key}_b"], r[f"{key}_a"]
        with pytest.raises(ProtocolError, match="not 1 -> 2"):
            self._load_records(tmp_path, records)

    def test_within_subset_pair_rejected(self, tmp_path):
        records, universe = self._saved_records(tmp_path)
        other = next(i for i in range(universe.num_classes)
                     if universe.subsets[i] == 1 and i != records[0]["identity_a"])
        records[0].update(identity_b=other, subset_b=1)
        with pytest.raises(ProtocolError, match="not 1 -> 2"):
            self._load_records(tmp_path, records)

    def test_identity_in_both_subsets_rejected(self, tmp_path):
        records, _ = self._saved_records(tmp_path)
        records[0]["identity_b"] = records[1]["identity_a"]
        with pytest.raises(ProtocolError, match="both subsets"):
            self._load_records(tmp_path, records)

    def test_missing_subset_annotation_rejected(self, tmp_path):
        records, _ = self._saved_records(tmp_path)
        del records[3]["subset_a"]
        with pytest.raises(DataError):
            self._load_records(tmp_path, records)


# --- the reader's orjson path against json.loads alone -----------------------


@pytest.fixture(scope="module")
def desk_lines(tmp_path_factory):
    """A bona fide, a morph and a selfmorph line of the default config's
    training set, in the bytes gen-data writes them."""
    train_set = generate_bundle(ExperimentConfig()).train_set
    rows = [int(np.argmax(train_set.kinds == code)) for code in range(len(KINDS))]
    path = tmp_path_factory.mktemp("desk") / "dataset.jsonl"
    save_dataset(train_set[rows], path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def gen_data_dir(tmp_path_factory):
    """gen-data's files at the default config."""
    out = tmp_path_factory.mktemp("gen-data") / "out"
    assert main(["gen-data", "--out", str(out)]) == 0
    return out


def long_text(desk_lines, lines=2 * _READ_LINES + 40):
    """The desk lines repeated over more than two reader blocks."""
    pattern = desk_lines.decode().splitlines(keepends=True)
    return "".join(pattern[k % len(pattern)] for k in range(lines))


def at_line(number, edit):
    """An edit applied to line number (from 0) of a text alone."""
    def apply(text):
        lines = text.splitlines(keepends=True)
        return "".join(lines[:number]) + edit(lines[number]) + "".join(lines[number + 1 :])
    return apply


def narrower(line):
    """The line with its first input dropped."""
    return re.sub(r'"input": \[[^,\]]*, ', '"input": [', line, count=1)


def read_outcome(reader, path):
    """What reader(path) gives, in comparable form: the shape and column bytes
    of its SampleSet, or the type and text of the DataError it raises."""
    try:
        samples = reader(path)
    except DataError as exc:
        return type(exc).__name__, str(exc)
    return samples.inputs.shape, *(getattr(samples, name).tobytes() for name in ("inputs", "first", "second", "kinds"))


def first_input(value):
    """An edit that writes value in place of the first line's first input."""
    return lambda text: re.sub(r'"input": \[[^,\]]*', lambda m: f'"input": [{value}', text, count=1)


def first_labels(value):
    """An edit that writes value as the first line's labels and source id."""
    pattern = r'"y_dot": \d+, "y_ddot": \d+, "source_ids": \[\d+\]'
    return lambda text: re.sub(pattern, lambda m: f'"y_dot": {value}, "y_ddot": {value}, "source_ids": [{value}]',
                               text, count=1)


def replace(old, new):
    """An edit that writes new in place of the first old."""
    return lambda text: text.replace(old, new, 1)


def integer_row(text):
    """The first line's inputs as the integers 0, 1, ..."""
    return re.sub(r'"input": \[[^\]]*\]',
                  lambda m: '"input": [' + ", ".join(map(str, range(m.group().count(",") + 1))) + "]", text, count=1)


NESTED = "[" * 1100 + "]" * 1100  # past json's recursion limit; orjson parses it

# Lines on which orjson and json.loads could disagree, each an edit of the desk lines' text.
HAND_PICKED = {
    **{f"input_{v}": first_input(v) for v in
       ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-1e-400", "0e400", "-0.0", "-0", "true", "null",
        "1e308", 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**30, -(2**63), -(2**63) - 1, -(10**30)]},
    "input_5000_digit_integer": first_input("1" * 5000),  # past int()'s digit limit; orjson reads inf and raises
    **{f"labels_{v}": first_labels(v) for v in
       [2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**30, "-0", -1, -(2**63), -(2**63) - 1, "-0.0", "1.0", "true"]},
    "kind_lone_surrogate": replace('"kind": "bona_fide"', '"kind": "bona_fide\\ud800"'),
    "kind_only_a_surrogate": replace('"kind": "bona_fide"', '"kind": "\\udc00"'),
    "kind_escaped": replace('"kind": "bona_fide"', '"kind": "bona\\u005ffide"'),
    "duplicate_kind": replace("{", '{"kind": "morph", '),
    "duplicate_input_nested": replace("{", f'{{"input": {NESTED}, '),
    "duplicate_input_1e400": replace("{", '{"input": [1e400], '),
    "duplicate_input_10_30": replace("{", f'{{"input": [{10**30}], '),
    "duplicate_input_lone_surrogate": replace("{", '{"input": "\\ud800", '),
    "extra_key": replace("{", '{"extra": 1, '),
    "extra_key_10_30": replace("{", f'{{"extra": {10**30}, '),
    "extra_key_lone_surrogate": replace("{", '{"extra": "\\ud800", '),
    "extra_key_nested": replace("{", f'{{"extra": {NESTED}, '),
    "missing_key": lambda text: re.sub(r'"y_ddot": \d+, ', "", text, count=1),
    "bracket_in_a_key": replace('"kind"', '"kind", "[": 0, "kind"'),
    "integer_row": integer_row,
    "empty_inputs": lambda text: re.sub(r'"input": \[[^\]]*\]', '"input": []', text),
    "bom": lambda text: "\ufeff" + text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "blank_lines": lambda text: text.replace("\n", "\n \n"),
    "tabs": lambda text: text.replace(", ", ",\t"),
    "form_feed": replace(", ", ",\f"),
    "trailing_text": replace("}", "} x"),
    "two_records_on_a_line": lambda text: text.replace("\n", "", 1),
    "a_list": lambda text: "[" + text.split("\n", 1)[0] + "]\n" + text.split("\n", 1)[1],
}


# Files over several reader blocks whose edits sit at a block's edges or in a later block.
EDGE = _READ_LINES
ACROSS_BLOCKS = {
    "unedited": lambda text: text,
    "narrower_first_line_of_block_2": at_line(EDGE, narrower),
    "narrower_last_line_of_block_1": at_line(EDGE - 1, narrower),
    "narrower_from_block_2_on": lambda text: "".join(
        narrower(line) if k >= EDGE else line for k, line in enumerate(text.splitlines(keepends=True))),
    "blank_line_between_blocks": at_line(EDGE, lambda line: "\n" + line),
    "blank_lines_in_block_2": at_line(EDGE + 3, lambda line: " \n\t\n" + line),
    "whitespace_only_line_in_block_2": at_line(EDGE + 1, lambda line: "\x1c\n" + line),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "crlf_in_block_2": at_line(EDGE + 5, lambda line: line.replace("\n", "\r\n")),
    "lone_cr_in_block_2": at_line(EDGE + 5, lambda line: line.replace("\n", "\r")),
    "lone_cr_inside_a_line": at_line(EDGE + 5, lambda line: line.replace(", ", ",\r", 1)),
    "lone_cr_at_the_end": lambda text: text[:-1] + "\r",
    "no_final_newline": lambda text: text[:-1],
    "empty": lambda text: "",
    "only_blank_lines": lambda text: "\n \n\n",
    "true_in_block_2": at_line(EDGE + 7, first_input("true")),
    "false_in_block_3": at_line(2 * EDGE + 1, first_input("false")),
    "null_in_block_2": at_line(EDGE + 7, first_input("null")),
    "string_in_block_2": at_line(EDGE + 7, first_input('"0.5"')),
    "integer_in_block_2": at_line(EDGE + 7, first_input("3")),
    "integer_row_in_block_2": at_line(EDGE + 7, integer_row),
    "zero_in_block_2": at_line(EDGE + 7, first_input("0.0")),
    "2**64_in_block_2": at_line(EDGE + 7, first_input(2**64)),
    "1e400_in_block_2": at_line(EDGE + 7, first_input("1e400")),
    "label_true_in_block_2": at_line(EDGE + 7, first_labels("true")),
    "label_2**63_in_block_2": at_line(EDGE + 7, first_labels(2**63)),
    "nested_duplicate_in_block_2": at_line(EDGE + 7, replace("{", f'{{"input": {NESTED}, ')),
    # A sixth key brings a line to fourteen '"', so its block goes to the json path. Beside a kind
    # that is no string (ten '"'), the block averages twelve a line and reaches orjson.
    "sixth_key_in_block_2": at_line(EDGE + 7, replace("{", '{"extra": 1, ')),
    "sixth_key_beside_integer_kind_in_block_2": lambda text: at_line(EDGE + 7, replace("{", '{"extra": 1, '))(
        at_line(EDGE + 9, lambda line: re.sub(r'"kind": "[a-z_]+"', '"kind": 0', line, count=1))(text)),
}


class TestReaderParity:
    """load_dataset keeps orjson's records only where they are json.loads's: on any file,
    one block or several, it gives oracle_load_dataset's (json.loads alone) columns or
    DataError text."""

    def assert_parity(self, path):
        outcome = read_outcome(load_dataset, path)
        assert outcome == read_outcome(oracle_load_dataset, path)
        return outcome

    def test_desk_lines_never_reach_json(self, desk_lines, gen_data_dir, tmp_path, monkeypatch):
        """Every line gen-data writes takes orjson's record: the desk lines, and every
        block of the default config's bona_fides.jsonl and dataset.jsonl."""
        path = tmp_path / "dataset.jsonl"
        path.write_bytes(desk_lines)
        paths = [path, gen_data_dir / "bona_fides.jsonl", gen_data_dir / "dataset.jsonl"]
        expected = [read_outcome(oracle_load_dataset, file) for file in paths]
        assert min(outcome[0][0] for outcome in expected[1:]) > 2 * _READ_LINES

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads ran")

        monkeypatch.setattr(json, "loads", refuse)
        assert [read_outcome(load_dataset, file) for file in paths] == expected

    @pytest.mark.parametrize("edit", HAND_PICKED.values(), ids=HAND_PICKED.keys())
    def test_hand_picked_lines(self, edit, desk_lines, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text(edit(desk_lines.decode()), encoding="utf-8")
        self.assert_parity(path)

    @pytest.mark.parametrize("edit", ACROSS_BLOCKS.values(), ids=ACROSS_BLOCKS.keys())
    def test_files_across_blocks(self, edit, desk_lines, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_bytes(edit(long_text(desk_lines)).encode())
        self.assert_parity(path)

    @pytest.mark.parametrize("blob", [b"\xff", b"\xed\xa0\x80", "\u00e9".encode(), b"\xef\xbb\xbf"],
                             ids=["invalid_byte", "encoded_surrogate", "two_byte_char", "bom"])
    def test_bytes_in_a_later_block(self, blob, desk_lines, tmp_path):
        """Bytes that are not ASCII, inside a line of the third block and at its start."""
        text = long_text(desk_lines).encode()
        starts = [k + 1 for k, byte in enumerate(text) if byte == ord("\n")]
        for where in (starts[2 * _READ_LINES] + 30, starts[2 * _READ_LINES - 1]):
            path = tmp_path / "dataset.jsonl"
            path.write_bytes(text[:where] + blob + text[where:])
            self.assert_parity(path)

    def test_accepted_files_across_blocks(self, desk_lines, tmp_path):
        """The edits that keep a file valid give its records, in every block."""
        expected = None
        for name in ("unedited", "crlf", "crlf_in_block_2", "blank_line_between_blocks", "blank_lines_in_block_2",
                     "whitespace_only_line_in_block_2", "no_final_newline", "integer_in_block_2", "zero_in_block_2",
                     "sixth_key_in_block_2"):
            path = tmp_path / f"{name}.jsonl"
            path.write_bytes(ACROSS_BLOCKS[name](long_text(desk_lines)).encode())
            outcome = self.assert_parity(path)
            assert outcome[0] == (2 * _READ_LINES + 40, 64)
            if name in ("unedited", "crlf", "no_final_newline"):
                expected = expected or outcome
                assert outcome == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=st.text(alphabet="a\r\n", max_size=40))
    def test_line_bound_is_binary_line_count(self, text, tmp_path_factory):
        """The rows load_dataset allocates: the lines a binary file object yields."""
        path = tmp_path_factory.getbasetemp() / "lines.txt"
        path.write_bytes(text.encode())
        with open(path, "rb") as fh:
            bound = _line_bound(fh)
        with open(path, "rb") as fh:
            assert bound == len(list(fh))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edit=st.sampled_from(["truncate", "duplicate", "flip", "insert"]), data=st.data())
    def test_mutated_later_blocks(self, edit, data, desk_lines, tmp_path_factory):
        """The mutations of test_mutated_lines, landing past the first block of a long file."""
        blob = long_text(desk_lines).encode()
        first_block = len(b"".join(blob.splitlines(keepends=True)[:_READ_LINES]))
        where = data.draw(st.integers(first_block - 2, len(blob) - 1), label="position")
        if edit == "truncate":
            blob = blob[:where]
        elif edit == "duplicate":
            length = data.draw(st.integers(1, 64), label="length")
            blob = blob[: where + length] + blob[where:]
        elif edit == "insert":
            inserted = data.draw(st.sampled_from([b"\n", b"\r", b"\r\n", b" ", b"true", b"0", b"[", b"{", b'"']))
            blob = blob[:where] + inserted + blob[where:]
        else:
            mask = data.draw(st.integers(1, 255), label="mask")
            blob = blob[:where] + bytes([blob[where] ^ mask]) + blob[where + 1 :]
        path = tmp_path_factory.getbasetemp() / "mutated_long.jsonl"
        path.write_bytes(blob)
        self.assert_parity(path)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(edit=st.sampled_from(["truncate", "duplicate", "flip"]), data=st.data())
    def test_mutated_lines(self, edit, data, desk_lines, tmp_path_factory):
        blob = desk_lines
        where = data.draw(st.integers(0, len(blob) - 1), label="position")
        if edit == "truncate":
            blob = blob[:where]
        elif edit == "duplicate":
            length = data.draw(st.integers(1, 64), label="length")
            blob = blob[: where + length] + blob[where:]
        else:
            mask = data.draw(st.integers(1, 255), label="mask")
            blob = blob[:where] + bytes([blob[where] ^ mask]) + blob[where + 1 :]
        path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
        path.write_bytes(blob)
        self.assert_parity(path)

    def test_orjson_floats_are_json_floats(self):
        """Whatever orjson is installed, a float it parses is json.loads's, bit for bit.

        The decimals: midpoints between adjacent doubles from the subnormals
        to the largest binade, written exactly and 1e-700 above and below;
        shortest reprs of random doubles; random decimals of 1-40 digits;
        and the underflow and overflow edges.
        """
        import orjson

        rng = np.random.default_rng(31)
        lows = rng.integers(1, 0x7FEFFFFFFFFFFFFF, size=4000, dtype=np.int64).view(np.float64)
        lows *= rng.choice([-1.0, 1.0], size=lows.size)
        texts = []
        with decimal.localcontext() as context:
            context.prec = 2000  # exact: a double's decimal expansion has at most 767 significant digits
            tail = decimal.Decimal("1e-700")
            for low, high in zip(lows.tolist(), np.nextafter(lows, np.copysign(np.inf, lows)).tolist()):
                middle = (decimal.Decimal(low) + decimal.Decimal(high)) / 2
                texts += [format(value, "e") for value in (middle, middle + tail, middle - tail)]
        randoms = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        texts += [repr(v) for v in randoms[np.isfinite(randoms)].tolist()]
        for digits, exponent in zip(rng.integers(1, 41, size=4000).tolist(), rng.integers(-345, 309, size=4000).tolist()):
            texts.append(f"{rng.choice(['', '-'])}0.{''.join(map(str, rng.integers(0, 10, size=digits)))}e{exponent}")
        texts += ["0e400", "-0e0", "-0.0", "1e-400", "-1e-400", "2.4703282292062327e-324", "2.4703282292062328e-324",
                  "4.9406564584124654e-324", "2.2250738585072011e-308", "2.2250738585072012e-308",
                  "1.7976931348623157e308", "1.7976931348623158e308", "9007199254740993.0", "1e23", "0.1"]
        parsed, disagreeing = 0, []
        for text in texts:
            try:
                fast = orjson.loads(text)
            except orjson.JSONDecodeError:
                continue  # a line holding it goes to json.loads
            parsed += 1
            if repr(fast) != repr(json.loads(text)):
                disagreeing.append(text)
        assert disagreeing == []
        assert parsed == len(texts) > 19_000  # the reader's speed rests on orjson parsing every finite decimal
