import dataclasses
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphguard.datagen import (
    MORPH,
    SELF_MORPH,
    MorphPairProtocol,
    Sample,
    build_training_set,
    group_by_identity,
    load_dataset,
    load_protocol,
    make_morph,
    make_selfmorph,
    mix_counts,
    pair_columns,
    pair_protocol,
    protocol_parents,
    save_dataset,
    save_protocol,
    split_identities,
    synth_identities,
)
from morphguard.encoder import init_model
from morphguard.errors import CapacityError, ConfigError, DataError, NumericInputError, ProtocolError
from morphguard.experiment import trial_features
from morphguard.losses import LabelPair, SampleKind


def bona_fide(identity, vec):
    arr = np.asarray(vec, dtype=np.float64)
    return Sample(input=arr / np.linalg.norm(arr), labels=LabelPair(identity, identity, SampleKind.BONA_FIDE))


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
        grouped = group_by_identity(samples)
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
        grouped = group_by_identity(samples)
        first = [i for i in range(2) if universe.subsets[i] == 1][0]
        second = [i for i in range(2) if universe.subsets[i] == 2][0]
        return universe, grouped, first, second

    def test_identical_inputs_blend_to_same(self):
        universe, grouped, first, second = self._tiny_universe()
        shared = grouped[first][0].input
        fake_b = Sample(input=shared.copy(), labels=LabelPair(second, second, SampleKind.BONA_FIDE))
        morph = make_morph(universe, grouped[first][0], fake_b, alpha=0.5)
        np.testing.assert_allclose(morph.input, shared, atol=1e-12)

    def test_orientation_by_subset_not_argument_order(self):
        universe, grouped, first, second = self._tiny_universe()
        a, b = grouped[first][0], grouped[second][0]
        m1 = make_morph(universe, a, b, alpha=0.5)
        m2 = make_morph(universe, b, a, alpha=0.5)
        assert m1.labels == m2.labels
        assert m1.labels.first_label == first
        assert m1.labels.second_label == second
        np.testing.assert_allclose(m1.input, m2.input, atol=1e-15)

    def test_midpoint_cosine_closed_form(self):
        universe, grouped, first, second = self._tiny_universe()
        pa = universe.prototypes[first]
        pb = universe.prototypes[second]
        sample_a = Sample(input=pa, labels=LabelPair(first, first, SampleKind.BONA_FIDE))
        sample_b = Sample(input=pb, labels=LabelPair(second, second, SampleKind.BONA_FIDE))
        morph = make_morph(universe, sample_a, sample_b, alpha=0.5)
        expected = np.sqrt((1.0 + float(pa @ pb)) / 2.0)
        assert float(morph.input @ pa) == pytest.approx(expected, abs=1e-12)
        assert float(morph.input @ pb) == pytest.approx(expected, abs=1e-12)

    def test_same_subset_rejected(self):
        universe, samples = synth_identities(4, 2, 8, spread=0.1, seed=12)
        grouped = group_by_identity(samples)
        side1 = [i for i in range(4) if universe.subsets[i] == 1]
        with pytest.raises(ProtocolError):
            make_morph(universe, grouped[side1[0]][0], grouped[side1[1]][0])

    def test_alpha_range(self):
        universe, grouped, first, second = self._tiny_universe()
        with pytest.raises(ConfigError):
            make_morph(universe, grouped[first][0], grouped[second][0], alpha=0.0)


class TestMakeSelfmorph:
    def test_identical_inputs_are_fixed_point(self):
        s = bona_fide(3, [1.0, 2.0, 2.0])
        morph = make_selfmorph(s, s)
        np.testing.assert_allclose(morph.input, s.input, atol=1e-15)
        assert morph.labels.first_label == morph.labels.second_label == 3
        assert morph.labels.kind is SampleKind.SELF_MORPH

    def test_different_identities_rejected(self):
        with pytest.raises(ProtocolError):
            make_selfmorph(bona_fide(0, [1, 0]), bona_fide(1, [0, 1]))

    def test_noise_averaging_improves_prototype_cosine(self):
        # selfmorphs average out within-class noise: over ~10^4 pairs the
        # blend should sit closer to the prototype than its parents
        universe, samples = synth_identities(2, 10000, 16, spread=0.1, seed=13)
        grouped = group_by_identity(samples)
        proto = universe.prototypes[0]
        pool = grouped[0]
        parent_cos = []
        self_cos = []
        for a, b in zip(pool[0::2], pool[1::2]):
            parent_cos.append(float(a.input @ proto))
            parent_cos.append(float(b.input @ proto))
            self_cos.append(float(make_selfmorph(a, b).input @ proto))
        assert np.mean(self_cos) > np.mean(parent_cos)


class TestBuildTrainingSet:
    def _setup(self, num_classes=4, per_class=100, seed=14):
        universe, samples = synth_identities(num_classes, per_class, 8, spread=0.1, seed=seed)
        capacity_protocol = pair_protocol(universe, samples, 300, seed=seed)
        return universe, samples, capacity_protocol

    def test_bona_fide_only(self):
        universe, samples, protocol = self._setup()
        out = build_training_set(universe, samples, protocol, ratios=(1, 0, 0), seed=14)
        assert len(out) == len(samples)
        assert all(s.labels.kind is SampleKind.BONA_FIDE for s in out)

    def test_default_ratios_counts(self):
        universe, samples, protocol = self._setup()
        assert len(samples) == 400
        out = build_training_set(universe, samples, protocol, ratios=(2, 1, 1), seed=14)
        kinds = [s.labels.kind for s in out]
        assert len(out) == 800
        assert kinds.count(SampleKind.BONA_FIDE) == 400
        assert kinds.count(SampleKind.MORPH) == 200
        assert kinds.count(SampleKind.SELF_MORPH) == 200

    def test_every_morph_is_cross_subset(self):
        universe, samples, protocol = self._setup()
        out = build_training_set(universe, samples, protocol, seed=14)
        for sample in out:
            if sample.labels.kind is SampleKind.MORPH:
                assert universe.subsets[sample.labels.first_label] == 1
                assert universe.subsets[sample.labels.second_label] == 2
                assert sample.labels.first_label != sample.labels.second_label

    def test_unit_norm_and_determinism(self):
        universe, samples, protocol = self._setup()
        out1 = build_training_set(universe, samples, protocol, seed=15)
        out2 = build_training_set(universe, samples, protocol, seed=15)
        assert len(out1) == len(out2)
        for a, b in zip(out1, out2):
            assert a.labels == b.labels
            np.testing.assert_array_equal(a.input, b.input)
            assert abs(np.linalg.norm(a.input) - 1.0) < 1e-9

    def test_capacity_error(self):
        universe, samples, _ = self._setup()
        tiny = pair_protocol(universe, samples, 10, seed=16)
        with pytest.raises(CapacityError):
            build_training_set(universe, samples, tiny, ratios=(2, 1, 1), seed=16)

    @pytest.mark.parametrize(
        "field, value", [("identity_a", 99), ("sample_a", 100), ("sample_b", -1)]
    )
    def test_pair_outside_pool_is_capacity_error(self, field, value):
        universe, samples, protocol = self._setup()
        pair = dataclasses.replace(protocol.pairs[0], **{field: value})
        assert protocol_parents(samples, pair_columns(protocol.pairs)).shape == (len(protocol.pairs), 2)
        with pytest.raises(CapacityError, match=re.escape(f"protocol pair {pair} refers outside")):
            protocol_parents(samples, pair_columns([pair]))

    def test_ratio_validation(self):
        universe, samples, protocol = self._setup()
        with pytest.raises(ConfigError):
            build_training_set(universe, samples, protocol, ratios=(0, 0, 0), seed=0)
        with pytest.raises(ConfigError):
            build_training_set(universe, samples, protocol, ratios=(1, -1, 0), seed=0)

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
        parents = protocol_parents(samples, pair_columns(protocol.pairs))
        with pytest.raises(ConfigError):
            trial_features(model, samples.inputs, parents, alpha=1.5)


def uneven_pool(counts, seed=21):
    """(universe, pool) where identity i keeps its first counts[i] samples."""
    universe, samples = synth_identities(len(counts), max(max(counts), 2), 8, spread=0.1, seed=seed)
    per_class = len(samples) // len(counts)
    rows = [i * per_class + k for i, n in enumerate(counts) for k in range(n)]
    return universe, samples[np.array(rows, dtype=np.int64)]


def selfmorph_set(counts, seed):
    universe, pool = uneven_pool(counts)
    return pool, build_training_set(universe, pool, MorphPairProtocol(pairs=()), ratios=(1, 0, 1), seed=seed)


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
            own = [s for s in pool if s.labels.first_label == identity]
            assert counts[identity] >= 2 and len(own) == counts[identity]
            blends = {make_selfmorph(a, b).input.tobytes() for a, b in itertools.permutations(own, 2)}
            assert sample.input.tobytes() in blends
        again = selfmorph_set(counts, seed)[1]
        assert again.inputs.tobytes() == out.inputs.tobytes() and again.first.tobytes() == out.first.tobytes()

    def test_draw_differs_across_seeds(self):
        draws = {selfmorph_set([1, 3, 2, 4, 1, 2], seed)[1].inputs.tobytes() for seed in range(4)}
        assert len(draws) == 4

    def test_pool_without_rich_identity(self):
        universe, pool = uneven_pool([1] * 6)
        protocol = pair_protocol(universe, pool, 3, seed=2)
        out = build_training_set(universe, pool, protocol, ratios=(2, 1, 0), seed=2)
        assert len(out) == 9 and not (out.kinds == SELF_MORPH).any()
        with pytest.raises(CapacityError):
            build_training_set(universe, pool, protocol, ratios=(2, 1, 1), seed=2)


class TestSerialization:
    def test_dataset_roundtrip(self, tmp_path):
        universe, samples = synth_identities(4, 5, 8, spread=0.2, seed=17)
        protocol = pair_protocol(universe, samples, 12, seed=17)
        dataset = build_training_set(universe, samples, protocol, ratios=(2, 1, 1), seed=17)
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
        ],
    )
    def test_mistyped_dataset_record_rejected(self, tmp_path, field, value, message):
        _, samples = synth_identities(4, 5, 8, spread=0.2, seed=17)
        path = tmp_path / "dataset.jsonl"
        save_dataset(samples, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record[field] = value
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
