"""Text writers against the oracles' per-record and per-scalar formatting, byte for byte."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphguard.datagen import (
    BONA_FIDE,
    MORPH,
    SELF_MORPH,
    IdentityUniverse,
    MorphPairProtocol,
    SampleSet,
    input_texts,
    save_dataset,
    save_protocol,
    synth_identities,
)
from morphguard.featviz import save_aligned_csv
from morphguard.metrics import ThresholdCurve, VerificationSet, save_curve_csv, save_scores_csv

from oracles import oracle_save_aligned_csv, oracle_save_curve_csv, oracle_save_dataset, oracle_save_scores_csv

EDGE_VALUES = [0.0, -0.0, 1e-5, 1e16, 5e-324, float("nan"), float("inf"), float("-inf"), 3.0, -0.1]


def edge_samples() -> SampleSet:
    """Bona fide rows that differ only in the sign of a zero, a repeated
    bona fide row, a morph row equal to a bona fide one and a selfmorph
    row of new values."""
    base = np.array(EDGE_VALUES)
    signed = base.copy()
    signed[0] = -0.0
    inputs = np.stack([base, signed, base, np.roll(base, 3), base, np.roll(signed, 5), base[::-1]])
    first = [0, 1, 0, 2, 0, 1, 3]
    second = [0, 1, 0, 2, 3, 1, 3]
    kinds = [BONA_FIDE, BONA_FIDE, BONA_FIDE, BONA_FIDE, MORPH, SELF_MORPH, BONA_FIDE]
    return SampleSet(inputs, first, second, kinds)


def oracle_bytes(samples, path) -> bytes:
    oracle_save_dataset(samples, path)
    return path.read_bytes()


class TestDatasetRecords:
    def test_edge_rows_match_json_dumps(self, tmp_path):
        samples = edge_samples()
        expected = oracle_bytes(samples, tmp_path / "oracle.jsonl")
        assert b"NaN" in expected and b"-Infinity" in expected and b"5e-324" in expected
        save_dataset(samples, tmp_path / "plain.jsonl")
        save_dataset(samples, tmp_path / "texts.jsonl", input_texts(samples.inputs))
        save_dataset(samples, tmp_path / "prefix.jsonl", input_texts(samples.inputs[:3]))
        for name in ("plain", "texts", "prefix"):
            assert (tmp_path / f"{name}.jsonl").read_bytes() == expected

    def test_shared_texts_give_separate_calls_bytes(self, tmp_path):
        """The pool's texts, picked by pool row, write a set that starts with pool rows."""
        samples = edge_samples()
        pool, rows = samples[:4], [2, 1, 0, 3]
        mixed = samples[np.array([*rows, 4, 5, 6])]
        texts = input_texts(pool.inputs)
        save_dataset(pool, tmp_path / "pool_shared.jsonl", texts)
        save_dataset(mixed, tmp_path / "mixed_shared.jsonl", [texts[r] for r in rows])
        save_dataset(pool, tmp_path / "pool.jsonl")
        save_dataset(mixed, tmp_path / "mixed.jsonl")
        assert (tmp_path / "pool_shared.jsonl").read_bytes() == (tmp_path / "pool.jsonl").read_bytes()
        assert (tmp_path / "mixed_shared.jsonl").read_bytes() == (tmp_path / "mixed.jsonl").read_bytes()
        assert (tmp_path / "mixed.jsonl").read_bytes() == oracle_bytes(mixed, tmp_path / "mixed.oracle.jsonl")
        # One text per row: rows 0 and 1 differ only in the sign of a zero and keep their own texts.
        assert texts == [json.dumps(row.tolist()) for row in pool.inputs]
        assert texts[0] != texts[1] and texts[0] == texts[2]

    def test_a_cached_text_is_reused(self, tmp_path):
        """A given text is written for its row as it is; the rows after it are formatted."""
        samples = edge_samples()[:2]
        save_dataset(samples, tmp_path / "d.jsonl", ["[1.5]"])
        first, second = (tmp_path / "d.jsonl").read_text().splitlines()
        assert first.endswith('"input": [1.5]}')
        assert second.endswith(f'"input": {json.dumps(samples.inputs[1].tolist())}}}')

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.lists(st.floats(), min_size=2, max_size=2), min_size=1, max_size=6),
        kind=st.sampled_from([BONA_FIDE, SELF_MORPH]),
        given_texts=st.integers(0, 6),
    )
    def test_any_float_row_matches_json_dumps(self, tmp_path_factory, rows, kind, given_texts):
        path = tmp_path_factory.mktemp("rows")
        samples = SampleSet(np.array(rows), [0] * len(rows), [0] * len(rows), [kind] * len(rows))
        save_dataset(samples, path / "d.jsonl", input_texts(samples.inputs[:given_texts]))
        assert (path / "d.jsonl").read_bytes() == oracle_bytes(samples, path / "o.jsonl")


@st.composite
def drawn_protocols(draw):
    """(universe, protocol): pairs of any identities of the universe and any int64 sample indices.
    The universe's subset ids are int64 or float64 arrays."""
    num_classes = 2 * draw(st.integers(1, 5))
    universe, _ = synth_identities(num_classes, 2, 2, spread=0.1, seed=draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        universe = IdentityUniverse(num_classes, universe.prototypes, universe.subsets.astype(np.float64))
    identity, index = st.integers(0, num_classes - 1), st.integers(-(2**63), 2**63 - 1)
    rows = draw(st.lists(st.tuples(identity, identity, index, index), max_size=8))
    return universe, MorphPairProtocol(np.array(rows, dtype=np.int64).reshape(-1, 4))


class TestProtocolRecords:
    @settings(max_examples=60, deadline=None)
    @given(drawn=drawn_protocols())
    def test_any_protocol_matches_json_dump(self, tmp_path_factory, drawn):
        universe, protocol = drawn
        records = [
            {
                "identity_a": p.identity_a,
                "identity_b": p.identity_b,
                "sample_a": p.sample_a,
                "sample_b": p.sample_b,
                "subset_a": int(universe.subsets[p.identity_a]),
                "subset_b": int(universe.subsets[p.identity_b]),
            }
            for p in protocol.pairs
        ]
        path = tmp_path_factory.mktemp("protocol")
        with open(path / "o.json", "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
        save_protocol(protocol, universe, path / "p.json")
        assert (path / "p.json").read_bytes() == (path / "o.json").read_bytes()


class TestReportRows:
    def test_curve_csv(self, tmp_path):
        curve = ThresholdCurve(np.array([-1.0, -0.0, 1e-5, 0.5, 1.0]), np.array([-0.0, 0.0, 5e-324, 0.1, 1.0]))
        save_curve_csv(curve, tmp_path / "c.csv")
        oracle_save_curve_csv(curve, tmp_path / "o.csv")
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "o.csv").read_bytes()
        assert "-0.0,0.0\n" in (tmp_path / "c.csv").read_text()

    def test_scores_csv(self, tmp_path):
        verification = VerificationSet(np.array([-0.0, 1.0, 0.1, 5e-324]), np.array([-1.0, 0.0, 1e-5, 1 / 3]))
        save_scores_csv(verification, tmp_path / "s.csv")
        oracle_save_scores_csv(verification, tmp_path / "o.csv")
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "o.csv").read_bytes()
        assert "genuine,-0.0\ngenuine,1.0\n" in (tmp_path / "s.csv").read_text()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_aligned_csv(self, tmp_path, dtype):
        values = np.array([-0.0, 3.0, 1e16, 1e-5, 5e-324, float("nan"), float("inf"), 0.1, -2.0, 0.0, 7.0, 1 / 3])
        if dtype is np.int64:
            values = np.nan_to_num(values, posinf=9.0)
        points = values.reshape(2, 3, 2).astype(dtype)
        save_aligned_csv(points, tmp_path / "a.csv")
        oracle_save_aligned_csv(points, tmp_path / "o.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "o.csv").read_bytes()
