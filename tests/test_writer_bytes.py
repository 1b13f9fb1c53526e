"""Text writers against the oracles' per-record and per-scalar formatting, byte for byte."""

import json
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphguard.cli import main
from morphguard.datagen import (
    _WRITE_ROWS,
    BONA_FIDE,
    MORPH,
    SELF_MORPH,
    IdentityUniverse,
    MorphPairProtocol,
    SampleSet,
    save_dataset,
    save_protocol,
    synth_identities,
)
from morphguard.featviz import save_aligned_csv
from morphguard.floattext import row_texts
from morphguard.metrics import (
    MorphTrials,
    ThresholdCurve,
    VerificationSet,
    save_curve_csv,
    save_scores_csv,
    save_trials_json,
)

from oracles import (
    oracle_row_texts,
    oracle_save_aligned_csv,
    oracle_save_curve_csv,
    oracle_save_dataset,
    oracle_save_scores_csv,
    oracle_save_trials_json,
)

EDGE_VALUES = [0.0, -0.0, 1e-5, 1e16, 5e-324, float("nan"), float("inf"), float("-inf"), 3.0, -0.1]
# orjson's text of a float is repr's only where the value is ±0 or of magnitude in [1e-4, 1e16).
LOW, HIGH = 1e-4, 1e16
BELOW_LOW, BELOW_HIGH = np.nextafter(LOW, 0.0), np.nextafter(HIGH, 0.0)
IN_RANGE = [LOW, np.nextafter(LOW, 1.0), BELOW_HIGH, 1e15, 3.0, 0.0, -0.0, 0.1, 1 / 3, 123456789012345.6]
OUT_OF_RANGE = [BELOW_LOW, HIGH, 1e-5, 5e-324, float("nan"), float("inf"), float("-inf"), 1e300]


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


def straddling_rows() -> np.ndarray:
    """(1 + 2 * len(OUT_OF_RANGE), 64) rows: one of in-range values of both signs, the 16-digit
    ties 8 + j/2**16 among them, then that row with one value, or its negation, out of range."""
    values = np.concatenate((IN_RANGE, 8 + np.arange(64 - 2 * len(IN_RANGE)) / 2**16, np.negative(IN_RANGE)))
    rows = [values]
    for k, value in enumerate(OUT_OF_RANGE):
        for sign in (1.0, -1.0):
            row = values.copy()
            row[5 * k + 1] = sign * value
            rows.append(row)
    return np.stack(rows)


def oracle_bytes(samples, path) -> bytes:
    oracle_save_dataset(samples, path)
    return path.read_bytes()


def bona_fides(inputs) -> SampleSet:
    zeros = [0] * len(inputs)
    return SampleSet(inputs, zeros, zeros, zeros)


class TestDatasetRecords:
    def test_edge_rows_match_json_dumps(self, tmp_path):
        samples = edge_samples()
        expected = oracle_bytes(samples, tmp_path / "oracle.jsonl")
        assert b"NaN" in expected and b"-Infinity" in expected and b"5e-324" in expected
        save_dataset(samples, tmp_path / "plain.jsonl")
        assert (tmp_path / "plain.jsonl").read_bytes() == expected

    def test_pool_rows_keep_their_bytes_in_a_mixed_set(self, tmp_path):
        """A set that starts with pool rows writes each of them as the pool's file writes it."""
        samples = edge_samples()
        pool, rows = samples[:4], [2, 1, 0, 3]
        mixed = samples[np.array([*rows, 4, 5, 6])]
        save_dataset(pool, tmp_path / "pool.jsonl")
        save_dataset(mixed, tmp_path / "mixed.jsonl")
        assert (tmp_path / "pool.jsonl").read_bytes() == oracle_bytes(pool, tmp_path / "pool.oracle.jsonl")
        assert (tmp_path / "mixed.jsonl").read_bytes() == oracle_bytes(mixed, tmp_path / "mixed.oracle.jsonl")
        pool_lines = (tmp_path / "pool.jsonl").read_text().splitlines()
        mixed_lines = (tmp_path / "mixed.jsonl").read_text().splitlines()
        assert mixed_lines[:4] == [pool_lines[r] for r in rows]
        # Rows 0 and 1 differ only in the sign of a zero and keep their own texts.
        assert pool_lines[0] != pool_lines[1] and pool_lines[0] == pool_lines[2]

    def test_each_input_is_its_rows_json_dumps(self, tmp_path):
        samples = edge_samples()[:2]
        save_dataset(samples, tmp_path / "d.jsonl")
        for line, row in zip((tmp_path / "d.jsonl").read_text().splitlines(), samples.inputs, strict=True):
            assert line.endswith(f'"input": {json.dumps(row.tolist())}}}')

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.lists(st.floats(), min_size=2, max_size=2), min_size=1, max_size=6),
        kind=st.sampled_from([BONA_FIDE, SELF_MORPH]),
    )
    def test_any_float_row_matches_json_dumps(self, tmp_path_factory, rows, kind):
        path = tmp_path_factory.mktemp("rows")
        samples = SampleSet(np.array(rows), [0] * len(rows), [0] * len(rows), [kind] * len(rows))
        save_dataset(samples, path / "d.jsonl")
        assert (path / "d.jsonl").read_bytes() == oracle_bytes(samples, path / "o.jsonl")


class TestWideRows:
    """64-wide rows on both sides of the range where orjson's text of a row is json.dumps's."""

    def test_straddling_rows_match_json_dumps(self, tmp_path, monkeypatch):
        inputs = straddling_rows()
        formatted = []
        dumps = orjson.dumps
        monkeypatch.setattr(orjson, "dumps", lambda block, **kw: formatted.append(block.copy()) or dumps(block, **kw))
        save_dataset(bona_fides(inputs), tmp_path / "d.jsonl")
        assert (tmp_path / "d.jsonl").read_bytes() == oracle_bytes(bona_fides(inputs), tmp_path / "o.jsonl")
        # One orjson call formats the write block, every row of it, whether its values are in range or not.
        assert len(formatted) == 1 and formatted[0].tobytes() == inputs.tobytes()

    def test_blocks_and_column_order_keep_the_bytes(self, tmp_path):
        """Rows past a block's edge, and a Fortran-ordered input array, give json.dumps's bytes."""
        rows = straddling_rows()
        inputs = rows[np.arange(2 * _WRITE_ROWS + 1) % len(rows)]
        expected = oracle_bytes(bona_fides(inputs), tmp_path / "o.jsonl")
        for name, array in (("c", inputs), ("fortran", np.asfortranarray(inputs))):
            save_dataset(bona_fides(array), tmp_path / f"{name}.jsonl")
            assert (tmp_path / f"{name}.jsonl").read_bytes() == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_wide_row_matches_json_dumps(self, tmp_path_factory, data):
        """Rows of in-range values only, or of those mixed with out-of-range edges and any float."""
        edges = [*IN_RANGE, *np.negative(IN_RANGE), *(8 + np.arange(8) / 2**16)]
        inside = st.floats(LOW, HIGH, exclude_max=True) | st.floats(-HIGH, -LOW, exclude_min=True)
        inside |= st.sampled_from(edges)
        outside = st.sampled_from([*OUT_OF_RANGE, *np.negative(OUT_OF_RANGE)]) | st.floats()
        values = inside if data.draw(st.booleans()) else inside | outside
        rows = data.draw(st.lists(st.lists(values, min_size=64, max_size=64), min_size=1, max_size=4))
        path = tmp_path_factory.mktemp("wide")
        save_dataset(bona_fides(np.array(rows)), path / "d.jsonl")
        assert (path / "d.jsonl").read_bytes() == oracle_bytes(bona_fides(np.array(rows)), path / "o.jsonl")


class TestGenDataMemory:
    """gen-data's tracemalloc peak at 200 identities of the wide tier's 128 inputs, in pools."""

    POOL = 200 * 50 * 128 * 8  # the pool's inputs.nbytes: 200 identities x 50 samples x 128 float64

    def test_gen_data_holds_no_text_of_the_pool(self, tmp_path):
        # 3.00 pools: the pool, the (N+M+S, D) training set (1.6 pools) and one 256-row write
        # block's text, which row_texts holds about twice while it splits it into rows; each row's
        # text then gives way to its line, and the block's lines go out in one write. Blocks of
        # 1024 rows peak at 3.72; formatting every pool row's text up front, to reuse it, at 5.62.
        (tmp_path / "config.json").write_text(json.dumps({"data": {"num_classes": 200, "input_dim": 128}}))
        tracemalloc.start()
        try:
            assert main(["gen-data", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * self.POOL


@st.composite
def drawn_protocols(draw):
    """(universe, protocol): pairs of any identities of the universe and any int64 sample indices.
    The universe's subset ids are int64 or float64 arrays."""
    num_classes = 2 * draw(st.integers(1, 5))
    universe, _ = synth_identities(num_classes, 2, 2, spread=0.1, seed=draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        universe = IdentityUniverse(universe.prototypes, universe.subsets.astype(np.float64))
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


# The report writers format a column with orjson where a value is ±0 or of magnitude in [1e-4, 1e16)
# and with repr elsewhere: values on both sides of both edges, subnormals and signed zeros.
SUBNORMALS = [5e-324, 1e-320, np.nextafter(2.2250738585072014e-308, 0.0)]
UNIT_EDGES = [0.0, -0.0, LOW, BELOW_LOW, np.nextafter(LOW, 1.0), 1e-5, 2.2250738585072014e-308, *SUBNORMALS,
              0.1, 1 / 3, 0.5, 1.0]
WIDE_EDGES = [*UNIT_EDGES, HIGH, BELOW_HIGH, np.nextafter(HIGH, np.inf), 1e15, 123456789012345.6, 1e300]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def signed(values):
    return [*values, *np.negative(values)]


def edged(edges, low, high, allow_nan=False):
    """Floats in [low, high]: the edges among them, or any float there."""
    kept = [v for v in edges if low <= v <= high or (allow_nan and not np.isfinite(v))]
    finite = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return st.sampled_from(kept) | (finite | st.floats() if allow_nan else finite)


def same_bytes(writer, oracle, value, directory) -> bool:
    writer(value, directory / "w")
    oracle(value, directory / "o")
    return (directory / "w").read_bytes() == (directory / "o").read_bytes()


class TestReportColumns:
    """Every report writer against its per-value oracle, byte for byte."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_curve_csv(self, tmp_path_factory, data):
        thresholds = data.draw(st.lists(edged(signed(WIDE_EDGES), -1e300, 1e300), min_size=1, max_size=40, unique=True))
        values = data.draw(st.lists(edged(UNIT_EDGES, 0.0, 1.0), min_size=len(thresholds), max_size=len(thresholds)))
        curve = ThresholdCurve(np.sort(thresholds), np.array(values))
        assert same_bytes(save_curve_csv, oracle_save_curve_csv, curve, tmp_path_factory.mktemp("curve"))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(genuine=st.lists(edged(signed(UNIT_EDGES), -1.0, 1.0), max_size=40),
           impostor=st.lists(edged(signed(UNIT_EDGES), -1.0, 1.0), max_size=40))
    def test_scores_csv(self, tmp_path_factory, genuine, impostor):
        verification = VerificationSet(np.array(genuine), np.array(impostor))
        assert same_bytes(save_scores_csv, oracle_save_scores_csv, verification, tmp_path_factory.mktemp("scores"))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_trials_json(self, tmp_path_factory, data):
        k = data.draw(st.integers(2, 5), label="subjects")
        rows = data.draw(st.lists(st.lists(edged(signed(UNIT_EDGES), -1.0, 1.0), min_size=k, max_size=k),
                                  min_size=1, max_size=20))
        trials = MorphTrials(np.array(rows))
        assert same_bytes(save_trials_json, oracle_save_trials_json, trials, tmp_path_factory.mktemp("trials"))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(points=st.lists(edged(signed(WIDE_EDGES) + NON_FINITE, -np.inf, np.inf, allow_nan=True),
                           max_size=60).map(lambda v: v[: len(v) - len(v) % 6]))
    def test_aligned_csv(self, tmp_path_factory, points):
        aligned = np.array(points, dtype=np.float64).reshape(-1, 3, 2)
        assert same_bytes(save_aligned_csv, oracle_save_aligned_csv, aligned, tmp_path_factory.mktemp("aligned"))

    def test_edges_take_both_formatters(self, tmp_path):
        """One column holding every edge: orjson's text and repr's side by side."""
        values = np.array(signed(WIDE_EDGES) + NON_FINITE)
        aligned = np.resize(values, (len(values) + 5) // 6 * 6).reshape(-1, 3, 2)
        assert same_bytes(save_aligned_csv, oracle_save_aligned_csv, aligned, tmp_path)
        text = (tmp_path / "w").read_text()
        assert all(f",{v}" in text for v in ("1e-05", "1e+16", "5e-324", "nan", "-inf", "0.0001", "-0.0"))


SEPARATORS = [", ", ",", ",\n   "]  # a dataset row's, a CSV row's and a trials.json record's


class TestRowTexts:
    """floattext.row_texts against repr of each value, joined by the separator."""

    @pytest.mark.parametrize("sep", SEPARATORS, ids=["dataset", "csv", "trials"])
    @pytest.mark.parametrize("shape", [(0, 7), (0, 0), (5, 0), (1, 0), (1, 43), (13, 7)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_every_edge_in_every_shape(self, shape, order, sep):
        """The 43 edges fill a (1, 43) row once, and a (13, 7) block over and over."""
        block = np.resize(np.array(signed(WIDE_EDGES) + NON_FINITE), shape).copy(order=order)
        assert row_texts(block, sep) == oracle_row_texts(block, sep)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_block(self, data):
        n, k = data.draw(st.integers(0, 6), label="rows"), data.draw(st.integers(0, 6), label="columns")
        values = edged(signed(WIDE_EDGES) + NON_FINITE, -np.inf, np.inf, allow_nan=True)
        block = np.array(data.draw(st.lists(values, min_size=n * k, max_size=n * k)), dtype=np.float64).reshape(n, k)
        if data.draw(st.booleans(), label="fortran"):
            block = np.asfortranarray(block)
        sep = data.draw(st.sampled_from(SEPARATORS), label="sep")
        assert row_texts(block, sep) == oracle_row_texts(block, sep)
