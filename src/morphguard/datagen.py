"""The sample model, synthetic identities, the cross-subset morph pairing
protocol, and morph/selfmorph construction, on columnar sample sets.

A SampleSet holds N samples as columns: (N, D) float64 inputs, int64
first (head-1) and second (head-2) labels, and int8 kind codes into
KINDS, and is the one place the label rules are checked. Every step works
on whole columns and gives the bytes that building one sample at a time
gave; Sample, with its LabelPair, is the plain-record view of one row.
Morphs and selfmorphs are built only in whole blocks, by
build_training_set from a protocol's (T, 4) columns; there is no
per-sample builder. It writes the whole training set, the pool's
training rows and then the blended rows, into one array, and is called
only where the set is read.

Identities are unit prototype vectors; bona fide samples are
renormalized noisy copies. To keep morph labeling unambiguous the
identities are split into two disjoint subsets and morphs are blended
only across subsets: a protocol pair runs subset 1 -> 2, its subset-1
parent weighted alpha and giving the first (head-1) label, and a pair
the other way round is rejected, not relabelled. Selfmorphs blend two samples of one identity and keep
bona fide labeling.

Everything is a pure function of (config, seed); datasets serialize to
line-delimited JSON and protocols to a JSON array, both round-tripping
exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    INT64, CapacityError, ConfigError, DataError, NumericInputError, ProtocolError, check_integer, check_real
)
from .floattext import row_texts
from .seeding import (
    STREAM_PAIRS,
    STREAM_PROTOTYPES,
    STREAM_SAMPLES,
    STREAM_SELFMORPH,
    STREAM_SPLIT,
    distinct_pair,
    rng_for,
)


class SampleKind(str, Enum):
    """What a training sample is, which decides its margin and labels."""

    BONA_FIDE = "bona_fide"
    MORPH = "morph"
    SELF_MORPH = "selfmorph"


KINDS = (SampleKind.BONA_FIDE, SampleKind.MORPH, SampleKind.SELF_MORPH)
BONA_FIDE, MORPH, SELF_MORPH = range(3)  # the kind codes: indices into KINDS
_COLUMNS = ("inputs", "first", "second", "kinds")  # SampleSet's fields, in order


@dataclass(frozen=True)
class LabelPair:
    """The per-head labels of a SampleSet row: a bona fide or selfmorph repeats
    its identity; a morph names its subset-1 parent first (head 1) and its
    subset-2 parent second (head 2)."""

    first_label: int
    second_label: int
    kind: SampleKind


@dataclass(frozen=True)
class Sample:
    """One input vector with its label pair: the view of one SampleSet row."""

    input: np.ndarray
    labels: LabelPair


def _check_label_rules(first: np.ndarray, second: np.ndarray, kinds: np.ndarray, where):
    """Raise ProtocolError, naming where(k), at the first row k that breaks the label
    rules: nonnegative labels, distinct for a morph and repeated otherwise, and a known kind code."""
    bad = (kinds < 0) | (kinds >= len(KINDS)) | (np.minimum(first, second) < 0)
    bad |= (kinds == MORPH) == (first == second)
    if bad.any():
        k = int(np.argmax(bad))
        raise ProtocolError(f"{where(k)} has kind code {kinds[k]} and labels ({first[k]}, {second[k]})")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """N samples as columns. Indexing with an integer (so iterating)
    gives a Sample view, with a slice or index array a SampleSet."""

    inputs: np.ndarray  # (N, D) float64
    first: np.ndarray  # (N,) int64 head-1 labels
    second: np.ndarray  # (N,) int64 head-2 labels
    kinds: np.ndarray  # (N,) int8 kind codes

    def __post_init__(self):
        inputs, kinds = np.asarray(self.inputs, dtype=np.float64), np.asarray(self.kinds, dtype=np.int8)
        first, second = np.asarray(self.first, dtype=np.int64), np.asarray(self.second, dtype=np.int64)
        if inputs.ndim != 2 or any(c.shape != (len(inputs),) for c in (first, second, kinds)):
            raise DataError(f"sample columns need (N, D) inputs and (N,) labels and kinds, got shapes "
                            f"{inputs.shape}, {first.shape}, {second.shape}, {kinds.shape}")
        _check_label_rules(first, second, kinds, "sample {}".format)
        for name, column in zip(_COLUMNS, (inputs, first, second, kinds)):
            object.__setattr__(self, name, column)

    is_morph = property(lambda self: self.kinds == MORPH)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        if not isinstance(index, numbers.Integral):
            return SampleSet(*(getattr(self, name)[index] for name in _COLUMNS))
        i = range(len(self))[index]
        return Sample(self.inputs[i], LabelPair(int(self.first[i]), int(self.second[i]), KINDS[self.kinds[i]]))


@dataclass(frozen=True)
class IdentityUniverse:
    """The identity prototypes and their two-subset partition."""

    prototypes: np.ndarray
    subsets: np.ndarray  # per-identity subset id, 1 or 2

    def __post_init__(self):
        shapes = np.shape(self.prototypes), np.shape(self.subsets)
        if len(shapes[0]) != 2 or len(shapes[1]) != 1 or shapes[0][0] != shapes[1][0]:
            raise ConfigError(f"prototypes and subsets need shapes (C, D) and (C,), not {shapes[0]} and {shapes[1]}")
        counts = [int((self.subsets == s).sum()) for s in (1, 2)]
        if sum(counts) != len(self.subsets) or 0 in counts:
            raise ConfigError("subsets must partition the identities into two nonempty groups")
        norms = np.linalg.norm(self.prototypes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise NumericInputError("prototypes must be unit vectors")

    @property
    def num_classes(self) -> int:
        return len(self.subsets)


@dataclass(frozen=True)
class MorphPair:
    """The view of one MorphPairProtocol row: which two samples get blended."""

    identity_a: int
    identity_b: int
    sample_a: int  # per-identity sample index of the subset-1 parent
    sample_b: int  # per-identity sample index of the subset-2 parent


@dataclass(frozen=True, eq=False)
class MorphPairProtocol:
    """T pairs as (T, 4) int64 columns in MorphPair's field order; pairs gives their views."""

    columns: np.ndarray

    def __post_init__(self):
        columns = np.asarray(self.columns)
        if columns.dtype.kind not in "iu" or not np.can_cast(columns.dtype, np.int64) or columns.shape[1:] != (4,):
            raise DataError(f"protocol columns need a (T, 4) integer array, got {columns.dtype} {columns.shape}")
        object.__setattr__(self, "columns", columns.astype(np.int64, copy=False))

    pairs = property(lambda self: tuple(MorphPair(*row) for row in self.columns.tolist()))

    def __eq__(self, other):
        return isinstance(other, MorphPairProtocol) and np.array_equal(self.columns, other.columns)


def _unit_rows(rows: np.ndarray, start: int = 0) -> np.ndarray:
    """Scale rows to unit length in place; each norm is np.linalg.norm's sqrt(x @ x) of its row.
    A message numbers rows from start."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    if np.any(np.isinf(norms)):
        row = start + int(np.argmax(np.isinf(norms)))
        raise NumericInputError(f"cannot normalize row {row}: its squared norm overflows float64")
    if np.any(norms < 1e-12):
        raise NumericInputError("cannot normalize a (near-)zero vector")
    rows /= norms[:, None]
    return rows


_BLEND_ROWS = 256  # rows per blend chunk, so a blend's temporaries stay small whatever its size


def _blend(inputs: np.ndarray, parents: np.ndarray, alpha: float, out: np.ndarray) -> np.ndarray:
    """Morph and selfmorph inputs of the (M, 2) row pairs parents of inputs,
    written into out _BLEND_ROWS rows at a time: alpha·a, then (1 − alpha)·b,
    their sum, then the row norm. Each row's bytes do not depend on the chunks."""
    for start in range(0, len(parents), _BLEND_ROWS):
        a, b = parents[start : start + _BLEND_ROWS].T
        chunk = np.multiply(alpha, inputs[a], out=out[start : start + _BLEND_ROWS])
        chunk += (1.0 - alpha) * inputs[b]
        _unit_rows(chunk, start)
    return out


def split_identities(num_classes: int, seed: int) -> np.ndarray:
    """Seeded balanced partition of identities into subsets 1 and 2."""
    if num_classes < 2:
        raise ConfigError(f"need at least 2 identities, got {num_classes}")
    order = rng_for(seed, STREAM_SPLIT).permutation(num_classes)
    subsets = np.full(num_classes, 2, dtype=np.int64)
    subsets[order[: -(-num_classes // 2)]] = 1
    return subsets


def check_synth_settings(num_classes: int, samples_per_class: int, input_dim: int, spread: float):
    """Reject settings synth_identities cannot generate from."""
    sizes = {"num_classes": num_classes, "samples_per_class": samples_per_class, "input_dim": input_dim}
    for name, value in sizes.items():
        check_integer(name, value, 2)
    if num_classes % 2 != 0:
        raise ConfigError(f"identity count must be even, got {num_classes}")
    check_real("spread", spread, 0.0)


def check_alpha(alpha: float):
    """Reject a morph blend weight outside (0, 1)."""
    check_real("alpha", alpha, 0.0, 1.0)


def mix_counts(num_bona_fides: int, ratios) -> tuple[int, int]:
    """(morphs, selfmorphs) that mix with num_bona_fides bona fides.

    ratios gives bona fide : morph : selfmorph proportions; each count
    is round(n / r_bf * r). A training set's protocol holds exactly its
    morphs, so the same count sizes both.
    """
    for ratio in ratios:
        check_real("ratios entry", ratio)
    if len(ratios) != 3 or ratios[0] <= 0 or min(ratios) < 0:
        raise ConfigError(
            f"ratios must be (bona fide, morph, selfmorph) with bona fide > 0 and none negative, got {ratios}"
        )
    unit = num_bona_fides / float(ratios[0])
    counts = unit * float(ratios[1]), unit * float(ratios[2])
    if not all(math.isfinite(count) for count in counts):
        raise ConfigError(f"ratios {ratios} give no finite morph and selfmorph counts for {num_bona_fides} bona fides")
    return int(round(counts[0])), int(round(counts[1]))


def synth_identities(num_classes: int, samples_per_class: int, input_dim: int, spread: float, seed: int):
    """Draw unit prototypes and renormalized noisy samples around them.

    Returns (universe, bona_fides) with the bona fide SampleSet in
    identity-major, sample-minor order; that ordering defines the
    per-identity sample indices the pairing protocol refers to. One
    (C*S, D) noise draw is the per-sample draws in that order.
    """
    check_synth_settings(num_classes, samples_per_class, input_dim, spread)

    proto_rng = rng_for(seed, STREAM_PROTOTYPES)
    prototypes = proto_rng.standard_normal((num_classes, input_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1)[:, None]
    universe = IdentityUniverse(prototypes, split_identities(num_classes, seed))

    inputs = rng_for(seed, STREAM_SAMPLES).standard_normal((num_classes * samples_per_class, input_dim))
    with np.errstate(over="ignore"):  # an overflowing row is reported by _unit_rows
        inputs *= spread
    by_identity = inputs.reshape(num_classes, samples_per_class, input_dim)
    by_identity += prototypes[:, None, :]
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    return universe, SampleSet(_unit_rows(inputs), labels, labels, np.full(labels.size, BONA_FIDE))


def _bona_fide_labels(pool: SampleSet) -> np.ndarray:
    """pool.first, once every pool row is checked to be a bona fide."""
    other = np.flatnonzero(pool.kinds != BONA_FIDE)
    if other.size:
        k = other[0]
        raise ProtocolError(f"pool row {k} is a {KINDS[pool.kinds[k]].value}; a pool holds only bona fides")
    return pool.first


def _pool_index(labels: np.ndarray):
    """(row order, identities, counts, offsets): the stable identity-major
    order of bona fide labels and its ascending identity groups."""
    identities, counts = np.unique(labels, return_counts=True)
    return np.argsort(labels, kind="stable"), identities, counts, np.cumsum(counts) - counts


def pair_protocol(universe: IdentityUniverse, samples: SampleSet, num_morphs: int, seed: int) -> MorphPairProtocol:
    """Uniformly sample distinct cross-subset sample pairs, in random order.

    Each pair is a flat index into the (subset-1 sample, subset-2
    sample) product, drawn without replacement, so no pair repeats and
    within-subset pairs can never occur. The draw needs O(num_morphs)
    memory, not O(product): numpy's Generator.choice runs Floyd's
    algorithm for a small share of a large product and shuffles only a
    tail of the candidates otherwise.
    """
    if num_morphs < 0:
        raise ConfigError(f"num_morphs must be >= 0, got {num_morphs}")
    order, _, counts, offsets = _pool_index(_bona_fide_labels(samples))
    # Each side lists (identity, per-identity sample index), identities ascending.
    ids, ks = samples.first[order], np.arange(len(order)) - np.repeat(offsets, counts)
    in_first = universe.subsets[ids] == 1
    (ids1, ks1), (ids2, ks2) = (ids[in_first], ks[in_first]), (ids[~in_first], ks[~in_first])
    if not ids1.size or not ids2.size:
        raise ConfigError("both subsets need at least one sample to pair across")
    capacity = ids1.size * ids2.size
    if num_morphs > capacity:
        raise CapacityError(
            f"requested {num_morphs} morphs but only {capacity} distinct cross-subset pairs exist"
        )
    chosen = rng_for(seed, STREAM_PAIRS).choice(capacity, size=num_morphs, replace=False)
    a, b = np.divmod(chosen, ids2.size)
    return MorphPairProtocol(np.column_stack((ids1[a], ids2[b], ks1[a], ks2[b])))


def protocol_parents(pool: SampleSet, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(T, 2) positions in rows of each pair's (subset-1, subset-2) parent.

    rows are the pool rows the protocol pairs, columns its (T, 4)
    columns; sample indices count an identity's samples in the order of
    rows.
    """
    return _parent_rows(*_pool_index(_bona_fide_labels(pool)[rows]), columns)


def _parent_rows(order, identities, counts, offsets, columns: np.ndarray) -> np.ndarray:
    """protocol_parents of the labels that _pool_index gave (order, identities, counts, offsets)."""
    ids, ks = columns[:, :2], columns[:, 2:]
    # A sentinel group without samples takes the identities absent from the pool.
    slot = np.searchsorted(identities, ids)
    found = (np.append(identities, -1)[slot] == ids) & (0 <= ks) & (ks < np.append(counts, 0)[slot])
    missing = np.flatnonzero(~found.all(axis=1))
    if missing.size:
        pair = MorphPair(*columns[missing[0]].tolist())
        raise CapacityError(f"protocol pair {pair} refers outside the bona fide pool")
    return order[np.append(offsets, 0)[slot] + ks]


def build_training_set(
    universe: IdentityUniverse,
    pool: SampleSet,
    rows: np.ndarray,
    protocol: MorphPairProtocol,
    ratios=(2, 1, 1),
    seed: int = 0,
    alpha: float = 0.5,
) -> SampleSet:
    """The training set that mixes pool rows rows, as one new SampleSet:
    the rows in the order given, then protocol morphs in protocol order,
    then random selfmorphs in draw order, at the counts mix_counts gives
    for ratios. train shuffles it every epoch.

    The set is one preallocated (N+M+S, D) array: the rows are taken
    into its first block and each blend is written into its own slice,
    so no blended block is held apart from it.

    Sample indices count an identity's samples in the order of rows.
    Morphs consume protocol pairs, each running subset 1 -> 2, and run
    out with a CapacityError. Selfmorphs draw whole arrays from one
    stream, as genuine verification pairs do: for each an identity with
    two or more samples, then an ordered pair of distinct samples of it.
    """
    check_alpha(alpha)
    num_morphs, num_selfmorphs = mix_counts(len(rows), ratios)
    labels = _bona_fide_labels(pool)
    kept = labels[rows]
    index = _pool_index(kept)
    order, _, counts, offsets = index
    if num_morphs > len(protocol.columns):
        raise CapacityError(f"training set needs {num_morphs} morphs but the protocol holds {len(protocol.columns)}")
    pairs = protocol.columns[:num_morphs]
    parents = rows[_parent_rows(*index, pairs)]  # (M, 2) pool rows of each morph's parents
    subsets = universe.subsets[pairs[:, :2]]
    wrong = np.flatnonzero((subsets != (1, 2)).any(axis=1))
    if wrong.size:
        pair, (sub_a, sub_b) = MorphPair(*pairs[wrong[0]].tolist()), subsets[wrong[0]]
        if sub_a == sub_b:
            raise ProtocolError(f"identities {pair.identity_a} and {pair.identity_b} share subset {sub_a}; "
                                "morphing within a subset would make the labeling ambiguous")
        raise ProtocolError(f"protocol pair {pair} runs subset {sub_a} -> {sub_b}, not 1 -> 2")

    rich = np.flatnonzero(counts >= 2)
    if num_selfmorphs > 0 and not rich.size:
        raise CapacityError("no identity has two samples to selfmorph")
    self_rng = rng_for(seed, STREAM_SELFMORPH)
    group = rich[self_rng.integers(rich.size, size=num_selfmorphs)]
    i, j = distinct_pair(self_rng, counts[group])
    selves = rows[order[offsets[group, None] + np.column_stack((i, j))]]  # (S, 2) pool rows of each selfmorph's parents

    n, m = len(rows), num_morphs
    inputs = np.empty((n + m + num_selfmorphs, pool.inputs.shape[1]))
    # labels[rows] has checked rows; "wrap" then indexes as rows do, and writes out unbuffered.
    pool.inputs.take(rows, axis=0, out=inputs[:n], mode="wrap")
    _blend(pool.inputs, parents, alpha, inputs[n : n + m])
    _blend(pool.inputs, selves, 0.5, inputs[n + m :])
    own = labels[selves[:, 0]]
    kinds = np.repeat(np.array([BONA_FIDE, MORPH, SELF_MORPH]), (n, m, num_selfmorphs))
    return SampleSet(inputs, np.concatenate((kept, pairs[:, 0], own)), np.concatenate((kept, pairs[:, 1], own)), kinds)


# --- serialization ---------------------------------------------------------

_KIND_CODES = {kind.value: code for code, kind in enumerate(KINDS)}
_KIND_TEXTS = [json.dumps(kind.value) for kind in KINDS]
_READ_LINES = 256  # load_dataset's lines per block, so its temporaries stay small whatever the file's size
_WRITE_ROWS = 256  # save_dataset's rows per block, so its text stays small whatever the set's size


def save_dataset(samples: SampleSet, path, copy_from=None):
    """Write samples as line-delimited JSON records.

    Each line holds the bytes json.dumps gives the record {"kind",
    "y_dot", "y_ddot", "source_ids", "input"}, built from its parts and
    streamed to the file in one write per block of _WRITE_ROWS rows.
    row_texts formats the inputs, whose text is json.dumps's once ", "
    separates the items; a row with a non-finite value takes json.dumps's
    text, which spells those NaN and Infinity where repr gives nan and inf.

    copy_from, if given, is (source, rows): a file of save_dataset's lines
    and strictly ascending 0-based indices of its lines, which are the
    records of samples' first len(rows) rows. Those lines are copied from
    source as bytes, _WRITE_ROWS a write, and only the rows after them are
    formatted. Nothing checks that the lines hold those rows' values.
    """
    copied = 0
    with open(path, "wb") as fh:
        if copy_from is not None:
            copied = _copy_lines(*copy_from, len(samples), fh)
        labels = zip(*(column[copied:].tolist() for column in (samples.kinds, samples.first, samples.second)))
        for start in range(copied, len(samples), _WRITE_ROWS):
            block = samples.inputs[start : start + _WRITE_ROWS]
            texts = row_texts(block, ", ")
            for i in np.flatnonzero(~np.isfinite(block).all(axis=1)).tolist():
                texts[i] = json.dumps(block[i].tolist())[1:-1]
            # Each row's text becomes its line; labels go last, so zip stops on the block.
            for n, (text, (kind, first, second)) in enumerate(zip(texts, labels)):
                ids = f"{first}, {second}" if kind == MORPH else f"{first}"
                texts[n] = (f'{{"kind": {_KIND_TEXTS[kind]}, "y_dot": {first}, "y_ddot": {second}, '
                            f'"source_ids": [{ids}], "input": [{text}]}}\n')
            fh.write("".join(texts).encode())


def _copy_lines(source, rows, limit: int, fh) -> int:
    """Write the lines of source at indices rows to binary fh, _WRITE_ROWS
    lines a write, and return how many. rows must be at most limit strictly
    ascending indices of whole lines of source, or DataError is raised."""
    rows = np.asarray(rows)
    # Neighbours compared, not np.diff, which wraps unsigned rows that go down.
    ascending = rows.ndim == 1 and rows.dtype.kind in "iu" and np.all(rows[1:] > rows[:-1])
    if not ascending or len(rows) > limit or np.any(rows[:1] < 0):
        raise DataError(f"rows to copy must be at most {limit} strictly ascending line indices")
    copied, last = 0, b"\n"
    with open(source, "rb") as src:
        lines = itertools.compress(src, _picks(rows.tolist()))
        while block := list(itertools.islice(lines, _WRITE_ROWS)):
            fh.write(b"".join(block))
            copied, last = copied + len(block), block[-1]
    if copied < len(rows) or not last.endswith(b"\n"):
        raise DataError(f"{source} ends before line {rows[-1] + 1}, which the copy needs")
    return copied


def _picks(rows):
    """True at each of the ascending line indices rows and False at the lines
    between them, stopping at the last, so no mask as long as the file is built."""
    previous = -1
    for row in rows:
        yield from itertools.repeat(False, row - previous - 1)
        yield True
        previous = row


def _checked_record(line: str, where: str, width):
    """Parse one dataset line with json.loads and make every per-line check on it.

    Returns (kind, first, second, row), or raises the line's DataError;
    width is the first record's input length, None on the first.
    """
    try:
        record = json.loads(line)
        kind, first, second = _KIND_CODES[record["kind"]], record["y_dot"], record["y_ddot"]
        ids, row = record["source_ids"], np.array(record["input"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DataError(f"{where} is not a JSON dataset record: {exc!r}") from exc
    implied = [first, second] if kind == MORPH else [first]
    if ids != implied or not all(type(v) is int for v in (first, second, *ids)):
        raise DataError(f"{where}: labels must be JSON integers and source ids {implied}, got {ids!r}")
    if first not in INT64 or second not in INT64:
        raise DataError(f"{where}: labels ({first}, {second}) do not fit in a 64-bit integer")
    # np.array reads a JSON boolean among numbers as 0 or 1, so booleans need their own look.
    if (row.ndim != 1 or row.dtype.kind not in "fiu" or (width is not None and row.size != width)
            or bool in map(type, record["input"])):
        raise DataError(f"{where}: input is not a list of JSON numbers as long as the first record's")
    return kind, first, second, row


def _read_lines(path) -> SampleSet:
    """load_dataset's json path: every line through json.loads, as
    tests/oracles.py::oracle_load_dataset reads, so every record and every
    DataError text is json's."""
    labels, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    kind, first, second, row = _checked_record(
                        line, f"{path} line {number}", rows[0].size if rows else None)
                    labels.append((number, kind, first, second))
                    rows.append(row)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    line_numbers, kinds, firsts, seconds = np.array(labels, dtype=np.int64).reshape(-1, 4).T
    inputs = np.array(rows, dtype=np.float64).reshape(len(rows), rows[0].size if rows else 0)
    finite = np.isfinite(inputs).all(axis=1)
    if not finite.all():
        raise DataError(f"{path} line {line_numbers[np.argmin(finite)]}: input has non-finite values")
    _check_label_rules(firsts, seconds, kinds, lambda k: f"{path} line {line_numbers[k]}: the record")
    return SampleSet(inputs, firsts, seconds, kinds)


def _orjson_block(lines: list, width):
    """(kinds, firsts, seconds, rows) of a block of binary lines from orjson's
    records, or None where they might not be json.loads's."""
    import orjson  # here, so that commands reading no dataset never load it

    data = b"".join(lines)
    codes = np.frombuffer(data, dtype=np.uint8)
    # ASCII without "\r" splits into the lines text mode reads. A record that passes holds at
    # least one "{", two "[" and twelve '"' (five keys and a kind), so exactly that many a line
    # keep json below its recursion limit and leave no string among the inputs and no sixth key.
    if not data.isascii() or b"\r" in data or any(
        np.count_nonzero(codes == ord(char)) != times * len(lines) for char, times in (("{", 1), ("[", 2), ('"', 12))
    ):
        return None
    try:
        records = [orjson.loads(line) for line in lines]
        kinds, firsts, seconds, ids = zip(*[(_KIND_CODES[r["kind"]], r["y_dot"], r["y_ddot"], r["source_ids"])
                                            for r in records])
        if {*map(type, itertools.chain(firsts, seconds, *ids))} != {int}:
            return None
        implied = [[f, s] if k == MORPH else [f] for k, f, s in zip(kinds, firsts, seconds)]
        labels = np.array((kinds, firsts, seconds))
        # A null reads as NaN here, which the caller's finite check refuses.
        rows = np.array([r["input"] for r in records], dtype=np.float64)
    except (ValueError, KeyError, TypeError, OverflowError):
        return None
    if list(ids) != implied or labels.dtype != np.int64 or rows.ndim != 2 or width not in (None, rows.shape[1]):
        return None
    # A JSON true or false among numbers reads as 1.0 or 0.0 (a value test costs less than
    # a byte search), and orjson reads an integer outside [-2**63, 2**64) as a float where
    # json keeps the integer.
    if ((rows == 0.0) | (rows == 1.0) | (np.abs(rows) >= 2.0**63)).any():
        return None
    return (*labels, rows)


def _line_bound(fh) -> int:
    """The lines of binary fh, read to its end: its "\n" and a last line without one."""
    lines, last = 0, b"\n"
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        lines += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
        last = chunk[-1:]
    return int(lines) + (last != b"\n")


def _read_blocks(path):
    """load_dataset's block path: the SampleSet, or None where any block is
    one _orjson_block cannot vouch for. Its columns are allocated once, at
    the first record, for every line the file holds."""
    with open(path, "rb") as fh:
        bound, size = _line_bound(fh), fh.tell()
        fh.seek(0)
        columns, count = None, 0
        while lines := list(itertools.islice(fh, _READ_LINES)):
            block = _orjson_block(lines, None if columns is None else columns[-1].shape[1])
            if block is None:
                return None
            rows = block[-1]
            if columns is None:
                # A record holds its width's numbers and commas, so at least 2 * width + 1 bytes.
                capacity = min(bound, size // (2 * rows.shape[1] + 1))
                columns = (*(np.empty(capacity, dtype=np.int64) for _ in range(3)),
                           np.empty((capacity, rows.shape[1])))
            if count + len(rows) > len(columns[0]) or not np.isfinite(rows).all():
                return None
            for column, values in zip(columns, block):
                column[count : count + len(rows)] = values
            count += len(rows)
    if columns is None:
        return SampleSet(np.empty((0, 0)), *(np.empty(0, dtype=np.int64),) * 3)
    kinds, firsts, seconds, inputs = (column[:count] for column in columns)
    return SampleSet(inputs, firsts, seconds, kinds)


def load_dataset(path) -> SampleSet:
    """Read save_dataset's records.

    Labels and source ids must be JSON integers (not bools) that fit in
    64 bits, the source ids those the labels and kind imply, the labels
    keep SampleSet's label rules, and each input a finite list of JSON
    numbers (not bools) as long as the first record's.

    The file streams in binary, _READ_LINES lines a block, into columns
    allocated once for the lines it counts first. orjson parses a block's
    lines, and whole-column checks keep its records only where they must
    be json.loads's (_orjson_block). A block they cannot vouch for, or a
    broken label rule, sends the whole file through json.loads line by
    line (_read_lines), so every accepted file gives json's columns and
    every rejected one json's DataError text. tests/test_datagen.py checks
    that a float orjson parses is json's.
    """
    try:
        samples = _read_blocks(path)
    except DataError:  # SampleSet's label rules, which _read_lines words by line
        samples = None
    return _read_lines(path) if samples is None else samples


_PROTOCOL_KEYS = ("identity_a", "identity_b", "sample_a", "sample_b", "subset_a", "subset_b")
_PROTOCOL_RECORD = " {\n" + ",\n".join(f'  "{key}": %d' for key in _PROTOCOL_KEYS) + "\n }"  # json.dump's, at indent=1


def save_protocol(protocol: MorphPairProtocol, universe: IdentityUniverse, path):
    """Write the pairing protocol as a JSON array with subset annotations: the
    bytes json.dump(records, fh, indent=1) gives, plus a newline, from one
    record template."""
    rows = np.column_stack((protocol.columns, universe.subsets[protocol.columns[:, :2]].astype(np.int64)))
    records = ",\n".join([_PROTOCOL_RECORD] * len(rows)) % tuple(rows.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[\n{records}\n]\n" if len(rows) else "[]\n")


def load_protocol(path) -> MorphPairProtocol:
    """Read save_protocol's file: JSON integer fields that fit in 64 bits,
    each pair running subset 1 -> 2 and listed once, each identity in one subset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from exc
    try:
        rows = [[r[key] for key in _PROTOCOL_KEYS] for r in records]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed protocol file {path}") from exc
    for number, row in enumerate(rows):
        if not all(type(v) is int for v in row):
            raise DataError(f"{path}: pair {number} has a field that is not a JSON integer")
    values = np.array(rows, dtype=object).reshape(-1, len(_PROTOCOL_KEYS))  # Python ints of any size
    fits = ((values[:, :4] >= INT64.start) & (values[:, :4] < INT64.stop)).all(axis=1)
    if not fits.all():
        raise DataError(f"{path}: pair {np.argmin(fits)} has a field that does not fit in a 64-bit integer")
    wrong = np.flatnonzero((values[:, 4:] != (1, 2)).any(axis=1))
    if wrong.size:
        pair, (subset_a, subset_b) = MorphPair(*values[wrong[0], :4]), values[wrong[0], 4:]
        raise ProtocolError(f"{path}: pair {pair} runs subset {subset_a} -> {subset_b}, not 1 -> 2")
    columns = values[:, :4].astype(np.int64)
    both = np.intersect1d(columns[:, 0], columns[:, 1])
    if both.size:
        raise ProtocolError(f"{path}: identity {both[0]} is listed in both subsets")
    _, first, inverse = np.unique(columns, axis=0, return_index=True, return_inverse=True)
    if len(first) < len(columns):
        k = np.setdiff1d(np.arange(len(columns)), first)[0]  # the first place that repeats an earlier pair
        raise ProtocolError(f"{path}: pair {k} repeats pair {first[inverse.flat[k]]}, {MorphPair(*values[k, :4])}")
    return MorphPairProtocol(columns)
