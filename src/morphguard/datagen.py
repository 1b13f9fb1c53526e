"""Synthetic identities, the cross-subset morph pairing protocol, and
morph/selfmorph construction, on columnar sample sets.

A SampleSet holds N samples as columns: (N, D) float64 inputs, int64
first (head-1) and second (head-2) labels, and int8 kind codes into
KINDS. Every step works on whole columns and gives the bytes that
building one sample at a time gave; Sample is the view of one row.

Identities are unit prototype vectors; bona fide samples are
renormalized noisy copies. To keep morph labeling unambiguous the
identities are split into two disjoint subsets and morphs are blended
only across subsets: the subset-1 parent always supplies the first
(head-1) label and the subset-2 parent the second, regardless of
argument order. Selfmorphs blend two samples of one identity and keep
bona fide labeling.

Everything is a pure function of (config, seed); datasets serialize to
line-delimited JSON and protocols to a JSON array, both round-tripping
exactly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    INT64, CapacityError, ConfigError, DataError, NumericInputError, ProtocolError, check_integer, check_real
)
from .losses import LabelPair, SampleKind
from .seeding import (
    STREAM_MIX,
    STREAM_PAIRS,
    STREAM_PROTOTYPES,
    STREAM_SAMPLES,
    STREAM_SELFMORPH,
    STREAM_SPLIT,
    rng_for,
)

KINDS = (SampleKind.BONA_FIDE, SampleKind.MORPH, SampleKind.SELF_MORPH)
BONA_FIDE, MORPH, SELF_MORPH = range(3)  # the kind codes: indices into KINDS
_COLUMNS = ("inputs", "first", "second", "kinds")  # SampleSet's fields, in order


@dataclass(frozen=True)
class Sample:
    """One input vector with its label pair: the view of one SampleSet row."""

    input: np.ndarray
    labels: LabelPair


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
        # LabelPair's rules: nonnegative labels, distinct for a morph and repeated otherwise.
        bad = (kinds < 0) | (kinds >= len(KINDS)) | (np.minimum(first, second) < 0)
        bad |= (kinds == MORPH) == (first == second)
        if bad.any():
            k = int(np.argmax(bad))
            raise ProtocolError(f"sample {k} has kind code {kinds[k]} and labels ({first[k]}, {second[k]})")
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

    num_classes: int
    prototypes: np.ndarray
    subsets: np.ndarray  # per-identity subset id, 1 or 2

    def __post_init__(self):
        counts = [int((self.subsets == s).sum()) for s in (1, 2)]
        if sum(counts) != self.num_classes or 0 in counts:
            raise ConfigError("subsets must partition the identities into two nonempty groups")
        norms = np.linalg.norm(self.prototypes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise NumericInputError("prototypes must be unit vectors")


@dataclass(frozen=True)
class MorphPair:
    """One protocol entry: which two samples get blended."""

    identity_a: int
    identity_b: int
    sample_a: int  # per-identity sample index of the subset-1 parent
    sample_b: int  # per-identity sample index of the subset-2 parent


@dataclass(frozen=True)
class MorphPairProtocol:
    pairs: tuple[MorphPair, ...]


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale rows to unit length in place; each norm is np.linalg.norm's sqrt(x @ x) of its row."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    if np.any(np.isinf(norms)):
        row = int(np.argmax(np.isinf(norms)))
        raise NumericInputError(f"cannot normalize row {row}: its squared norm overflows float64")
    if np.any(norms < 1e-12):
        raise NumericInputError("cannot normalize a (near-)zero vector")
    rows /= norms[:, None]
    return rows


def _blend(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Morph and selfmorph inputs of paired (M, D) rows: alpha weights the first."""
    return _unit_rows(alpha * a + (1.0 - alpha) * b)


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
    universe = IdentityUniverse(num_classes, prototypes, split_identities(num_classes, seed))

    inputs = rng_for(seed, STREAM_SAMPLES).standard_normal((num_classes * samples_per_class, input_dim))
    inputs *= spread
    by_identity = inputs.reshape(num_classes, samples_per_class, input_dim)
    by_identity += prototypes[:, None, :]
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    return universe, SampleSet(_unit_rows(inputs), labels, labels, np.full(labels.size, BONA_FIDE))


def _pool_index(pool: SampleSet):
    """(row order, identities, counts, offsets): the stable identity-major
    order of a single-identity pool and its ascending identity groups."""
    if pool.is_morph.any():
        raise ProtocolError("morphs cannot serve as pairing-pool samples")
    identities, counts = np.unique(pool.first, return_counts=True)
    return np.argsort(pool.first, kind="stable"), identities, counts, np.cumsum(counts) - counts


def group_by_identity(samples: SampleSet) -> dict[int, SampleSet]:
    """Single-identity samples grouped by identity, preserving order."""
    order, identities, counts, offsets = _pool_index(samples)
    return {i: samples[order[o : o + n]] for i, n, o in zip(identities.tolist(), counts.tolist(), offsets.tolist())}


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
    order, _, counts, offsets = _pool_index(samples)
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
    rows = zip(ids1[a].tolist(), ids2[b].tolist(), ks1[a].tolist(), ks2[b].tolist())
    return MorphPairProtocol(tuple(MorphPair(*row) for row in rows))


def _single_identity_of(sample: Sample) -> int:
    if sample.labels.kind is SampleKind.MORPH:
        raise ProtocolError("a morph cannot be a blending parent")
    return sample.labels.first_label


def _morphs(universe: IdentityUniverse, inputs_a, inputs_b, ids_a, ids_b, alpha: float) -> SampleSet:
    """Morphs of paired cross-subset parent rows; alpha weights the a rows."""
    check_alpha(alpha)
    ids_a, ids_b = np.asarray(ids_a, dtype=np.int64), np.asarray(ids_b, dtype=np.int64)
    sub_a = universe.subsets[ids_a]
    clash = np.flatnonzero(sub_a == universe.subsets[ids_b])
    if clash.size:
        k = clash[0]
        raise ProtocolError(
            f"identities {ids_a[k]} and {ids_b[k]} share subset {sub_a[k]}; morphing within a subset "
            "would make the labeling ambiguous"
        )
    first, second = np.where(sub_a == 1, ids_a, ids_b), np.where(sub_a == 1, ids_b, ids_a)
    return SampleSet(_blend(inputs_a, inputs_b, alpha), first, second, np.full(first.size, MORPH))


def _selfmorphs(inputs_a, inputs_b, identities) -> SampleSet:
    """Even blends of paired rows of one identity each, labeled as bona fide material."""
    return SampleSet(_blend(inputs_a, inputs_b, 0.5), identities, identities, np.full(len(identities), SELF_MORPH))


def make_morph(universe: IdentityUniverse, sample_a: Sample, sample_b: Sample, alpha: float = 0.5) -> Sample:
    """Blend two cross-subset samples into a morph.

    The label pair is oriented by subset (subset-1 parent first), not
    by argument order; alpha weights the first argument.
    """
    ids = [_single_identity_of(sample_a)], [_single_identity_of(sample_b)]
    return _morphs(universe, sample_a.input[None], sample_b.input[None], *ids, alpha)[0]


def make_selfmorph(sample_a: Sample, sample_b: Sample) -> Sample:
    """Blend two samples of one identity; labeled as bona fide material."""
    id_a = _single_identity_of(sample_a)
    id_b = _single_identity_of(sample_b)
    if id_a != id_b:
        raise ProtocolError(f"selfmorph parents must share an identity, got {id_a} and {id_b}")
    return _selfmorphs(sample_a.input[None], sample_b.input[None], [id_a])[0]


def pair_columns(pairs) -> np.ndarray:
    """(T, 4) rows of identity_a, identity_b, sample_a, sample_b."""
    rows = [(p.identity_a, p.identity_b, p.sample_a, p.sample_b) for p in pairs]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def protocol_parents(pool: SampleSet, columns: np.ndarray) -> np.ndarray:
    """(T, 2) pool rows of each pair's (subset-1, subset-2) parent.

    columns are the pairs' pair_columns; sample indices count an
    identity's samples in pool order.
    """
    order, identities, counts, offsets = _pool_index(pool)
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
    bona_fides: SampleSet,
    protocol: MorphPairProtocol,
    ratios=(2, 1, 1),
    seed: int = 0,
    alpha: float = 0.5,
) -> SampleSet:
    """Interleave bona fides, protocol morphs, and random selfmorphs.

    Every bona fide is kept, with the morph and selfmorph counts that
    mix_counts gives for ratios. Morphs consume protocol pairs in order
    and run out with a CapacityError. Selfmorphs draw whole arrays from
    one stream, as genuine verification pairs do: for each an identity
    with two or more samples, then an ordered pair of distinct samples of it.
    """
    num_morphs, num_selfmorphs = mix_counts(len(bona_fides), ratios)
    order, _, counts, offsets = _pool_index(bona_fides)
    if num_morphs > len(protocol.pairs):
        raise CapacityError(
            f"training set needs {num_morphs} morphs but the protocol holds {len(protocol.pairs)}"
        )
    # The mixed order is drawn first, so each part is written straight to its
    # output rows: no concatenated copy, and the output is allocated before the
    # parts' temporaries (freed temporaries below it fragmented the heap).
    num_bona_fides = len(bona_fides)
    total = num_bona_fides + num_morphs + num_selfmorphs
    slots = np.empty(total, dtype=np.int64)  # the output row of each row of bona fides + morphs + selfmorphs
    slots[rng_for(seed, STREAM_MIX).permutation(total)] = np.arange(total)
    inputs, labels = bona_fides.inputs, bona_fides.first
    columns = [np.empty((total, inputs.shape[1]))] + [np.empty(total, dtype) for dtype in (np.int64, np.int64, np.int8)]

    def place(start: int, part: SampleSet):
        for column, name in zip(columns, _COLUMNS):
            column[slots[start : start + len(part)]] = getattr(part, name)

    place(0, bona_fides)
    a, b = protocol_parents(bona_fides, pair_columns(protocol.pairs[:num_morphs])).T
    place(num_bona_fides, _morphs(universe, inputs[a], inputs[b], labels[a], labels[b], alpha))

    rich = np.flatnonzero(counts >= 2)
    if num_selfmorphs > 0 and not rich.size:
        raise CapacityError("no identity has two samples to selfmorph")
    self_rng = rng_for(seed, STREAM_SELFMORPH)
    group = rich[self_rng.integers(rich.size, size=num_selfmorphs)]
    i = self_rng.integers(counts[group])
    j = self_rng.integers(counts[group] - 1)
    j += j >= i
    a, b = order[offsets[group] + i], order[offsets[group] + j]
    place(num_bona_fides + num_morphs, _selfmorphs(inputs[a], inputs[b], labels[a]))
    return SampleSet(*columns)


# --- serialization ---------------------------------------------------------

_KIND_CODES = {kind.value: code for code, kind in enumerate(KINDS)}
_KIND_TEXTS = [json.dumps(kind.value) for kind in KINDS]
_KEY_PIECE = 32  # doubles per piece of a row key


def _row_key(row: np.ndarray) -> tuple:
    """A hashable key equal for two rows exactly when their bytes are equal.

    The bytes come in pieces of at most 256, so each piece stays within
    CPython's 512-byte small-object allocator: one bytes object per
    64-float row (545 bytes) would go to malloc, and a few thousand of
    them left the heap fragmented after they were freed.
    """
    return tuple(row[i : i + _KEY_PIECE].tobytes() for i in range(0, row.size, _KEY_PIECE))


def save_dataset(samples: SampleSet, path, texts: dict | None = None):
    """Write samples as line-delimited JSON records.

    Each line holds the bytes json.dumps gives the record {"kind",
    "y_dot", "y_ddot", "source_ids", "input"}, built from its parts and
    streamed to the file. texts, if given, maps a bona fide row's bytes
    (as _row_key pieces) to its input text: pass one dict to several
    calls and a bona fide row they share is formatted once. Equal bytes
    are equal doubles, so a cached text is the text json.dumps would give.
    """
    columns = zip(samples.kinds.tolist(), samples.first.tolist(), samples.second.tolist(), samples.inputs)
    with open(path, "w", encoding="utf-8") as fh:
        for kind, first, second, row in columns:
            if texts is None or kind != BONA_FIDE:
                text = json.dumps(row.tolist())
            else:
                key = _row_key(row)
                text = texts.get(key)
                if text is None:
                    text = texts[key] = json.dumps(row.tolist())
            ids = f"{first}, {second}" if kind == MORPH else f"{first}"
            fh.write(f'{{"kind": {_KIND_TEXTS[kind]}, "y_dot": {first}, "y_ddot": {second}, '
                     f'"source_ids": [{ids}], "input": {text}}}\n')


def load_dataset(path) -> SampleSet:
    """Read save_dataset's records.

    Labels and source ids must be JSON integers (not bools) that fit in
    64 bits, the source ids those the labels and kind imply, and each
    input a finite list of JSON numbers as long as the first record's.
    """
    labels, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                where = f"{path} line {number}"
                try:
                    record = json.loads(line)
                    kind, first, second = _KIND_CODES[record["kind"]], record["y_dot"], record["y_ddot"]
                    ids, row = record["source_ids"], np.array(record["input"])
                except (ValueError, KeyError, TypeError) as exc:
                    raise DataError(f"{where} is not a JSON dataset record: {exc!r}") from exc
                implied = [first, second] if kind == MORPH else [first]
                if ids != implied or not all(type(v) is int for v in (first, second, *ids)):
                    raise DataError(f"{where}: labels must be JSON integers and source ids {implied}, got {ids!r}")
                if first not in INT64 or second not in INT64:
                    raise DataError(f"{where}: labels ({first}, {second}) do not fit in a 64-bit integer")
                if row.ndim != 1 or row.dtype.kind not in "fiu" or (rows and row.size != rows[0].size):
                    raise DataError(f"{where}: input is not a list of JSON numbers as long as the first record's")
                labels.append((number, kind, first, second))
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    line_numbers, kinds, firsts, seconds = np.array(labels, dtype=np.int64).reshape(-1, 4).T
    inputs = np.array(rows, dtype=np.float64).reshape(len(rows), rows[0].size if rows else 0)
    finite = np.isfinite(inputs).all(axis=1)
    if not finite.all():
        raise DataError(f"{path} line {line_numbers[np.argmin(finite)]}: input has non-finite values")
    return SampleSet(inputs, firsts, seconds, kinds)


_PROTOCOL_KEYS = ("identity_a", "identity_b", "sample_a", "sample_b", "subset_a", "subset_b")


def save_protocol(protocol: MorphPairProtocol, universe: IdentityUniverse, path):
    """Write the pairing protocol as a JSON array with subset annotations."""
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def load_protocol(path) -> MorphPairProtocol:
    """Read save_protocol's file: JSON integer fields that fit in 64
    bits, each pair running subset 1 -> 2, each identity in one subset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from exc
    try:
        rows = [tuple(r[key] for key in _PROTOCOL_KEYS) for r in records]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed protocol file {path}") from exc
    pairs, subset_of = [], {}
    for number, (*fields, subset_a, subset_b) in enumerate(rows):
        if not all(type(v) is int for v in (*fields, subset_a, subset_b)):
            raise DataError(f"{path}: pair {number} has a field that is not a JSON integer")
        if not all(v in INT64 for v in fields):
            raise DataError(f"{path}: pair {number} has a field that does not fit in a 64-bit integer")
        pair = MorphPair(*fields)
        if (subset_a, subset_b) != (1, 2):
            raise ProtocolError(f"{path}: pair {pair} runs subset {subset_a} -> {subset_b}, not 1 -> 2")
        for identity, subset in ((pair.identity_a, 1), (pair.identity_b, 2)):
            if subset_of.setdefault(identity, subset) != subset:
                raise ProtocolError(f"{path}: identity {identity} is listed in both subsets")
        pairs.append(pair)
    return MorphPairProtocol(tuple(pairs))
