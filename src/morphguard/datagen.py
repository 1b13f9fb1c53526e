"""Synthetic identities, the cross-subset morph pairing protocol, and
morph/selfmorph construction.

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
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, DataError, NumericInputError, ProtocolError
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


@dataclass(frozen=True)
class Sample:
    """One input vector with its label pair and contributing identities."""

    input: np.ndarray
    labels: LabelPair
    source_ids: tuple[int, ...]

    def __post_init__(self):
        if self.labels.kind is SampleKind.MORPH:
            if len(self.source_ids) != 2:
                raise ProtocolError("morph sample needs two source identities")
            if self.source_ids != (self.labels.first_label, self.labels.second_label):
                raise ProtocolError("morph source ids must match the label pair in order")
        else:
            if len(self.source_ids) != 1 or self.source_ids[0] != self.labels.first_label:
                raise ProtocolError(
                    f"{self.labels.kind.value} sample must cite exactly its own identity"
                )


@dataclass(frozen=True)
class IdentityUniverse:
    """The identity prototypes and their two-subset partition."""

    num_classes: int
    prototypes: np.ndarray
    subsets: np.ndarray  # per-identity subset id, 1 or 2
    spread: float
    seed: int

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
    seed: int | None = None


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise NumericInputError("cannot normalize a (near-)zero vector")
    return vec / norm


def _blend(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """The morph and selfmorph input: alpha weights the first vector."""
    return _unit(alpha * a + (1.0 - alpha) * b)


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
    if num_classes < 2 or num_classes % 2 != 0:
        raise ConfigError(f"identity count must be even and >= 2, got {num_classes}")
    if samples_per_class < 2:
        raise ConfigError(f"need at least 2 samples per identity, got {samples_per_class}")
    if input_dim < 2:
        raise ConfigError(f"input dimension must be >= 2, got {input_dim}")
    if not (0 < spread < float("inf")):
        raise ConfigError(f"spread must be positive and finite, got {spread}")


def synth_identities(num_classes: int, samples_per_class: int, input_dim: int, spread: float, seed: int):
    """Draw unit prototypes and renormalized noisy samples around them.

    Returns (universe, bona_fides) with the bona fide list in
    identity-major, sample-minor order; that ordering defines the
    per-identity sample indices the pairing protocol refers to.
    """
    check_synth_settings(num_classes, samples_per_class, input_dim, spread)

    proto_rng = rng_for(seed, STREAM_PROTOTYPES)
    prototypes = proto_rng.standard_normal((num_classes, input_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1)[:, None]
    universe = IdentityUniverse(
        num_classes=num_classes,
        prototypes=prototypes,
        subsets=split_identities(num_classes, seed),
        spread=float(spread),
        seed=int(seed),
    )

    noise_rng = rng_for(seed, STREAM_SAMPLES)
    samples = []
    for identity in range(num_classes):
        for _ in range(samples_per_class):
            vec = _unit(prototypes[identity] + spread * noise_rng.standard_normal(input_dim))
            samples.append(
                Sample(
                    input=vec,
                    labels=LabelPair(identity, identity, SampleKind.BONA_FIDE),
                    source_ids=(identity,),
                )
            )
    return universe, samples


def group_by_identity(samples) -> dict[int, list[Sample]]:
    """Single-identity samples grouped by identity, preserving order."""
    grouped: dict[int, list[Sample]] = {}
    for sample in samples:
        if sample.labels.kind is SampleKind.MORPH:
            raise ProtocolError("morphs cannot serve as pairing-pool samples")
        grouped.setdefault(sample.labels.first_label, []).append(sample)
    return grouped


def pair_protocol(universe: IdentityUniverse, samples, num_morphs: int, seed: int) -> MorphPairProtocol:
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
    grouped = group_by_identity(samples)
    side1 = [(i, k) for i in sorted(grouped) if universe.subsets[i] == 1 for k in range(len(grouped[i]))]
    side2 = [(i, k) for i in sorted(grouped) if universe.subsets[i] == 2 for k in range(len(grouped[i]))]
    if not side1 or not side2:
        raise ConfigError("both subsets need at least one sample to pair across")
    capacity = len(side1) * len(side2)
    if num_morphs > capacity:
        raise CapacityError(
            f"requested {num_morphs} morphs but only {capacity} distinct cross-subset pairs exist"
        )
    chosen = rng_for(seed, STREAM_PAIRS).choice(capacity, size=num_morphs, replace=False)
    pairs = []
    for flat in chosen.tolist():
        ia, ka = side1[flat // len(side2)]
        ib, kb = side2[flat % len(side2)]
        pairs.append(MorphPair(identity_a=ia, identity_b=ib, sample_a=ka, sample_b=kb))
    return MorphPairProtocol(pairs=tuple(pairs), seed=int(seed))


def _single_identity_of(sample: Sample) -> int:
    if sample.labels.kind is SampleKind.MORPH:
        raise ProtocolError("a morph cannot be a blending parent")
    return sample.labels.first_label


def make_morph(universe: IdentityUniverse, sample_a: Sample, sample_b: Sample, alpha: float = 0.5) -> Sample:
    """Blend two cross-subset samples into a morph.

    The label pair is oriented by subset (subset-1 parent first), not
    by argument order; alpha weights the first argument.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    id_a = _single_identity_of(sample_a)
    id_b = _single_identity_of(sample_b)
    sub_a = int(universe.subsets[id_a])
    sub_b = int(universe.subsets[id_b])
    if sub_a == sub_b:
        raise ProtocolError(
            f"identities {id_a} and {id_b} share subset {sub_a}; morphing within a subset "
            "would make the labeling ambiguous"
        )
    blended = _blend(sample_a.input, sample_b.input, alpha)
    first, second = (id_a, id_b) if sub_a == 1 else (id_b, id_a)
    return Sample(
        input=blended,
        labels=LabelPair(first, second, SampleKind.MORPH),
        source_ids=(first, second),
    )


def make_selfmorph(sample_a: Sample, sample_b: Sample) -> Sample:
    """Blend two samples of one identity; labeled as bona fide material."""
    id_a = _single_identity_of(sample_a)
    id_b = _single_identity_of(sample_b)
    if id_a != id_b:
        raise ProtocolError(f"selfmorph parents must share an identity, got {id_a} and {id_b}")
    blended = _blend(sample_a.input, sample_b.input, 0.5)
    return Sample(
        input=blended,
        labels=LabelPair(id_a, id_a, SampleKind.SELF_MORPH),
        source_ids=(id_a,),
    )


def protocol_parents(grouped: dict, pairs) -> list[tuple[Sample, Sample]]:
    """(subset-1, subset-2) parent samples of each pair, from group_by_identity's pool."""
    parents = []
    for pair in pairs:
        pool_a, pool_b = grouped.get(pair.identity_a, ()), grouped.get(pair.identity_b, ())
        if not (0 <= pair.sample_a < len(pool_a) and 0 <= pair.sample_b < len(pool_b)):
            raise CapacityError(f"protocol pair {pair} refers outside the bona fide pool")
        parents.append((pool_a[pair.sample_a], pool_b[pair.sample_b]))
    return parents


def build_training_set(
    universe: IdentityUniverse,
    bona_fides,
    protocol: MorphPairProtocol,
    ratios=(2, 1, 1),
    seed: int = 0,
    alpha: float = 0.5,
):
    """Interleave bona fides, protocol morphs, and random selfmorphs.

    ratios gives bona fide : morph : selfmorph proportions; with the
    default (2, 1, 1) a pool of 2k bona fides yields k morphs and k
    selfmorphs. Morphs consume protocol pairs in order and run out with
    a CapacityError.
    """
    r_bf, r_m, r_s = (float(r) for r in ratios)
    if min(r_bf, r_m, r_s) < 0 or max(r_bf, r_m, r_s) == 0:
        raise ConfigError(f"ratios must be nonnegative and not all zero, got {ratios}")
    grouped = group_by_identity(bona_fides)

    if r_bf > 0:
        unit = len(bona_fides) / r_bf
        kept_bona_fides = list(bona_fides)
    elif r_m > 0:
        unit = len(protocol.pairs) / r_m
        kept_bona_fides = []
    else:
        unit = len(bona_fides) / r_s
        kept_bona_fides = []
    num_morphs = int(round(unit * r_m))
    num_selfmorphs = int(round(unit * r_s))

    if num_morphs > len(protocol.pairs):
        raise CapacityError(
            f"training set needs {num_morphs} morphs but the protocol holds {len(protocol.pairs)}"
        )
    morphs = [
        make_morph(universe, parent_a, parent_b, alpha=alpha)
        for parent_a, parent_b in protocol_parents(grouped, protocol.pairs[:num_morphs])
    ]

    rich = [i for i in sorted(grouped) if len(grouped[i]) >= 2]
    if num_selfmorphs > 0 and not rich:
        raise CapacityError("no identity has two samples to selfmorph")
    self_rng = rng_for(seed, STREAM_SELFMORPH)
    selfmorphs = []
    for _ in range(num_selfmorphs):
        identity = rich[int(self_rng.integers(len(rich)))]
        first, second = self_rng.choice(len(grouped[identity]), size=2, replace=False)
        selfmorphs.append(make_selfmorph(grouped[identity][first], grouped[identity][second]))

    combined = kept_bona_fides + morphs + selfmorphs
    order = rng_for(seed, STREAM_MIX).permutation(len(combined))
    return [combined[i] for i in order]


# --- serialization ---------------------------------------------------------

_KIND_FROM_WIRE = {kind.value: kind for kind in SampleKind}


def _sample_to_record(sample: Sample) -> dict:
    return {
        "kind": sample.labels.kind.value,
        "y_dot": sample.labels.first_label,
        "y_ddot": sample.labels.second_label,
        "source_ids": list(sample.source_ids),
        "input": [float(v) for v in sample.input],
    }


def _sample_from_record(record: dict) -> Sample:
    try:
        kind = _KIND_FROM_WIRE[record["kind"]]
        labels = LabelPair(int(record["y_dot"]), int(record["y_ddot"]), kind)
        return Sample(
            input=np.asarray(record["input"], dtype=np.float64),
            labels=labels,
            source_ids=tuple(int(s) for s in record["source_ids"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed dataset record: {record!r}") from exc


def save_dataset(samples, path):
    """Write samples as line-delimited JSON records."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(_sample_to_record(sample)) + "\n")


def load_dataset(path) -> list[Sample]:
    """Read save_dataset's records; every input must have the first record's shape."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        record = json.loads(line)
                    except ValueError as exc:
                        raise DataError(f"{path} line {number} is not valid JSON: {exc}") from exc
                    sample = _sample_from_record(record)
                    if samples and sample.input.shape != samples[0].input.shape:
                        raise DataError(f"{path} line {number}: input shape {sample.input.shape}, not the first record's")
                    samples.append(sample)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    return samples


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
    """Read save_protocol's file; each pair must run subset 1 -> 2, each identity be in one subset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from exc
    try:
        rows = [tuple(int(r[key]) for key in _PROTOCOL_KEYS) for r in records]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed protocol file {path}") from exc
    pairs, subset_of = [], {}
    for *fields, subset_a, subset_b in rows:
        pair = MorphPair(*fields)
        if (subset_a, subset_b) != (1, 2):
            raise ProtocolError(f"{path}: pair {pair} runs subset {subset_a} -> {subset_b}, not 1 -> 2")
        for identity, subset in ((pair.identity_a, 1), (pair.identity_b, 2)):
            if subset_of.setdefault(identity, subset) != subset:
                raise ProtocolError(f"{path}: identity {identity} is listed in both subsets")
        pairs.append(pair)
    return MorphPairProtocol(pairs=tuple(pairs), seed=None)
