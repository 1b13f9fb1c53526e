"""Experiment driver: dataset bundles, training regimes, evaluation.

This module owns the JSON experiment config and the end-to-end recipes
the CLI exposes (data generation, margin sweeps, two-stage adaptation,
evaluation, feature analysis). Every recipe is a pure function of
(config, seed, input artifacts); all numbers in emitted reports are
produced by the library modules, never recomputed here.

Evaluation protocol: the last ``holdout_fraction`` of each identity's
bona fide samples (in pool order) are excluded from training. The split
is two arrays of pool rows (holdout_split), derived from the pool and
the config wherever it is needed, so in-process and file-driven
evaluation run one path over one pool. Genuine and impostor
verification pairs are seeded draws from the held-out rows; each
protocol morph is rebuilt from its training-part parents and scored
against one held-out sample of each parent identity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import datagen, featviz, metrics
from .datagen import SampleSet, _bona_fide_labels, _pool_index
from .encoder import _MAX_STEPS, DualHeadModel, TrainConfig, _forward_batch, init_model, train
from .errors import ConfigError, DataError, check_integer, check_real
from .losses import MarginConfig
from .metrics import MorphTrials, OperatingPoint, VerificationSet
from .seeding import STREAM_GENUINE, STREAM_IMPOSTOR, STREAM_TRIALS, distinct_pair, rng_for

# Margin grid of the sweep experiments, positive to negative offsets.
DEFAULT_MARGIN_GRID = (0.1, 0.05, 0.0, -0.05, -0.1, -0.2, -0.3)
# The experiment's margins: scale 16 suits the small backbone (see TrainSettings).
DEFAULT_MARGIN = MarginConfig(scale=16.0)


def _check_array_size(name: str, rows: int, cols: int):
    """Reject a config that sizes a (rows, cols) float64 array numpy cannot create."""
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{name} would be a {rows} x {cols} float64 array, larger than numpy can create")


@dataclass(frozen=True)
class DataSettings:
    num_classes: int = 40
    samples_per_class: int = 50
    input_dim: int = 64
    spread: float = 0.15
    ratios: tuple = (2, 1, 1)
    holdout_fraction: float = 0.2
    alpha: float = 0.5

    def __post_init__(self):
        check_real("holdout_fraction", self.holdout_fraction, 0.0, 1.0)
        datagen.check_alpha(self.alpha)
        datagen.check_synth_settings(self.num_classes, self.samples_per_class, self.input_dim, self.spread)
        num_bona_fides, num_morphs, num_selfmorphs = self.training_rows()
        if num_selfmorphs and num_bona_fides < 2 * self.num_classes:
            raise ConfigError(f"ratios {self.ratios} need selfmorphs but each identity keeps 1 training sample")
        if num_morphs < featviz.MIN_ELLIPSE_POINTS:
            raise ConfigError(f"ratios {self.ratios} give {num_morphs} morph trials, fewer than {featviz.MIN_ELLIPSE_POINTS}")
        # split_identities halves the (even) identity count, so the training rows, into the two subsets.
        capacity = (num_bona_fides // 2) ** 2
        if num_morphs > capacity:
            raise ConfigError(
                f"ratios {self.ratios} need {num_morphs} morphs but only {capacity} distinct cross-subset pairs exist"
            )
        _check_array_size("the bona fide pool", self.num_classes * self.samples_per_class, self.input_dim)
        _check_array_size("the training set", num_bona_fides + num_morphs + num_selfmorphs, self.input_dim)

    def training_rows(self) -> tuple[int, int, int]:
        """The training set's rows of each kind: (bona fides, morphs, selfmorphs)."""
        num_train = self.samples_per_class - _held_out_per_identity(self.samples_per_class, self.holdout_fraction)
        return (self.num_classes * num_train, *datagen.mix_counts(self.num_classes * num_train, self.ratios))


@dataclass(frozen=True)
class ModelSettings:
    hidden_dims: tuple = (64,)
    embedding_dim: int = 32

    def __post_init__(self):
        for width in self.hidden_dims:
            check_integer("hidden_dims entry", width, 1)
        check_integer("embedding_dim", self.embedding_dim, 2)
        if self.embedding_dim % 2:
            raise ConfigError(f"embedding_dim must be even for the 2D feature projection, got {self.embedding_dim}")


@dataclass(frozen=True)
class TrainSettings:
    """From-scratch regime for sweep/train runs.

    The rates are scaled to the small MLP backbone: schedules around
    1e-3 (appropriate for large convolutional backbones) leave it far
    from convergence. Scale 16 with this schedule does not always stay
    clear of the degenerate attractor that the angle clamp admits: at
    seeds 4 and 7 the default run ends with every pair of head-1 rows
    above cosine 0.9 (README "Default configuration notes").
    """

    epochs: int = 15
    lr_start: float = 3e-2
    lr_end: float = 1e-4
    batch_size: int = 128


@dataclass(frozen=True)
class EvalSettings:
    fnmr_targets: tuple = (0.01, 0.001)
    fmr_targets: tuple = (0.001, 0.0001)
    genuine_pairs: int = 2000
    impostor_pairs: int = 2000

    def __post_init__(self):
        for name in ("genuine_pairs", "impostor_pairs"):
            check_integer(name, getattr(self, name), 1)
        for kind, targets in (("FNMR", self.fnmr_targets), ("FMR", self.fmr_targets)):
            for target in targets:
                metrics.check_target(kind, target)


@dataclass(frozen=True)
class AdaptSettings:
    """The two-stage regime: bona-fide pretraining, then morph adaptation.

    Epoch counts, the zero/negative margin offsets, and the one-decade
    drop from the stage-1 to the stage-2 learning rate follow the
    two-stage recipe; the absolute rates are rescaled for the MLP
    backbone like TrainSettings.
    """

    stage1_epochs: int = 15
    stage1_lr_start: float = 3e-2
    stage1_lr_end: float = 1e-4
    stage2_epochs: int = 10
    stage2_lr_start: float = 3e-3
    stage2_lr_end: float = 1e-4
    stage2_morph_offset: float = -0.1


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1
    data: DataSettings = field(default_factory=DataSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    margin: MarginConfig = DEFAULT_MARGIN
    sweep_grid: tuple = DEFAULT_MARGIN_GRID
    eval: EvalSettings = field(default_factory=EvalSettings)
    adapt: AdaptSettings = field(default_factory=AdaptSettings)

    def __post_init__(self):
        # Every regime a recipe trains under, and every setting its evaluation
        # reads, is checked here, so a bad value fails before any model trains.
        if len(self.sweep_grid) == 0:
            raise ConfigError("sweep needs a nonempty margin grid")
        train_config(self)
        for offset in self.sweep_grid:
            train_config(self, morph_offset=offset)
        names = [sweep_dir_name(offset) for offset in self.sweep_grid]
        if len(set(names)) < len(names):
            raise ConfigError(f"sweep offsets {self.sweep_grid} share output directories: {names}")
        rows = self.data.training_rows()
        # The step counts of train (so of each sweep entry) and adapt's two stages.
        for regime, num_rows in zip((train_config(self), *adaptation_configs(self)), (sum(rows), rows[0], sum(rows))):
            if (steps := regime.epochs * -(-num_rows // regime.batch_size)) > _MAX_STEPS:
                raise ConfigError(f"a training regime of {steps} steps exceeds {_MAX_STEPS}, the most one run may take")
        widths = [self.data.input_dim, *self.model.hidden_dims, self.model.embedding_dim]
        for fan_in, fan_out in zip(widths, widths[1:]):
            _check_array_size("a layer's weights", fan_out, fan_in)
        _check_array_size("each head", self.data.num_classes, self.model.embedding_dim)
        for name in ("genuine_pairs", "impostor_pairs"):
            _check_array_size(f"the {name} embeddings", getattr(self.eval, name), self.model.embedding_dim)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The default config with raw's values: each section on top of the
        default's own, a list read as a tuple wherever the default holds one."""
        try:
            return _override(cls(), raw)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"unknown, missing or mistyped config field: {exc}") from exc


def _override(default, raw, name: str | None = None):
    """default (a config dataclass or one of its fields) with raw's values."""
    if not dataclasses.is_dataclass(default):
        return tuple(raw) if isinstance(default, tuple) else raw
    if not isinstance(raw, dict):
        what = "config" if name is None else f"config section {name!r}"
        raise ConfigError(f"{what} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(default)})
    if unknown:
        key = unknown[0] if name is None else f"{name}.{unknown[0]}"
        raise ConfigError(f"unknown config key {key!r}")
    fields = {key: _override(getattr(default, key), value, key) for key, value in raw.items()}
    return dataclasses.replace(default, **fields)


# --- data bundle ------------------------------------------------------------


@dataclass
class DataBundle:
    """Everything one experiment run derives from (config, seed).

    A bundle holds what evaluation reads: the bona fide pool, the one
    store of bona fide inputs, the protocol and the training rows. The
    training set is not held: train_set builds it from the pool, the
    protocol and the config the bundle was generated from, on each read.
    Evaluation re-derives the train/holdout split from the pool and the
    config (holdout_split). File-driven evaluation builds a bundle from
    the loaded pool and protocol, without the universe (the protocol
    already carries the subset orientation), the config or a training set.
    """

    universe: datagen.IdentityUniverse | None
    bona_fides: SampleSet  # the full pool
    protocol: datagen.MorphPairProtocol
    train_rows: np.ndarray | None = None  # holdout_split's training rows of the pool
    config: ExperimentConfig | None = None  # the config the bundle was generated from

    @property
    def train_set(self) -> SampleSet | None:
        """The whole training set, built anew on each read as one array
        (None without a config): the training rows in split order, then
        the protocol morphs, then the selfmorphs. Every read blends the
        same rows from the same seeded draws, so gives the same bytes.
        Passed straight to train, it lives only as long as the call."""
        if self.config is None:
            return None
        data = self.config.data
        return datagen.build_training_set(
            self.universe, self.bona_fides, self.train_rows, self.protocol,
            ratios=data.ratios, seed=self.config.seed, alpha=data.alpha,
        )


def _held_out_per_identity(samples_per_class: int, fraction: float) -> int:
    """At least 1 training sample and the 2 held-out samples a genuine pair needs."""
    num_hold = max(1, int(round(samples_per_class * fraction)))
    if not (2 <= num_hold < samples_per_class):
        raise ConfigError(
            f"holdout fraction {fraction} holds out {num_hold} of {samples_per_class} samples per "
            "identity; verification needs >= 2 held out and training >= 1 kept"
        )
    return num_hold


def holdout_split(bona_fides: SampleSet, samples_per_class: int, fraction: float):
    """(train_rows, held_rows): pool rows of a split of samples_per_class per identity.

    Each identity's last samples in pool order are held out. Both arrays
    run identity-major, ascending, each identity's rows in pool order,
    so the pool's record order across identities does not matter.
    """
    num_train = samples_per_class - _held_out_per_identity(samples_per_class, fraction)
    order, identities, counts, _ = _pool_index(_bona_fide_labels(bona_fides))
    uneven = np.flatnonzero(counts != samples_per_class)
    if uneven.size:
        k = uneven[0]
        raise DataError(f"identity {identities[k]} has {counts[k]} samples, not {samples_per_class}")
    kept = np.arange(order.size) % samples_per_class < num_train
    return order[kept], order[~kept]


def generate_bundle(config: ExperimentConfig) -> DataBundle:
    data = config.data
    universe, bona_fides = datagen.synth_identities(
        data.num_classes, data.samples_per_class, data.input_dim, data.spread, config.seed
    )
    train_rows, _ = holdout_split(bona_fides, data.samples_per_class, data.holdout_fraction)
    num_morphs, _ = datagen.mix_counts(len(train_rows), data.ratios)
    # pair_protocol reads only labels, so the training rows go in with zero-width inputs.
    labels_only = dataclasses.replace(bona_fides, inputs=bona_fides.inputs[:, :0])
    protocol = datagen.pair_protocol(universe, labels_only[train_rows], num_morphs, config.seed)
    return DataBundle(universe, bona_fides, protocol, train_rows, config)


def fresh_model(config: ExperimentConfig) -> DualHeadModel:
    data, model = config.data, config.model
    return init_model(data.input_dim, list(model.hidden_dims), model.embedding_dim, data.num_classes, config.seed)


def train_config(config: ExperimentConfig, morph_offset=None, epochs=None, lr_start=None, lr_end=None) -> TrainConfig:
    margin = config.margin if morph_offset is None else dataclasses.replace(config.margin, morph_offset=morph_offset)
    return TrainConfig(
        epochs=config.train.epochs if epochs is None else epochs,
        lr_start=config.train.lr_start if lr_start is None else lr_start,
        lr_end=config.train.lr_end if lr_end is None else lr_end,
        batch_size=config.train.batch_size,
        seed=config.seed,
        margin=margin,
    )


def sweep_dir_name(offset: float) -> str:
    """The sweep-margins subdirectory of one grid offset."""
    return f"margin_{offset:+.3f}"


def adaptation_configs(config: ExperimentConfig) -> tuple[TrainConfig, TrainConfig]:
    """Stage-1 (bona fide, no morph offset) and stage-2 (adaptation) regimes."""
    a = config.adapt
    return (
        train_config(config, 0.0, a.stage1_epochs, a.stage1_lr_start, a.stage1_lr_end),
        train_config(config, a.stage2_morph_offset, a.stage2_epochs, a.stage2_lr_start, a.stage2_lr_end),
    )


# --- evaluation -------------------------------------------------------------


# Rows per evaluation forward block (see _blocks); every desk-scale batch is one block.
_BLOCK_ROWS = 1024


def _blocks(n: int) -> list[slice]:
    """Slices tiling [0, n) in order: max(1, n // _BLOCK_ROWS) blocks of
    nearly equal size, so none is smaller than _BLOCK_ROWS rows unless n is.

    OpenBLAS picks its kernel by a GEMM's shape, so a block of a few rows
    (a GEMV at one row) could move an embedding's last bit. Measured on the
    SkylakeX kernel, blocks this large give each row the bytes one batch of
    all n rows gives it; on Haswell they do not (README "Scope of the bytes").
    """
    count = max(1, n // _BLOCK_ROWS)
    bounds = [n * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def embed_holdout(model: DualHeadModel, pool: SampleSet, held_rows: np.ndarray) -> np.ndarray:
    """The (C, h, E) held-out embeddings of _trial_rows' (C, h) grid of pool rows.

    Row k of the grid holds the k-th identity's (ascending) h held-out
    rows in pool order. The grid is forwarded in row-major order, one
    block (_blocks) at a time, each block gathered from the pool as it
    is embedded.
    """
    rows = held_rows.ravel()
    embeddings = np.empty((len(rows), model.embedding_dim))
    for block in _blocks(len(rows)):
        embeddings[block] = _forward_batch(model, pool.inputs[rows[block]])[0]
    return embeddings.reshape(*held_rows.shape, model.embedding_dim)


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clipped row-wise dot products, each the same vector.vector product as a @ b."""
    return np.clip((a[..., None, :] @ b[..., :, None])[..., 0, 0], -1.0, 1.0)


def verification_scores(held: np.ndarray, settings: EvalSettings, seed: int) -> VerificationSet:
    """Seeded genuine/impostor cosine scores over embed_holdout's (C, h, E) grid.

    Genuine pairs are an identity, then two distinct of its samples;
    impostor pairs are two distinct identities, then one sample of each.
    Every draw is one whole-array call, documented in the README.
    """
    num_ids, num_held = held.shape[:2]
    if num_ids < 2 or num_held < 2:
        raise ConfigError("verification needs >= 2 held-out samples for >= 2 identities")

    rng = rng_for(seed, STREAM_GENUINE)
    who = rng.integers(num_ids, size=settings.genuine_pairs)
    i, j = distinct_pair(rng, num_held, settings.genuine_pairs)
    genuine = _cosines(held[who, i], held[who, j])

    rng = rng_for(seed, STREAM_IMPOSTOR)
    a, b = distinct_pair(rng, num_ids, settings.impostor_pairs)
    sample_a = rng.integers(num_held, size=settings.impostor_pairs)
    sample_b = rng.integers(num_held, size=settings.impostor_pairs)
    impostor = _cosines(held[a, sample_a], held[b, sample_b])
    return VerificationSet(genuine, impostor)


def trial_features(
    model: DualHeadModel, inputs: np.ndarray, rows: np.ndarray, parents: np.ndarray, alpha: float, probes=None
):
    """The trial pass: (triplets, scores), the (T, 3, 2) featviz.project_2d
    points of every trial triplet and, given probes, the (T, 2) scores of
    each morph against its two probes (None without).

    inputs are the pool's (N, D) rows, rows the pool rows the protocol
    pairs (in evaluation the training part's) and parents the (T, 2)
    positions in rows of each pair's parents (datagen.protocol_parents).
    probes is (held, who, picks): embed_holdout's (C, h, E) grid and the
    (T, 2) identity rows and sample columns of it that morph_trials
    drew. The distinct parents are embedded in ascending position order,
    keeping only their 2-D points, gathered per pair. The T morphs go in
    pair order, one block (_blocks) at a time: blended into one reused
    buffer as build_training_set blends them, embedded, projected and
    scored against both probes at once. So no (T, E) array and no
    full-size gather or hidden activation exists. Each triplet runs
    (parent_a, parent_b, morph), the layout featviz.morph_spread aligns
    as it is.
    """
    datagen.check_alpha(alpha)
    distinct, inverse = np.unique(parents, return_inverse=True)
    points = np.empty((len(distinct), 2))
    for block in _blocks(len(distinct)):
        # Each gathered block is a temporary, which the forward pass frees once layer 0 has read it.
        points[block] = featviz.project_2d(_forward_batch(model, inputs[rows[distinct[block]]])[0])
    triplets = np.empty((len(parents), 3, 2))
    triplets[:, :2] = points[inverse.reshape(parents.shape)]
    scores = None
    if probes is not None:
        held, who, picks = probes
        scores = np.empty(parents.shape)
    blocks = _blocks(len(parents))
    buffer = np.empty((max(block.stop - block.start for block in blocks), inputs.shape[1]))
    for block in blocks:
        pairs = rows[parents[block]]
        morphs = _forward_batch(model, datagen._blend(inputs, pairs, alpha, buffer[: len(pairs)]))[0]
        triplets[block, 2] = featviz.project_2d(morphs)
        if probes is not None:
            scores[block] = _cosines(morphs[:, None, :], held[who[block], picks[block]])
        del morphs  # so the next block's forward pass does not run beside this block's embeddings
    return triplets, scores


def morph_trials(
    model: DualHeadModel, inputs: np.ndarray, rows: np.ndarray, parents: np.ndarray, alpha: float, held, seed: int
):
    """(trials, triplets): each protocol morph scored against one held-out
    sample per parent, and the trial pass's (T, 3, 2) triplet points.

    held is embed_holdout's (C, h, E) grid; model, inputs, rows, parents
    and alpha are trial_features'. rows hold len(rows) // C training rows
    per identity, identities in the grid's order, so a parent's position
    in rows names its identity's grid row. The (T, 2) probe columns are
    one integers(h, size=(T, 2)) draw, which consumes the stream pair by
    pair, parent a before parent b; the one trial pass then scores each
    block of morphs against its probes.
    """
    who = parents // (len(rows) // len(held))
    picks = rng_for(seed, STREAM_TRIALS).integers(held.shape[1], size=parents.shape)
    triplets, scores = trial_features(model, inputs, rows, parents, alpha, (held, who, picks))
    return MorphTrials(scores), triplets


@dataclass
class EvalReport:
    """All metric artifacts of one model on one bundle; feature_analysis gives the aligned points."""

    verification: VerificationSet
    trials: MorphTrials
    fnmr_curve: metrics.ThresholdCurve
    fmr_curve: metrics.ThresholdCurve
    mmpmr_curve: metrics.ThresholdCurve
    operating_points: list
    ellipse: featviz.Ellipse

    @property
    def min_rmmr_threshold(self) -> float:
        """The min_rmmr operating point's threshold."""
        return self.point("min_rmmr").threshold

    @property
    def min_rmmr_value(self) -> float:
        """The min_rmmr operating point's value."""
        return self.point("min_rmmr").value

    def point(self, metric: str, target: float | None = None) -> OperatingPoint:
        for p in self.operating_points:
            if p.metric == metric and (target is None or p.target == target):
                return p
        raise KeyError(f"no operating point {metric} @ {target}")


def _trial_rows(pool: SampleSet, columns: np.ndarray, config: ExperimentConfig):
    """(train_rows, held_rows, parents): the pool's split, the held-out rows
    as the (C, h) grid holdout_split guarantees, and the positions in
    train_rows of each protocol pair's parents (datagen.protocol_parents)."""
    data = config.data
    train_rows, held_rows = holdout_split(pool, data.samples_per_class, data.holdout_fraction)
    held_rows = held_rows.reshape(-1, _held_out_per_identity(data.samples_per_class, data.holdout_fraction))
    return train_rows, held_rows, datagen.protocol_parents(pool, train_rows, columns)


def evaluate_model(model: DualHeadModel, bundle: DataBundle, config: ExperimentConfig) -> EvalReport:
    """Score a model on a bundle's pool and protocol; the split comes from the config.

    It runs the split, the held-out embeddings, the verification
    scores, then morph_trials: the probe draw and one trial pass. Every
    forward pass runs in blocks (_blocks), so beside the (C, h, E)
    held-out embeddings its working set is a few blocks, whatever the
    pool's size. Every operating point, min-RMMR included, is read off
    the FNMR, FMR and MMPMR curves it builds once each.
    """
    pool, columns = bundle.bona_fides, bundle.protocol.columns
    train_rows, held_rows, parents = _trial_rows(pool, columns, config)
    held = embed_holdout(model, pool, held_rows)
    verification = verification_scores(held, config.eval, config.seed)
    trials, triplets = morph_trials(model, pool.inputs, train_rows, parents, config.data.alpha, held, config.seed)
    fnmr_curve, fmr_curve = metrics.fnmr_fmr_curves(verification)
    match_curve = metrics.mmpmr_curve(trials, fnmr_curve.thresholds)
    points = metrics.mmpmr_at_fnmr(match_curve, fnmr_curve, config.eval.fnmr_targets)
    points += metrics.fnmr_at_fmr(fnmr_curve, fmr_curve, config.eval.fmr_targets)
    points.append(OperatingPoint("min_rmmr", None, None, *metrics.min_rmmr(trials, fnmr_curve)))

    _, ellipse = featviz.morph_spread(triplets)
    points.append(OperatingPoint("morph_spread", None, None, None, ellipse.size))
    return EvalReport(
        verification=verification,
        trials=trials,
        fnmr_curve=fnmr_curve,
        fmr_curve=fmr_curve,
        mmpmr_curve=match_curve,
        operating_points=points,
        ellipse=ellipse,
    )


# --- recipes ----------------------------------------------------------------


def feature_analysis(model: DualHeadModel, bona_fides, protocol, config: ExperimentConfig):
    """Aligned per-role points plus the morph-cloud ellipse for reports:
    evaluate_model's trial pass, without probes."""
    train_rows, _, parents = _trial_rows(bona_fides, protocol.columns, config)
    triplets, _ = trial_features(model, bona_fides.inputs, train_rows, parents, config.data.alpha)
    return featviz.morph_spread(triplets)


def run_margin_entry(config: ExperimentConfig, morph_offset: float):
    """Train a fresh model at one sweep offset and evaluate it."""
    bundle = generate_bundle(config)
    model = fresh_model(config)
    model, history = train(model, bundle.train_set, train_config(config, morph_offset=morph_offset))
    report = evaluate_model(model, bundle, config)
    return model, history, report


def _sweep_worker(config: ExperimentConfig, morph_offset: float):
    _, history, report = run_margin_entry(config, morph_offset)
    return morph_offset, history, report


def run_sweep(config: ExperimentConfig):
    """One (offset, history, report) per grid offset, in grid order."""
    return [_sweep_worker(config, offset) for offset in config.sweep_grid]


def run_adaptation(config: ExperimentConfig, pretrained: DualHeadModel | None = None):
    """The two-stage regime; returns ((stage1 model, history, report),
    (stage2 model, history, report)) on the shared bundle.

    Stage 1 trains on bona fide data only with no morph offset; stage 2
    continues from it on the morph-augmented set with the adaptation
    offset and learning rates.
    """
    bundle = generate_bundle(config)
    stage1_config, stage2_config = adaptation_configs(config)

    if pretrained is None:
        stage1_set = bundle.bona_fides[bundle.train_rows]
        stage1_model, stage1_history = train(fresh_model(config), stage1_set, stage1_config)
    else:
        stage1_model, stage1_history = pretrained, None
    stage1_report = evaluate_model(stage1_model, bundle, config)

    stage2_model, stage2_history = train(stage1_model.copy(), bundle.train_set, stage2_config)
    stage2_report = evaluate_model(stage2_model, bundle, config)
    return (stage1_model, stage1_history, stage1_report), (stage2_model, stage2_history, stage2_report)
