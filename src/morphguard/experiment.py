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
from .encoder import DualHeadModel, TrainConfig, _forward_batch, init_model, train
from .errors import ConfigError, DataError, check_integer, check_real
from .losses import MarginConfig
from .metrics import MorphTrials, OperatingPoint, VerificationSet
from .seeding import STREAM_GENUINE, STREAM_IMPOSTOR, STREAM_TRIALS, rng_for

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
        num_train = self.samples_per_class - _held_out_per_identity(self.samples_per_class, self.holdout_fraction)
        num_morphs, num_selfmorphs = datagen.mix_counts(self.num_classes * num_train, self.ratios)
        if num_selfmorphs and num_train < 2:
            raise ConfigError(f"ratios {self.ratios} need selfmorphs but each identity keeps 1 training sample")
        if num_morphs < featviz.MIN_ELLIPSE_POINTS:
            raise ConfigError(f"ratios {self.ratios} give {num_morphs} morph trials, fewer than {featviz.MIN_ELLIPSE_POINTS}")
        # split_identities halves the (even) identity count into the two subsets.
        capacity = (self.num_classes // 2 * num_train) ** 2
        if num_morphs > capacity:
            raise ConfigError(
                f"ratios {self.ratios} need {num_morphs} morphs but only {capacity} distinct cross-subset pairs exist"
            )
        _check_array_size("the bona fide pool", self.num_classes * self.samples_per_class, self.input_dim)
        num_rows = self.num_classes * num_train + num_morphs + num_selfmorphs
        _check_array_size("the training set", num_rows, self.input_dim)


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
        adaptation_configs(self)
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

    The bona fide pool is the one store of bona fide inputs. The training
    set is the pool's training rows followed by the blended morph and
    selfmorph block, and train_set joins the two only when it is read.
    Evaluation re-derives the train/holdout split from the pool and the
    config (holdout_split). File-driven evaluation builds a bundle from
    the loaded pool and protocol, without the universe (the protocol
    already carries the subset orientation) and without a training set.
    """

    universe: datagen.IdentityUniverse | None
    bona_fides: SampleSet  # the full pool
    protocol: datagen.MorphPairProtocol
    train_rows: np.ndarray | None = None  # holdout_split's training rows of the pool
    blends: SampleSet | None = None  # protocol morphs, then selfmorphs

    @property
    def train_set(self) -> SampleSet | None:
        """The whole training set, built anew on each read (None without
        one): the training rows in split order, then the blends. Passed
        straight to train, its (N, D) inputs live only as long as the call."""
        if self.blends is None:
            return None
        return datagen.training_samples(self.bona_fides, self.train_rows, self.blends)


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
    protocol = datagen.pair_protocol(universe, bona_fides[train_rows], num_morphs, config.seed)
    blends = datagen.build_training_set(
        universe, bona_fides, train_rows, protocol, ratios=data.ratios, seed=config.seed, alpha=data.alpha
    )
    return DataBundle(universe, bona_fides, protocol, train_rows, blends)


def fresh_model(config: ExperimentConfig) -> DualHeadModel:
    return init_model(
        config.data.input_dim,
        list(config.model.hidden_dims),
        config.model.embedding_dim,
        config.data.num_classes,
        config.seed,
    )


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


def embed_holdout(model: DualHeadModel, pool: SampleSet, held_rows: np.ndarray):
    """Held-out embeddings stacked by identity, ascending, in one forward batch.

    held_rows are holdout_split's identity-major pool rows, forwarded in
    that order. Returns (embeddings, counts, offsets, identities): rows
    offsets[k] to offsets[k] + counts[k] of embeddings embed
    identities[k]'s held-out samples, in pool order.
    """
    identities, counts = np.unique(pool.first[held_rows], return_counts=True)
    embeddings = _forward_batch(model, pool.inputs[held_rows])[0]
    return embeddings, counts, np.cumsum(counts) - counts, identities


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clipped row-wise dot products, each the same vector.vector product as a @ b."""
    return np.clip((a[..., None, :] @ b[..., :, None])[..., 0, 0], -1.0, 1.0)


def verification_scores(held, settings: EvalSettings, seed: int) -> VerificationSet:
    """Seeded genuine/impostor cosine scores over embed_holdout's embeddings.

    Genuine pairs are an identity, then two distinct of its samples;
    impostor pairs are two distinct identities, then one sample of each.
    Every draw is one whole-array call, documented in the README.
    """
    pool, counts, offsets, identities = held
    num_ids = len(identities)
    if num_ids < 2 or counts.min() < 2:
        raise ConfigError("verification needs >= 2 held-out samples for >= 2 identities")

    rng = rng_for(seed, STREAM_GENUINE)
    who = rng.integers(num_ids, size=settings.genuine_pairs)
    i = rng.integers(counts[who])
    j = rng.integers(counts[who] - 1)
    j += j >= i
    genuine = _cosines(pool[offsets[who] + i], pool[offsets[who] + j])

    rng = rng_for(seed, STREAM_IMPOSTOR)
    a = rng.integers(num_ids, size=settings.impostor_pairs)
    b = rng.integers(num_ids - 1, size=settings.impostor_pairs)
    b += b >= a
    sample_a = rng.integers(counts[a])
    sample_b = rng.integers(counts[b])
    impostor = _cosines(pool[offsets[a] + sample_a], pool[offsets[b] + sample_b])
    return VerificationSet(genuine, impostor)


def trial_features(
    model: DualHeadModel, inputs: np.ndarray, rows: np.ndarray, parents: np.ndarray, alpha: float
) -> np.ndarray:
    """(3T, E) embeddings of every trial triplet, each distinct input row embedded once.

    inputs are the pool's (N, D) rows, rows the pool rows the protocol
    pairs (in evaluation the training part's) and parents the (T, 2)
    positions in rows of each pair's parents (datagen.protocol_parents).
    The distinct parents go through one batch in ascending position
    order, the T morphs (blended as build_training_set blends them)
    through another. Rows run (parent_a, parent_b, morph) per pair, the
    layout featviz.aligned_spread reads; rows 2::3 are the morph
    embeddings.
    """
    datagen.check_alpha(alpha)
    distinct, inverse = np.unique(parents, return_inverse=True)
    features = np.empty((len(parents), 3, model.embedding_dim))
    features[:, :2] = _forward_batch(model, inputs[rows[distinct]])[0][inverse.reshape(parents.shape)]
    morphs = datagen._blend(inputs, rows[parents], alpha, np.empty((len(parents), inputs.shape[1])))
    features[:, 2] = _forward_batch(model, morphs)[0]
    return features.reshape(-1, model.embedding_dim)


def morph_trials(morph_embeddings: np.ndarray, held, columns: np.ndarray, seed: int) -> MorphTrials:
    """Score each protocol morph against one held-out sample per parent.

    held is embed_holdout's result and columns the protocol's (T, 4)
    columns. The (T, 2) probe indices are one array-bound integers
    draw, which consumes the stream pair by pair, parent a before
    parent b.
    """
    pool, counts, offsets, identities = held
    named = columns[:, :2]
    parents = np.searchsorted(identities, named)
    if not np.array_equal(np.append(identities, -1)[parents], named):
        raise DataError("a protocol pair names an identity without held-out probes")
    picks = rng_for(seed, STREAM_TRIALS).integers(counts[parents])
    return MorphTrials(_cosines(morph_embeddings[:, None, :], pool[offsets[parents] + picks]))


@dataclass
class EvalReport:
    """All metric artifacts of one model on one bundle."""

    verification: VerificationSet
    trials: MorphTrials
    fnmr_curve: metrics.ThresholdCurve
    fmr_curve: metrics.ThresholdCurve
    mmpmr_curve: metrics.ThresholdCurve
    operating_points: list
    min_rmmr_threshold: float
    min_rmmr_value: float
    aligned_cloud: np.ndarray
    ellipse: featviz.Ellipse

    def point(self, metric: str, target: float | None = None) -> OperatingPoint:
        for p in self.operating_points:
            if p.metric == metric and (target is None or p.target == target):
                return p
        raise KeyError(f"no operating point {metric} @ {target}")


def _trial_step(model: DualHeadModel, pool: SampleSet, columns: np.ndarray, config: ExperimentConfig):
    """(held_rows, trial_features) of one pool: the split, the protocol's
    parents in the training part, and their triplet embeddings."""
    train_rows, held_rows = holdout_split(pool, config.data.samples_per_class, config.data.holdout_fraction)
    parents = datagen.protocol_parents(pool, train_rows, columns)
    return held_rows, trial_features(model, pool.inputs, train_rows, parents, config.data.alpha)


def evaluate_model(model: DualHeadModel, bundle: DataBundle, config: ExperimentConfig) -> EvalReport:
    """Score a model on a bundle's pool and protocol; the split comes from the config."""
    columns = bundle.protocol.columns
    held_rows, features = _trial_step(model, bundle.bona_fides, columns, config)
    held = embed_holdout(model, bundle.bona_fides, held_rows)
    verification = verification_scores(held, config.eval, config.seed)
    trials = morph_trials(features[2::3], held, columns, config.seed)
    fnmr_curve, fmr_curve = metrics.fnmr_fmr_curves(verification)
    match_curve = metrics.mmpmr_curve(trials, fnmr_curve.thresholds)
    tau, value = metrics.min_rmmr(trials, verification)
    points = metrics.mmpmr_at_fnmr(trials, verification, config.eval.fnmr_targets)
    points += metrics.fnmr_at_fmr(verification, config.eval.fmr_targets)
    points.append(OperatingPoint("min_rmmr", None, None, tau, value))

    aligned, ellipse = featviz.aligned_spread(features)
    points.append(OperatingPoint("morph_spread", None, None, None, ellipse.size))
    return EvalReport(
        verification=verification,
        trials=trials,
        fnmr_curve=fnmr_curve,
        fmr_curve=fmr_curve,
        mmpmr_curve=match_curve,
        operating_points=points,
        min_rmmr_threshold=tau,
        min_rmmr_value=value,
        aligned_cloud=aligned[:, 2, :],
        ellipse=ellipse,
    )


# --- recipes ----------------------------------------------------------------


def feature_analysis(model: DualHeadModel, bona_fides, protocol, config: ExperimentConfig):
    """Aligned per-role points plus the morph-cloud ellipse for reports."""
    return featviz.aligned_spread(_trial_step(model, bona_fides, protocol.columns, config)[1])


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
