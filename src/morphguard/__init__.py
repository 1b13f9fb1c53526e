"""Dual-branch margin-softmax training lab.

Library surface: loss functions and gradients (losses), the MLP
encoder/trainer and checkpoint format (encoder), synthetic identities
and the morph pairing protocol (datagen), verification and morph
robustness metrics (metrics), feature-distribution analysis (featviz),
and the experiment driver behind the CLI (experiment, cli).
"""

from .losses import (
    LabelPair,
    MarginConfig,
    MorphGuardResult,
    SampleKind,
    morphguard_loss_arrays,
)
from .encoder import (
    DualHeadModel,
    TrainConfig,
    TrainHistory,
    batch_gradients,
    init_model,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train,
)
from .datagen import (
    IdentityUniverse,
    MorphPair,
    MorphPairProtocol,
    Sample,
    SampleSet,
    build_training_set,
    load_dataset,
    load_protocol,
    pair_protocol,
    protocol_parents,
    save_dataset,
    save_protocol,
    split_identities,
    synth_identities,
    training_samples,
)
from .metrics import (
    FROM_ABOVE,
    FROM_BELOW,
    MorphTrial,
    MorphTrials,
    OperatingPoint,
    ThresholdCurve,
    VerificationSet,
    fnmr_at_fmr,
    fnmr_fmr_curves,
    min_rmmr,
    mmpmr,
    mmpmr_at_fnmr,
    mmpmr_curve,
    rmmr,
    threshold_at,
)
from .featviz import (
    Ellipse,
    RigidTransform,
    align_feature_triplets,
    aligned_spread,
    chi2_quantile_2dof,
    confidence_ellipse,
    fit_rigid,
    project_2d,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.5.0"
