"""Dual-branch margin-softmax training lab.

Library surface: the margin loss and its gradients (losses), the MLP
encoder/trainer and checkpoint format (encoder), the sample model,
synthetic identities and the morph pairing protocol (datagen), verification
and morph robustness metrics (metrics), feature-distribution analysis
(featviz), and the experiment recipes behind the CLI (experiment, cli).
"""

from .losses import MarginConfig, MorphGuardResult, morphguard_loss_arrays
from .encoder import (
    DualHeadModel,
    TrainConfig,
    TrainHistory,
    batch_gradients,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .datagen import (
    IdentityUniverse,
    LabelPair,
    MorphPair,
    MorphPairProtocol,
    Sample,
    SampleKind,
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
    CHI2_2DOF_Q90,
    Ellipse,
    align_feature_triplets,
    confidence_ellipse,
    morph_spread,
    project_2d,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.5.0"
