"""Train a dual-head encoder and benchmark its morph robustness.

Uses a reduced copy of the default setup so it runs in a few seconds:
train on the bona fide / morph / selfmorph set, then score
held-out verification pairs and morph trials, and read off the
operating points (match rate at fixed FNMR, verification FNMR at fixed
FMR, and the minimum of the combined RMMR curve).
"""

import numpy as np

from morphguard.encoder import train
from morphguard.experiment import (
    ExperimentConfig,
    evaluate_model,
    fresh_model,
    generate_bundle,
    holdout_split,
    train_config,
)

config = ExperimentConfig.from_dict(
    {
        "seed": 1,
        "data": {"num_classes": 16, "samples_per_class": 30, "input_dim": 48, "spread": 0.15},
        "model": {"hidden_dims": [48], "embedding_dim": 24},
        "train": {"epochs": 12, "lr_start": 3e-2, "lr_end": 1e-4, "batch_size": 128},
        "margin": {"scale": 16.0, "bona_fide_margin": 0.5, "morph_offset": -0.1},
        "eval": {"genuine_pairs": 1000, "impostor_pairs": 1000},
    }
)

bundle = generate_bundle(config)
# The training set is built on each read of bundle.train_set, so it is read once.
train_set = bundle.train_set
# The split is two arrays of pool rows, re-derived from the pool and the config.
train_rows, held_rows = holdout_split(
    bundle.bona_fides, config.data.samples_per_class, config.data.holdout_fraction
)
print(
    f"dataset: {len(train_set)} training samples "
    f"({len(train_rows)} bona fide, {len(bundle.protocol.columns)} morphs), "
    f"{len(held_rows)} of {len(bundle.bona_fides)} pool samples held out for evaluation"
)

model = fresh_model(config)
model, history = train(model, train_set, train_config(config))
losses = history.epoch_mean_loss
print(f"trained {len(losses)} epochs, mean loss {losses[0]:.2f} -> {losses[-1]:.2f}")

report = evaluate_model(model, bundle, config)
genuine, impostor = report.verification.genuine, report.verification.impostor
print(f"\ngenuine scores:  mean {genuine.mean():+.3f}, 5% quantile {np.quantile(genuine, 0.05):+.3f}")
print(f"impostor scores: mean {impostor.mean():+.3f}, 95% quantile {np.quantile(impostor, 0.95):+.3f}")
mins = report.trials.scores.min(axis=1)
print(f"morph min-scores over both parents: mean {mins.mean():+.3f}")

print("\noperating points:")
for point in report.operating_points:
    target = "" if point.target is None else f" @ {point.target}"
    print(f"  {point.metric}{target}: {point.value:.4f}")
print(f"\nmin RMMR {report.min_rmmr_value:.4f} at threshold {report.min_rmmr_threshold:.4f}")
print(f"morph feature-cloud ellipse size: {report.ellipse.size:.4f}")
