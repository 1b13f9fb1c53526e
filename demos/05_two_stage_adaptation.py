"""Two-stage regime: pretrain on bona fides, then adapt with morphs.

Stage 1 never sees a morph (it is ordinary margin-softmax training on
one label per sample, duplicated across both heads). Stage 2 continues
from that model at a tenth of the learning rate on the morph-augmented
set with a negative morph offset, and typically buys morph robustness
at little verification cost.
"""

from morphguard.experiment import ExperimentConfig, run_adaptation

config = ExperimentConfig.from_dict(
    {
        "seed": 2,
        "data": {"num_classes": 16, "samples_per_class": 30, "input_dim": 48, "spread": 0.15},
        "model": {"hidden_dims": [48], "embedding_dim": 24},
        "train": {"batch_size": 128},
        "margin": {"scale": 16.0, "bona_fide_margin": 0.5},
        "eval": {"genuine_pairs": 1000, "impostor_pairs": 1000},
        "adapt": {
            "stage1_epochs": 12,
            "stage1_lr_start": 3e-2,
            "stage1_lr_end": 1e-4,
            "stage2_epochs": 8,
            "stage2_lr_start": 3e-3,
            "stage2_lr_end": 1e-4,
            "stage2_morph_offset": -0.1,
        },
    }
)

(model1, history1, report1), (model2, history2, report2) = run_adaptation(config)
print(f"stage 1: {len(history1.epoch_mean_loss)} epochs on bona fides only, "
      f"final loss {history1.epoch_mean_loss[-1]:.2f}")
print(f"stage 2: {len(history2.epoch_mean_loss)} epochs on the morph-augmented set "
      f"(offset {config.adapt.stage2_morph_offset}), final loss {history2.epoch_mean_loss[-1]:.2f}")

print(f"\n{'metric':<24} {'stage 1':>9} {'stage 2':>9}")
print("-" * 45)
rows = [
    ("MMPMR @ FNMR=0.01", report1.point("mmpmr_at_fnmr", 0.01).value, report2.point("mmpmr_at_fnmr", 0.01).value),
    ("MMPMR @ FNMR=0.001", report1.point("mmpmr_at_fnmr", 0.001).value, report2.point("mmpmr_at_fnmr", 0.001).value),
    ("FNMR @ FMR=0.001", report1.point("fnmr_at_fmr", 0.001).value, report2.point("fnmr_at_fmr", 0.001).value),
    ("min RMMR", report1.min_rmmr_value, report2.min_rmmr_value),
    ("ellipse size S", report1.ellipse.size, report2.ellipse.size),
]
for name, v1, v2 in rows:
    print(f"{name:<24} {v1:9.4f} {v2:9.4f}")
