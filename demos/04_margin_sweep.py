"""Margin-balance sweep: how the morph margin offset moves the metrics.

Trains one model per offset from identical seeds and data, then tabulates
morph robustness (MMPMR at fixed FNMR, minimum RMMR) next to plain
verification quality. Offsets below zero soften the pull on morph
samples; large positive offsets destabilize training, which is why the
sweep's interesting region sits around small negative values.
"""

from morphguard.experiment import ExperimentConfig, run_sweep

config = ExperimentConfig.from_dict(
    {
        "seed": 1,
        "data": {"num_classes": 16, "samples_per_class": 30, "input_dim": 48, "spread": 0.15},
        "model": {"hidden_dims": [48], "embedding_dim": 24},
        "train": {"epochs": 12, "lr_start": 3e-2, "lr_end": 1e-4, "batch_size": 128},
        "margin": {"scale": 16.0, "bona_fide_margin": 0.5},
        "sweep_grid": [0.1, 0.05, 0.0, -0.05, -0.1, -0.2],
        "eval": {"genuine_pairs": 1000, "impostor_pairs": 1000},
    }
)

results = run_sweep(config)

header = f"{'offset':>7} | {'MMPMR@1%':>9} {'MMPMR@0.1%':>11} | {'FNMR@FMR=1e-3':>14} | {'min RMMR':>9} | {'ellipse S':>9}"
print(header)
print("-" * len(header))
for offset, history, report in results:
    row = (
        f"{offset:+7.2f} | "
        f"{report.point('mmpmr_at_fnmr', 0.01).value:9.4f} "
        f"{report.point('mmpmr_at_fnmr', 0.001).value:11.4f} | "
        f"{report.point('fnmr_at_fmr', 0.001).value:14.4f} | "
        f"{report.min_rmmr_value:9.4f} | "
        f"{report.ellipse.size:9.4f}"
    )
    print(row)
print("\n(final mean training losses:",
      ", ".join(f"{off:+.2f}: {h.epoch_mean_loss[-1]:.2f}" for off, h, _ in results) + ")")
