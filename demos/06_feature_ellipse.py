"""Feature-distribution analysis: where do morph embeddings end up?

Each (original A, original B, morph) triplet is projected to 2D by
even/odd index averaging (project_2d) and rigidly aligned so the two
originals sit symmetrically on the diagonal (align_feature_triplets,
on the projected points). Pooling the aligned morph points over all
triplets gives a cloud whose confidence ellipse, always at level 0.9,
summarizes by its size how tightly the model confines morphs. Writes the scatter
plus ellipse to feature_distribution.svg next to this script.
"""

from pathlib import Path

import numpy as np

from morphguard.encoder import train
from morphguard.experiment import (
    ExperimentConfig,
    feature_analysis,
    fresh_model,
    generate_bundle,
    train_config,
)
from morphguard.featviz import align_feature_triplets, confidence_ellipse, project_2d, render_svg

# the projection and alignment on a hand-made triplet first
rng = np.random.default_rng(3)
feat_a, feat_b = rng.normal(size=8), rng.normal(size=8)
triplets = np.array([[feat_a, feat_b, 0.5 * (feat_a + feat_b)]])  # (T, 3, D), here T = 1
print("project_2d averages even/odd entries: [1,2,3,4] ->", project_2d([1.0, 2.0, 3.0, 4.0]))
a2, b2, m2 = align_feature_triplets(project_2d(triplets))[0]
print("aligned originals sit at +-|delta|/2 on the diagonal:", np.round(a2, 4), np.round(b2, 4))
print("a morph exactly midway lands at the origin:", np.round(m2, 12))

# the ellipse machinery on a known cloud: q = -2 ln(1 - 0.9)
cloud = rng.standard_normal((10_000, 2))
ellipse = confidence_ellipse(cloud)
print(f"\nstandard-normal cloud: W={ellipse.width:.3f} H={ellipse.height:.3f} "
      f"S={ellipse.size:.3f}, contains {ellipse.contains(cloud).mean():.3f} of the points")

# now on real trained features
config = ExperimentConfig.from_dict(
    {
        "seed": 4,
        "data": {"num_classes": 16, "samples_per_class": 30, "input_dim": 48, "spread": 0.15},
        "model": {"hidden_dims": [48], "embedding_dim": 24},
        "train": {"epochs": 12, "lr_start": 3e-2, "lr_end": 1e-4, "batch_size": 128},
        "margin": {"scale": 16.0, "morph_offset": -0.1},
    }
)
bundle = generate_bundle(config)
model = fresh_model(config)
model, _ = train(model, bundle.train_set, train_config(config))

aligned, ellipse = feature_analysis(model, bundle.bona_fides, bundle.protocol, config)
print(f"\n{len(aligned)} aligned triplets; morph-cloud ellipse "
      f"W={ellipse.width:.4f} H={ellipse.height:.4f} S={ellipse.size:.4f} "
      f"orientation={ellipse.orientation:+.3f} rad")

root = Path(__file__).resolve().parents[1]
out = root / "demos" / "feature_distribution.svg"
render_svg(aligned, ellipse, out)
print("scatter with ellipse written to", out.relative_to(root))
