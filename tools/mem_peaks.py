"""Print the tracemalloc peaks of one wide-tier bundle's build, training-set read, evaluation and pool-file read.

At seed 1 and dims 128/256/128 (the benchmark's wide tier) with N
identities of 50 samples each, it runs `experiment.generate_bundle`,
reads the bundle's `train_set` once and drops it, then runs
`experiment.evaluate_model` with an untrained model, writes the
bundle's pool with `datagen.save_dataset` (untraced) and reads it back
with `datagen.load_dataset`, and prints five `<name> <MB>` lines:

- `generate_bundle_peak`: the peak while the bundle is built;
- `bundle_holds`: what the returned bundle still holds;
- `evaluate_model_peak`: the peak of the evaluation over what was
  allocated when it started;
- `train_set_peak`: the peak while the training set is read, counting
  the bundle (both figures from before the bundle was built);
- `load_dataset_peak`: the peak while the pool file is read; its writing
  is not traced.

tracemalloc counts numpy's array buffers exactly, whatever the heap's
layout, so two checkouts' lines can be diffed:

    python3 tools/mem_peaks.py --identities 200 > head.txt
    python3 tools/mem_peaks.py --identities 200 ../base > base.txt

The optional argument names the checkout whose `morphguard` package
runs; it defaults to the checkout this script lives in.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def peaks(experiment, identities: int) -> dict:
    """The five figures, in bytes, of one bundle at `identities` identities."""
    config = experiment.ExperimentConfig.from_dict({
        "seed": 1,
        "data": {"num_classes": identities, "input_dim": 128},
        "model": {"hidden_dims": [256], "embedding_dim": 128},
    })
    model = experiment.fresh_model(config)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bundle = experiment.generate_bundle(config)
        held, generate_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        bundle.train_set  # read once and dropped, as a recipe passes it to train
        train_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        evaluate_start = tracemalloc.get_traced_memory()[0]
        experiment.evaluate_model(model, bundle, config)
        evaluate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with tempfile.TemporaryDirectory() as tmp:
        pool = Path(tmp) / "bona_fides.jsonl"
        experiment.datagen.save_dataset(bundle.bona_fides, pool)
        tracemalloc.start()
        try:
            experiment.datagen.load_dataset(pool)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {
        "generate_bundle_peak": generate_peak - start,
        "bundle_holds": held - start,
        "evaluate_model_peak": evaluate_peak - evaluate_start,
        "train_set_peak": train_peak - start,
        "load_dataset_peak": load_peak,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--identities", type=int, required=True, help="identity count (even, >= 2)")
    parser.add_argument("checkout", type=Path, nargs="?", default=HERE,
                        help="checkout whose morphguard package runs (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from morphguard import experiment

    for name, size in peaks(experiment, args.identities).items():
        print(f"{name} {size / 1e6:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
