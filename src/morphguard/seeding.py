"""Deterministic random-stream derivation.

Every stochastic step in the package draws from a PCG64 generator keyed
by ``SeedSequence([master_seed, *tags])``, where the tags identify the
consuming step (stream constants below, plus loop indices such as the
epoch number). This makes each stream independent of the others and
makes every output a pure function of (config, master seed). The exact
scheme, including the tag values, is documented in the README so runs
can be reproduced outside this codebase.
"""

import numpy as np

# Stream tags. Values are arbitrary but frozen: changing them changes
# every seeded output in the package.
STREAM_SPLIT = 1        # identity -> subset partition
STREAM_PROTOTYPES = 2   # identity prototype directions
STREAM_SAMPLES = 3      # within-class sample noise
STREAM_PAIRS = 4        # morph pairing protocol
STREAM_SELFMORPH = 5    # selfmorph partner selection
# 6: training-set interleaving, retired in 0.5.0; no later stream reuses it.
STREAM_INIT = 7         # model parameter init
STREAM_SHUFFLE = 8      # per-epoch batch order (tag + epoch index)
STREAM_GENUINE = 9      # genuine verification pairs
STREAM_IMPOSTOR = 10    # impostor verification pairs
STREAM_TRIALS = 11      # held-out probe choice per morph trial


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Return the PCG64 generator for one named stream of ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *tags])))


def distinct_pair(rng: np.random.Generator, high, size=None):
    """(i, j) uniform over ordered pairs of distinct integers in [0, high): i = integers(high, size),
    j = integers(high - 1, size), then j += j >= i. high may be an array of bounds, each >= 2."""
    i = rng.integers(high, size=size)
    j = rng.integers(high - 1, size=size)
    return i, j + (j >= i)
