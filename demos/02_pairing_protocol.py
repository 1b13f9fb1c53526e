"""The disjoint-subset pairing protocol that keeps morph labels unambiguous.

A morph inherits two identities, so random pairing would leave the two
classification branches without a consistent label assignment. The
protocol splits identities into two subsets and only ever blends across
them: the subset-1 parent always feeds head 1, the subset-2 parent head 2.
"""

import numpy as np

from morphguard import MorphPairProtocol, build_training_set, pair_protocol, synth_identities
from morphguard.datagen import KINDS, SELF_MORPH
from morphguard.errors import ProtocolError

universe, bona_fides = synth_identities(
    num_classes=4, samples_per_class=2, input_dim=16, spread=0.1, seed=7
)
names = "ABCD"
side1 = [i for i in range(4) if universe.subsets[i] == 1]
side2 = [i for i in range(4) if universe.subsets[i] == 2]
print("subset 1:", [names[i] for i in side1], " subset 2:", [names[i] for i in side2])

# with 4 identities and 2 samples each there are exactly 4 x (2*2) = 16
# distinct cross-subset sample pairs; request them all. The protocol is one
# (T, 4) array of (identity_a, identity_b, sample_a, sample_b) rows.
protocol = pair_protocol(universe, bona_fides, num_morphs=16, seed=7)
families = sorted({names[a] + names[b] for a, b in protocol.columns[:, :2].tolist()})
print("pair families seen:", families)
print("within-subset families like",
      names[side1[0]] + names[side1[1]], "or", names[side2[0]] + names[side2[1]], "never occur")

# build_training_set returns the pool rows it is given, then a morph blended
# from each protocol row it needs; with 8 bona fides, ratios 8:1:0 ask for
# exactly one morph, from the protocol's first row, right after the 8 rows
rows = np.arange(len(bona_fides))
first_row = MorphPairProtocol(protocol.columns[:1])
morph = build_training_set(universe, bona_fides, rows, first_row, ratios=(8, 1, 0), seed=7)[len(rows)]
print("\nprotocol row", protocol.columns[0].tolist(), "-> morph labels (head1, head2):",
      (names[morph.labels.first_label], names[morph.labels.second_label]))

# hand-made rows that pair within a subset, or run subset 2 -> 1, are refused
within = MorphPairProtocol(np.array([[side1[0], side1[1], 0, 0]]))
backwards = MorphPairProtocol(protocol.columns[:1, [1, 0, 3, 2]])
for name, bad in (("same-subset", within), ("subset 2 -> 1", backwards)):
    try:
        build_training_set(universe, bona_fides, rows, bad, ratios=(8, 1, 0), seed=7)
    except ProtocolError as err:
        print(f"{name} blend rejected:", err)

# selfmorphs blend two samples of one identity and stay bona fide
with_selfmorph = build_training_set(universe, bona_fides, rows, protocol, ratios=(8, 0, 1), seed=7)
selfmorphs = with_selfmorph[with_selfmorph.kinds == SELF_MORPH]
print("selfmorph labels equal:", bool((selfmorphs.first == selfmorphs.second).all()),
      "| kind:", KINDS[SELF_MORPH].value)

# a full training set holds all three kinds at the 2:1:1 default in one
# array, in blocks: the bona fides, the morphs, then the selfmorphs; train
# shuffles it every epoch
universe, bona_fides = synth_identities(10, 20, 32, spread=0.15, seed=7)
protocol = pair_protocol(universe, bona_fides, num_morphs=100, seed=7)
rows = np.arange(len(bona_fides))
dataset = build_training_set(universe, bona_fides, rows, protocol, ratios=(2, 1, 1), seed=7)
counts = {kind.value: int((dataset.kinds == code).sum()) for code, kind in enumerate(KINDS)}
print("\ntraining-set composition:", counts)
norms = np.linalg.norm(dataset.inputs, axis=1)
print("all inputs unit-norm:", float(np.abs(norms - 1.0).max()) < 1e-9)
