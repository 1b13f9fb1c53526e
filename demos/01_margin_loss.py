"""The loss family, from plain softmax to the dual-branch morph loss.

Walks through the three layers of the loss stack on tiny hand-sized
inputs: stable softmax cross-entropy, the additive angular margin on
the target cosine, and the dual-branch batch loss where a morph sample
is scored against one parent identity per head. Every value comes from
`morphguard_loss_arrays`, the library's one loss entry: it takes each
sample's head-1 cosines followed by its head-2 cosines, one label per
head and a morph flag.
"""

import numpy as np

from morphguard import MarginConfig, morphguard_loss_arrays


def one_head(cosines, target, scale, margin=0.0):
    """(loss, cosine gradient) of one head: a bona fide sample with the same
    cosines and label on both heads scores the head twice."""
    row = np.asarray(cosines, dtype=np.float64)
    config = MarginConfig(scale=scale, bona_fide_margin=margin)
    result = morphguard_loss_arrays(np.concatenate((row, row))[None], np.array([[target, target]]),
                                    np.array([False]), config)
    return result.sample_losses[0] / 2, result.first_grads[0]


# --- plain softmax cross-entropy -------------------------------------------
# at margin 0 a head is a softmax over its scaled cosines; the logits
# [2.1, -0.4, 0.7] are the cosines [0.525, -0.1, 0.175] at scale 4
loss, grad = one_head([0.525, -0.1, 0.175], target=1, scale=4.0)
logit_grad = grad / 4.0
print("softmax loss for logits [2.1, -0.4, 0.7], target 1:", round(loss, 6))
print("gradient (softmax - onehot):", np.round(logit_grad, 6), "sums to", round(logit_grad.sum(), 15))

# extreme logits stay finite: the loss is computed as ln(1 + rest)
loss, _ = one_head([1.0, -1.0], target=0, scale=30.0)
print("saturated case ln(1 + e^-60):", loss)

# --- the angular margin ------------------------------------------------------
# shifting the target angle by m radians lowers its cosine; the shifted
# angle is clamped to [0, pi] so the value never wraps around
print("\ncos(theta) = 0.6 shifted by m = 0.5:", round(float(np.cos(np.arccos(0.6) + 0.5)), 6))
at_pi = [-1.0, 0.2, -0.2]
print("clamped at the far end (cos(theta) = -1), the margin leaves the loss as it was:",
      one_head(at_pi, 0, 10.0, 0.5)[0] == one_head(at_pi, 0, 10.0)[0])

cosines = np.array([0.8, 0.1, -0.3])
for m in (0.0, 0.25, 0.5):
    loss, _ = one_head(cosines, target=0, scale=10.0, margin=m)
    print(f"margin {m:4.2f} -> loss {loss:.6f}")

# --- the dual-branch loss ----------------------------------------------------
# a morph carries two labels: head 1 is scored against the first parent,
# head 2 against the second; both terms use the morph margin
rng = np.random.default_rng(0)
config = MarginConfig(scale=10.0, bona_fide_margin=0.5, morph_offset=-0.1)
print("\nmargins: bona fide", config.bona_fide_margin, "morph", round(config.morph_margin, 3))

head1_cosines = rng.uniform(-0.8, 0.8, size=4)
head2_cosines = rng.uniform(-0.8, 0.8, size=4)
both_heads = np.concatenate((head1_cosines, head2_cosines))
cosines = np.stack((both_heads, both_heads))  # a morph of identities 0 and 2, then a bona fide of 1
labels = np.array([[0, 2], [1, 1]])
is_morph = np.array([True, False])
result = morphguard_loss_arrays(cosines, labels, is_morph, config)
print("batch loss:", round(result.loss, 6))
print("per-sample losses (morph, bona fide):", np.round(result.sample_losses, 6))

# with a zero offset the morph would receive exactly the bona fide margin
baseline = MarginConfig(scale=10.0, bona_fide_margin=0.5, morph_offset=0.0)
same = morphguard_loss_arrays(cosines, labels, is_morph, baseline)
by_hand = one_head(head1_cosines, 0, 10.0, 0.5)[0] + one_head(head2_cosines, 2, 10.0, 0.5)[0]
print("zero-offset morph term equals two bona-fide-margin terms:", same.sample_losses[0] == by_hand)
