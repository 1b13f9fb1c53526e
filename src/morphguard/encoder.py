"""Feed-forward encoder with two classification heads and an SGD trainer.

The encoder is a small ReLU MLP whose final output is L2-normalized, so
all class scores are cosines against normalized head rows. The backward
pass is written out analytically (it is validated against central
finite differences in the test suite): through each head row w it uses
d cos / d w = (e - cos * w/|w|) / |w|, and through the normalization
e = z/|z| it uses the Jacobian (I - e e^T)/|z|.

Training is plain SGD with a per-step linearly interpolated learning
rate and a per-epoch seeded shuffle, which makes a run a pure function
of (model, dataset, config).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    DegenerateEmbeddingError,
    DegenerateWeightError,
    NumericInputError,
    ProtocolError,
)
from .losses import MarginConfig, SampleKind, morphguard_loss_arrays
from .seeding import STREAM_INIT, STREAM_SHUFFLE, rng_for

_CHECKPOINT_MAGIC = b"MGCKPT01"


@dataclass
class DualHeadModel:
    """Encoder layers plus the two class-weight matrices.

    ``layers`` holds (weight, bias) pairs with weights shaped
    (out_dim, in_dim); ``head1`` and ``head2`` are (num_classes,
    embedding_dim) and are normalized row-wise at evaluation time
    rather than after each update.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    head1: np.ndarray
    head2: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def embedding_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.head1.shape[0]

    def validate(self):
        if not self.layers:
            raise ConfigError("model needs at least one linear layer")
        prev = self.layers[0][0].shape[1]
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ConfigError(f"layer {i} has inconsistent weight/bias shapes")
            if w.shape[1] != prev:
                raise ConfigError(f"layer {i} input dim {w.shape[1]} does not chain from {prev}")
            prev = w.shape[0]
        if self.head1.shape != self.head2.shape or self.head1.shape[1] != prev:
            raise ConfigError(
                f"heads {self.head1.shape}/{self.head2.shape} incompatible with embedding dim {prev}"
            )
        for name, arr in self.parameters():
            if not np.all(np.isfinite(arr)):
                raise NumericInputError(f"parameter {name} contains non-finite values")

    def parameters(self):
        """Named views of every trainable array (shared, not copied)."""
        out = []
        for i, (w, b) in enumerate(self.layers):
            out.append((f"layer{i}.weight", w))
            out.append((f"layer{i}.bias", b))
        out.append(("head1", self.head1))
        out.append(("head2", self.head2))
        return out

    def copy(self) -> "DualHeadModel":
        return DualHeadModel(
            layers=[(w.copy(), b.copy()) for w, b in self.layers],
            head1=self.head1.copy(),
            head2=self.head2.copy(),
        )


@dataclass(frozen=True)
class TrainConfig:
    """One training regime: schedule, batching, seed, and margins."""

    epochs: int = 20
    lr_start: float = 1e-3
    lr_end: float = 1e-5
    batch_size: int = 64
    seed: int = 0
    margin: MarginConfig = field(default_factory=MarginConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (self.lr_start >= self.lr_end > 0):
            raise ConfigError(
                f"learning rates must satisfy lr_start >= lr_end > 0, got "
                f"({self.lr_start}, {self.lr_end})"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainHistory:
    """Per-epoch mean loss and learning rate, plus which stage ran."""

    epoch_mean_loss: list[float]
    epoch_lr: list[float]
    stage: str = "initial"


def init_model(input_dim: int, hidden_dims, embedding_dim: int, num_classes: int, seed: int) -> DualHeadModel:
    """Seeded uniform init, each matrix scaled by 1/sqrt(fan_in).

    Biases draw from the same uniform as their layer (a nonzero final
    bias keeps the embedding well-defined even when every hidden ReLU
    is dead for some input); heads are initialized like a layer with
    fan_in equal to the embedding dimension.
    """
    dims = [int(input_dim), *[int(h) for h in hidden_dims], int(embedding_dim)]
    if any(d < 1 for d in dims) or num_classes < 1:
        raise ConfigError(f"all dimensions must be >= 1, got dims={dims}, classes={num_classes}")
    rng = rng_for(seed, STREAM_INIT)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        layers.append(
            (
                rng.uniform(-bound, bound, size=(fan_out, fan_in)),
                rng.uniform(-bound, bound, size=fan_out),
            )
        )
    head_bound = 1.0 / np.sqrt(embedding_dim)
    head1 = rng.uniform(-head_bound, head_bound, size=(num_classes, embedding_dim))
    head2 = rng.uniform(-head_bound, head_bound, size=(num_classes, embedding_dim))
    model = DualHeadModel(layers=layers, head1=head1, head2=head2)
    model.validate()
    return model


def _forward_batch(model: DualHeadModel, inputs: np.ndarray):
    """Run the MLP on (N, input_dim) rows; returns embeddings and cache."""
    if inputs.ndim != 2 or inputs.shape[1] != model.input_dim:
        raise DataError(f"model takes rows of {model.input_dim} inputs, got an array of shape {inputs.shape}")
    activations = [inputs]
    pre_acts = []
    h = inputs
    last = len(model.layers) - 1
    for i, (w, b) in enumerate(model.layers):
        z = h @ w.T + b
        pre_acts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
        activations.append(h)
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateEmbeddingError(
            f"pre-normalization embedding norm below 1e-12 for row {int(np.argmin(norms))}"
        )
    embeddings = h / norms[:, None]
    return embeddings, {"activations": activations, "pre_acts": pre_acts, "norms": norms}


def forward(model: DualHeadModel, x):
    """Encode one input vector to a unit embedding (plus backward cache)."""
    arr = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise NumericInputError("input contains non-finite values")
    embeddings, cache = _forward_batch(model, arr.reshape(1, -1))
    return embeddings[0], cache


def _normalized_heads(model: DualHeadModel):
    norms1 = np.linalg.norm(model.head1, axis=1)
    norms2 = np.linalg.norm(model.head2, axis=1)
    if np.any(norms1 < 1e-12) or np.any(norms2 < 1e-12):
        raise DegenerateWeightError("a head row has norm below 1e-12")
    return model.head1 / norms1[:, None], norms1, model.head2 / norms2[:, None], norms2


def batch_gradients(model: DualHeadModel, inputs, first_labels, second_labels, is_morph, margin: MarginConfig):
    """Loss and analytic parameter gradients of one batch.

    Exposed separately from train_step so gradient checks can compare
    against finite differences without performing an update. Returns
    (loss, grads) with grads keyed like model.parameters().
    """
    embeddings, cache = _forward_batch(model, inputs)
    unit1, norms1, unit2, norms2 = _normalized_heads(model)
    cos1 = np.clip(embeddings @ unit1.T, -1.0, 1.0)
    cos2 = np.clip(embeddings @ unit2.T, -1.0, 1.0)
    result = morphguard_loss_arrays(cos1, cos2, first_labels, second_labels, is_morph, margin)

    # Head gradients: rows enter only through their normalized form.
    grad_head1 = (result.first_grads.T @ embeddings - (result.first_grads * cos1).sum(axis=0)[:, None] * unit1) / norms1[:, None]
    grad_head2 = (result.second_grads.T @ embeddings - (result.second_grads * cos2).sum(axis=0)[:, None] * unit2) / norms2[:, None]

    # Into the encoder: through both heads, then the normalization.
    grad_emb = result.first_grads @ unit1 + result.second_grads @ unit2
    radial = (grad_emb * embeddings).sum(axis=1, keepdims=True)
    grad_z = (grad_emb - radial * embeddings) / cache["norms"][:, None]

    grads = {}
    last = len(model.layers) - 1
    upstream = grad_z
    for i in range(last, -1, -1):
        w, _ = model.layers[i]
        if i != last:
            upstream = upstream * (cache["pre_acts"][i] > 0.0)
        grads[f"layer{i}.weight"] = upstream.T @ cache["activations"][i]
        grads[f"layer{i}.bias"] = upstream.sum(axis=0)
        upstream = upstream @ w
    grads["head1"] = grad_head1
    grads["head2"] = grad_head2
    return result.loss, grads


def _stack_batch(batch):
    inputs = np.stack([np.asarray(s.input, dtype=np.float64) for s in batch])
    first = np.array([s.labels.first_label for s in batch])
    second = np.array([s.labels.second_label for s in batch])
    is_morph = np.array([s.labels.kind is SampleKind.MORPH for s in batch])
    return inputs, first, second, is_morph


def _sgd_update(model: DualHeadModel, grads, lr):
    """Move every parameter in place by -lr times its gradient."""
    for name, param in model.parameters():
        param -= lr * grads[name]


def train_step(model: DualHeadModel, batch, margin: MarginConfig, lr: float):
    """One SGD step over a batch of Samples; returns the pre-update loss."""
    if len(batch) == 0:
        raise ConfigError("training step requires a nonempty batch")
    loss, grads = batch_gradients(model, *_stack_batch(batch), margin)
    _sgd_update(model, grads, lr)
    return model, loss


def lr_schedule(config: TrainConfig, total_steps: int) -> np.ndarray:
    """Per-step learning rates, linear from lr_start to lr_end."""
    return np.linspace(config.lr_start, config.lr_end, total_steps)


def train(model: DualHeadModel, dataset, config: TrainConfig, stage: str = "initial"):
    """SGD over seeded-shuffled batches with the linear LR schedule.

    Runs epochs * ceil(N / batch_size) steps; the shuffle for epoch e
    draws from the stream (seed, STREAM_SHUFFLE, e), so the whole run
    is reproducible bit-for-bit from (model, dataset, config). It also
    runs the adaptation stage; ``stage`` only labels the history.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("training requires a nonempty dataset")
    inputs, first, second, is_morph = _stack_batch(dataset)
    max_label = int(max(first.max(), second.max()))
    if max_label >= model.num_classes:
        raise ProtocolError(f"dataset labels reach {max_label} but model has {model.num_classes} classes")
    steps_per_epoch = -(-n // config.batch_size)
    lrs = lr_schedule(config, config.epochs * steps_per_epoch)

    history = TrainHistory(epoch_mean_loss=[], epoch_lr=[], stage=stage)
    step = 0
    for epoch in range(config.epochs):
        order = rng_for(config.seed, STREAM_SHUFFLE, epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = batch_gradients(
                model, inputs[idx], first[idx], second[idx], is_morph[idx], config.margin
            )
            _sgd_update(model, grads, lrs[step])
            loss_sum += loss * len(idx)
            step += 1
        history.epoch_mean_loss.append(loss_sum / n)
        history.epoch_lr.append(float(lrs[step - 1]))
    return model, history


def save_checkpoint(model: DualHeadModel, path):
    """Write the little-endian binary checkpoint format."""
    model.validate()
    chunks = [_CHECKPOINT_MAGIC]
    chunks.append(
        struct.pack(
            "<IIII", model.input_dim, model.embedding_dim, model.num_classes, len(model.layers)
        )
    )
    for w, b in model.layers:
        chunks.append(struct.pack("<II", w.shape[0], w.shape[1]))
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    chunks.append(np.ascontiguousarray(model.head1, dtype="<f8").tobytes())
    chunks.append(np.ascontiguousarray(model.head2, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path) -> DualHeadModel:
    """Read a checkpoint; bit-exact inverse of save_checkpoint."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(count: int, what: str) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise CheckpointFormatError(f"truncated checkpoint while reading {what}", offset)
        piece = blob[offset : offset + count]
        offset += count
        return piece

    if take(8, "magic") != _CHECKPOINT_MAGIC:
        raise CheckpointFormatError("bad magic bytes", 0)
    input_dim, emb_dim, num_classes, layer_count = struct.unpack("<IIII", take(16, "header"))
    if layer_count < 1:
        raise CheckpointFormatError("layer count must be >= 1", 8 + 12)
    layers = []
    for i in range(layer_count):
        rows, cols = struct.unpack("<II", take(8, f"layer {i} shape"))
        w = np.frombuffer(take(rows * cols * 8, f"layer {i} weights"), dtype="<f8").reshape(rows, cols).copy()
        b = np.frombuffer(take(rows * 8, f"layer {i} bias"), dtype="<f8").copy()
        layers.append((w, b))
    head1 = np.frombuffer(take(num_classes * emb_dim * 8, "head1"), dtype="<f8").reshape(num_classes, emb_dim).copy()
    head2 = np.frombuffer(take(num_classes * emb_dim * 8, "head2"), dtype="<f8").reshape(num_classes, emb_dim).copy()
    if offset != len(blob):
        raise CheckpointFormatError("trailing bytes after checkpoint payload", offset)
    model = DualHeadModel(layers=layers, head1=head1, head2=head2)
    try:
        model.validate()
    except (ConfigError, NumericInputError) as exc:
        raise CheckpointFormatError(f"inconsistent checkpoint contents: {exc}", offset) from exc
    if model.input_dim != input_dim or model.embedding_dim != emb_dim:
        raise CheckpointFormatError(
            f"header dims ({input_dim}, {emb_dim}) disagree with layer shapes "
            f"({model.input_dim}, {model.embedding_dim})",
            8,
        )
    return model
