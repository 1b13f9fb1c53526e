"""Feed-forward encoder with two classification heads and an SGD trainer.

The encoder is a small ReLU MLP whose final output is L2-normalized, so
all class scores are cosines against normalized head rows. The backward
pass is written out analytically (it is validated against central
finite differences in the test suite): through each head row w it uses
d cos / d w = (e - cos * w/|w|) / |w|, and through the normalization
e = z/|z| it uses the Jacobian (I - e e^T)/|z|.

A step stacks the two heads: one (2C, E) array of unit rows, one
(N, 2C) cosine array that the loss reads as (2N, C) rows (see
losses.morphguard_loss_arrays), one (2C, E) head gradient viewed as
head1/head2. The GEMMs alone stay per head, because OpenBLAS picks its
kernel, and so its summation order, by the shape: a (N, 2C) or K = 2C
GEMM would change the bytes that scoring the heads one by one gives.

Each train call does its per-run work once: the (N, 2) label pairs,
the per-row margins with their cosines and sines, and one set of
buffers per batch size. A step then gathers its batch into those
buffers and runs fixed-shape arithmetic in them, every operation the
one the per-head oracle in the tests performs, so the bytes agree.

Training is plain SGD with a per-step linearly interpolated learning
rate and a per-epoch seeded shuffle, which makes a run a pure function
of (model, dataset, config).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .datagen import SampleSet
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    DegenerateEmbeddingError,
    DegenerateWeightError,
    NumericError,
    NumericInputError,
    ProtocolError,
    check_integer,
    check_real,
)
from .losses import MarginConfig, _check_label_range, _margin_table, _Rows, morphguard_loss_arrays
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
        for name in ("epochs", "batch_size"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0, int64=False)  # SeedSequence takes any size
        check_real("lr_start", self.lr_start, 0.0)
        check_real("lr_end", self.lr_end, 0.0)
        if self.lr_start < self.lr_end:
            raise ConfigError(
                f"learning rates must satisfy lr_start >= lr_end, got ({self.lr_start}, {self.lr_end})"
            )


@dataclass
class TrainHistory:
    """Per-epoch mean loss and learning rate."""

    epoch_mean_loss: list[float]
    epoch_lr: list[float]


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


def _unit_rows(rows: np.ndarray, error, what: str, squares=None, norms=None, finite=False):
    """Rows scaled to unit length in place, and their norms (np.linalg.norm's
    arithmetic); ``squares`` and ``norms`` are optional work arrays. A norm
    below 1e-12 raises ``error``, and so, if ``finite``, does an inf or nan
    one; a training step leaves that to train, which checks its norms after its loss."""
    squares = np.multiply(rows, rows, out=squares)
    norms = np.add.reduce(squares, axis=1, out=norms)
    np.sqrt(norms, out=norms)
    if finite and norms.size and not np.maximum.reduce(norms) < math.inf:
        raise error(f"cannot normalize {what} row {int(np.argmin(np.isfinite(norms)))}: it overflows float64")
    if norms.size and np.minimum.reduce(norms) < 1e-12:
        raise error(f"{what} norm below 1e-12 for row {int(np.argmin(norms))}")
    rows /= norms[:, None]
    return rows, norms


def _check_width(model: DualHeadModel, inputs: np.ndarray):
    if inputs.ndim != 2 or inputs.shape[1] != model.input_dim:
        raise DataError(f"model takes rows of {model.input_dim} inputs, got an array of shape {inputs.shape}")


def _forward_batch(model: DualHeadModel, inputs: np.ndarray):
    """Run the MLP on (N, input_dim) rows; returns the unit embeddings and
    their norms before normalization.

    This is evaluation's forward; a training step runs its own in its
    ``_StepBuffers``. It keeps no activations: it drops its reference to
    the input batch, and to each hidden activation, as soon as the next
    layer has read it. A caller that passes the batch as a temporary (a
    gather or a blend) thus has it freed after layer 0, which bounds
    evaluation's peak memory.
    """
    _check_width(model, inputs)
    h = inputs
    del inputs
    last = len(model.layers) - 1
    # _unit_rows reports a row that overflowed, so numpy's warnings say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (w, b) in enumerate(model.layers):
            h = np.matmul(h, w.T)
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return _unit_rows(h, DegenerateEmbeddingError, "pre-normalization embedding", finite=True)


class _StepTables:
    """A sample set as a training step reads it: inputs, (N, 2) label
    pairs and the loss's per-row margin table, gathered batch by batch
    into one ``_StepBuffers`` per batch size."""

    def __init__(self, model: DualHeadModel, inputs, first, second, is_morph, margin: MarginConfig):
        self.model = model
        self.inputs = np.asarray(inputs, dtype=np.float64)
        _check_width(model, self.inputs)
        is_morph = np.asarray(is_morph, dtype=bool)
        for name, column in (("first", first), ("second", second)):
            dtype = np.asarray(column).dtype
            # A float column would be truncated to other classes, a bool one read as classes 0 and 1.
            if np.size(column) and not np.issubdtype(dtype, np.integer):
                raise ProtocolError(f"need integer {name} labels, got {dtype}")
        self.labels = np.column_stack((first, second)).astype(np.int64, copy=False)
        if self.labels.shape[0] != len(self.inputs) or is_morph.shape != (len(self.inputs),):
            raise DataError(f"{len(self.inputs)} input rows need as many label pairs and morph flags")
        _check_label_range(self.labels, model.num_classes)
        self.margins = _margin_table(is_morph, margin)
        self._buffers = {}

    def gather(self, idx: np.ndarray) -> "_StepBuffers":
        """The buffers of len(idx) rows, filled with rows idx (in range)."""
        n = len(idx)
        buffers = self._buffers.get(n)
        if buffers is None:
            buffers = self._buffers[n] = _StepBuffers(self.model, n)
        self.inputs.take(idx, axis=0, out=buffers.inputs, mode="clip")
        self.labels.take(idx, axis=0, out=buffers.labels, mode="clip")
        self.margins.take(idx, axis=1, out=buffers.loss.margins.reshape(3, n, 2), mode="clip")
        buffers.loss.set_targets(buffers.labels.reshape(-1))
        return buffers


class _StepBuffers:
    """Every array one step over n rows writes. ``grads`` maps each
    parameter name to its gradient array, refilled by each step."""

    def __init__(self, model: DualHeadModel, n: int):
        c, e = model.num_classes, model.embedding_dim
        self.inputs = np.empty((n, model.input_dim))
        self.labels = np.empty((n, 2), dtype=np.int64)
        self.first, self.second = self.labels.T
        self.loss = _Rows(2 * n, c)
        self.outputs = [np.empty((n, w.shape[0])) for w, _ in model.layers]
        # Each layer's input, which the backward pass reads: the batch, then the hidden outputs.
        self.layer_inputs = [self.inputs, *self.outputs[:-1]]
        # The embedding and head norms share one array, which train checks with one reduction.
        self.all_norms = np.empty(n + 2 * c)
        self.squares, self.norms, self.head_norms = np.empty((n, e)), self.all_norms[:n], self.all_norms[n:]
        self.unit, self.unit_squares = np.empty((2 * c, e)), np.empty((2 * c, e))
        self.cosines, self.column = np.empty((n, 2 * c)), np.empty(2 * c)
        self.grad_emb, self.spare, self.radial = np.empty((n, e)), np.empty((n, e)), np.empty(n)
        # The gradient into each hidden layer's output, and that output's ReLU mask.
        self.upstream = [np.empty((n, w.shape[1])) for w, _ in model.layers[1:]]
        self.masks = [np.empty((n, w.shape[1]), dtype=bool) for w, _ in model.layers[1:]]
        self.grad_heads = np.empty((2 * c, e))
        self.layer_grads = [(np.empty_like(w), np.empty_like(bias)) for w, bias in model.layers]
        self.grads = {}
        for i, (weight_grad, bias_grad) in enumerate(self.layer_grads):
            self.grads[f"layer{i}.weight"], self.grads[f"layer{i}.bias"] = weight_grad, bias_grad
        self.grads["head1"], self.grads["head2"] = self.grad_heads[:c], self.grad_heads[c:]


def batch_gradients(
    model: DualHeadModel, inputs, first_labels, second_labels, is_morph, margin: MarginConfig, _buffers=None
):
    """Loss and analytic parameter gradients of one batch.

    Exposed separately from train so gradient checks can compare
    against finite differences without performing an update. Returns
    (loss, grads) with grads keyed like model.parameters(); a loss, or a
    norm the step divides by, that is not finite raises NumericError.
    ``train`` passes ``_buffers``, its batch already gathered into them,
    each row's morph flag as the margin it selects; the array arguments
    are then not read, nothing is checked (train checks each step), and
    the gradients are arrays of the buffers that the next step overwrites.
    """
    if _buffers is None:
        tables = _StepTables(model, inputs, first_labels, second_labels, is_morph, margin)
        b = tables.gather(np.arange(len(tables.inputs)))
        # A non-finite result is reported here, so numpy's warnings say nothing more.
        with np.errstate(all="ignore"):
            loss, grads = batch_gradients(model, None, None, None, None, margin, b)
        # A row whose norm overflows normalizes to zeros and gives a finite but wrong loss.
        if not (math.isfinite(loss) and np.maximum.reduce(b.all_norms) < math.inf):
            raise NumericError(f"the batch's loss is {loss} and its largest row norm {np.maximum.reduce(b.all_norms)}")
        return loss, grads
    b = _buffers
    # The step's forward writes each layer's output into its buffer, which the next layer and the backward pass read.
    last = len(model.layers) - 1
    for i, (w, bias) in enumerate(model.layers):
        h = np.matmul(b.layer_inputs[i], w.T, out=b.outputs[i])
        h += bias
        if i != last:
            np.maximum(h, 0.0, out=h)
    embeddings, norms = _unit_rows(h, DegenerateEmbeddingError, "pre-normalization embedding", b.squares, b.norms)
    unit = np.concatenate((model.head1, model.head2), out=b.unit)
    unit, head_norms = _unit_rows(unit, DegenerateWeightError, "head", b.unit_squares, b.head_norms)
    # Every GEMM keeps its one-head shape (see the module docstring).
    c = model.num_classes
    halves = (slice(0, c), slice(c, 2 * c))
    cosines, grad_heads = b.cosines, b.grad_heads
    for half in halves:
        np.matmul(embeddings, unit[half].T, out=cosines[:, half])
    np.minimum(cosines, 1.0, out=cosines)
    np.maximum(cosines, -1.0, out=cosines)
    result = morphguard_loss_arrays(cosines, b.labels, is_morph, margin, b.loss)
    cos_grads = result.cosine_grads

    # Head gradients: rows enter only through their normalized form.
    for half in halves:
        np.matmul(cos_grads[:, half].T, embeddings, out=grad_heads[half])
    column = np.add.reduce(np.multiply(cos_grads, cosines, out=cosines), axis=0, out=b.column)
    grad_heads -= np.multiply(column[:, None], unit, out=b.unit_squares)
    grad_heads /= head_norms[:, None]

    # Into the encoder: through both heads, then the normalization.
    grad_emb = np.matmul(cos_grads[:, :c], unit[:c], out=b.grad_emb)
    grad_emb += np.matmul(cos_grads[:, c:], unit[c:], out=b.spare)
    radial = np.add.reduce(np.multiply(grad_emb, embeddings, out=b.spare), axis=1, out=b.radial)
    upstream = grad_emb
    upstream -= np.multiply(radial[:, None], embeddings, out=b.spare)
    upstream /= norms[:, None]

    for i in range(last, -1, -1):
        weight_grad, bias_grad = b.layer_grads[i]
        np.matmul(upstream.T, b.layer_inputs[i], out=weight_grad)
        np.add.reduce(upstream, axis=0, out=bias_grad)
        if i:
            below = np.matmul(upstream, model.layers[i][0], out=b.upstream[i - 1])
            upstream = np.multiply(below, np.greater(b.layer_inputs[i], 0.0, out=b.masks[i - 1]), out=below)
    return result.loss, b.grads


def _sgd_update(model: DualHeadModel, grads, lr):
    """Move every parameter in place by -lr times its gradient; the
    gradient arrays are scaled by lr on the way."""
    for name, param in model.parameters():
        grad = grads[name]
        grad *= lr
        param -= grad


# The most steps a training regime may take (ExperimentConfig checks it): up
# to it every step index is an exact float64, as _step_rate's arithmetic needs.
_MAX_STEPS = 2**53


def _step_rate(start: float, end: float, i: int, n: int) -> float:
    """np.linspace(start, end, n)[i], the learning rate of step i of n, by linspace's arithmetic."""
    if i == n - 1:
        return start if n == 1 else end
    step = (end - start) / (n - 1)
    # linspace divides first where the step underflows to zero.
    return (i / (n - 1) * (end - start) if step == 0 else i * step) + start


def train(model: DualHeadModel, dataset: SampleSet, config: TrainConfig):
    """SGD over seeded-shuffled batches with the linear LR schedule.

    Runs epochs * ceil(N / batch_size) steps; the shuffle for epoch e
    draws from the stream (seed, STREAM_SHUFFLE, e), so the whole run
    is reproducible bit-for-bit from (model, dataset, config).
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("training requires a nonempty dataset")
    steps_per_epoch = -(-n // config.batch_size)
    total_steps, lr_start, lr_end = config.epochs * steps_per_epoch, float(config.lr_start), float(config.lr_end)
    tables = _StepTables(model, dataset.inputs, dataset.first, dataset.second, dataset.is_morph, config.margin)

    history = TrainHistory(epoch_mean_loss=[], epoch_lr=[])
    step = 0
    # A diverging run is stopped at its first non-finite loss or norm below,
    # so numpy's overflow and invalid-value warnings say nothing more.
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            order = rng_for(config.seed, STREAM_SHUFFLE, epoch).permutation(n)
            loss_sum = 0.0
            for start in range(0, n, config.batch_size):
                b = tables.gather(order[start : start + config.batch_size])
                loss, grads = batch_gradients(model, b.inputs, b.first, b.second, None, config.margin, b)
                if not (math.isfinite(loss) and np.maximum.reduce(b.all_norms) < math.inf):
                    where = f"epoch {epoch + 1}, step {start // config.batch_size + 1} of {steps_per_epoch}"
                    if not math.isfinite(loss):
                        raise NumericError(f"training diverged: the loss of {where} is {loss}")
                    # A row whose norm overflows normalizes to zeros and would never move again.
                    what = "a head row" if np.maximum.reduce(b.norms) < math.inf else "an embedding"
                    raise NumericError(f"training diverged: {what}'s norm is not finite at {where}")
                _sgd_update(model, grads, _step_rate(lr_start, lr_end, step, total_steps))
                loss_sum += loss * len(b.inputs)
                step += 1
            history.epoch_mean_loss.append(loss_sum / n)
            history.epoch_lr.append(_step_rate(lr_start, lr_end, step - 1, total_steps))
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
