"""Full model state and the batched forward/backward engine.

The trainable chain is: raw frame features (D) -> linear reduction (k)
-> DenseImage rows -> multi-width temporal convolution + max pooling
-> per-scale heads -> fused logits. Gradients are hand-written in each
layer module. This file holds the parameter table, the one description
of every trainable tensor's name, shape and order that the optimizer,
checkpoints and the parameter accounting share, and wires the layers
together.

The engine runs B videos at once: their sampled rows are gathered to
B x n x D and every layer is one GEMM (per width) over the batch.
Training, evaluation, prediction, exports and gradient checks all go
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import classifier as clf
from . import denseimage as di
from . import temporal_conv as tc
from .numerics import (
    Array,
    cross_entropy_from_logits,
    from_fields,
    glorot_uniform,
    require_fields,
    sample_dropout_mask,
    scratch_view,
    softmax,
)


@dataclass(frozen=True)
class ModelShapeSpec:
    """All size constants of one model: D, k, n, H, M, C. The defaults are
    the paper's shape; the widths are distinct and kept sorted."""

    raw_dim: int = 1024
    feat_dim: int = 256
    num_frames: int = 8
    widths: tuple[int, ...] = (2, 3, 4, 5, 6)
    num_filters: int = 256
    num_classes: int = 27

    def __post_init__(self):
        require_fields(self)
        object.__setattr__(self, "widths", tuple(sorted(self.widths)))
        if min(self.raw_dim, self.feat_dim, self.num_frames, self.num_filters,
               self.num_classes) < 1:
            raise ValueError("all shape constants must be >= 1")
        if self.feat_dim > self.raw_dim:
            raise ValueError("reduction must not widen: feat_dim <= raw_dim")
        if not self.widths:
            raise ValueError("need at least one filter width")
        if any(not 2 <= h <= self.num_frames for h in self.widths):
            raise ValueError("every width must satisfy 2 <= h <= num_frames")
        if len(set(self.widths)) < len(self.widths):
            raise ValueError(f"widths must be distinct, got {list(self.widths)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelShapeSpec":
        """from_fields(cls, d), the name perfbench/run.py builds its shapes by."""
        return from_fields(cls, d)


def parameter_shapes(shape: ModelShapeSpec) -> dict[str, tuple[int, ...]]:
    """The parameter table: every trainable tensor's name and shape.

    The order is the serialization order and the init draw order. Names
    ending in "/bias" are exempt from weight decay; the part before the
    last "/" names the layer.
    """
    shapes: dict[str, tuple[int, ...]] = {
        "reduction/weights": (shape.raw_dim, shape.feat_dim),
        "reduction/bias": (shape.feat_dim,),
    }
    for h in shape.widths:
        shapes[f"conv/h{h}/weights"] = (shape.num_filters, h * shape.feat_dim)
        shapes[f"conv/h{h}/bias"] = (shape.num_filters,)
    for h in shape.widths:
        shapes[f"head/h{h}/weights"] = (shape.num_classes, shape.num_filters)
        shapes[f"head/h{h}/bias"] = (shape.num_classes,)
    return shapes


def check_parameter_shapes(
    shape: ModelShapeSpec, dims: dict[str, tuple[int, ...]]
) -> dict[str, tuple[int, ...]]:
    """Return the parameter table, or raise a ValueError that starts with
    the tensor name unless `dims` (name -> dims) holds exactly its names
    and shapes."""
    expected = parameter_shapes(shape)
    for name in dims:
        if name not in expected:
            raise ValueError(f"{name}: unexpected tensor")
    for name, want in expected.items():
        if name not in dims:
            raise ValueError(f"{name}: missing tensor")
        if dims[name] != want:
            raise ValueError(f"{name}: shape {dims[name]}, expected {want}")
    return expected


@dataclass
class ModelParams:
    """All trainable state: the live name -> array dict of the parameter
    table, in table order. The optimizer mutates these arrays in place."""

    shape: ModelShapeSpec
    tensors: dict[str, Array]

    def __post_init__(self):
        expected = check_parameter_shapes(
            self.shape, {n: np.shape(a) for n, a in self.tensors.items()}
        )
        self.tensors = {name: self.tensors[name] for name in expected}

    def _pair(self, layer: str) -> tuple[Array, Array]:
        return self.tensors[f"{layer}/weights"], self.tensors[f"{layer}/bias"]

    @property
    def reduction(self) -> tuple[Array, Array]:
        """(D x k weights, k bias)."""
        return self._pair("reduction")

    @property
    def bank(self) -> dict[int, tuple[Array, Array]]:
        """width -> (M x h*k filters, M biases)."""
        return {h: self._pair(f"conv/h{h}") for h in self.shape.widths}


def init_model(shape: ModelShapeSpec, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn in table order."""
    tensors = {}
    for name, dims in parameter_shapes(shape).items():
        if name.endswith("/weights"):
            rows, cols = dims
            tensors[name] = glorot_uniform(rng, rows, cols, rows, cols)
        else:
            tensors[name] = np.zeros(dims)
    return ModelParams(shape, tensors)


def clone_params(params: ModelParams) -> ModelParams:
    """Deep copy of all parameter arrays (snapshot for best-model tracking)."""
    return ModelParams(params.shape, {name: arr.copy() for name, arr in params.tensors.items()})


def sample_batch(
    shape: ModelShapeSpec,
    videos: Sequence[Array],
    rng: np.random.Generator | None = None,
    dropout_keep: float = 1.0,
) -> tuple[Array, dict[int, Array] | None]:
    """(B x n x D sampled rows, width -> B x M dropout masks or None).

    Without an rng this is evaluation: center sampling and no masks. With
    one, each video in turn draws its masks, one per width in ascending
    order (only when dropout_keep < 1), then its random segment indices;
    reruns and resumed runs are bit-exact because that order is fixed.
    """
    masks = None
    if rng is not None and dropout_keep < 1.0:
        masks = {h: np.empty((len(videos), shape.num_filters)) for h in shape.widths}
    rows = []
    for b, features in enumerate(videos):
        for h in masks or ():
            masks[h][b] = sample_dropout_mask(rng, shape.num_filters, dropout_keep)
        rows.append(di.gather(features, shape.num_frames, rng))
    return np.stack(rows), masks


# Videos per evaluation forward pass: a few MB of intermediates at the paper shape.
EVAL_BATCH = 32


def eval_batches(shape: ModelShapeSpec, samples: Sequence):
    """(chunk, its B x n x D center-sampled rows) for consecutive chunks of
    EVAL_BATCH samples (anything whose .features `denseimage.gather` takes:
    an array or a `data_io.FeatureRows` reader)."""
    for start in range(0, len(samples), EVAL_BATCH):
        chunk = samples[start : start + EVAL_BATCH]
        yield chunk, sample_batch(shape, [s.features for s in chunk])[0]


@dataclass
class BatchForward:
    """Intermediates of one batched forward pass, consumed by backward_sample."""

    rows: Array  # B x n x D sampled raw frames
    dense: Array  # B x n x k DenseImages
    pooled: dict[int, tuple[Array, Array]]  # width -> B x M (values, argmax windows)
    masks: dict[int, Array] | None  # width -> B x M dropout scales
    logits: Array  # B x C fused logits
    probabilities: Array  # B x C


def forward_sample(
    params: ModelParams, rows: Array, masks: dict[int, Array] | None = None
) -> BatchForward:
    """Run a B x n x D batch of sampled rows through the whole model. One walk
    over the widths, ascending, sums the heads' logits into one B x C array."""
    tensors = params.tensors
    dense = di.encode(rows, params.reduction)
    pooled = tc.multiscale_forward(dense, params.bank)
    logits = np.zeros((len(rows), params.shape.num_classes))
    for h in params.shape.widths:
        weights, bias = tensors[f"head/h{h}/weights"], tensors[f"head/h{h}/bias"]
        logits += clf.head_forward(pooled[h][0], weights, bias, masks[h] if masks else None)
    return BatchForward(rows, dense, pooled, masks, logits, softmax(logits))


def backward_scratch(shape: ModelShapeSpec, batch_size: int) -> dict[str, Array]:
    """Flat float64 buffers for backward_sample, one per role, each sized for
    the largest width at `batch_size` videos. Every width, and every batch
    of up to that many videos, reuses them through views of their leading
    elements."""
    n, k, M = shape.num_frames, shape.feat_dim, shape.num_filters
    sizes = {
        "grad_W": M * max(shape.widths) * k,
        "grad_map": batch_size * (n - min(shape.widths) + 1) * M,
        "grad_windows": batch_size * max((n - h + 1) * h for h in shape.widths) * k,
        "grad_X": batch_size * n * k,
        "grad_reduction": shape.raw_dim * k,
    }
    return {role: np.empty(size) for role, size in sizes.items()}


def backward_sample(
    params: ModelParams, fwd: BatchForward, grad_fused: Array,
    scratch: dict[str, Array] | None = None,
) -> Iterator[tuple[str, Array]]:
    """Gradients of a scalar loss wrt every named parameter, summed over the
    batch, given the B x C loss gradient on the fused logits. One walk over
    the widths, ascending, hands each head's gradient to its conv, and the
    convs sum their DenseImage gradients into one grad_X in that order.

    Yields (name, gradient) pairs as they are computed: per width its conv
    weights and bias, then its head's, and the reduction's last. No
    parameter is read after its gradient is yielded, so a consumer may
    update it in place before it asks for the next pair. Without `scratch`
    every gradient is a fresh array. With the buffers of backward_scratch
    the conv filter and reduction weight gradients are views into them that
    later pairs overwrite: use each pair before asking for the next.
    """
    tensors = params.tensors
    grad_X = scratch_view(scratch, "grad_X", fwd.dense.shape)
    grad_X.fill(0.0)
    for h in params.shape.widths:
        values, argmax = fwd.pooled[h]
        mask = fwd.masks[h] if fwd.masks else None
        *head_grads, grad_c = clf.head_backward(
            values, tensors[f"head/h{h}/weights"], mask, grad_fused
        )
        conv_grads = tc.conv_scale_backward(
            fwd.dense, tensors[f"conv/h{h}/weights"], values, argmax, grad_c, grad_X, scratch
        )
        yield from zip((f"conv/h{h}/weights", f"conv/h{h}/bias"), conv_grads)
        yield from zip((f"head/h{h}/weights", f"head/h{h}/bias"), head_grads)
    B, n, D = fwd.rows.shape
    grad_X = grad_X.reshape(B * n, -1)
    grad_reduction = scratch_view(scratch, "grad_reduction", (D, grad_X.shape[1]))
    yield "reduction/weights", np.matmul(fwd.rows.reshape(B * n, D).T, grad_X, out=grad_reduction)
    yield "reduction/bias", grad_X.sum(axis=0)


def sample_loss_and_grads(
    params: ModelParams, rows: Array, labels, masks: dict[int, Array] | None = None
) -> tuple[float, dict[str, Array]]:
    """Cross-entropy loss and parameter gradients of a labeled batch, both
    summed over its B samples."""
    fwd = forward_sample(params, rows, masks)
    losses, grad_fused = cross_entropy_from_logits(fwd.logits, labels)
    return float(losses.sum()), dict(backward_sample(params, fwd, grad_fused))


def predict_sample(params: ModelParams, features: Array) -> tuple[int, Array]:
    """Evaluation-mode class prediction and probabilities for one video (B=1).

    No command calls it: `din predict` runs its whole split through
    trainer.evaluate in EVAL_BATCH chunks. It stays as the one-video API."""
    rows, _ = sample_batch(params.shape, [features])
    probabilities = forward_sample(params, rows).probabilities
    return int(clf.predict(probabilities)[0]), probabilities[0]
