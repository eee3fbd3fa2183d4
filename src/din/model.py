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
through it, in a scratch (numerics.scratch_view) its owner makes: a
training run keeps one for all its epochs and validation passes, each
inference command and check makes its own. Evaluation is dropout that
keeps every unit (ones masks). A BatchForward is valid until the next
forward on its scratch: the forward keeps every width's feature map there,
and the backward finds the pool's argmax windows in those maps.
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
    dropout_scales,
    from_fields,
    glorot_uniform,
    require_fields,
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


@dataclass
class ModelParams:
    """All trainable state: the live name -> array dict of the parameter
    table, in table order. The optimizer mutates these arrays in place. A
    tensor missing from the dict, not in the table or of another shape is a
    ValueError that starts with its name."""

    shape: ModelShapeSpec
    tensors: dict[str, Array]

    def __post_init__(self):
        expected = parameter_shapes(self.shape)
        for name in [*(n for n in self.tensors if n not in expected), *expected]:
            if name not in expected or name not in self.tensors:
                raise ValueError(f"{name}: {'missing' if name in expected else 'unexpected'} tensor")
            if np.shape(self.tensors[name]) != expected[name]:
                raise ValueError(f"{name}: shape {np.shape(self.tensors[name])}, "
                                 f"expected {expected[name]}")
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


def sample_batch(
    shape: ModelShapeSpec,
    videos: Sequence,
    scratch: dict[str, Array],
    rng: np.random.Generator | None = None,
    dropout_keep: float = 1.0,
) -> tuple[Array, dict[int, Array]]:
    """(B x n x D sampled rows, width -> B x M dropout scales).

    Without an rng this is evaluation: center sampling. With one, each
    video in turn draws its masks, all widths' in one draw of H*M uniforms,
    widths ascending (only when dropout_keep < 1), then its random segment
    indices; reruns and resumed runs are bit-exact because that order is
    fixed. A batch that draws no masks gets one read-only ones view, which
    draws nothing and holds no memory. The rows and drawn scales are views
    into the scratch's "rows" and "masks" roles.
    """
    M = shape.num_filters
    rows = scratch_view(scratch, "rows", (len(videos), shape.num_frames, shape.raw_dim))
    draw = rng is not None and dropout_keep < 1.0
    if draw:
        scales = scratch_view(scratch, "masks", (len(videos), len(shape.widths) * M))
    for b, features in enumerate(videos):
        if draw:
            rng.random(out=scales[b])
        di.gather(features, shape.num_frames, rng, out=rows[b])
    if not draw:
        return rows, dict.fromkeys(shape.widths, np.broadcast_to(1.0, (len(videos), M)))
    dropout_scales(scales, dropout_keep)
    return rows, {h: scales[:, i * M : (i + 1) * M] for i, h in enumerate(shape.widths)}


# Videos per evaluation forward pass: a few MB of intermediates at the paper shape.
EVAL_BATCH = 32


def batches(shape: ModelShapeSpec, samples: Sequence, size: int, scratch: dict[str, Array],
            rng: np.random.Generator | None = None, dropout_keep: float = 1.0) -> Iterator[tuple]:
    """(chunk, its B x n x D rows, its width -> B x M masks) for consecutive
    chunks of `size` samples (anything whose .features `denseimage.gather`
    takes: an array or a `data_io.FeatureRows` reader), drawn by sample_batch
    with `rng` and `dropout_keep` into the scratch the caller passes: the
    rows and masks, and whatever a chunk's passes put in the scratch, are
    valid until the next chunk is drawn."""
    for start in range(0, len(samples), size):
        chunk = samples[start : start + size]
        yield chunk, *sample_batch(shape, [s.features for s in chunk], scratch, rng, dropout_keep)


@dataclass
class BatchForward:
    """Intermediates of one batched forward pass, consumed by backward_sample.
    Rows, dense, the maps and the masks are views into its scratch, valid
    until the next forward on that scratch."""

    rows: Array  # B x n x D sampled raw frames
    dense: Array  # B x n x k DenseImages
    pooled: dict[int, tuple[Array, Array]]  # width -> (B x M values, B x W x M map)
    masks: dict[int, Array]  # width -> B x M dropout scales
    logits: Array  # B x C fused logits


def forward_sample(
    params: ModelParams, rows: Array, masks: dict[int, Array], scratch: dict[str, Array]
) -> BatchForward:
    """Run a B x n x D batch of sampled rows, with width -> B x M dropout masks
    (ones in evaluation), through the whole model in the scratch. One walk over
    the widths, ascending, sums the heads' logits into one B x C array."""
    tensors = params.tensors
    dense = di.encode(rows, params.reduction, scratch)
    pooled = tc.multiscale_forward(dense, params.bank, scratch)
    logits = np.zeros((len(rows), params.shape.num_classes))
    for h in params.shape.widths:
        weights, bias = tensors[f"head/h{h}/weights"], tensors[f"head/h{h}/bias"]
        logits += clf.head_forward(pooled[h][0], weights, bias, masks[h])
    return BatchForward(rows, dense, pooled, masks, logits)


def backward_sample(
    params: ModelParams, fwd: BatchForward, grad_fused: Array, scratch: dict[str, Array]
) -> Iterator[tuple[str, Array]]:
    """Gradients of a scalar loss wrt every named parameter, summed over the
    batch, given the B x C loss gradient on the fused logits. One walk over
    the widths, ascending, hands each head's gradient to its conv, and the
    convs sum their DenseImage gradients into one grad_X in that order.

    Yields (name, gradient) pairs as they are computed: per width its conv
    weights and bias, then its head's, and the reduction's last. No
    parameter is read after its gradient is yielded, so a consumer may
    update it in place before it asks for the next pair. The conv filter
    and reduction weight gradients are views into the scratch that later
    pairs overwrite: use each pair before asking for the next.
    """
    tensors, shape = params.tensors, params.shape
    (B, n, D), k, M = fwd.rows.shape, shape.feat_dim, shape.num_filters
    grad_X = scratch_view(scratch, "grad_X", fwd.dense.shape)
    grad_X.fill(0.0)
    # Each width's window then filter gradients, and last the reduction's,
    # go through one buffer made for the largest (see numerics.scratch_view):
    # a width's window gradients outgrow its filter gradient if B*(n-h+1) > M.
    sizes = (max(B * (n - h + 1), M) * h for h in shape.widths)
    grad = scratch_view(scratch, "grad", (max(D, *sizes) * k,))
    for h in shape.widths:
        values, fmap = fwd.pooled[h]
        *head_grads, grad_c = clf.head_backward(
            values, tensors[f"head/h{h}/weights"], fwd.masks[h], grad_fused
        )
        conv_grads = tc.conv_scale_backward(
            fwd.dense, tensors[f"conv/h{h}/weights"], values, fmap, grad_c, grad_X, grad, scratch
        )
        yield from zip((f"conv/h{h}/weights", f"conv/h{h}/bias"), conv_grads)
        yield from zip((f"head/h{h}/weights", f"head/h{h}/bias"), head_grads)
    grad_X = grad_X.reshape(B * n, k)
    grad_reduction = grad[: D * k].reshape(D, k)
    yield "reduction/weights", np.matmul(fwd.rows.reshape(B * n, D).T, grad_X, out=grad_reduction)
    yield "reduction/bias", grad_X.sum(axis=0)


def sample_loss_and_grads(
    params: ModelParams, rows: Array, labels, masks: dict[int, Array]
) -> tuple[float, dict[str, Array]]:
    """Cross-entropy loss and parameter gradients of a labeled batch, both
    summed over its B samples, in a scratch of its own; each gradient is
    copied as it arrives, since later pairs reuse its buffer."""
    scratch: dict[str, Array] = {}
    fwd = forward_sample(params, rows, masks, scratch)
    losses, grad_fused = cross_entropy_from_logits(fwd.logits, labels)
    pairs = backward_sample(params, fwd, grad_fused, scratch)
    return float(losses.sum()), {name: grad.copy() for name, grad in pairs}


def predict_sample(params: ModelParams, features: Array) -> tuple[int, Array]:
    """Evaluation-mode class prediction and probabilities for one video (B=1).

    No command calls it: `din predict` runs its whole split through
    trainer.evaluate in EVAL_BATCH chunks. It stays as the one-video API."""
    scratch: dict[str, Array] = {}
    rows, masks = sample_batch(params.shape, [features], scratch)
    probabilities = softmax(forward_sample(params, rows, masks, scratch).logits)
    return int(clf.predict(probabilities)[0]), probabilities[0]
