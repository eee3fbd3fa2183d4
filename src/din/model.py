"""Full model state and the per-sample forward/backward composition.

The trainable chain is: raw frame features (D) -> linear reduction (k)
-> DenseImage rows -> multi-width temporal convolution + max pooling
-> per-scale heads -> fused logits. Gradients are hand-written in each
layer module; this file only wires them together and flattens parameters
into a stable name -> array mapping shared by the optimizer, checkpoints
and the parameter accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifier as clf
from . import denseimage as di
from . import temporal_conv as tc
from .numerics import Array, DropoutMask, cross_entropy_from_logits


@dataclass(frozen=True)
class ModelShapeSpec:
    """All size constants of one model: D, k, n, H, M, C."""

    raw_dim: int
    feat_dim: int
    num_frames: int
    widths: tuple[int, ...]
    num_filters: int
    num_classes: int

    def __post_init__(self):
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

    @classmethod
    def from_dict(cls, d: dict) -> "ModelShapeSpec":
        return cls(
            raw_dim=int(d["raw_dim"]),
            feat_dim=int(d["feat_dim"]),
            num_frames=int(d["num_frames"]),
            widths=tuple(int(h) for h in d["widths"]),
            num_filters=int(d["num_filters"]),
            num_classes=int(d["num_classes"]),
        )


@dataclass
class ModelParams:
    """All trainable state: reduction layer, filter bank, per-scale heads."""

    shape: ModelShapeSpec
    reduction: di.ReductionLayer
    bank: tc.TemporalFilterBank
    heads: dict[int, clf.ScaleHead]

    def __post_init__(self):
        s = self.shape
        if (self.reduction.raw_dim, self.reduction.feat_dim) != (s.raw_dim, s.feat_dim):
            raise ValueError("reduction shape does not match the spec")
        if self.bank.widths != s.widths or self.bank.channels != s.num_filters:
            raise ValueError("filter bank shape does not match the spec")
        if tuple(sorted(self.heads)) != s.widths:
            raise ValueError("heads must cover exactly the bank widths")
        for h, head in self.heads.items():
            if (head.num_classes, head.in_dim) != (s.num_classes, s.num_filters):
                raise ValueError(f"head for width {h} does not match the spec")


def init_model(shape: ModelShapeSpec, rng: np.random.Generator) -> ModelParams:
    """Glorot-initialized weights, zero biases, in a fixed draw order."""
    reduction = di.init_reduction_layer(rng, shape.raw_dim, shape.feat_dim)
    bank = tc.init_filter_bank(rng, shape.widths, shape.num_filters, shape.feat_dim)
    heads = {
        h: clf.init_scale_head(rng, h, shape.num_filters, shape.num_classes)
        for h in shape.widths
    }
    return ModelParams(shape, reduction, bank, heads)


def named_parameters(params: ModelParams) -> dict[str, Array]:
    """Stable name -> array view of every trainable tensor.

    The arrays are the live parameter buffers, not copies; the optimizer
    mutates them in place. Names ending in "/bias" are exempt from weight
    decay and the ordering here is the serialization order.
    """
    named: dict[str, Array] = {
        "reduction/weights": params.reduction.weights,
        "reduction/bias": params.reduction.bias,
    }
    for h in params.bank.widths:
        named[f"conv/h{h}/weights"] = params.bank.weights[h]
        named[f"conv/h{h}/bias"] = params.bank.biases[h]
    for h in params.shape.widths:
        named[f"head/h{h}/weights"] = params.heads[h].weights
        named[f"head/h{h}/bias"] = params.heads[h].bias
    return named


def clone_params(params: ModelParams) -> ModelParams:
    """Deep copy of all parameter arrays (snapshot for best-model tracking)."""
    reduction = di.ReductionLayer(
        params.reduction.weights.copy(), params.reduction.bias.copy()
    )
    bank = tc.TemporalFilterBank(
        {h: w.copy() for h, w in params.bank.weights.items()},
        {h: b.copy() for h, b in params.bank.biases.items()},
    )
    heads = {
        h: clf.ScaleHead(h, head.weights.copy(), head.bias.copy())
        for h, head in params.heads.items()
    }
    return ModelParams(params.shape, reduction, bank, heads)


def params_from_tensors(shape: ModelShapeSpec, tensors: dict[str, Array]) -> ModelParams:
    """Rebuild a ModelParams from the named-tensor mapping (checkpoint load)."""
    expected = set(parameter_shapes(shape))
    if set(tensors) != expected:
        missing = expected - set(tensors)
        extra = set(tensors) - expected
        raise ValueError(f"tensor names mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    reduction = di.ReductionLayer(tensors["reduction/weights"], tensors["reduction/bias"])
    bank = tc.TemporalFilterBank(
        {h: tensors[f"conv/h{h}/weights"] for h in shape.widths},
        {h: tensors[f"conv/h{h}/bias"] for h in shape.widths},
    )
    heads = {
        h: clf.ScaleHead(h, tensors[f"head/h{h}/weights"], tensors[f"head/h{h}/bias"])
        for h in shape.widths
    }
    return ModelParams(shape, reduction, bank, heads)


def parameter_shapes(shape: ModelShapeSpec) -> dict[str, tuple[int, ...]]:
    """Expected shape of every named tensor for a given model spec."""
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
class SampleCache:
    """Forward-pass intermediates for one sample, consumed by backward."""

    raw_rows: Array  # n x D raw features of the sampled frames
    ms_cache: tc.MultiscaleCache
    masks: dict[int, DropoutMask] | None


def forward_sample(
    params: ModelParams,
    features: Array,
    mode: di.SamplingMode = di.SamplingMode.EVAL_CENTER,
    rng: np.random.Generator | None = None,
    masks: dict[int, DropoutMask] | None = None,
) -> tuple[clf.ClassScores, SampleCache]:
    """Run one raw feature sequence through the whole model."""
    raw_rows, dense = di.encode(
        features, params.reduction, params.shape.num_frames, mode, rng
    )
    pooled, ms_cache = tc.multiscale_forward(dense, params.bank)
    per_scale = {
        h: clf.head_forward(pooled[h].values, params.heads[h],
                            masks.get(h) if masks else None)
        for h in params.shape.widths
    }
    return clf.fuse_and_score(per_scale), SampleCache(raw_rows, ms_cache, masks)


def backward_sample(
    params: ModelParams, cache: SampleCache, grad_fused: Array
) -> dict[str, Array]:
    """Gradients of a scalar loss wrt every named parameter, given the
    loss gradient on the fused logits."""
    pooled_values = {h: p.values for h, p in cache.ms_cache.pooled.items()}
    head_grads, grad_c = clf.classifier_backward(
        pooled_values, params.heads, cache.masks, grad_fused
    )
    grad_W, grad_b, grad_X = tc.multiscale_backward(cache.ms_cache, grad_c)
    grads: dict[str, Array] = {
        "reduction/weights": cache.raw_rows.T @ grad_X,
        "reduction/bias": grad_X.sum(axis=0),
    }
    for h in params.shape.widths:
        grads[f"conv/h{h}/weights"] = grad_W[h]
        grads[f"conv/h{h}/bias"] = grad_b[h]
        gw, gb = head_grads[h]
        grads[f"head/h{h}/weights"] = gw
        grads[f"head/h{h}/bias"] = gb
    return grads


def sample_loss_and_grads(
    params: ModelParams,
    features: Array,
    label: int,
    mode: di.SamplingMode = di.SamplingMode.EVAL_CENTER,
    rng: np.random.Generator | None = None,
    masks: dict[int, DropoutMask] | None = None,
) -> tuple[float, dict[str, Array]]:
    """Cross-entropy loss and parameter gradients for one labeled sample."""
    scores, cache = forward_sample(params, features, mode, rng, masks)
    loss, grad_fused = cross_entropy_from_logits(scores.fused_logits, label)
    return loss, backward_sample(params, cache, grad_fused)


def predict_sample(params: ModelParams, features: Array) -> tuple[int, Array]:
    """Evaluation-mode class prediction and probabilities for one sample."""
    scores, _ = forward_sample(params, features)
    return clf.predict(scores), scores.probabilities
