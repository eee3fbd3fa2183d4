"""Full model state and the per-sample forward/backward composition.

The trainable chain is: raw frame features (D) -> linear reduction (k)
-> DenseImage rows -> multi-width temporal convolution + max pooling
-> per-scale heads -> fused logits. Gradients are hand-written in each
layer module. This file holds the parameter table, the one description
of every trainable tensor's name, shape and order that the optimizer,
checkpoints and the parameter accounting share, and wires the layers
together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifier as clf
from . import denseimage as di
from . import temporal_conv as tc
from .numerics import Array, DropoutMask, cross_entropy_from_logits, glorot_uniform


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
    table, in table order. The optimizer mutates these arrays in place."""

    shape: ModelShapeSpec
    tensors: dict[str, Array]

    def __post_init__(self):
        expected = parameter_shapes(self.shape)
        for name in self.tensors:
            if name not in expected:
                raise ValueError(f"{name}: unexpected tensor")
        for name, dims in expected.items():
            if name not in self.tensors:
                raise ValueError(f"{name}: missing tensor")
            got = np.shape(self.tensors[name])
            if got != dims:
                raise ValueError(f"{name}: shape {got}, expected {dims}")
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

    @property
    def heads(self) -> dict[int, tuple[Array, Array]]:
        """width -> (C x M weights, C bias)."""
        return {h: self._pair(f"head/h{h}") for h in self.shape.widths}


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
        h: clf.head_forward(pooled[h].values, head, masks.get(h) if masks else None)
        for h, head in params.heads.items()
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
