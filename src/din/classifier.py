"""Per-scale classification heads and score fusion.

Each pooled scale feature gets its own fully connected head; the per-scale
logits are summed elementwise and softmaxed once. Because the fusion is a
plain sum, every head sees the identical upstream gradient. A head is a
(C x M weights, C bias) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Array, DropoutMask, softmax


@dataclass(frozen=True)
class ClassScores:
    fused_logits: Array
    probabilities: Array
    per_scale_logits: dict[int, Array]


def head_forward(
    c_h: Array, head: tuple[Array, Array], mask: DropoutMask | None = None
) -> Array:
    """Class logits for one scale: weights @ (mask * c_h) + bias.

    The mask is the training-time dropout on the head input; omitting it
    is evaluation mode.
    """
    weights, bias = head
    c_h = np.asarray(c_h, dtype=np.float64)
    if c_h.shape != (weights.shape[1],):
        raise ValueError(f"expected pooled feature of length {weights.shape[1]}")
    if mask is not None:
        if mask.values.shape != c_h.shape:
            raise ValueError("dropout mask length must match the pooled feature")
        c_h = mask.values * c_h
    return weights @ c_h + bias


def fuse_and_score(per_scale_logits: dict[int, Array]) -> ClassScores:
    """Sum per-scale logits elementwise, then softmax the fused vector."""
    if not per_scale_logits:
        raise ValueError("need at least one scale")
    lengths = {v.shape for v in per_scale_logits.values()}
    if len(lengths) != 1:
        raise ValueError("per-scale logits must all have the same length")
    fused = np.zeros(next(iter(lengths))[0])
    for h in sorted(per_scale_logits):
        fused += per_scale_logits[h]
    return ClassScores(fused, softmax(fused), dict(per_scale_logits))


def predict(scores: ClassScores) -> int:
    """Most probable class; ties break to the smallest index."""
    return int(np.argmax(scores.probabilities))


def classifier_backward(
    c_h: dict[int, Array],
    heads: dict[int, tuple[Array, Array]],
    masks: dict[int, DropoutMask] | None,
    grad_fused: Array,
) -> tuple[dict[int, tuple[Array, Array]], dict[int, Array]]:
    """Gradients through fusion, heads and dropout masks.

    The fused sum fans grad_fused unchanged to every scale. Returns
    ({h: (grad_weights, grad_bias)}, {h: grad_c_h}).
    """
    if set(c_h) != set(heads):
        raise ValueError("pooled features and heads must cover the same widths")
    grad_fused = np.asarray(grad_fused, dtype=np.float64)
    head_grads: dict[int, tuple[Array, Array]] = {}
    grad_c: dict[int, Array] = {}
    for h, (weights, _) in heads.items():
        if grad_fused.shape != (weights.shape[0],):
            raise ValueError("grad_fused length must equal the class count")
        feat = np.asarray(c_h[h], dtype=np.float64)
        if feat.shape != (weights.shape[1],):
            raise ValueError(f"pooled feature for width {h} has the wrong length")
        mask = masks.get(h) if masks else None
        inp = mask.values * feat if mask is not None else feat
        grad_weights = np.outer(grad_fused, inp)
        grad_bias = grad_fused.copy()
        grad_inp = weights.T @ grad_fused
        grad_c[h] = mask.values * grad_inp if mask is not None else grad_inp
        head_grads[h] = (grad_weights, grad_bias)
    return head_grads, grad_c
