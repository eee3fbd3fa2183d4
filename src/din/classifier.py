"""Per-scale classification heads, over a batch.

Each pooled scale feature gets its own fully connected head, a (C x M
weights, C bias) pair that runs as one GEMM over the B x M pooled
features of the batch times its dropout scales (ones in evaluation).
model.forward_sample sums the heads' logits into one B x C array; the
fusion is a plain sum, so every head sees the identical upstream gradient.
"""

from __future__ import annotations

import numpy as np

from .numerics import Array


def head_forward(c_h: Array, weights: Array, bias: Array, mask: Array) -> Array:
    """B x C class logits for one scale: (mask * c_h) @ weights^T + bias.

    c_h is B x M. The mask holds the B x M inverted-dropout scales of the
    head input; evaluation's are ones, and multiplying by 1.0 is exact.
    """
    if c_h.ndim != 2 or c_h.shape[1] != weights.shape[1] or mask.shape != c_h.shape:
        raise ValueError(f"expected B x {weights.shape[1]} pooled features and dropout scales")
    logits = (mask * c_h) @ weights.T
    logits += bias
    return logits


def predict(probabilities: Array) -> Array:
    """Most probable class of each row; ties break to the smallest index."""
    return np.argmax(probabilities, axis=-1)


def head_backward(
    c_h: Array, weights: Array, mask: Array, grad_fused: Array
) -> tuple[Array, Array, Array]:
    """Gradients through one head and its dropout mask, summed over the batch.

    The fused sum hands every head the same B x C grad_fused. Returns
    (grad_weights, grad_bias, B x M grad_c_h).
    """
    if grad_fused.shape != (len(c_h), weights.shape[0]) or c_h.shape[1:] != weights.shape[1:]:
        raise ValueError("expected B x M pooled features and a B x (class count) grad_fused")
    grad_c_h = grad_fused @ weights
    grad_c_h *= mask
    return grad_fused.T @ (mask * c_h), grad_fused.sum(axis=0), grad_c_h
