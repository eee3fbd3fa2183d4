"""Dense numeric kernel: activations, losses, initialization, seeded RNG.

All arrays are float64 numpy arrays in row-major order. Gradient checks
downstream need the double-precision headroom, so nothing here ever drops
to float32. Randomness always flows through an explicit generator; there
is no module-level RNG state.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

Array = np.ndarray


def require_number(name: str, value, integral: bool) -> None:
    """Reject a config value that is not an integer (integral=True) or a number; bools are neither."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, got {value!r}")


def scratch_view(scratch: dict[str, Array] | None, role: str, shape: tuple[int, ...]) -> Array:
    """A C-contiguous float64 array of `shape`: the leading elements of the
    flat buffer scratch[role], or a fresh array when there is no scratch."""
    if scratch is None:
        return np.empty(shape)
    return scratch[role][: math.prod(shape)].reshape(shape)


def make_rng(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic PCG64 generator for (seed, *keys).

    Distinct key tuples yield statistically independent streams, so
    per-epoch or per-purpose streams can be derived from one run seed
    without any draw-order coupling between them.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))


def softmax(logits: Array) -> Array:
    """Stable softmax over the last axis (max-subtraction); a 1-D vector or
    a B x C matrix of rows."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (1, 2) or logits.shape[-1] == 0:
        raise ValueError("softmax expects a non-empty vector or a matrix of rows")
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("softmax expects finite logits")
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_from_logits(logits: Array, labels) -> tuple[Array, Array]:
    """Row-wise negative log-likelihood of labels[b] under softmax(logits[b]).

    logits is B x C and labels holds B class indices. Returns (the B
    losses, grad wrt logits). Each loss is computed through log-sum-exp
    and each gradient row is softmax(logits[b]) - onehot(labels[b]), both
    stable for logits of any magnitude.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or 0 in logits.shape:
        raise ValueError("cross_entropy_from_logits expects a non-empty B x C logit matrix")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1] or labels.dtype.kind not in "iu":
        raise ValueError(f"expected {logits.shape[0]} integer labels, got {labels!r}")
    bad = labels[(labels < 0) | (labels >= logits.shape[1])]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {logits.shape[1]} classes")
    rows = np.arange(logits.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    losses = log_norm - shifted[rows, labels]
    grad = np.exp(shifted - log_norm[:, None])
    grad[rows, labels] -= 1.0
    return losses, grad


def glorot_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, rows: int, cols: int
) -> Array:
    """Uniform draws on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan_in and fan_out must be >= 1")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(rows, cols))


def sample_dropout_mask(
    rng: np.random.Generator, length: int, keep_probability: float
) -> Array:
    """Inverted-dropout scaling vector: Bernoulli keeps scaled by
    1/keep_probability, so masked activations keep their expectation."""
    if not 0.0 < keep_probability <= 1.0:
        raise ValueError("keep_probability must be in (0, 1]")
    kept = rng.random(length) < keep_probability
    return kept / keep_probability
