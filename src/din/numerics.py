"""Dense numeric kernel: activations, losses, initialization, seeded RNG.

All arrays are float64 numpy arrays in row-major order. Gradient checks
downstream need the double-precision headroom, so nothing here ever drops
to float32. Randomness always flows through an explicit generator; there
is no module-level RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


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
    """Stable softmax of a 1-D logit vector (max-subtraction)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError("softmax expects a non-empty 1-D vector")
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax expects finite logits")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def cross_entropy_from_logits(logits: Array, label: int) -> tuple[float, Array]:
    """Negative log-likelihood of `label` under softmax(logits).

    Returns (loss, grad wrt logits). The loss is computed through
    log-sum-exp and the gradient is softmax(logits) - onehot(label),
    both stable for logits of any magnitude.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError("cross_entropy_from_logits expects a non-empty 1-D vector")
    if not 0 <= label < logits.size:
        raise ValueError(f"label {label} out of range for {logits.size} classes")
    shifted = logits - logits.max()
    log_norm = np.log(np.exp(shifted).sum())
    loss = float(log_norm - shifted[label])
    grad = np.exp(shifted - log_norm)
    grad[label] -= 1.0
    return loss, grad


def glorot_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, rows: int, cols: int
) -> Array:
    """Uniform draws on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fan_in and fan_out must be >= 1")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(rows, cols))


@dataclass(frozen=True)
class DropoutMask:
    """Inverted-dropout scaling vector: elements are 0 or 1/keep_probability."""

    keep_probability: float
    values: Array


def sample_dropout_mask(
    rng: np.random.Generator, length: int, keep_probability: float
) -> DropoutMask:
    """Bernoulli keep mask scaled so masked activations keep their expectation."""
    if not 0.0 < keep_probability <= 1.0:
        raise ValueError("keep_probability must be in (0, 1]")
    kept = rng.random(length) < keep_probability
    return DropoutMask(keep_probability, kept / keep_probability)
