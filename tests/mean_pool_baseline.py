"""The order-invariant mean-pool baseline, a test-only control model.

Mean over raw frames into a linear head, trained with the same optimizer.
It exists to certify that a dataset actually requires temporal-order
modeling (acceptance criterion 4). It averages every frame, so its samples
hold in-memory T x D arrays, not row readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from din.data_io import Sample
from din.numerics import Array, cross_entropy_from_logits, glorot_uniform
from din.trainer import (
    EpochReport,
    TrainConfig,
    _labels,
    epoch_rng,
    init_rng,
    schedule,
    sgd_momentum_step,
)


@dataclass
class MeanPoolBaseline:
    """Order-invariant control model: mean over raw frames into one linear head."""

    weights: Array  # C x D
    bias: Array  # C


def init_baseline(rng: np.random.Generator, raw_dim: int, num_classes: int) -> MeanPoolBaseline:
    weights = glorot_uniform(rng, raw_dim, num_classes, num_classes, raw_dim)
    return MeanPoolBaseline(weights, np.zeros(num_classes))


def _frame_means(samples: Sequence["Sample"]) -> Array:
    return np.stack([s.features.mean(axis=0, dtype=np.float64) for s in samples])


def evaluate_baseline(
    model: MeanPoolBaseline, samples: Sequence["Sample"]
) -> tuple[float, float]:
    if len(samples) == 0:
        raise ValueError("evaluation split is empty")
    logits = _frame_means(samples) @ model.weights.T + model.bias
    labels = _labels(samples)
    losses, _ = cross_entropy_from_logits(logits, labels)
    correct = int((np.argmax(logits, axis=1) == labels).sum())
    return float(losses.sum()) / len(samples), correct / len(samples)


def train_baseline(
    train_split: Sequence["Sample"],
    val_split: Sequence["Sample"],
    raw_dim: int,
    num_classes: int,
    config: TrainConfig,
) -> tuple[MeanPoolBaseline, list[EpochReport]]:
    """Train the mean-pool control with the same optimizer, learning-rate
    schedule and budget."""
    model = init_baseline(init_rng(config.seed), raw_dim, num_classes)
    named = {"baseline/weights": model.weights, "baseline/bias": model.bias}
    velocity = {name: np.zeros_like(arr) for name, arr in named.items()}
    history: list[EpochReport] = []
    scratch: dict[str, Array] = {}
    for epoch in range(config.max_epochs):
        lr = schedule(history, config)[0]
        rng = epoch_rng(config.seed, epoch)
        order = rng.permutation(len(train_split))
        total_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_split[i] for i in order[start : start + config.batch_size]]
            means = _frame_means(batch)
            logits = means @ model.weights.T + model.bias
            losses, grad_logits = cross_entropy_from_logits(logits, _labels(batch))
            total_loss += float(losses.sum())
            scale = 1.0 / len(batch)
            sgd_momentum_step(
                named,
                {"baseline/weights": grad_logits.T @ means * scale,
                 "baseline/bias": grad_logits.sum(axis=0) * scale}.items(),
                velocity,
                config,
                lr,
                1.0,
                scratch,
            )
        val_loss, val_accuracy = evaluate_baseline(model, val_split)
        history.append(
            EpochReport(epoch, total_loss / len(train_split), val_loss, val_accuracy, lr)
        )
    return model, history
