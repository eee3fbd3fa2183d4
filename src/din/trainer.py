"""Deterministic end-to-end training.

Mini-batch SGD with momentum and L2 weight decay (biases exempt), a
plateau learning-rate schedule driven by validation error, and an epoch
loop whose randomness comes from per-epoch streams derived from
(seed, epoch). Reordering or resuming epochs therefore never reuses or
shifts randomness, which is what makes an interrupted run resumable
bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .classifier import predict
from .model import EVAL_BATCH, ModelParams, backward_sample, batches, forward_sample
from .numerics import (Array, cross_entropy_from_logits, make_rng, require_fields, scratch_view,
                       softmax)

if TYPE_CHECKING:
    from .data_io import Sample


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 5e-4
    initial_lr: float = 5e-4
    lr_decay_factor: float = 0.1
    plateau_patience: int = 5
    max_epochs: int = 50
    dropout_keep: float = 0.5
    seed: int = 0

    def __post_init__(self):
        require_fields(self, finite=True)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 < self.lr_decay_factor < 1.0:
            raise ValueError("lr_decay_factor must be in (0, 1)")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout_keep must be in (0, 1]")
        if min(self.weight_decay, self.initial_lr, self.seed) < 0:
            raise ValueError("weight_decay, initial_lr and seed must be >= 0")
        if self.plateau_patience < 1 or self.max_epochs < 0:
            raise ValueError("plateau_patience >= 1 and max_epochs >= 0 required")


def init_rng(seed: int) -> np.random.Generator:
    """Stream reserved for parameter initialization."""
    return make_rng(seed, 0)


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """Independent stream for one training epoch (shuffle, sampling, dropout)."""
    return make_rng(seed, 1, epoch)


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    current_lr: float

    def __post_init__(self):
        require_fields(self)
        if not 0.0 <= self.val_accuracy <= 1.0:
            raise ValueError(f"val_accuracy must be in [0, 1], got {self.val_accuracy!r}")


@dataclass
class TrainState:
    """Everything fit() accumulates but the best snapshot, which fit's
    caller keeps (`din train` in its checkpoint's best/ group); checkpointing
    both resumes a run exactly. The velocity buffers (None if a load skipped
    them) and one report per completed epoch, in order; the best epoch and
    the learning-rate schedule are functions of the history."""

    velocity: dict[str, Array] | None
    history: list[EpochReport] = field(default_factory=list)

    @classmethod
    def fresh(cls, params: ModelParams) -> "TrainState":
        """The state before the first epoch."""
        return cls({name: np.zeros_like(arr) for name, arr in params.tensors.items()})

    @property
    def best_epoch(self) -> int:
        """The first epoch of the highest validation accuracy; -1 before any."""
        accuracies = [r.val_accuracy for r in self.history]
        return accuracies.index(max(accuracies)) if accuracies else -1

    @property
    def best_val_accuracy(self) -> float:
        return self.history[self.best_epoch].val_accuracy if self.history else -1.0


def schedule(history: Sequence[EpochReport], config: TrainConfig) -> tuple[float, float, int]:
    """(learning rate of the next epoch, best validation error, epochs since
    it improved), replayed from the first epoch: the rate decays by
    lr_decay_factor after `plateau_patience` epochs without a strict
    improvement of the validation error. History epochs other than 0, 1, ...
    or a report whose rate is not the one the replay gives it (1.0 is not 1)
    are a ValueError."""
    epochs = [r.epoch for r in history]
    if epochs != list(range(len(history))):
        raise ValueError(f"history epochs {epochs} are not 0 to {len(history) - 1}")
    lr, best, since = config.initial_lr, math.inf, 0
    for i, report in enumerate(history):
        if repr(report.current_lr) != repr(lr):
            raise ValueError(f"history.{i}.current_lr must be {lr!r}, got {report.current_lr!r}")
        val_error = 1.0 - report.val_accuracy
        if val_error < best - 1e-12:
            best, since = val_error, 0
        else:
            since += 1
            if since >= config.plateau_patience:
                lr, since = lr * config.lr_decay_factor, 0
    return lr, best, since


# Elements per optimizer block: a block's parameter, velocity, gradient and
# scratch slices (1 MB together) stay in a core's L2 cache.
OPT_BLOCK = 32768


def sgd_momentum_step(
    named: dict[str, Array],
    grads: Iterable[tuple[str, Array]],
    velocity: dict[str, Array],
    config: TrainConfig,
    lr: float,
    scale: float,
    scratch: dict[str, Array],
) -> None:
    """One in-place update of every array in `named` and its `velocity`
    buffer: g <- grad*scale; v <- momentum*v + (g + wd*param); param -= lr*v.

    `grads` is a stream of (name, gradient) pairs, such as
    model.backward_sample yields. Each tensor is updated as its pair
    arrives, so the stream may reuse a gradient buffer for the next pair;
    every name of `named` must arrive once, with its shape.

    Weight decay enters as an additive L2 gradient term and never touches
    tensors whose name ends in "/bias". Each tensor is updated in blocks of
    whole rows, about OPT_BLOCK elements each: a scale other than 1 first
    scales the gradient's block in place, then the terms go through one
    buffer in the formula's order of operations, so the result is
    bit-identical to evaluating it over whole tensors with temporaries.
    That buffer is the "block" role of `scratch` (numerics.scratch_view).
    """
    done: set[str] = set()
    for name, grad in grads:
        if name not in named or name in done:
            raise ValueError("gradient names do not match the parameters")
        done.add(name)
        param, vel = named[name], velocity[name]
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        decay = 0.0 if name.endswith("/bias") else config.weight_decay
        rows = max(1, OPT_BLOCK // math.prod(param.shape[1:]))
        block = scratch_view(scratch, "block", (min(rows, len(param)), *param.shape[1:]), OPT_BLOCK)
        for lo in range(0, len(param), rows):
            p, v, g = param[lo : lo + rows], vel[lo : lo + rows], grad[lo : lo + rows]
            term = block[: len(p)]
            if scale != 1.0:
                g *= scale
            v *= config.momentum
            if decay:
                np.multiply(decay, p, out=term)
                term += g
                v += term
            else:
                v += g
            np.multiply(lr, v, out=term)
            p -= term
    if len(done) != len(named):
        raise ValueError("gradient names do not match the parameters")


def _check_finite(named: dict[str, Array], what: str) -> None:
    for name, arr in named.items():
        # A NaN or an infinity shows in the max or the min; neither allocates.
        if not (np.isfinite(arr.max()) and np.isfinite(arr.min())):
            raise ArithmeticError(f"non-finite values in {what} tensor {name}")


def _labels(samples: Sequence["Sample"]) -> Array:
    return np.array([s.label for s in samples], dtype=np.int64)


def train_epoch(
    params: ModelParams,
    samples: Sequence["Sample"],
    config: TrainConfig,
    velocity: dict[str, Array],
    lr: float,
    rng: np.random.Generator,
    scratch: dict[str, Array],
) -> float:
    """One pass over the split in a fresh shuffled order at rate `lr`, in the
    scratch; one batched forward/backward and one momentum step per mini-batch with
    the batch-mean gradient, applied tensor by tensor as backward yields it,
    so no whole gradient set is ever held. Returns the mean loss."""
    if len(samples) == 0:
        raise ValueError("training split is empty")
    shuffled = [samples[i] for i in rng.permutation(len(samples))]
    total_loss = 0.0
    for batch, rows, masks in batches(
        params.shape, shuffled, config.batch_size, scratch, rng, config.dropout_keep
    ):
        fwd = forward_sample(params, rows, masks, scratch)
        losses, grad_fused = cross_entropy_from_logits(fwd.logits, _labels(batch))
        total_loss += float(losses.sum())
        # Each gradient is scaled to the batch mean and applied before
        # backward computes the next one into the same scratch.
        sgd_momentum_step(params.tensors, backward_sample(params, fwd, grad_fused, scratch),
                          velocity, config, lr, 1.0 / len(batch), scratch)
    return total_loss / len(samples)


def evaluate(
    params: ModelParams, samples: Sequence["Sample"], scratch: dict[str, Array]
) -> tuple[float, float, Array]:
    """Center-sampled, keep-all-dropout (loss, accuracy, N x C probabilities)
    over a split, run model.EVAL_BATCH samples at a time in the scratch; the
    probability rows are in the order of `samples`."""
    if len(samples) == 0:
        raise ValueError("evaluation split is empty")
    total_loss = 0.0
    probabilities = np.empty((len(samples), params.shape.num_classes))
    start = 0
    for chunk, rows, masks in batches(params.shape, samples, EVAL_BATCH, scratch):
        logits = forward_sample(params, rows, masks, scratch).logits
        losses, _ = cross_entropy_from_logits(logits, _labels(chunk))
        total_loss += float(losses.sum())
        probabilities[start : start + len(chunk)] = softmax(logits)
        start += len(chunk)
    correct = int((predict(probabilities) == _labels(samples)).sum())
    return total_loss / len(samples), correct / len(samples), probabilities


def fit(
    params: ModelParams,
    train_split: Sequence["Sample"],
    val_split: Sequence["Sample"],
    config: TrainConfig,
    state: TrainState,
    on_epoch: Callable[[EpochReport, bool], None],
) -> TrainState:
    """Train up to config.max_epochs, each epoch at the rate `schedule`
    gives. Start from TrainState.fresh, or resume from a checkpoint's state:
    epochs already in the history are skipped and the remaining ones
    reproduce an uninterrupted run bit-exactly. Every epoch and validation
    pass runs in one scratch. After each epoch's report joins the history,
    on_epoch(report, improved) is called; `improved` says that the epoch is
    the new best, so `params` are now the best snapshot, which the caller
    keeps. Mutates `params` and `state` in place and returns the state.
    """
    scratch: dict[str, Array] = {}
    for epoch in range(len(state.history), config.max_epochs):
        lr = schedule(state.history, config)[0]
        rng = epoch_rng(config.seed, epoch)
        # A diverging epoch overflows long before its logits stop being
        # finite; report it once, as an ArithmeticError, not as warnings,
        # naming a non-finite tensor before evaluate finds only its logits.
        try:
            with np.errstate(all="ignore"):
                train_loss = train_epoch(params, train_split, config, state.velocity, lr, rng,
                                         scratch)
                _check_finite(params.tensors, "parameter")
                _check_finite(state.velocity, "velocity")
                val_loss, val_accuracy, _ = evaluate(params, val_split, scratch)
        except ArithmeticError as exc:
            raise ArithmeticError(f"training diverged in epoch {epoch}: {exc}") from exc
        state.history.append(EpochReport(epoch, train_loss, val_loss, val_accuracy, lr))
        on_epoch(state.history[-1], state.best_epoch == epoch)
    return state
