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


@dataclass
class OptimizerState:
    """Velocity buffers (None if a load skipped them) plus the plateau-schedule bookkeeping."""

    velocity: dict[str, Array] | None
    current_lr: float
    best_val_error: float = math.inf
    epochs_since_improvement: int = 0
    epochs_completed: int = 0

    def __post_init__(self):
        require_fields(self)
        if min(self.epochs_since_improvement, self.epochs_completed) < 0:
            raise ValueError("epochs_since_improvement and epochs_completed must be >= 0")
        if not 0.0 <= self.current_lr < math.inf:
            raise ValueError(f"current_lr must be finite and >= 0, got {self.current_lr!r}")
        if not (0.0 <= self.best_val_error <= 1.0 or self.best_val_error == math.inf):
            raise ValueError(f"best_val_error {self.best_val_error!r} is neither inf nor in [0, 1]")

    @classmethod
    def init(cls, params: ModelParams, config: TrainConfig) -> "OptimizerState":
        velocity = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
        return cls(velocity, config.initial_lr)


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
        if not 0.0 <= self.current_lr < math.inf:
            raise ValueError(f"current_lr must be finite and >= 0, got {self.current_lr!r}")


@dataclass
class TrainState:
    """Everything fit() accumulates but the best snapshot, which fit's
    caller keeps (`din train` in its checkpoint's best/ group); checkpointing
    both resumes a run exactly. The history holds one report per completed
    epoch, in order."""

    optimizer: OptimizerState
    history: list[EpochReport] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = -1.0

    def __post_init__(self):
        require_fields(self)
        done = self.optimizer.epochs_completed
        epochs = [r.epoch for r in self.history]
        if epochs != list(range(done)):
            raise ValueError(f"history epochs {epochs} do not match epochs_completed = {done}")
        if not -1 <= self.best_epoch < done:
            raise ValueError(f"best_epoch {self.best_epoch} is neither -1 nor a completed epoch")
        best = self.history[self.best_epoch].val_accuracy if self.best_epoch >= 0 else -1.0
        if self.best_val_accuracy != best:
            raise ValueError(f"best_val_accuracy {self.best_val_accuracy!r} must be {best!r} "
                             f"with best_epoch {self.best_epoch}")

    @classmethod
    def fresh(cls, params: ModelParams, config: TrainConfig) -> "TrainState":
        """The state before the first epoch."""
        return cls(OptimizerState.init(params, config))


# Elements per optimizer block: a block's parameter, velocity, gradient and
# scratch slices (1 MB together) stay in a core's L2 cache.
OPT_BLOCK = 32768


def sgd_momentum_step(
    named: dict[str, Array],
    grads: Iterable[tuple[str, Array]],
    state: OptimizerState,
    config: TrainConfig,
    scale: float,
    scratch: dict[str, Array],
) -> None:
    """One in-place update of every array in `named`:
    g <- grad*scale; v <- momentum*v + (g + wd*param); param -= lr*v.

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
        param, vel = named[name], state.velocity[name]
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
            np.multiply(state.current_lr, v, out=term)
            p -= term
    if len(done) != len(named):
        raise ValueError("gradient names do not match the parameters")


def plateau_update(state: OptimizerState, val_error: float, config: TrainConfig) -> None:
    """Decay the learning rate after `plateau_patience` epochs without a
    strict improvement of the validation error."""
    if not 0.0 <= val_error <= 1.0:
        raise ValueError("val_error must be in [0, 1]")
    if val_error < state.best_val_error - 1e-12:
        state.best_val_error = val_error
        state.epochs_since_improvement = 0
    else:
        state.epochs_since_improvement += 1
        if state.epochs_since_improvement >= config.plateau_patience:
            state.current_lr *= config.lr_decay_factor
            state.epochs_since_improvement = 0


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
    state: OptimizerState,
    rng: np.random.Generator,
    scratch: dict[str, Array],
) -> float:
    """One pass over the split in a fresh shuffled order, in the scratch;
    one batched forward/backward and one momentum step per mini-batch with
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
                          state, config, 1.0 / len(batch), scratch)
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
    """Train up to config.max_epochs. Start from TrainState.fresh, or resume
    from a checkpoint's state: epochs already completed are skipped and the
    remaining ones reproduce an uninterrupted run bit-exactly. Every epoch
    and validation pass runs in one scratch. After each epoch's bookkeeping,
    on_epoch(report, improved) is called; `improved` says that the epoch is
    the new best, so `params` are now the best snapshot, which the caller
    keeps. Mutates `params` and `state` in place and returns the state.
    """
    opt, scratch = state.optimizer, {}
    for epoch in range(opt.epochs_completed, config.max_epochs):
        lr_used = opt.current_lr
        rng = epoch_rng(config.seed, epoch)
        # A diverging epoch overflows long before its logits stop being
        # finite; report it once, as an ArithmeticError, not as warnings.
        try:
            with np.errstate(all="ignore"):
                train_loss = train_epoch(params, train_split, config, opt, rng, scratch)
                val_loss, val_accuracy, _ = evaluate(params, val_split, scratch)
            _check_finite(params.tensors, "parameter")
            _check_finite(opt.velocity, "velocity")
        except ArithmeticError as exc:
            raise ArithmeticError(f"training diverged in epoch {epoch}: {exc}") from exc
        improved = val_accuracy > state.best_val_accuracy
        if improved:
            state.best_epoch = epoch
            state.best_val_accuracy = val_accuracy
        plateau_update(opt, 1.0 - val_accuracy, config)
        opt.epochs_completed = epoch + 1
        report = EpochReport(epoch, train_loss, val_loss, val_accuracy, lr_used)
        state.history.append(report)
        on_epoch(report, improved)
    return state
