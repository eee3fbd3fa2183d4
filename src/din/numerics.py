"""Dense numeric kernel: activations, losses, initialization, seeded RNG,
and the field checks every config and checkpoint record runs on itself.

All arrays are float64 numpy arrays in row-major order. Gradient checks
downstream need the double-precision headroom, so nothing here ever drops
to float32. Randomness always flows through an explicit generator; there
is no module-level RNG state.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import fields

import numpy as np

Array = np.ndarray

# A bad value as the field checks show it: reprlib's bounded form, one
# container level deep, so that any value, however deep, is one short line.
SHOWN = reprlib.Repr()
SHOWN.maxlevel = 1


def require_fields(record, finite: bool = False) -> None:
    """Type-check, not coerce, a dataclass record's number fields by their
    string annotations, naming the bad one: `int` takes integers, `float`
    numbers (never bools), `tuple[int, ...]` a list or tuple of integers and
    `X | None` also None. With `finite`, no number may be infinite or NaN."""
    for f in fields(record):
        value, kind = getattr(record, f.name), f.type.removesuffix(" | None")
        if kind not in ("int", "float", "tuple[int, ...]") or value is None and kind != f.type:
            continue
        if kind == "tuple[int, ...]" and not isinstance(value, (list, tuple)):
            raise ValueError(f"{f.name} must be a list of integers, got {SHOWN.repr(value)}")
        number, what = ((numbers.Real, "a number") if kind == "float"
                        else (numbers.Integral, "an integer"))
        for v in value if kind == "tuple[int, ...]" else [value]:
            if isinstance(v, bool) or not isinstance(v, number):
                raise ValueError(f"{f.name} must be {what}, got {SHOWN.repr(v)}")
            if finite and not -math.inf < v < math.inf:
                raise ValueError(f"{f.name} must be finite, got {SHOWN.repr(v)}")


def from_fields(cls, d: dict):
    """cls(**d) for a dataclass `cls`: a `d` that is not a dict, or that
    misses or adds a field, is a ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__}: expected an object, got {SHOWN.repr(d)}")
    names = {f.name for f in fields(cls)}
    key = min(names ^ set(d), default=None)
    if key is not None:
        raise ValueError(f"{cls.__name__}: {'missing' if key in names else 'unknown'} key {key!r}")
    return cls(**d)


def scratch_view(scratch: dict[str, Array], role: str, shape: tuple[int, ...]) -> Array:
    """A C-contiguous float64 array of `shape`: the leading elements of the
    flat buffer scratch[role].

    This is the one contract of the engine's scratch: a role -> buffer dict
    that every engine call runs in, made by whoever owns the run, never by
    model.batches; trainer.fit keeps one for all its epochs and validation
    passes. A role's buffer is created the first time the role is asked
    for and replaced only when a request does not fit; an array from here
    is valid until the next request for its role. A call's first batch is
    its largest and the widths run ascending, so a role sized by the batch
    or by one width's windows is first asked for at its largest; a role
    whose requests vary by width or by tensor is first asked for at the
    most it will hold. At a batch_size below model.EVAL_BATCH, fit's first
    validation pass regrows the batch-sized roles once (about 2.5 MB more
    peak at the paper shape with batch_size 16). Regrowing a large buffer
    mid-call frees a mapped block, which raises glibc's mmap threshold
    (mallopt(3)), moves later buffers onto the heap and raises peak memory.
    """
    size = math.prod(shape)
    if role not in scratch or scratch[role].size < size:
        scratch[role] = np.empty(size)
    return scratch[role][:size].reshape(shape)


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


def dropout_scales(draws: Array, keep_probability: float) -> Array:
    """Turn an array of uniform [0, 1) draws into inverted-dropout scales,
    in place: Bernoulli keeps (a draw below keep_probability) scaled by
    1/keep_probability, so masked activations keep their expectation."""
    if not 0.0 < keep_probability <= 1.0:
        raise ValueError("keep_probability must be in (0, 1]")
    np.less(draws, keep_probability, out=draws)
    draws /= keep_probability
    return draws
