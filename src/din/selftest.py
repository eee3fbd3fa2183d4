"""Built-in correctness checks behind the `selftest` CLI command.

Brute-force oracles and central-difference gradient probes that exercise
the shipped forward and backward passes, on batches of one to three videos
in a scratch, as every command runs them. Each drawn check is a public
function of (rng, count) and exists only here: CHECKS binds it to the
selftest's seed and count, so an install verifies itself in a few seconds,
and the test suite's acceptance criteria call the same function with their
own seeds, counts and time bounds.
"""

from __future__ import annotations

import numpy as np

from . import analysis
from .denseimage import encode, sample_segments
from .model import ModelShapeSpec, init_model, sample_batch, sample_loss_and_grads
from .numerics import cross_entropy_from_logits, dropout_scales, make_rng, softmax
from .temporal_conv import conv_scale_backward, conv_scale_forward, multiscale_forward


def naive_scale_responses(X: np.ndarray, W_h: np.ndarray, b_h: np.ndarray) -> np.ndarray:
    """Windowed dot products written as explicit loops; the oracle."""
    n, k = X.shape
    M = W_h.shape[0]
    h = W_h.shape[1] // k
    out = np.zeros((M, n - h + 1))
    for m in range(M):
        for i in range(n - h + 1):
            acc = 0.0
            for a in range(h):
                for b in range(k):
                    acc += W_h[m, a * k + b] * X[i + a, b]
            out[m, i] = max(acc + b_h[m], 0.0)
    return out


def kink_free(X: np.ndarray, bank: dict[int, tuple[np.ndarray, np.ndarray]]) -> bool:
    """False when a pre-activation of X (n x k) under the width -> (weights,
    bias) bank lies within 1e-3 of the rectifier kink or two top window
    responses of a channel lie within 1e-3 of a pool tie; finite
    differences are only valid away from both."""
    n = X.shape[0]
    for h, (W_h, b_h) in bank.items():
        windows = np.stack([X[i : i + h].ravel() for i in range(n - h + 1)])
        pre = W_h @ windows.T + b_h[:, None]
        if np.abs(pre).min() < 1e-3:
            return False
        post = np.maximum(pre, 0.0)
        if post.shape[1] >= 2:
            top2 = np.sort(post, axis=1)[:, -2:]
            if (top2[:, 1] - top2[:, 0]).min() < 1e-3:
                return False
    return True


def finite_difference_check(objective, arrays: dict, grads: dict, eps: float, tol: float) -> None:
    """Check grads[name], the claimed gradient of the scalar objective() wrt
    arrays[name], by central differences at every entry. Each entry is moved
    eps up and eps down in place and restored exactly, also when
    objective() raises. An entry passes only when |fd - g| < tol*max(1, |fd|);
    the first that does not raises AssertionError naming tensor and index."""
    for name, arr in arrays.items():
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            try:
                arr[idx] = orig + eps
                up = objective()
                arr[idx] = orig - eps
                down = objective()
            finally:
                arr[idx] = orig
            fd, g = float((up - down) / (2 * eps)), float(grads[name][idx])
            if not abs(fd - g) < tol * max(1.0, abs(fd)):
                raise AssertionError(f"gradient mismatch in {name} at {idx}: "
                                     f"finite difference {fd!r}, gradient {g!r}")


def random_bank(rng, widths, M, k, bias_scale: float) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """width -> (M x h*k weights, M biases): all weights drawn, then biases * bias_scale."""
    weights = {h: rng.normal(size=(M, h * k)) for h in widths}
    return {h: (weights[h], rng.normal(size=M) * bias_scale) for h in widths}


def check_conv_oracles(rng, count: int) -> None:
    """Every width's conv_scale_forward map and multiscale_forward pooled values
    against naive_scale_responses within 1e-12, on `count` drawn batches of
    1..3 DenseImages (n in 2..8, k and M in 1..4) and banks of up to 3 widths."""
    for _ in range(count):
        B = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        M = int(rng.integers(1, 5))
        widths = sorted(set(int(rng.integers(2, n + 1)) for _ in range(3)))
        bank = random_bank(rng, widths, M, k, 1.0)
        X = rng.normal(size=(B, n, k))
        pooled = multiscale_forward(X, bank, {})
        for h in widths:
            values, fmap = pooled[h]
            for b in range(B):
                want = naive_scale_responses(X[b], *bank[h])
                if not np.abs(fmap[b].T - want).max() < 1e-12:
                    raise AssertionError(f"conv mismatch at h={h}, video {b}")
                if not np.abs(values[b] - want.max(axis=1)).max() < 1e-12:
                    raise AssertionError(f"pool mismatch at h={h}, video {b}")


def check_multiscale_gradients(rng, count: int) -> None:
    """Every width's conv_scale_backward gradients (weights, bias and the
    input summed over the widths) against central differences of a drawn
    linear function of the pooled values, on `count` batches of 1..3
    DenseImages that are all kink-free."""
    n, k, M, widths = 5, 3, 4, (2, 3)
    done = 0
    while done < count:
        bank = random_bank(rng, widths, M, k, 0.1)
        X = rng.normal(size=(int(rng.integers(1, 4)), n, k))
        if not all(kink_free(x, bank) for x in X):
            continue
        done += 1
        grad_up = {h: rng.normal(size=(len(X), M)) for h in widths}
        scratch: dict[str, np.ndarray] = {}
        pooled = multiscale_forward(X, bank, scratch)
        arrays, grads = {"dX": X}, {"dX": np.zeros_like(X)}
        for h in widths:
            arrays[f"dW[h={h}]"], arrays[f"db[h={h}]"] = bank[h]
            grads[f"dW[h={h}]"], grads[f"db[h={h}]"] = conv_scale_backward(
                X, bank[h][0], *pooled[h], grad_up[h], grads["dX"],
                np.empty(max(len(X) * (n - h + 1), M) * h * k), scratch
            )

        def objective():
            pooled = multiscale_forward(X, bank, scratch)
            return sum(float((grad_up[h] * pooled[h][0]).sum()) for h in widths)

        finite_difference_check(objective, arrays, grads, eps=1e-4, tol=1e-5)


def check_end_to_end_gradients(rng, count: int) -> None:
    """The summed loss through encode -> temporal conv -> heads -> cross-entropy
    of a tiny model (D=4, k=3, n=5, widths 2 and 3, M=4, C=3) is positive,
    and its gradients match central differences, on `count` labeled batches
    of 1..3 videos whose DenseImages are all kink-free; about half of them
    carry per-video dropout masks."""
    shape = ModelShapeSpec(4, 3, 5, (2, 3), 4, 3)
    done = 0
    while done < count:
        params = init_model(shape, rng)
        B = int(rng.integers(1, 4))
        videos = rng.uniform(-1.0, 1.0, size=(B, shape.num_frames, shape.raw_dim))
        labels = rng.integers(shape.num_classes, size=B)
        scratch: dict[str, np.ndarray] = {}
        rows, ones = sample_batch(shape, videos, scratch)
        if not all(kink_free(x, params.bank) for x in encode(rows, params.reduction, scratch)):
            continue
        done += 1
        masks = {h: dropout_scales(rng.random((B, shape.num_filters)), 0.7)
                 for h in shape.widths} if rng.random() < 0.5 else ones
        loss, grads = sample_loss_and_grads(params, rows, labels, masks)
        if not loss > 0.0:
            raise AssertionError(f"loss {loss!r} is not positive")
        finite_difference_check(lambda: sample_loss_and_grads(params, rows, labels, masks)[0],
                                params.tensors, grads, eps=1e-4, tol=1e-5)


def check_shape_law(rng) -> None:
    """Widths 2, 3 and 4 over an 8-frame DenseImage give 7, 6 and 5 windows."""
    X = rng.normal(size=(1, 8, 4))
    for h, want in ((2, 7), (3, 6), (4, 5)):
        fmap = conv_scale_forward(X, rng.normal(size=(3, h * 4)), rng.normal(size=3), {})
        if fmap.shape != (1, want, 3):
            raise AssertionError(f"h={h}: expected {want} windows, got {fmap.shape}")


def check_softmax_law(rng, count: int) -> None:
    """softmax of `count` drawn logit vectors, every other one at magnitude 1000, is
    >= 0 and sums to one within 1e-9; only a spread of 700 or more gives an exact 0."""
    for i in range(count):
        length = int(rng.integers(1, 40))
        scale = 1000.0 if i % 2 == 0 else float(rng.uniform(0.1, 10.0))
        logits = rng.normal(size=length) * scale
        probs = softmax(logits)
        if not (abs(probs.sum() - 1.0) <= 1e-9 and (probs >= 0.0).all()):
            raise AssertionError("softmax law violated")
        if logits.max() - logits.min() < 700 and (probs == 0).any():
            raise AssertionError("softmax underflowed without cause")


def check_cross_entropy(rng, count: int) -> None:
    """The exact loss and gradient at logits (1000, 0, -1000), where an
    unshifted exp overflows, then the batch-summed gradient against central
    differences on `count` drawn 2 x C logit matrices (C in 2..10) and labels."""
    losses, grad = cross_entropy_from_logits(np.array([[1000.0, 0.0, -1000.0]]), [1])
    if losses.tolist() != [1000.0] or grad.tolist() != [[1.0, -1.0, 0.0]]:
        raise AssertionError(f"cross-entropy at magnitude 1000: {losses} {grad.tolist()}")
    for _ in range(count):
        logits = rng.normal(size=(2, int(rng.integers(2, 11)))) * 2.0
        labels = rng.integers(logits.shape[1], size=2)
        _, grad = cross_entropy_from_logits(logits, labels)
        finite_difference_check(lambda: cross_entropy_from_logits(logits, labels)[0].sum(),
                                {"logits": logits}, {"logits": grad}, eps=1e-5, tol=1e-6)


def _check_segment_sampler() -> None:
    cases = [
        (8, 8, [0, 1, 2, 3, 4, 5, 6, 7]),
        (16, 8, [0, 2, 4, 6, 8, 10, 12, 14]),
        (3, 8, [0, 0, 1, 1, 1, 2, 2, 2]),
    ]
    for T, n, want in cases:
        got = sample_segments(T, n).tolist()
        if got != want:
            raise AssertionError(f"segment sampling T={T}: {got} != {want}")


def _check_parameter_accounting() -> None:
    shape = ModelShapeSpec(1024, 256, 8, (2, 3, 4, 5, 6), 256, 27)
    total = analysis.count_parameters(shape).total
    if total != 1_609_095:
        raise AssertionError(f"parameter count {total} != 1,609,095")
    small = ModelShapeSpec(4, 3, 5, (2, 3), 4, 3)
    params = init_model(small, make_rng(16))
    live = sum(arr.size for arr in params.tensors.values())
    if live != analysis.count_parameters(small).total:
        raise AssertionError("live parameter count disagrees with the accounting")


def _check_order_sensitivity() -> None:
    # A filter keyed to one ordered pair must react when two rows swap.
    A, B, C = np.eye(3)
    X = np.stack([A, B, C])
    bank = {2: (np.concatenate([A, B])[None, :], np.zeros(1))}
    values, _ = multiscale_forward(np.stack([X, X[[0, 2, 1]]]), bank, {})[2]
    if values[0, 0] == values[1, 0]:
        raise AssertionError("row swap left the pooled output unchanged")


CHECKS = [
    ("segment sampler fixed points", _check_segment_sampler),
    ("softmax probability law", lambda: check_softmax_law(make_rng(15), 200)),
    ("cross-entropy gradient vs finite differences",
     lambda: check_cross_entropy(make_rng(17), 20)),
    ("convolution forward vs brute-force oracle", lambda: check_conv_oracles(make_rng(11), 20)),
    ("feature-map shape law (n=8 -> 7/6/5)", lambda: check_shape_law(make_rng(14))),
    ("multiscale backward vs finite differences",
     lambda: check_multiscale_gradients(make_rng(12), 5)),
    ("end-to-end gradients vs finite differences",
     lambda: check_end_to_end_gradients(make_rng(13), 5)),
    ("temporal order sensitivity", _check_order_sensitivity),
    ("parameter accounting", _check_parameter_accounting),
]


def run_selftest() -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"[FAIL] {name}: {exc}")
        else:
            print(f"[ok]   {name}")
    print(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
