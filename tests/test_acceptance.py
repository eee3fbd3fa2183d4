"""Acceptance suite: every shipped-behavior criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to stream them).
"""

import dataclasses
import functools
import time

import numpy as np

from din.analysis import count_parameters
from din.cli import CHECKPOINT_FILE, train_to_checkpoint
from din.data_io import (
    SyntheticTaskConfig,
    load_checkpoint,
    read_checkpoint_tensors,
    synth_order_task,
)
from din.model import ModelShapeSpec, init_model
from din.numerics import make_rng
from din.selftest import (
    check_conv_oracles,
    check_end_to_end_gradients,
    check_shape_law,
    check_softmax_law,
)
from din.temporal_conv import conv_scale_forward
from din.trainer import TrainConfig, TrainState, fit, init_rng

from conftest import assert_history_is_the_checkpoints, ignore_epoch, save_fresh_checkpoint
from mean_pool_baseline import train_baseline


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"[FAIL] criterion {number}: {name}", flush=True)
                raise
            print(f"[PASS] criterion {number}: {name}", flush=True)

        return run

    return wrap


@criterion(1, "end-to-end gradients match finite differences (rel err 1e-5)")
def test_gradient_correctness():
    started = time.perf_counter()
    check_end_to_end_gradients(make_rng(101), 50)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


@criterion(2, "multiscale forward equals the brute-force oracle (1e-12)")
def test_convolution_oracle():
    started = time.perf_counter()
    check_conv_oracles(make_rng(102), 100)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"


@criterion(3, "feature-map lengths are 7/6/5 for widths 2/3/4 at 8 frames")
def test_shape_law():
    check_shape_law(make_rng(103))


@criterion(4, "temporal-order task: head >= 98% accuracy, mean-pool baseline <= 60%")
def test_temporal_order_sensitivity():
    started = time.perf_counter()
    synth = SyntheticTaskConfig(
        num_prototypes=4, feature_dim=16, noise_sigma=0.1, sequence_length=8,
        samples_per_class=256, val_samples_per_class=128, seed=7,
    )
    splits = synth_order_task(synth)
    assert len(splits["train"]) == 512 and len(splits["val"]) == 256
    shape = ModelShapeSpec(
        raw_dim=16, feat_dim=16, num_frames=8, widths=(2, 3), num_filters=32,
        num_classes=2,
    )
    config = TrainConfig(
        batch_size=32, momentum=0.9, weight_decay=5e-4, initial_lr=0.05,
        lr_decay_factor=0.1, plateau_patience=5, max_epochs=50, dropout_keep=1.0,
        seed=3,
    )
    params = init_model(shape, init_rng(config.seed))
    state = fit(params, splits["train"], splits["val"], config, TrainState.fresh(params),
                ignore_epoch)
    best_acc = max(r.val_accuracy for r in state.history)
    assert best_acc >= 0.98, f"temporal head reached only {best_acc:.4f}"

    _, baseline_history = train_baseline(
        splits["train"], splits["val"], synth.feature_dim, 2, config
    )
    baseline_best = max(r.val_accuracy for r in baseline_history)
    assert baseline_best <= 0.60, f"order-blind baseline reached {baseline_best:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"experiment took {elapsed:.1f}s"


@criterion(5, "parameter accounting: 1,609,095 and equal to serialized scalars")
def test_parameter_accounting(tmp_path):
    shape = ModelShapeSpec(
        raw_dim=1024, feat_dim=256, num_frames=8, widths=(2, 3, 4, 5, 6),
        num_filters=256, num_classes=27,
    )
    report = count_parameters(shape)
    assert report.total == 1_609_095
    params = init_model(shape, make_rng(105))
    config = TrainConfig()
    path = tmp_path / "paper-shape.ckpt"
    save_fresh_checkpoint(path, params, config)
    _, tensors = read_checkpoint_tensors(path)
    serialized = sum(a.size for n, a in tensors.items() if n.startswith("param/"))
    assert serialized == report.total


@criterion(6, "bit-exact reruns and bit-exact resume")
def test_determinism_and_resume(tmp_path):
    synth = SyntheticTaskConfig(
        num_prototypes=4, feature_dim=8, noise_sigma=0.1, sequence_length=8,
        samples_per_class=16, val_samples_per_class=8, seed=11,
    )
    splits = synth_order_task(synth)
    shape = ModelShapeSpec(
        raw_dim=8, feat_dim=6, num_frames=8, widths=(2, 3), num_filters=8,
        num_classes=2,
    )
    config = TrainConfig(batch_size=8, initial_lr=0.05, dropout_keep=0.8,
                         max_epochs=4, seed=13)

    def train(run_dir, config, params, state, best):
        """A run as `din train` makes it in the new directory `run_dir`, its
        checkpoint and history rewritten every epoch."""
        run_dir.mkdir()
        return train_to_checkpoint(run_dir, params, splits["train"], splits["val"], config,
                                   state, best, lambda report: None)

    def full_run(tag):
        params = init_model(shape, init_rng(config.seed))
        state = train(tmp_path / tag, config, params, TrainState.fresh(params), params)
        return state.history, (tmp_path / tag / CHECKPOINT_FILE).read_bytes()

    history_a, blob_a = full_run("a")
    history_b, blob_b = full_run("b")
    assert history_a == history_b
    assert blob_a == blob_b

    params_c = init_model(shape, init_rng(config.seed))
    half = dataclasses.replace(config, max_epochs=2)
    train(tmp_path / "half", half, params_c, TrainState.fresh(params_c), params_c)
    # resumed as `din train --resume` does
    with open(tmp_path / "half" / CHECKPOINT_FILE, "rb") as half_file:
        loaded = load_checkpoint(half_file, groups=("param", "velocity"))
        resumed = train(tmp_path / "resumed", config, loaded.model, loaded.state, half_file)
    assert resumed.history == history_a
    assert (tmp_path / "resumed" / CHECKPOINT_FILE).read_bytes() == blob_a
    for tag in ("a", "b", "half", "resumed"):
        assert_history_is_the_checkpoints(tmp_path / tag)


@criterion(7, "softmax sums to one within 1e-9, including magnitude-1000 logits")
def test_probability_law():
    check_softmax_law(make_rng(107), 1000)


@criterion(8, "row perturbations touch exactly the covering windows, widths 2..6")
def test_locality():
    rng = make_rng(108)
    n, k, M = 8, 3, 2
    # Positive inputs and weights keep every rectifier unit active, so a
    # covered window must change and an uncovered one cannot.
    X = np.abs(rng.normal(size=(n, k))) + 0.1
    for h in (2, 3, 4, 5, 6):
        W = np.abs(rng.normal(size=(M, h * k))) + 0.1
        b = np.full(M, 0.5)
        base = conv_scale_forward(X[None], W, b, {})[0]
        for j in range(n):
            bumped = X.copy()
            bumped[j] += 0.5
            out = conv_scale_forward(bumped[None], W, b, {})[0]
            changed = {
                i for i in range(n - h + 1) if not np.array_equal(out[i], base[i])
            }
            covering = {i for i in range(n - h + 1) if i <= j <= i + h - 1}
            assert changed == covering, f"h={h} row={j}"
