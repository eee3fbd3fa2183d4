import contextlib
import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import din.data_io as data_io_mod
import din.trainer as trainer_mod
from din.data_io import (
    FormatError,
    Sample,
    SyntheticTaskConfig,
    load_manifest,
    load_split,
    synth_order_task,
    write_synth_dataset,
)
from din.model import EVAL_BATCH, ModelShapeSpec, init_model, sample_batch, sample_loss_and_grads
from din.denseimage import sample_segments
from din.numerics import dropout_scales, from_fields, make_rng, scratch_view
from din.trainer import (
    OPT_BLOCK,
    EpochReport,
    TrainConfig,
    TrainState,
    epoch_rng,
    evaluate,
    fit,
    init_rng,
    schedule,
    sgd_momentum_step,
    train_epoch,
)

from conftest import (TINY_SHAPE, change_feature_file, copy_params, ignore_epoch, in_memory,
                      write_test_split)
from mean_pool_baseline import train_baseline


def tiny_dataset(num_per_class=8, sigma=0.1, seed=5, dim=4, length=5):
    cfg = SyntheticTaskConfig(
        num_prototypes=2,
        feature_dim=dim,
        noise_sigma=sigma,
        sequence_length=length,
        samples_per_class=num_per_class,
        val_samples_per_class=max(2, num_per_class // 2),
        seed=seed,
    )
    return synth_order_task(cfg)


def snapshot(params):
    return {name: arr.copy() for name, arr in params.tensors.items()}


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"lr_decay_factor": 0.0},
            {"lr_decay_factor": 1.0},
            {"dropout_keep": 0.0},
            {"plateau_patience": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = TrainConfig(seed=9, initial_lr=0.01)
        assert from_fields(TrainConfig, dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 2.5), ("batch_size", 4.0), ("max_epochs", True), ("seed", "3"),
        ("plateau_patience", None), ("dropout_keep", "0.5"), ("momentum", False),
        ("initial_lr", [0.1]), ("initial_lr", math.nan), ("weight_decay", math.inf),
        ("momentum", -math.inf), ("dropout_keep", math.nan),
    ])
    def test_mistyped_fields_rejected_by_name(self, field, value):
        d = {**dataclasses.asdict(TrainConfig()), field: value}
        with pytest.raises(ValueError, match=field):
            from_fields(TrainConfig, d)

    def test_integers_accepted_for_float_fields(self):
        cfg = from_fields(TrainConfig, {**dataclasses.asdict(TrainConfig()), "momentum": 0})
        assert cfg.momentum == 0


def parse_edited_meta(**fields):
    """Check the meta block of a one-epoch run's checkpoint with `fields`
    replaced: the optimizer's when it has them, else top-level ones."""
    config = TrainConfig()
    state = TrainState(None, [EpochReport(0, 1.0, 1.0, 0.5, config.initial_lr)])
    meta = data_io_mod._meta(config, TINY_SHAPE, state)
    for name, value in fields.items():
        (meta["optimizer"] if name in meta["optimizer"] else meta)[name] = value
    data_io_mod._parse_meta(meta)


class TestRecords:
    """An epoch report checks its own fields, the schedule the history's
    epochs, and a checkpoint's meta check every bookkeeping field against
    the history, naming the field."""

    @pytest.mark.parametrize("make, field", [
        (lambda: EpochReport(0.0, 1.0, 1.0, 0.5, 0.1), "epoch"),
        (lambda: EpochReport(0, "1", 1.0, 0.5, 0.1), "train_loss"),
        (lambda: parse_edited_meta(current_lr=True), "current_lr"),
        (lambda: parse_edited_meta(best_val_error=None), "best_val_error"),
        (lambda: parse_edited_meta(epochs_completed=1.0), "epochs_completed"),
        (lambda: parse_edited_meta(epochs_completed=-1), "epochs_completed"),
        (lambda: parse_edited_meta(epochs_since_improvement=-2), "epochs_since_improvement"),
        (lambda: parse_edited_meta(best_epoch="0"), "best_epoch"),
        (lambda: parse_edited_meta(best_val_accuracy=None), "best_val_accuracy"),
        (lambda: parse_edited_meta(best_epoch=1), "best_epoch"),
        (lambda: schedule([EpochReport(1, 1.0, 1.0, 0.5, 0.1)], TrainConfig()), "history epochs"),
        (lambda: schedule([EpochReport(0, 1.0, 1.0, 0.5, 0.1)] * 2, TrainConfig()),
         "history epochs"),
    ])
    def test_bad_fields_rejected_by_name(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()

    def test_bookkeeping_of_a_finished_run_is_accepted(self):
        # The best epoch is the first of the highest accuracy, -1 before any.
        state = TrainState(None)
        assert (state.best_epoch, state.best_val_accuracy) == (-1, -1.0)
        cfg = TrainConfig(plateau_patience=1)
        state.history = run_history((0.5, 0.75, 0.25, 0.75), cfg)
        assert (state.best_epoch, state.best_val_accuracy) == (1, 0.75)
        meta = data_io_mod._meta(cfg, TINY_SHAPE, state)
        assert meta["optimizer"] == {"current_lr": cfg.initial_lr * 0.1 * 0.1,
                                     "best_val_error": 0.25, "epochs_since_improvement": 0,
                                     "epochs_completed": 4}
        data_io_mod._parse_meta(meta)


class TestSgdStep:
    def test_zero_grads_zero_velocity_is_fixed_point(self, tiny_params):
        cfg = TrainConfig(weight_decay=0.0)
        velocity = TrainState.fresh(tiny_params).velocity
        before = snapshot(tiny_params)
        zero = {name: np.zeros_like(arr) for name, arr in before.items()}
        sgd_momentum_step(tiny_params.tensors, zero.items(), velocity, cfg, cfg.initial_lr, 1.0, {})
        for name, arr in tiny_params.tensors.items():
            assert np.array_equal(arr, before[name])

    def test_momentum_zero_equals_vanilla_descent(self, tiny_params):
        cfg = TrainConfig(momentum=0.0, weight_decay=0.0, initial_lr=1.0)
        velocity = TrainState.fresh(tiny_params).velocity
        before = snapshot(tiny_params)
        rng = make_rng(1)
        grads = {name: rng.normal(size=arr.shape) for name, arr in before.items()}
        sgd_momentum_step(tiny_params.tensors, grads.items(), velocity, cfg, cfg.initial_lr,
                          1.0, {})
        for name, arr in tiny_params.tensors.items():
            assert np.array_equal(arr, before[name] - grads[name])

    def test_weight_decay_hand_value(self, tiny_params):
        # param 1.0, grad 0, wd 5e-4, momentum 0, lr 5e-4
        # -> param = 1 - 5e-4 * 5e-4 = 0.99999975
        cfg = TrainConfig(momentum=0.0, weight_decay=5e-4, initial_lr=5e-4)
        velocity = TrainState.fresh(tiny_params).velocity
        tiny_params.tensors["reduction/weights"][0, 0] = 1.0
        zero = {name: np.zeros_like(arr) for name, arr in tiny_params.tensors.items()}
        sgd_momentum_step(tiny_params.tensors, zero.items(), velocity, cfg, cfg.initial_lr, 1.0, {})
        assert abs(tiny_params.tensors["reduction/weights"][0, 0] - 0.99999975) < 1e-15

    def test_weight_decay_skips_biases(self, tiny_params):
        cfg = TrainConfig(momentum=0.0, weight_decay=0.1, initial_lr=1.0)
        velocity = TrainState.fresh(tiny_params).velocity
        tiny_params.tensors["reduction/bias"][:] = 3.0
        zero = {name: np.zeros_like(arr) for name, arr in tiny_params.tensors.items()}
        sgd_momentum_step(tiny_params.tensors, zero.items(), velocity, cfg, cfg.initial_lr, 1.0, {})
        assert np.array_equal(tiny_params.tensors["reduction/bias"], np.full(3, 3.0))

    def test_shape_mismatch_rejected(self, tiny_params):
        cfg = TrainConfig()
        velocity = TrainState.fresh(tiny_params).velocity
        grads = {name: np.zeros_like(arr) for name, arr in tiny_params.tensors.items()}
        grads["reduction/bias"] = np.zeros(99)
        with pytest.raises(ValueError):
            sgd_momentum_step(tiny_params.tensors, grads.items(), velocity, cfg, cfg.initial_lr,
                              1.0, {})
        with pytest.raises(ValueError):
            sgd_momentum_step(tiny_params.tensors, iter(()), velocity, cfg, cfg.initial_lr, 1.0, {})


    @pytest.mark.parametrize("weight_decay", [5e-4, 0.0])
    def test_equals_the_formula_with_temporaries(self, tiny_params, weight_decay):
        cfg = TrainConfig(momentum=0.9, weight_decay=weight_decay, initial_lr=0.05)
        velocity = TrainState.fresh(tiny_params).velocity
        want_p = snapshot(tiny_params)
        want_v = {name: np.zeros_like(arr) for name, arr in want_p.items()}
        rng = make_rng(31)
        for _ in range(4):
            grads = {name: rng.normal(size=arr.shape) for name, arr in want_p.items()}
            passed = {name: g.copy() for name, g in grads.items()}
            for name, g in grads.items():
                if weight_decay and not name.endswith("/bias"):
                    g = g + weight_decay * want_p[name]
                want_v[name] = cfg.momentum * want_v[name] + g
                want_p[name] = want_p[name] - cfg.initial_lr * want_v[name]
            sgd_momentum_step(tiny_params.tensors, passed.items(), velocity, cfg, cfg.initial_lr,
                              1.0, {})
            for name in grads:
                assert np.array_equal(passed[name], grads[name])  # inputs untouched
                assert np.array_equal(tiny_params.tensors[name], want_p[name])
                assert np.array_equal(velocity[name], want_v[name])


    @pytest.mark.parametrize("weight_decay", [5e-4, 0.0])
    def test_tensors_of_several_blocks_equal_the_formula(self, weight_decay):
        # 2.5 optimizer blocks each: one of half-block rows, two flat ones.
        shapes = {"wide/weights": (5, OPT_BLOCK // 2), "long/weights": (5 * OPT_BLOCK // 2,),
                  "long/bias": (5 * OPT_BLOCK // 2,)}
        rng = make_rng(32)
        named = {name: rng.normal(size=dims) for name, dims in shapes.items()}
        cfg = TrainConfig(momentum=0.9, weight_decay=weight_decay, initial_lr=0.05)
        velocity = {name: rng.normal(size=dims) for name, dims in shapes.items()}
        grads = {name: rng.normal(size=dims) for name, dims in shapes.items()}
        want_p, want_v = {}, {}
        for name, g in grads.items():
            if weight_decay and not name.endswith("/bias"):
                g = g + weight_decay * named[name]
            want_v[name] = cfg.momentum * velocity[name] + g
            want_p[name] = named[name] - cfg.initial_lr * want_v[name]
        sgd_momentum_step(named, grads.items(), velocity, cfg, cfg.initial_lr, 1.0, {})
        for name in shapes:
            assert np.array_equal(named[name], want_p[name]), name
            assert np.array_equal(velocity[name], want_v[name]), name

    @pytest.mark.parametrize("scale", [1.0 / 6, 1.0 / 3, 0.25])
    def test_scale_in_the_blocks_equals_a_scaled_copy(self, scale):
        # train_epoch hands the step its batch-mean factor, 1/B for a last
        # partial batch of any size; scaling each block in place must equal
        # a whole-tensor g * scale before the step, bit for bit.
        shapes = {"wide/weights": (5, OPT_BLOCK // 2), "long/bias": (5 * OPT_BLOCK // 2,),
                  "small/weights": (3, 7)}
        rng = make_rng(33)
        named = {name: rng.normal(size=dims) for name, dims in shapes.items()}
        want = {name: arr.copy() for name, arr in named.items()}
        cfg = TrainConfig(momentum=0.9, weight_decay=5e-4, initial_lr=0.05)
        velocity = {name: rng.normal(size=dims) for name, dims in shapes.items()}
        want_velocity = {name: v.copy() for name, v in velocity.items()}
        grads = {name: rng.normal(size=dims) for name, dims in shapes.items()}
        sgd_momentum_step(want, ((name, g * scale) for name, g in grads.items()), want_velocity,
                          cfg, cfg.initial_lr, 1.0, {})
        sgd_momentum_step(named, grads.items(), velocity, cfg, cfg.initial_lr, scale, {})
        for name in shapes:
            assert np.array_equal(named[name], want[name]), name
            assert np.array_equal(velocity[name], want_velocity[name]), name

    @pytest.mark.parametrize("fault, message", [
        ("unknown", "gradient names do not match the parameters"),
        ("duplicate", "gradient names do not match the parameters"),
        ("missing", "gradient names do not match the parameters"),
        ("shape", "gradient shape mismatch for head/h3/bias"),
    ])
    def test_bad_streamed_names_rejected(self, tiny_params, fault, message):
        cfg = TrainConfig()
        velocity = TrainState.fresh(tiny_params).velocity
        pairs = [(name, np.zeros_like(arr)) for name, arr in tiny_params.tensors.items()]
        if fault == "unknown":
            pairs.insert(1, ("extra/bias", np.zeros(3)))
        elif fault == "duplicate":
            pairs.insert(1, pairs[0])
        elif fault == "missing":
            pairs.pop(0)
        else:
            pairs[-1] = (pairs[-1][0], np.zeros(99))
        with pytest.raises(ValueError, match=message):
            sgd_momentum_step(tiny_params.tensors, iter(pairs), velocity, cfg, cfg.initial_lr,
                              1.0, {})


def run_history(accuracies, config):
    """The history of epochs with these validation accuracies, each at the
    rate the schedule gives it."""
    history = []
    for epoch, accuracy in enumerate(accuracies):
        history.append(EpochReport(epoch, 1.0, 1.0, accuracy, schedule(history, config)[0]))
    return history


class TestPlateau:
    def test_decreasing_errors_keep_lr(self):
        cfg = TrainConfig(plateau_patience=2)
        history = run_history((0.5, 0.6, 0.7, 0.8), cfg)
        assert [r.current_lr for r in history] == [cfg.initial_lr] * 4
        assert schedule(history, cfg) == (cfg.initial_lr, 1.0 - 0.8, 0)

    def test_flat_errors_decay_after_patience(self):
        cfg = TrainConfig(plateau_patience=2, initial_lr=1.0)
        history = run_history((0.5, 0.5, 0.5), cfg)
        assert [schedule(history[:i], cfg)[0] for i in (1, 2, 3)] == [1.0, 1.0, 0.1]
        assert schedule(history, cfg) == (0.1, 0.5, 0)

    def test_decay_from_5em4_is_exact(self):
        cfg = TrainConfig(plateau_patience=1, initial_lr=5e-4)
        # The first epoch establishes the best error, the second plateaus.
        assert schedule(run_history((0.5, 0.5), cfg), cfg)[0] == 5e-5

    def test_improvement_within_1e_12_is_a_plateau(self):
        cfg = TrainConfig(plateau_patience=1, initial_lr=1.0)
        assert schedule(run_history((0.5, 0.5 + 1e-13), cfg), cfg)[0] == 0.1
        assert schedule(run_history((0.5, 0.5 + 1e-11), cfg), cfg)[0] == 1.0

    def test_no_history_gives_the_initial_rate(self):
        cfg = TrainConfig(initial_lr=0.05)
        assert schedule([], cfg) == (0.05, math.inf, 0)

    def test_out_of_range_error_rejected(self):
        with pytest.raises(ValueError, match="val_accuracy"):
            EpochReport(0, 1.0, 1.0, -0.5, 0.1)  # a validation error of 1.5

    @pytest.mark.parametrize("field, value, message", [
        ("current_lr", 0.5, "history.1.current_lr must be 1.0, got 0.5"),
        ("current_lr", 1, "history.1.current_lr must be 1.0, got 1"),
        ("epoch", 2, "history epochs [0, 2, 2] are not 0 to 2"),
    ])
    def test_a_report_off_the_schedule_is_rejected_by_name(self, field, value, message):
        cfg = TrainConfig(plateau_patience=1, initial_lr=1.0)
        history = run_history((0.5, 0.5, 0.5), cfg)
        history[1] = dataclasses.replace(history[1], **{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            schedule(history, cfg)


class TestTrainEpoch:
    def test_lr_zero_freezes_loss(self):
        splits = tiny_dataset()
        cfg = TrainConfig(initial_lr=0.0, dropout_keep=1.0, batch_size=4, seed=1)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        velocity = TrainState.fresh(params).velocity
        losses = [
            train_epoch(params, splits["train"][:1], cfg, velocity, cfg.initial_lr,
                        epoch_rng(cfg.seed, e), {})
            for e in range(3)
        ]
        assert losses[0] == losses[1] == losses[2]

    def test_batch_partition_of_70_samples(self, monkeypatch):
        splits = tiny_dataset(num_per_class=35)
        assert len(splits["train"]) == 70
        cfg = TrainConfig(batch_size=32, dropout_keep=1.0, seed=2)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        velocity = TrainState.fresh(params).velocity
        calls = []
        real = trainer_mod.sgd_momentum_step
        monkeypatch.setattr(
            trainer_mod,
            "sgd_momentum_step",
            lambda *args, **kw: (calls.append(1), real(*args, **kw))[1],
        )
        train_epoch(params, splits["train"], cfg, velocity, cfg.initial_lr,
                    epoch_rng(cfg.seed, 0), {})
        assert len(calls) == 3  # 32 + 32 + 6

    def test_same_seed_gives_bit_identical_loss(self):
        splits = tiny_dataset()
        cfg = TrainConfig(batch_size=4, dropout_keep=0.8, seed=3)
        losses = []
        for _ in range(2):
            params = init_model(TINY_SHAPE, init_rng(cfg.seed))
            velocity = TrainState.fresh(params).velocity
            losses.append(train_epoch(params, splits["train"], cfg, velocity, cfg.initial_lr,
                                      epoch_rng(cfg.seed, 0), {}))
        assert losses[0] == losses[1]

    def test_step_uses_mean_of_per_sample_gradients(self):
        from din.model import sample_batch, sample_loss_and_grads

        splits = tiny_dataset(num_per_class=2, sigma=0.0)
        batch = splits["train"][:3]
        cfg = TrainConfig(
            batch_size=3, momentum=0.0, weight_decay=0.0, initial_lr=1.0,
            dropout_keep=1.0, seed=4,
        )
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        before = snapshot(params)
        # T == n and no dropout, so per-sample gradients are reproducible
        # outside the epoch loop regardless of its rng draws.
        per_sample = []
        for s in batch:
            rows, masks = sample_batch(TINY_SHAPE, [s.features], {})
            per_sample.append(sample_loss_and_grads(params, rows, [s.label], masks)[1])
        velocity = TrainState.fresh(params).velocity
        train_epoch(params, batch, cfg, velocity, cfg.initial_lr, epoch_rng(cfg.seed, 0), {})
        for name, arr in params.tensors.items():
            step = before[name] - arr  # lr == 1, momentum == 0
            mean = sum(g[name] for g in per_sample) / 3.0
            assert np.abs(step - mean).max() < 1e-12

    def test_empty_split_rejected(self, tiny_params):
        cfg = TrainConfig()
        velocity = TrainState.fresh(tiny_params).velocity
        with pytest.raises(ValueError):
            train_epoch(tiny_params, [], cfg, velocity, cfg.initial_lr, epoch_rng(0, 0), {})

    @pytest.mark.parametrize("keep", [0.8, 1.0])
    def test_epoch_draws_in_the_per_sample_order(self, keep):
        # Shuffle, then per sample in shuffled order: one dropout mask per
        # width (ascending, only when keep < 1), then its segment indices.
        # Replaying those draws by hand must leave the epoch rng in the same
        # state and reproduce the epoch's parameters bit for bit.
        samples = tiny_dataset(num_per_class=7, length=9)["train"]
        cfg = TrainConfig(batch_size=4, dropout_keep=keep, seed=5)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        replay = copy_params(params)
        rng = epoch_rng(cfg.seed, 0)
        train_epoch(params, samples, cfg, TrainState.fresh(params).velocity, cfg.initial_lr, rng,
                    {})
        ref = epoch_rng(cfg.seed, 0)
        order = ref.permutation(len(samples))
        velocity = TrainState.fresh(replay).velocity
        for start in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[start : start + cfg.batch_size]]
            masks = {h: [] for h in TINY_SHAPE.widths}
            rows = []
            for sample in batch:
                for h in TINY_SHAPE.widths if keep < 1.0 else ():
                    masks[h].append(dropout_scales(ref.random(TINY_SHAPE.num_filters), keep))
                rows.append(sample_segments(len(sample.features), TINY_SHAPE.num_frames, ref))
            rows = np.stack([s.features[idx] for s, idx in zip(batch, rows)])
            ones = np.ones((len(batch), TINY_SHAPE.num_filters))
            masks = {h: np.stack(m) if keep < 1.0 else ones for h, m in masks.items()}
            _, grads = sample_loss_and_grads(replay, rows, [s.label for s in batch], masks)
            mean = {name: g * (1.0 / len(batch)) for name, g in grads.items()}
            sgd_momentum_step(replay.tensors, mean.items(), velocity, cfg, cfg.initial_lr, 1.0, {})
        assert rng.bit_generator.state == ref.bit_generator.state
        for name, arr in params.tensors.items():
            assert np.array_equal(arr, replay.tensors[name]), name


    def test_70_samples_match_the_dict_replay(self):
        # Batches of 32, 32 and 6: the last one runs in the leading rows of
        # the epoch's gradient scratch. Replayed with whole gradient dicts.
        samples = tiny_dataset(num_per_class=35)["train"]
        cfg = TrainConfig(batch_size=32, dropout_keep=0.8, weight_decay=1e-3, initial_lr=0.05,
                          seed=6)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        replay = copy_params(params)
        train_epoch(params, samples, cfg, TrainState.fresh(params).velocity, cfg.initial_lr,
                    epoch_rng(cfg.seed, 0), {})
        ref = epoch_rng(cfg.seed, 0)
        order = ref.permutation(len(samples))
        velocity = TrainState.fresh(replay).velocity
        for start in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[start : start + cfg.batch_size]]
            rows, masks = sample_batch(TINY_SHAPE, [s.features for s in batch], {}, ref,
                                       cfg.dropout_keep)
            _, grads = sample_loss_and_grads(replay, rows, [s.label for s in batch], masks)
            mean = {name: g * (1.0 / len(batch)) for name, g in grads.items()}
            sgd_momentum_step(replay.tensors, mean.items(), velocity, cfg, cfg.initial_lr, 1.0, {})
        for name, arr in params.tensors.items():
            assert np.array_equal(arr, replay.tensors[name]), name

    def test_epoch_holds_no_gradient_set(self):
        # The parameters dominate this shape, so one whole gradient set is
        # 1x their bytes. Measured tracemalloc peaks over a warmed-up epoch:
        # 2.09x with a gradient dict per batch, 0.48x streamed.
        shape = ModelShapeSpec(raw_dim=64, feat_dim=32, num_frames=8,
                               widths=(2, 3, 4, 5, 6, 7, 8), num_filters=512, num_classes=10)
        params = init_model(shape, make_rng(8))
        rng = make_rng(9)
        samples = [Sample(str(i), rng.normal(size=(8, 64)), i % 10) for i in range(8)]
        cfg = TrainConfig(batch_size=4)
        velocity = TrainState.fresh(params).velocity
        train_epoch(params, samples, cfg, velocity, cfg.initial_lr, epoch_rng(0, 0), {})
        tracemalloc.start()
        try:
            train_epoch(params, samples, cfg, velocity, cfg.initial_lr, epoch_rng(0, 1), {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        param_bytes = sum(arr.nbytes for arr in params.tensors.values())
        assert peak <= 0.5 * param_bytes, (peak, param_bytes)


class TestEvaluate:
    def test_zero_heads_give_chance_accuracy_and_log_c_loss(self):
        splits = tiny_dataset(num_per_class=10)
        params = init_model(TINY_SHAPE, make_rng(7))
        for name, arr in params.tensors.items():
            if name.startswith("head/"):
                arr[:] = 0.0
        # 3-class model on 2-class balanced data predicting class 0 always.
        loss, acc, _ = evaluate(params, splits["val"], {})
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)
        assert acc == 0.5

    def test_repeat_evaluation_identical(self):
        splits = tiny_dataset()
        params = init_model(TINY_SHAPE, make_rng(8))
        loss, acc, probabilities = evaluate(params, splits["val"], {})
        again = evaluate(params, splits["val"], {})
        assert (loss, acc) == again[:2]
        np.testing.assert_array_equal(probabilities, again[2])

    def test_empty_split_rejected(self, tiny_params):
        with pytest.raises(ValueError):
            evaluate(tiny_params, [], {})

    @pytest.mark.parametrize("change", ["size", "rewrite", "delete"])
    def test_file_changed_after_the_load_fails_naming_it(self, tmp_path, tiny_params, change):
        _, manifest = write_test_split(tmp_path, 5)
        samples = load_split(load_manifest(manifest), "test", TINY_SHAPE.raw_dim)
        loss, accuracy, probabilities = evaluate(tiny_params, samples, {})
        want = evaluate(tiny_params, in_memory(samples), {})
        assert (loss, accuracy) == want[:2] and np.array_equal(probabilities, want[2])
        path = samples[3].features.path
        change_feature_file(path, change)
        with pytest.raises((FormatError, FileNotFoundError), match=re.escape(str(path))):
            evaluate(tiny_params, samples, {})


def largest_line_growth_after_the_first_batch(call) -> tuple[int, int, str]:
    """(batches, largest growth, where): run `call` with every line of din
    code traced, and return the largest rise of tracemalloc's traced memory
    while one line ran (its peak against the memory before it), over the
    lines run once the second sample_batch call has begun. Any array a line
    allocates, even one it frees again, counts in full. NumPy's own
    iteration buffers (bufsize elements each) are not arrays; a small
    bufsize keeps them from counting."""
    batches, largest, where, last = 0, 0, "", None

    def line(frame, event, arg):
        nonlocal largest, where, last
        peak = tracemalloc.get_traced_memory()[1]
        if last is not None and batches >= 2 and peak - last[1] > largest:
            largest, where = peak - last[1], last[0]
        tracemalloc.reset_peak()
        last = (f"{frame.f_code.co_name}:{frame.f_lineno}", tracemalloc.get_traced_memory()[0])
        return line

    def call_event(frame, event, arg):
        nonlocal batches
        if not frame.f_globals.get("__name__", "").startswith("din."):
            return None
        batches += frame.f_code.co_name == "sample_batch"
        return line

    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    sys.settrace(call_event)
    try:
        call()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
        np.setbufsize(bufsize)
    return batches, largest, where


def paper_samples(rng, count):
    """`count` paper-shape float32 videos of 5..39 frames, labels cycling."""
    shape = ModelShapeSpec()
    return [Sample(str(i), rng.normal(size=(int(rng.integers(5, 40)), shape.raw_dim))
                   .astype(np.float32), i % shape.num_classes) for i in range(count)]


class TestBatchAllocations:
    """Every batch-sized intermediate of the engine lives in the scratch its
    caller passes: after a call's first batch, evaluate and train_epoch
    allocate no array of 128 KiB or more, nor does a training run after its
    first batch, since fit runs every epoch and validation pass in one
    scratch. At the paper shape with B=32 that covers the sampled rows, the
    DenseImages, each width's map, offset rows and GEMM products, the
    dropout masks, the backward's buffers and the optimizer's block buffer;
    B x M arrays (64 KiB) are allowed."""

    @pytest.fixture(scope="class")
    def paper(self):
        return init_model(ModelShapeSpec(), make_rng(22)), paper_samples(make_rng(21), 80)

    def test_evaluate(self, paper):
        params, samples = paper
        batches, largest, where = largest_line_growth_after_the_first_batch(
            lambda: evaluate(params, samples, {}))
        assert batches == 3
        assert largest < 128 * 1024, (largest, where)

    def test_fit(self, paper):
        params, samples = paper
        params = copy_params(params)
        cfg = TrainConfig(batch_size=32, dropout_keep=0.5, max_epochs=2)
        state = TrainState.fresh(params)
        batches, largest, where = largest_line_growth_after_the_first_batch(
            lambda: fit(params, samples, samples, cfg, state, ignore_epoch))
        assert batches == 12  # two epochs and two validation passes of 3 batches each
        assert largest < 128 * 1024, (largest, where)

    def test_train_epoch(self, paper):
        params, samples = paper
        params = copy_params(params)
        cfg = TrainConfig(batch_size=32, dropout_keep=0.5)
        velocity = TrainState.fresh(params).velocity
        batches, largest, where = largest_line_growth_after_the_first_batch(
            lambda: train_epoch(params, samples, cfg, velocity, cfg.initial_lr,
                                epoch_rng(cfg.seed, 0), {}))
        assert batches == 3
        assert largest < 128 * 1024, (largest, where)


@contextlib.contextmanager
def scratch_creations():
    """Record, while the block runs, every scratch role's buffer creations:
    yields a dict that gets, per scratch used and in the order of first use,
    a role -> [element count of each buffer created] dict whose roles are in
    the order of their first creation. Every din module's scratch_view is
    meanwhile one that records the requests after which the role holds a
    buffer it did not hold before."""
    creations: dict[int, dict[str, list[int]]] = {}
    held = []  # each recorded scratch stays alive, so no id is reused

    def counted(scratch, role, shape):
        before = None if scratch is None else scratch.get(role)
        view = scratch_view(scratch, role, shape)
        if scratch is not None and scratch[role] is not before:
            if id(scratch) not in creations:
                held.append(scratch)
            creations.setdefault(id(scratch), {}).setdefault(role, []).append(scratch[role].size)
        return view

    modules = [m for name, m in sys.modules.items()
               if name.startswith("din.") and getattr(m, "scratch_view", None) is scratch_view]
    for module in modules:
        module.scratch_view = counted
    try:
        yield creations
    finally:
        for module in modules:
            module.scratch_view = scratch_view


class TestScratchRoles:
    """A call runs all its batches in the scratch it is passed and creates
    each role's buffer once, at the size of its largest request: the first
    batch is the largest, and "grad", which every width's window and filter
    gradients and then the reduction gradient take turns in, is asked for
    at the largest of them all at once. A training run keeps one scratch
    for all its epochs and validation passes, so at batch_size >= EVAL_BATCH
    its first batch creates every role it will use. A buffer replaced
    mid-call would be garbage, and freeing it can raise the peak RSS."""

    @staticmethod
    def run_both(params, samples, cfg):
        """Per scratch, its role creations: one epoch and one evaluation,
        each in a new scratch."""
        velocity = TrainState.fresh(params).velocity
        with scratch_creations() as trained:
            train_epoch(params, samples, cfg, velocity, cfg.initial_lr, epoch_rng(cfg.seed, 0),
                        {})
        with scratch_creations() as evaluated:
            evaluate(params, samples, {})
        return list(trained.values()), list(evaluated.values())

    @staticmethod
    def run_fit(params, samples, cfg):
        """Per scratch, its role creations over a fit with `samples` as
        both splits."""
        with scratch_creations() as created:
            fit(params, samples, samples, cfg, TrainState.fresh(params), ignore_epoch)
        return list(created.values())

    def test_paper_shape_epoch_and_evaluation(self):
        # Each role's size and the order of first use are pinned too: either
        # moves glibc's mmap threshold and with it the peak RSS of training.
        shape = ModelShapeSpec()
        rng = make_rng(23)
        samples = [Sample(str(i), rng.normal(size=(int(rng.integers(5, 40)), shape.raw_dim)),
                          i % shape.num_classes) for i in range(40)]
        cfg = TrainConfig(batch_size=32, dropout_keep=0.5)
        trained, evaluated = self.run_both(init_model(shape, make_rng(24)), samples, cfg)
        B, n, D, k, M = 32, shape.num_frames, shape.raw_dim, shape.feat_dim, shape.num_filters
        maps = [(f"map/h{h}", [B * (n - h + 1) * M]) for h in shape.widths]
        forward = [("rows", [B * n * D]), ("dense", [B * n * k]), maps[0],
                   ("offset", [B * (n - 1) * k]), ("product", [B * (n - 1) * M]), *maps[1:]]
        # The widest filter gradient, M*6*k, is the largest of the three.
        assert max(D, *(max(B * (n - h + 1), M) * h for h in shape.widths)) * k == 393_216
        backward = [("grad_X", [B * n * k]), ("grad", [393_216]), ("block", [OPT_BLOCK])]
        # Training at keep < 1 draws its masks into a role; evaluation's
        # keep-all masks are a ones view and take none.
        masks = ("masks", [B * len(shape.widths) * M])
        epoch = [forward[0], masks, *forward[1:], *backward]
        assert [list(roles.items()) for roles in trained] == [epoch]
        assert [list(roles.items()) for roles in evaluated] == [forward]

    def test_paper_shape_fit(self):
        # Two epochs and their validation passes in one scratch: its roles
        # are the epoch's, created once and in the same order.
        shape = ModelShapeSpec()
        samples = paper_samples(make_rng(23), 40)
        cfg = TrainConfig(batch_size=32, dropout_keep=0.5, max_epochs=2)
        run = self.run_fit(init_model(shape, make_rng(24)), samples, cfg)
        trained, _ = self.run_both(init_model(shape, make_rng(24)), samples, cfg)
        assert [list(roles.items()) for roles in run] == [list(trained[0].items())]

    @given(n=st.integers(2, 8), data=st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_drawn_widths(self, n, data):
        widths = data.draw(st.sets(st.integers(2, n), min_size=1), "widths")
        batch_size = data.draw(st.integers(1, 4) | st.just(EVAL_BATCH), "batch size")
        N = data.draw(st.integers(1, 9), "N")
        B = min(batch_size, N)
        # Up to twice the smallest width's windows, so some widths' window
        # gradients outgrow their filter gradients (B*(n-h+1) > M) and some not.
        M = data.draw(st.integers(1, 2 * B * (n - min(widths) + 1)), "M")
        shape = ModelShapeSpec(5, 3, n, tuple(widths), M, 3)
        rng = make_rng(data.draw(st.integers(0, 2**16), "seed"))
        samples = [Sample(str(i), rng.normal(size=(int(rng.integers(1, 2 * n)), 5)), i % 3)
                   for i in range(N)]
        cfg = TrainConfig(batch_size=batch_size, max_epochs=2,
                          dropout_keep=data.draw(st.sampled_from([1.0, 0.5]), "keep"))
        params = init_model(shape, rng)
        run = self.run_fit(copy_params(params), samples, cfg)
        trained, evaluated = self.run_both(params, samples, cfg)
        for roles in trained + evaluated:
            assert all(len(sizes) == 1 for sizes in roles.values()), roles
        assert len(trained) == len(evaluated) == len(run) == 1
        assert {"grad", "block"} <= set(trained[0])
        # Only drawn masks take a role: keep-all masks are a ones view.
        assert ("masks" in trained[0]) == (cfg.dropout_keep < 1.0)
        assert "masks" not in evaluated[0]
        largest = max(5, *(max(B * (n - h + 1), M) * h for h in widths)) * 3
        assert trained[0]["grad"] == [largest]
        # The run's validation passes replace only the batch-sized forward
        # roles, once, and only when their batch outgrows the training one.
        assert list(run[0]) == list(trained[0])
        grown = {role for role, sizes in run[0].items() if sizes != trained[0][role]}
        assert grown == (set(evaluated[0]) if B < min(EVAL_BATCH, N) else set())
        for role, sizes in run[0].items():
            assert sizes == trained[0][role] + (evaluated[0][role] if role in grown else []), role


class TestSharedScratch:
    """fit runs train_epoch and evaluate in one scratch, so neither may read
    what the other left there: at batch sizes below, at and above
    EVAL_BATCH, both give bit for bit what they give in a new scratch."""

    @pytest.fixture(scope="class")
    def paper(self):
        return init_model(ModelShapeSpec(), make_rng(25)), paper_samples(make_rng(26), 50)

    @pytest.mark.parametrize("batch_size", [5, 32, 48])
    def test_evaluate_after_train_epoch(self, paper, batch_size):
        params, samples = paper
        params = copy_params(params)
        cfg = TrainConfig(batch_size=batch_size, dropout_keep=0.5)
        scratch = {}
        train_epoch(params, samples, cfg, TrainState.fresh(params).velocity, cfg.initial_lr,
                    epoch_rng(0, 0), scratch)
        loss, accuracy, probabilities = evaluate(params, samples, scratch)
        want = evaluate(params, samples, {})
        assert (loss, accuracy) == want[:2] and np.array_equal(probabilities, want[2])

    @pytest.mark.parametrize("batch_size", [5, 32, 48])
    def test_train_epoch_after_evaluate(self, paper, batch_size):
        cfg = TrainConfig(batch_size=batch_size, dropout_keep=0.5)
        runs = []
        for evaluated_first in (False, True):
            params, scratch = copy_params(paper[0]), {}
            velocity = TrainState.fresh(params).velocity
            if evaluated_first:
                evaluate(params, paper[1], scratch)
            loss = train_epoch(params, paper[1], cfg, velocity, cfg.initial_lr, epoch_rng(0, 0),
                               scratch)
            runs.append((loss, params.tensors, velocity))
        (loss, tensors, velocity), (want_loss, want_tensors, want_velocity) = runs
        assert loss == want_loss
        for name in tensors:
            assert np.array_equal(tensors[name], want_tensors[name]), name
            assert np.array_equal(velocity[name], want_velocity[name]), name


class TestFit:
    def test_zero_epochs_returns_initial_state(self):
        splits = tiny_dataset()
        cfg = TrainConfig(max_epochs=0, seed=9)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        before = snapshot(params)
        state = fit(params, splits["train"], splits["val"], cfg, TrainState.fresh(params), ignore_epoch)
        assert state.history == []
        assert state.best_epoch == -1
        for name, arr in params.tensors.items():
            assert np.array_equal(arr, before[name])

    def test_lr_zero_keeps_params_bit_identical(self):
        splits = tiny_dataset()
        cfg = TrainConfig(max_epochs=3, initial_lr=0.0, dropout_keep=1.0, seed=10)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        before = snapshot(params)
        state = fit(params, splits["train"], splits["val"], cfg, TrainState.fresh(params), ignore_epoch)
        for name, arr in params.tensors.items():
            assert np.array_equal(arr, before[name])
        # Validation losses are bit-identical (fixed eval order); train
        # losses only agree to summation-order noise because each epoch
        # shuffles the accumulation order.
        val_losses = [r.val_loss for r in state.history]
        assert val_losses.count(val_losses[0]) == 3
        train_losses = [r.train_loss for r in state.history]
        assert max(train_losses) - min(train_losses) < 1e-12

    def test_two_runs_are_bit_identical(self):
        splits = tiny_dataset()
        cfg = TrainConfig(max_epochs=3, batch_size=4, initial_lr=0.05,
                          dropout_keep=0.8, seed=11)
        results = []
        for _ in range(2):
            params = init_model(TINY_SHAPE, init_rng(cfg.seed))
            state = fit(params, splits["train"], splits["val"], cfg,
                        TrainState.fresh(params), ignore_epoch)
            results.append((snapshot(params), state.history))
        assert results[0][1] == results[1][1]
        for name in results[0][0]:
            assert np.array_equal(results[0][0][name], results[1][0][name])

    def test_interrupted_run_matches_uninterrupted(self):
        splits = tiny_dataset()
        base = TrainConfig(max_epochs=4, batch_size=4, initial_lr=0.05,
                           dropout_keep=0.8, seed=12)
        params_a = init_model(TINY_SHAPE, init_rng(base.seed))
        state_a = fit(params_a, splits["train"], splits["val"], base,
                      TrainState.fresh(params_a), ignore_epoch)

        two = dataclasses.replace(base, max_epochs=2)
        params_b = init_model(TINY_SHAPE, init_rng(base.seed))
        state_b = fit(params_b, splits["train"], splits["val"], two,
                      TrainState.fresh(params_b), ignore_epoch)
        assert len(state_b.history) == 2
        state_b = fit(params_b, splits["train"], splits["val"], base, state_b, ignore_epoch)

        assert state_a.history == state_b.history
        for name, arr in params_a.tensors.items():
            assert np.array_equal(arr, params_b.tensors[name])
        for name, arr in state_a.velocity.items():
            assert np.array_equal(arr, state_b.velocity[name])

    def test_everything_finite_after_training(self):
        splits = tiny_dataset()
        cfg = TrainConfig(max_epochs=3, batch_size=4, initial_lr=0.1, seed=13)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        state = fit(params, splits["train"], splits["val"], cfg, TrainState.fresh(params), ignore_epoch)
        for arr in params.tensors.values():
            assert np.isfinite(arr).all()
        for arr in state.velocity.values():
            assert np.isfinite(arr).all()

    def test_finite_guard_raises(self, tiny_params):
        with pytest.raises(ArithmeticError):
            trainer_mod._check_finite({"w": np.array([np.nan])}, "parameter")

    def test_best_epoch_ties_to_earliest(self):
        splits = tiny_dataset(num_per_class=16, sigma=0.0)
        cfg = TrainConfig(max_epochs=8, batch_size=8, initial_lr=0.1,
                          dropout_keep=1.0, seed=14)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        state = fit(params, splits["train"], splits["val"], cfg, TrainState.fresh(params), ignore_epoch)
        accs = [r.val_accuracy for r in state.history]
        assert state.best_val_accuracy == max(accs)
        assert state.best_epoch == accs.index(max(accs))


    def test_on_epoch_follows_each_epochs_bookkeeping(self):
        # Epoch 0 improves on no epoch at all; a tie with the best so far
        # does not improve.
        splits = tiny_dataset(num_per_class=16, sigma=0.0)
        cfg = TrainConfig(max_epochs=8, batch_size=8, initial_lr=0.1,
                          dropout_keep=1.0, seed=14)
        params = init_model(TINY_SHAPE, init_rng(cfg.seed))
        state, calls = TrainState.fresh(params), []

        def on_epoch(report, improved):
            assert state.history[-1] is report
            assert len(state.history) == report.epoch + 1
            assert (state.best_epoch == report.epoch) == improved
            calls.append((report, improved))

        fit(params, splits["train"], splits["val"], cfg, state, on_epoch)
        assert [report for report, _ in calls] == state.history
        accs = [r.val_accuracy for r in state.history]
        assert [improved for _, improved in calls] == [
            acc > max(accs[:i], default=-1.0) for i, acc in enumerate(accs)]
        assert sum(improved for _, improved in calls) < len(calls)


class TestBaseline:
    def test_learns_a_mean_separable_task(self):
        # Classes with different frame means must be easy for the baseline.
        rng = make_rng(15)
        train, val = [], []
        for split, count in (("train", 40), ("val", 20)):
            for i in range(count):
                label = i % 2
                mean = 1.0 if label else -1.0
                feats = rng.normal(size=(5, 4)) * 0.1 + mean
                (train if split == "train" else val).append(
                    Sample(f"{split}-{i}", feats, label)
                )
        cfg = TrainConfig(max_epochs=10, batch_size=8, initial_lr=0.5,
                          dropout_keep=1.0, seed=16)
        _, history = train_baseline(train, val, 4, 2, cfg)
        assert max(r.val_accuracy for r in history) == 1.0

    def test_loaded_split_trains_like_its_float64_copies(self, tmp_path):
        synth = SyntheticTaskConfig(feature_dim=6, samples_per_class=12,
                                    val_samples_per_class=6, seed=4)
        manifest = load_manifest(write_synth_dataset(synth, tmp_path))
        loaded = [in_memory(load_split(manifest, split, 6)) for split in ("train", "val")]
        assert loaded[0][0].features.dtype == np.float32
        widened = [[Sample(s.id, s.features.astype(np.float64), s.label) for s in split]
                   for split in loaded]
        cfg = TrainConfig(max_epochs=3, batch_size=5, initial_lr=0.1, seed=2)
        model32, history32 = train_baseline(*loaded, 6, 2, cfg)
        model64, history64 = train_baseline(*widened, 6, 2, cfg)
        assert np.array_equal([dataclasses.astuple(r) for r in history32],
                              [dataclasses.astuple(r) for r in history64])
        assert np.array_equal(model32.weights, model64.weights)
        assert np.array_equal(model32.bias, model64.bias)
