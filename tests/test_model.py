import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from din.classifier import head_backward
from din.denseimage import encode
from din.model import (
    ModelParams,
    ModelShapeSpec,
    backward_sample,
    forward_sample,
    init_model,
    parameter_shapes,
    predict_sample,
    sample_batch,
    sample_loss_and_grads,
)
from din.numerics import cross_entropy_from_logits, dropout_scales, make_rng, softmax
from din.selftest import kink_free
from din.temporal_conv import pool_argmax
from din.trainer import TrainConfig, TrainState, sgd_momentum_step

from conftest import TINY_SHAPE, copy_params, gathered


class TestShapeSpec:
    def test_widths_are_sorted_and_validated(self):
        spec = ModelShapeSpec(4, 3, 5, (3, 2), 4, 2)
        assert spec.widths == (2, 3)
        with pytest.raises(ValueError):
            ModelShapeSpec(4, 3, 5, (1,), 4, 2)
        with pytest.raises(ValueError):
            ModelShapeSpec(4, 3, 5, (6,), 4, 2)
        with pytest.raises(ValueError):
            ModelShapeSpec(2, 3, 5, (2,), 4, 2)  # widening reduction

    @pytest.mark.parametrize("widths", [(2, 2), (3, 2, 3), [4, 2, 3, 2]])
    def test_repeated_widths_rejected_by_name(self, widths):
        with pytest.raises(ValueError, match="widths must be distinct"):
            ModelShapeSpec(4, 3, 5, widths, 4, 2)

    def test_defaults_are_the_paper_shape(self):
        assert ModelShapeSpec() == ModelShapeSpec(1024, 256, 8, (2, 3, 4, 5, 6), 256, 27)

    def test_dict_round_trip(self):
        assert ModelShapeSpec.from_dict(dataclasses.asdict(TINY_SHAPE)) == TINY_SHAPE

    def test_dict_must_hold_exactly_the_fields(self):
        d = dataclasses.asdict(TINY_SHAPE)
        with pytest.raises(ValueError, match="unknown key 'extra'"):
            ModelShapeSpec.from_dict({**d, "extra": 1})
        del d["raw_dim"]
        with pytest.raises(ValueError, match="missing key 'raw_dim'"):
            ModelShapeSpec.from_dict(d)

    @pytest.mark.parametrize("field, value", [
        ("raw_dim", 16.9), ("raw_dim", 4.0), ("feat_dim", True), ("num_frames", "5"),
        ("num_filters", None), ("num_classes", 3.5), ("widths", [2, 2.5]),
        ("widths", [True]), ("widths", 3), ("widths", "23"),
    ])
    def test_non_integer_fields_rejected_by_name(self, field, value):
        d = {**dataclasses.asdict(TINY_SHAPE), field: value}
        with pytest.raises(ValueError, match=field):
            ModelShapeSpec.from_dict(d)

    def test_json_integers_still_load(self):
        d = json.loads(json.dumps(dataclasses.asdict(TINY_SHAPE)))
        assert ModelShapeSpec.from_dict(d) == TINY_SHAPE
        assert ModelShapeSpec.from_dict({**d, "raw_dim": np.int64(4)}) == TINY_SHAPE


class TestParams:
    def test_init_is_deterministic(self):
        a = init_model(TINY_SHAPE, make_rng(1))
        b = init_model(TINY_SHAPE, make_rng(1))
        for name, arr in a.tensors.items():
            assert np.array_equal(arr, b.tensors[name])

    def test_named_parameters_match_declared_shapes(self, tiny_params):
        named = tiny_params.tensors
        assert {k: v.shape for k, v in named.items()} == parameter_shapes(TINY_SHAPE)
        assert list(named) == list(parameter_shapes(TINY_SHAPE))

    def test_biases_start_at_zero(self, tiny_params):
        for name, arr in tiny_params.tensors.items():
            if name.endswith("/bias"):
                assert not arr.any()

    def test_views_share_the_table_arrays(self, tiny_params):
        weights, bias = tiny_params.reduction
        assert weights is tiny_params.tensors["reduction/weights"]
        assert bias is tiny_params.tensors["reduction/bias"]
        assert list(tiny_params.bank) == list(TINY_SHAPE.widths)
        for h, (w, b) in tiny_params.bank.items():
            assert w is tiny_params.tensors[f"conv/h{h}/weights"]
            assert b is tiny_params.tensors[f"conv/h{h}/bias"]

    def test_tensor_round_trip(self, tiny_params):
        reordered = dict(reversed(list(tiny_params.tensors.items())))
        rebuilt = ModelParams(TINY_SHAPE, reordered)
        assert list(rebuilt.tensors) == list(tiny_params.tensors)
        for name, arr in rebuilt.tensors.items():
            assert arr is tiny_params.tensors[name]
        with pytest.raises(ValueError):
            ModelParams(TINY_SHAPE, {})

    def test_constructor_names_the_bad_tensor(self, tiny_params):
        tensors = dict(tiny_params.tensors)
        del tensors["conv/h3/bias"]
        with pytest.raises(ValueError, match="conv/h3/bias: missing"):
            ModelParams(TINY_SHAPE, tensors)
        with pytest.raises(ValueError, match="head/h9/bias: unexpected"):
            ModelParams(TINY_SHAPE, {**tiny_params.tensors, "head/h9/bias": np.zeros(3)})

    def test_mixed_channel_counts_rejected(self, tiny_params):
        # Every width of the filter bank has TINY_SHAPE.num_filters channels.
        tensors = {**tiny_params.tensors, "conv/h3/weights": np.zeros((2, 9))}
        with pytest.raises(ValueError, match=r"conv/h3/weights: shape \(2, 9\)"):
            ModelParams(TINY_SHAPE, tensors)

    def test_widening_layer_rejected(self, tiny_params):
        with pytest.raises(ValueError):
            ModelShapeSpec(3, 4, 5, (2, 3), 4, 3)
        tensors = {**tiny_params.tensors, "reduction/weights": np.zeros((3, 4))}
        with pytest.raises(ValueError, match="reduction/weights: shape"):
            ModelParams(TINY_SHAPE, tensors)


def eval_batch(features):
    """The B x n x D center-sampled rows of a list of videos and their
    width -> B x M keep-all (ones) masks."""
    return sample_batch(TINY_SHAPE, features, {})


class TestForward:
    def test_probabilities_normalized(self, tiny_params):
        _, probabilities = predict_sample(tiny_params, make_rng(2).normal(size=(9, 4)))
        assert abs(probabilities.sum() - 1.0) < 1e-9

    def test_eval_forward_is_deterministic(self, tiny_params):
        rng = make_rng(3)
        rows, masks = eval_batch([rng.normal(size=(11, 4))])
        a = forward_sample(tiny_params, rows, masks, {})
        b = forward_sample(tiny_params, rows, masks, {})
        assert np.array_equal(a.logits, b.logits)

    def test_predict_sample_matches_forward(self, tiny_params):
        rng = make_rng(4)
        features = rng.normal(size=(7, 4))
        label, probs = predict_sample(tiny_params, features)
        probabilities = softmax(forward_sample(tiny_params, *eval_batch([features]), {}).logits)
        assert label == int(np.argmax(probabilities[0]))
        assert np.array_equal(probs, probabilities[0])

    def test_ones_masks_give_the_mask_free_logits(self):
        # Evaluation multiplies each head's input by ones, which is exact:
        # the fused logits equal the sum of c_h @ W.T + b bit for bit.
        shape = ModelShapeSpec()
        params = init_model(shape, make_rng(5))
        rng = make_rng(6)
        rows, masks = sample_batch(shape, [rng.normal(size=(int(T), shape.raw_dim))
                                           for T in rng.integers(3, 30, size=5)], {})
        fwd = forward_sample(params, rows, masks, {})
        want = np.zeros_like(fwd.logits)
        for h in shape.widths:
            want += (fwd.pooled[h][0] @ params.tensors[f"head/h{h}/weights"].T
                     + params.tensors[f"head/h{h}/bias"])
        assert all(np.array_equal(m, np.ones((5, shape.num_filters))) for m in masks.values())
        assert np.array_equal(fwd.logits, want)

    def test_wrong_feature_dim_rejected(self, tiny_params):
        # sample_batch widens each video's rows into a B x n x D batch of
        # the model's D, so it rejects another D itself.
        for videos in ([np.ones((6, 4)), np.ones((6, 3))], [np.ones((6, 3))]):
            with pytest.raises(ValueError, match="reduction input 4"):
                sample_batch(TINY_SHAPE, videos, {})
        ones = {h: np.ones((1, TINY_SHAPE.num_filters)) for h in TINY_SHAPE.widths}
        with pytest.raises(ValueError, match="reduction input 4"):
            forward_sample(tiny_params, np.ones((1, TINY_SHAPE.num_frames, 3)), ones, {})


class TestSampleBatch:
    def test_eval_batch_is_center_gather(self):
        rng = make_rng(30)
        videos = [rng.normal(size=(T, 4)) for T in (2, 5, 13)]
        rows, masks = sample_batch(TINY_SHAPE, videos, {})
        assert list(masks) == list(TINY_SHAPE.widths)
        assert all(np.array_equal(m, np.ones((3, TINY_SHAPE.num_filters))) for m in masks.values())
        for b, video in enumerate(videos):
            assert np.array_equal(rows[b], gathered(video, TINY_SHAPE.num_frames))

    def test_per_video_draw_order(self):
        # Each video draws one mask per width, ascending, then its segments.
        videos = [make_rng(31).normal(size=(T, 4)) for T in (9, 5, 12)]
        rows, masks = sample_batch(TINY_SHAPE, videos, {}, make_rng(32), 0.5)
        ref = make_rng(32)
        for b, video in enumerate(videos):
            for h in TINY_SHAPE.widths:
                assert np.array_equal(masks[h][b], dropout_scales(ref.random(4), 0.5))
            want = gathered(video, TINY_SHAPE.num_frames, ref)
            assert np.array_equal(rows[b], want)

    @given(widths=st.sets(st.integers(2, 6), min_size=1, max_size=5),
           M=st.integers(1, 9), keep=st.floats(0.05, 0.95), B=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_one_draw_per_video_equals_one_draw_per_width(self, widths, M, keep, B, seed):
        # One rng.random(H*M) per video gives the masks, and leaves the
        # generator in the state, that H draws of M (one mask per width,
        # ascending) would, interleaved with each video's segment draws.
        shape = ModelShapeSpec(3, 2, 6, tuple(widths), M, 2)
        videos = [np.full((T, 3), float(T)) for T in range(3, 3 + B)]
        rng, ref = make_rng(seed), make_rng(seed)
        rows, masks = sample_batch(shape, videos, {}, rng, keep)
        for b, video in enumerate(videos):
            for h in shape.widths:
                assert np.array_equal(masks[h][b], dropout_scales(ref.random(M), keep)), (b, h)
            assert np.array_equal(rows[b], gathered(video, shape.num_frames, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_keep_one_draws_no_masks(self):
        videos = [np.ones((9, 4))]
        rng = make_rng(33)
        _, masks = sample_batch(TINY_SHAPE, videos, {}, rng, 1.0)
        ref = make_rng(33)
        gathered(videos[0], TINY_SHAPE.num_frames, ref)
        assert all(np.array_equal(m, np.ones((1, TINY_SHAPE.num_filters))) for m in masks.values())
        assert rng.bit_generator.state == ref.bit_generator.state


def kink_free_batch(rng, params, B):
    """B videos of n frames (so center sampling takes every frame) whose
    DenseImages are all kink-free, with labels; None when one is not."""
    n, D = params.shape.num_frames, params.shape.raw_dim
    videos = [rng.uniform(-1.0, 1.0, size=(n, D)) for _ in range(B)]
    labels = rng.integers(params.shape.num_classes, size=B)
    scratch = {}
    rows = sample_batch(params.shape, videos, scratch)[0]
    if not all(kink_free(d, params.bank) for d in encode(rows, params.reduction, scratch)):
        return None
    return rows, labels


class TestEndToEndGradients:
    def test_batch_equals_sum_of_single_sample_calls(self):
        # One B=5 batch with dropout masks against five B=1 calls: logits
        # row by row, the summed loss and every summed gradient.
        rng = make_rng(41)
        accepted = 0
        while accepted < 3:
            params = init_model(TINY_SHAPE, rng)
            drawn = kink_free_batch(rng, params, 5)
            if drawn is None:
                continue
            accepted += 1
            rows, labels = drawn
            masks = {h: np.stack([dropout_scales(rng.random(4), 0.6) for _ in range(5)])
                     for h in TINY_SHAPE.widths}
            logits = forward_sample(params, rows, masks, {}).logits
            loss, grads = sample_loss_and_grads(params, rows, labels, masks)
            single_loss = 0.0
            single_grads = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
            for b in range(5):
                one = slice(b, b + 1)
                one_masks = {h: m[one] for h, m in masks.items()}
                one_logits = forward_sample(params, rows[one], one_masks, {}).logits
                assert np.abs(one_logits[0] - logits[b]).max() < 1e-12
                one_loss, one_grads = sample_loss_and_grads(
                    params, rows[one], labels[one], one_masks
                )
                single_loss += one_loss
                for name, g in one_grads.items():
                    single_grads[name] += g
            assert abs(loss - single_loss) < 1e-12
            for name, g in grads.items():
                assert np.abs(g - single_grads[name]).max() < 1e-12, name

    def test_backward_consistent_with_split_calls(self, tiny_params):
        rng = make_rng(6)
        rows, masks = eval_batch([rng.normal(size=(5, 4)), rng.normal(size=(8, 4))])
        labels = [1, 2]
        scratch = {}
        fwd = forward_sample(tiny_params, rows, masks, scratch)
        loss, grad_fused = cross_entropy_from_logits(fwd.logits, labels)
        pairs = backward_sample(tiny_params, fwd, grad_fused, scratch)
        grads = {name: g.copy() for name, g in pairs}
        loss2, grads2 = sample_loss_and_grads(tiny_params, rows, labels, masks)
        assert loss.sum() == loss2
        for name in grads:
            assert np.array_equal(grads[name], grads2[name])


class TestGradientStream:
    """backward_sample hands over one (name, gradient) pair at a time; no
    pair may alias another call's, and running every batch in one scratch
    must give the values a new scratch for each batch gives."""

    def _batch(self, params, rng, B):
        fwd = forward_sample(params, *eval_batch([rng.normal(size=(6, 4)) for _ in range(B)]), {})
        _, grad_fused = cross_entropy_from_logits(fwd.logits, rng.integers(3, size=B))
        return fwd, grad_fused

    def test_consecutive_calls_leave_the_first_gradients_unchanged(self, tiny_params):
        rng = make_rng(42)
        (rows, masks), (rows2, masks2) = (
            eval_batch([rng.normal(size=(6, 4)), rng.normal(size=(7, 4))]) for _ in range(2))
        _, first = sample_loss_and_grads(tiny_params, rows, [0, 1], masks)
        kept = {name: g.copy() for name, g in first.items()}
        _, second = sample_loss_and_grads(tiny_params, rows2, [2, 0], masks2)
        for name, g in first.items():
            assert np.array_equal(g, kept[name]), name
            assert not np.shares_memory(g, second[name]), name

    def test_scratch_pairs_equal_fresh_pairs_in_the_same_order(self, tiny_params):
        # The second, smaller batch runs in the leading rows of the scratch.
        rng = make_rng(43)
        scratch = {}
        for B in (3, 1):
            self._check_scratch(tiny_params, *self._batch(tiny_params, rng, B), scratch)

    @staticmethod
    def _check_scratch(params, fwd, grad_fused, scratch):
        fresh = [(name, g.copy()) for name, g in backward_sample(params, fwd, grad_fused, {})]
        streamed = [(name, g.copy()) for name, g in backward_sample(params, fwd, grad_fused, scratch)]
        assert [name for name, _ in streamed] == [name for name, _ in fresh]
        for (name, got), (_, want) in zip(streamed, fresh):
            assert np.array_equal(got, want), name

    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_scratch_pairs_equal_fresh_pairs_on_drawn_shapes(self, data):
        # Batches of any size up to 5, in any order (a later batch may be
        # larger than the first, so a role's buffer is replaced), each
        # through sample_batch -> forward -> backward -> step twice: once
        # in one scratch for all batches that starts empty, as train_epoch
        # runs them, and once in a new scratch for each batch with the
        # batch-mean gradient taken over whole tensors. Draws,
        # intermediates, gradient pairs and updated state agree bit for bit.
        n = data.draw(st.integers(2, 7), "n")
        raw_dim = data.draw(st.integers(1, 6), "D")
        shape = ModelShapeSpec(
            raw_dim, data.draw(st.integers(1, raw_dim), "k"), n,
            tuple(data.draw(st.sets(st.integers(2, n), min_size=1, max_size=3), "widths")),
            data.draw(st.integers(1, 6), "M"), data.draw(st.integers(2, 4), "C"))
        largest = data.draw(st.integers(1, 5), "largest")
        sizes = data.draw(st.lists(st.integers(1, largest), min_size=1, max_size=3), "sizes")
        keep = data.draw(st.sampled_from([1.0, 0.7]), "keep")
        seed = data.draw(st.integers(0, 2**16), "seed")
        rng, rng_fresh, data_rng = make_rng(seed, 1), make_rng(seed, 1), make_rng(seed, 2)
        params = init_model(shape, make_rng(seed))
        fresh = copy_params(params)
        config = TrainConfig(weight_decay=1e-3, initial_lr=0.05)
        velocity = TrainState.fresh(params).velocity
        fresh_velocity = TrainState.fresh(fresh).velocity
        scratch = {}
        for B in sizes:
            videos = [data_rng.normal(size=(int(data_rng.integers(1, 2 * n + 2)), raw_dim))
                      .astype(data_rng.choice([np.float32, np.float64])) for _ in range(B)]
            labels = data_rng.integers(shape.num_classes, size=B)
            new_scratch = {}
            want_rows, want_masks = sample_batch(shape, videos, new_scratch, rng_fresh, keep)
            want = forward_sample(fresh, want_rows, want_masks, new_scratch)
            _, want_grad = cross_entropy_from_logits(want.logits, labels)
            want_pairs = [(name, g.copy())
                          for name, g in backward_sample(fresh, want, want_grad, new_scratch)]
            sgd_momentum_step(fresh.tensors, ((name, g * (1.0 / B)) for name, g in want_pairs),
                              fresh_velocity, config, config.initial_lr, 1.0, new_scratch)

            rows, masks = sample_batch(shape, videos, scratch, rng, keep)
            fwd = forward_sample(params, rows, masks, scratch)
            assert np.array_equal(fwd.rows, want.rows) and np.array_equal(fwd.dense, want.dense)
            assert np.array_equal(fwd.logits, want.logits)
            for h in shape.widths:
                for got, expected in zip(fwd.pooled[h], want.pooled[h]):  # values, map
                    assert np.array_equal(got, expected), h
                assert np.array_equal(masks[h], want_masks[h]), h
            _, grad_fused = cross_entropy_from_logits(fwd.logits, labels)
            got_pairs = []

            def recorded(pairs):
                for name, g in pairs:
                    got_pairs.append((name, g.copy()))
                    yield name, g

            sgd_momentum_step(params.tensors, recorded(backward_sample(
                params, fwd, grad_fused, scratch)), velocity, config, config.initial_lr, 1.0 / B,
                scratch)
            assert [name for name, _ in got_pairs] == [name for name, _ in want_pairs]
            for (name, got), (_, expected) in zip(got_pairs, want_pairs):
                assert np.array_equal(got, expected), name
            for name, arr in params.tensors.items():
                assert np.array_equal(arr, fresh.tensors[name]), name
                assert np.array_equal(velocity[name], fresh_velocity[name]), name
        assert rng.bit_generator.state == rng_fresh.bit_generator.state

    def test_no_parameter_is_read_after_its_gradient_is_yielded(self, tiny_params):
        # A consumer may overwrite each parameter as soon as its gradient
        # arrives, as the training step does.
        fwd, grad_fused = self._batch(tiny_params, make_rng(44), 2)
        want = {name: g.copy() for name, g in backward_sample(tiny_params, fwd, grad_fused, {})}
        params = copy_params(tiny_params)
        seen = []
        for name, g in backward_sample(params, fwd, grad_fused, {}):
            assert np.array_equal(g, want[name]), name
            params.tensors[name][...] = np.nan
            seen.append(name)
        assert sorted(seen) == sorted(parameter_shapes(TINY_SHAPE))


def separate_buffer_pairs(params, fwd, grad_fused):
    """backward_sample's (name, gradient) pairs and its B x n x k DenseImage
    gradient, computed in the order of the engine before its gradients
    shared one buffer: per width the filter gradient's offset GEMMs into an
    array of their own, then the window gradients into a separate array,
    added into grad_X; the reduction gradient into a third array."""
    tensors, X = params.tensors, fwd.dense
    (B, n, k), M, D = X.shape, params.shape.num_filters, fwd.rows.shape[2]
    grad_X, pairs = np.zeros_like(X), []
    for h in params.shape.widths:
        values, fmap = fwd.pooled[h]
        *head_grads, grad_c = head_backward(values, tensors[f"head/h{h}/weights"], fwd.masks[h],
                                            grad_fused)
        W_h, num_windows = tensors[f"conv/h{h}/weights"], n - h + 1
        routed = grad_c * (values > 0.0)
        grad_map = np.zeros((B, num_windows, M))
        grad_map[np.arange(B)[:, None], pool_argmax(fmap, values), np.arange(M)] = routed
        grad_map = grad_map.reshape(B * num_windows, M)
        grad_W = np.empty_like(W_h)
        for a in range(h):
            offset = np.ascontiguousarray(X[:, a : a + num_windows]).reshape(-1, k)
            np.matmul(grad_map.T, offset, out=grad_W[:, a * k : (a + 1) * k])
        grad_windows = np.empty((B * num_windows, h * k))
        np.matmul(grad_map, W_h, out=grad_windows)
        grad_windows = grad_windows.reshape(B, num_windows, h, k)
        for a in range(h):
            grad_X[:, a : a + num_windows] += grad_windows[:, :, a]
        pairs += [(f"conv/h{h}/weights", grad_W), (f"conv/h{h}/bias", routed.sum(axis=0)),
                  (f"head/h{h}/weights", head_grads[0]), (f"head/h{h}/bias", head_grads[1])]
    flat, grad_reduction = grad_X.reshape(B * n, k), np.empty((D, k))
    np.matmul(fwd.rows.reshape(B * n, D).T, flat, out=grad_reduction)
    return pairs + [("reduction/weights", grad_reduction), ("reduction/bias", flat.sum(axis=0))], grad_X


class TestSharedGradientBuffer:
    """The window, filter and reduction gradients take turns in one buffer:
    each width's window gradients first, then its filter gradient, then the
    reduction's. The GEMMs and adds are the ones the separate buffers ran,
    so every pair and the DenseImage gradient stay bit-identical, also where
    a width's window gradients outgrow its filter gradient (B*(n-h+1) > M)."""

    @given(data=st.data())
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_pairs_equal_separate_buffers_bit_for_bit(self, data):
        n = data.draw(st.integers(2, 8), "n")
        widths = tuple(data.draw(st.sets(st.integers(2, n), min_size=1, max_size=4), "widths"))
        B = data.draw(st.integers(1, 6), "B")
        # Up to twice the smallest width's windows: M falls on both sides.
        M = data.draw(st.integers(1, 2 * B * (n - min(widths) + 1)), "M")
        raw_dim = data.draw(st.integers(1, 6), "D")
        shape = ModelShapeSpec(raw_dim, data.draw(st.integers(1, raw_dim), "k"), n, widths, M,
                               data.draw(st.integers(2, 4), "C"))
        seed = data.draw(st.integers(0, 2**16), "seed")
        rng = make_rng(seed, 1)
        params = init_model(shape, make_rng(seed))
        videos = [rng.normal(size=(int(rng.integers(1, 2 * n + 2)), raw_dim)) for _ in range(B)]
        scratch = {}
        rows, masks = sample_batch(shape, videos, scratch, rng,
                                   data.draw(st.sampled_from([1.0, 0.7]), "keep"))
        fwd = forward_sample(params, rows, masks, scratch)
        _, grad_fused = cross_entropy_from_logits(fwd.logits, rng.integers(shape.num_classes,
                                                                           size=B))
        want, want_X = separate_buffer_pairs(params, fwd, grad_fused)
        got = [(name, g.copy()) for name, g in backward_sample(params, fwd, grad_fused, scratch)]
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, g), (_, expected) in zip(got, want):
            assert np.array_equal(g, expected), name
        assert np.array_equal(scratch["grad_X"][: want_X.size].reshape(want_X.shape), want_X)
