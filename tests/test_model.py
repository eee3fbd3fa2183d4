import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from din.denseimage import encode, gather
from din.model import (
    ModelParams,
    ModelShapeSpec,
    backward_sample,
    backward_scratch,
    clone_params,
    forward_sample,
    init_model,
    parameter_shapes,
    predict_sample,
    sample_batch,
    sample_loss_and_grads,
)
from din.numerics import cross_entropy_from_logits, make_rng, sample_dropout_mask
from din.selftest import finite_difference_check, kink_free

from conftest import TINY_SHAPE


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

    def test_clone_is_independent(self, tiny_params):
        copy = clone_params(tiny_params)
        copy.reduction[0][0, 0] += 1.0
        assert tiny_params.reduction[0][0, 0] != copy.reduction[0][0, 0]

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


def eval_rows(features):
    """The B x n x D center-sampled rows of a list of videos."""
    return sample_batch(TINY_SHAPE, features)[0]


class TestForward:
    def test_probabilities_normalized(self, tiny_params):
        rng = make_rng(2)
        fwd = forward_sample(tiny_params, eval_rows([rng.normal(size=(9, 4))]))
        assert abs(fwd.probabilities.sum() - 1.0) < 1e-9

    def test_eval_forward_is_deterministic(self, tiny_params):
        rng = make_rng(3)
        rows = eval_rows([rng.normal(size=(11, 4))])
        a = forward_sample(tiny_params, rows)
        b = forward_sample(tiny_params, rows)
        assert np.array_equal(a.logits, b.logits)

    def test_predict_sample_matches_forward(self, tiny_params):
        rng = make_rng(4)
        features = rng.normal(size=(7, 4))
        label, probs = predict_sample(tiny_params, features)
        fwd = forward_sample(tiny_params, eval_rows([features]))
        assert label == int(np.argmax(fwd.probabilities[0]))
        assert np.array_equal(probs, fwd.probabilities[0])

    def test_wrong_feature_dim_rejected(self, tiny_params):
        with pytest.raises(ValueError):
            sample_batch(TINY_SHAPE, [np.ones((6, 4)), np.ones((6, 3))])
        rows, _ = sample_batch(TINY_SHAPE, [np.ones((6, 3))])
        with pytest.raises(ValueError, match="reduction input 4"):
            forward_sample(tiny_params, rows)


class TestSampleBatch:
    def test_eval_batch_is_center_gather(self):
        rng = make_rng(30)
        videos = [rng.normal(size=(T, 4)) for T in (2, 5, 13)]
        rows, masks = sample_batch(TINY_SHAPE, videos)
        assert masks is None
        for b, video in enumerate(videos):
            assert np.array_equal(rows[b], gather(video, TINY_SHAPE.num_frames))

    def test_per_video_draw_order(self):
        # Each video draws one mask per width, ascending, then its segments.
        videos = [make_rng(31).normal(size=(T, 4)) for T in (9, 5, 12)]
        rows, masks = sample_batch(TINY_SHAPE, videos, make_rng(32), 0.5)
        ref = make_rng(32)
        for b, video in enumerate(videos):
            for h in TINY_SHAPE.widths:
                assert np.array_equal(masks[h][b], sample_dropout_mask(ref, 4, 0.5))
            want = gather(video, TINY_SHAPE.num_frames, ref)
            assert np.array_equal(rows[b], want)

    def test_keep_one_draws_no_masks(self):
        videos = [np.ones((9, 4))]
        rng = make_rng(33)
        _, masks = sample_batch(TINY_SHAPE, videos, rng, 1.0)
        ref = make_rng(33)
        gather(videos[0], TINY_SHAPE.num_frames, ref)
        assert masks is None
        assert rng.bit_generator.state == ref.bit_generator.state


def kink_free_batch(rng, params, B):
    """B videos of n frames (so center sampling takes every frame) whose
    DenseImages are all kink-free, with labels; None when one is not."""
    n, D = params.shape.num_frames, params.shape.raw_dim
    videos = [rng.uniform(-1.0, 1.0, size=(n, D)) for _ in range(B)]
    labels = rng.integers(params.shape.num_classes, size=B)
    rows = sample_batch(params.shape, videos)[0]
    dense = encode(rows, params.reduction)
    if not all(kink_free(d, params.bank) for d in dense):
        return None
    return rows, labels


class TestEndToEndGradients:
    def test_full_chain_matches_finite_differences(self):
        # Loss through encode -> temporal conv -> heads -> cross-entropy,
        # checked against central differences on kink-free instances.
        rng = make_rng(5)
        eps = 1e-4
        accepted = 0
        while accepted < 5:
            params = init_model(TINY_SHAPE, rng)
            features = rng.uniform(-1.0, 1.0, size=(TINY_SHAPE.num_frames, TINY_SHAPE.raw_dim))
            label = int(rng.integers(TINY_SHAPE.num_classes))
            rows = gather(features, TINY_SHAPE.num_frames)[None]
            if not kink_free(encode(rows, params.reduction)[0], params.bank):
                continue
            accepted += 1
            loss, grads = sample_loss_and_grads(params, rows, [label])
            assert loss > 0.0
            finite_difference_check(
                lambda: sample_loss_and_grads(params, rows, [label])[0],
                params.tensors, grads, eps, 1e-5,
            )

    def test_batch_of_three_matches_finite_differences(self):
        # The summed loss of a B=3 batch with dropout masks, against
        # central differences of every parameter.
        rng = make_rng(40)
        eps = 1e-4
        accepted = 0
        while accepted < 2:
            params = init_model(TINY_SHAPE, rng)
            drawn = kink_free_batch(rng, params, 3)
            if drawn is None:
                continue
            accepted += 1
            rows, labels = drawn
            masks = {h: np.stack([sample_dropout_mask(rng, 4, 0.7) for _ in range(3)])
                     for h in TINY_SHAPE.widths}
            _, grads = sample_loss_and_grads(params, rows, labels, masks)
            finite_difference_check(
                lambda: sample_loss_and_grads(params, rows, labels, masks)[0],
                params.tensors, grads, eps, 1e-5,
            )

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
            masks = {h: np.stack([sample_dropout_mask(rng, 4, 0.6) for _ in range(5)])
                     for h in TINY_SHAPE.widths}
            logits = forward_sample(params, rows, masks).logits
            loss, grads = sample_loss_and_grads(params, rows, labels, masks)
            single_loss = 0.0
            single_grads = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
            for b in range(5):
                one = slice(b, b + 1)
                one_masks = {h: m[one] for h, m in masks.items()}
                one_logits = forward_sample(params, rows[one], one_masks).logits
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
        rows = eval_rows([rng.normal(size=(5, 4)), rng.normal(size=(8, 4))])
        labels = [1, 2]
        fwd = forward_sample(tiny_params, rows)
        loss, grad_fused = cross_entropy_from_logits(fwd.logits, labels)
        grads = dict(backward_sample(tiny_params, fwd, grad_fused))
        loss2, grads2 = sample_loss_and_grads(tiny_params, rows, labels)
        assert loss.sum() == loss2
        for name in grads:
            assert np.array_equal(grads[name], grads2[name])


class TestGradientStream:
    """backward_sample hands over one (name, gradient) pair at a time; no
    pair may alias another call's, and scratch must not change a value."""

    def _batch(self, params, rng, B):
        fwd = forward_sample(params, eval_rows([rng.normal(size=(6, 4)) for _ in range(B)]))
        _, grad_fused = cross_entropy_from_logits(fwd.logits, rng.integers(3, size=B))
        return fwd, grad_fused

    def test_consecutive_calls_leave_the_first_gradients_unchanged(self, tiny_params):
        rng = make_rng(42)
        rows = [eval_rows([rng.normal(size=(6, 4)), rng.normal(size=(7, 4))]) for _ in range(2)]
        _, first = sample_loss_and_grads(tiny_params, rows[0], [0, 1])
        kept = {name: g.copy() for name, g in first.items()}
        _, second = sample_loss_and_grads(tiny_params, rows[1], [2, 0])
        for name, g in first.items():
            assert np.array_equal(g, kept[name]), name
            assert not np.shares_memory(g, second[name]), name

    def test_scratch_pairs_equal_fresh_pairs_in_the_same_order(self, tiny_params):
        # The second, smaller batch runs in the leading rows of the scratch.
        rng = make_rng(43)
        scratch = backward_scratch(TINY_SHAPE, 3)
        for B in (3, 1):
            self._check_scratch(tiny_params, *self._batch(tiny_params, rng, B), scratch)

    @staticmethod
    def _check_scratch(params, fwd, grad_fused, scratch):
        fresh = list(backward_sample(params, fwd, grad_fused))
        streamed = [(name, g.copy()) for name, g in backward_sample(params, fwd, grad_fused, scratch)]
        assert [name for name, _ in streamed] == [name for name, _ in fresh]
        for (name, got), (_, want) in zip(streamed, fresh):
            assert np.array_equal(got, want), name

    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_scratch_pairs_equal_fresh_pairs_on_drawn_shapes(self, data):
        # Batches of every size up to the scratch's capacity, in any order.
        n = data.draw(st.integers(2, 7), "n")
        raw_dim = data.draw(st.integers(1, 6), "D")
        shape = ModelShapeSpec(
            raw_dim, data.draw(st.integers(1, raw_dim), "k"), n,
            tuple(data.draw(st.sets(st.integers(2, n), min_size=1, max_size=3), "widths")),
            data.draw(st.integers(1, 6), "M"), data.draw(st.integers(2, 4), "C"))
        capacity = data.draw(st.integers(1, 5), "capacity")
        sizes = data.draw(st.lists(st.integers(1, capacity), min_size=1, max_size=3), "sizes")
        keep = data.draw(st.sampled_from([1.0, 0.7]), "keep")
        rng = make_rng(data.draw(st.integers(0, 2**16), "seed"))
        params = init_model(shape, rng)
        scratch = backward_scratch(shape, capacity)
        for B in sizes:
            masks = None if keep == 1.0 else {
                h: np.stack([sample_dropout_mask(rng, shape.num_filters, keep) for _ in range(B)])
                for h in shape.widths}
            fwd = forward_sample(params, rng.normal(size=(B, n, raw_dim)), masks)
            labels = rng.integers(shape.num_classes, size=B)
            self._check_scratch(params, fwd, cross_entropy_from_logits(fwd.logits, labels)[1],
                                scratch)

    def test_no_parameter_is_read_after_its_gradient_is_yielded(self, tiny_params):
        # A consumer may overwrite each parameter as soon as its gradient
        # arrives, as the training step does.
        fwd, grad_fused = self._batch(tiny_params, make_rng(44), 2)
        want = dict(backward_sample(tiny_params, fwd, grad_fused))
        params = clone_params(tiny_params)
        seen = []
        for name, g in backward_sample(params, fwd, grad_fused, backward_scratch(TINY_SHAPE, 2)):
            assert np.array_equal(g, want[name]), name
            params.tensors[name][...] = np.nan
            seen.append(name)
        assert sorted(seen) == sorted(parameter_shapes(TINY_SHAPE))
