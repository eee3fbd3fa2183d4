import dataclasses

import numpy as np
import pytest

from din.denseimage import SamplingMode, encode
from din.model import (
    ModelParams,
    ModelShapeSpec,
    backward_sample,
    clone_params,
    forward_sample,
    init_model,
    parameter_shapes,
    predict_sample,
    sample_loss_and_grads,
)
from din.numerics import cross_entropy_from_logits, make_rng
from din.selftest import kink_free

from conftest import TINY_SHAPE, rel_err


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

    def test_dict_round_trip(self):
        assert ModelShapeSpec.from_dict(dataclasses.asdict(TINY_SHAPE)) == TINY_SHAPE


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
        for view, layer in ((tiny_params.bank, "conv"), (tiny_params.heads, "head")):
            assert list(view) == list(TINY_SHAPE.widths)
            for h, (w, b) in view.items():
                assert w is tiny_params.tensors[f"{layer}/h{h}/weights"]
                assert b is tiny_params.tensors[f"{layer}/h{h}/bias"]

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


class TestForward:
    def test_probabilities_normalized(self, tiny_params):
        rng = make_rng(2)
        scores, _ = forward_sample(tiny_params, rng.normal(size=(9, 4)))
        assert abs(scores.probabilities.sum() - 1.0) < 1e-9

    def test_eval_forward_is_deterministic(self, tiny_params):
        rng = make_rng(3)
        features = rng.normal(size=(11, 4))
        a, _ = forward_sample(tiny_params, features)
        b, _ = forward_sample(tiny_params, features)
        assert np.array_equal(a.fused_logits, b.fused_logits)

    def test_predict_sample_matches_forward(self, tiny_params):
        rng = make_rng(4)
        features = rng.normal(size=(7, 4))
        label, probs = predict_sample(tiny_params, features)
        scores, _ = forward_sample(tiny_params, features)
        assert label == int(np.argmax(scores.probabilities))
        assert np.array_equal(probs, scores.probabilities)

    def test_train_mode_needs_rng(self, tiny_params):
        with pytest.raises(ValueError):
            forward_sample(
                tiny_params, np.ones((6, 4)), mode=SamplingMode.TRAIN_RANDOM, rng=None
            )


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
            _, dense = encode(features, params.reduction, TINY_SHAPE.num_frames,
                              SamplingMode.EVAL_CENTER)
            if not kink_free(dense.values, params.bank):
                continue
            accepted += 1
            loss, grads = sample_loss_and_grads(params, features, label)
            assert loss > 0.0
            for name, arr in params.tensors.items():
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    up, _ = sample_loss_and_grads(params, features, label)
                    arr[idx] = orig - eps
                    down, _ = sample_loss_and_grads(params, features, label)
                    arr[idx] = orig
                    fd = (up - down) / (2 * eps)
                    assert rel_err(fd, grads[name][idx]) < 1e-5, f"{name}[{idx}]"

    def test_backward_consistent_with_split_calls(self, tiny_params):
        rng = make_rng(6)
        features = rng.normal(size=(5, 4))
        label = 1
        scores, cache = forward_sample(tiny_params, features)
        loss, grad_fused = cross_entropy_from_logits(scores.fused_logits, label)
        grads = backward_sample(tiny_params, cache, grad_fused)
        loss2, grads2 = sample_loss_and_grads(tiny_params, features, label)
        assert loss == loss2
        for name in grads:
            assert np.array_equal(grads[name], grads2[name])
