import numpy as np
import pytest

from din.classifier import head_backward, head_forward, predict
from din.model import ModelShapeSpec, forward_sample, init_model, predict_sample, sample_batch
from din.numerics import dropout_scales, make_rng, softmax
from din.selftest import finite_difference_check

from conftest import TINY_SHAPE


def random_heads(rng, widths, M, C):
    return {h: (rng.normal(size=(C, M)), rng.normal(size=C)) for h in widths}


def row(values):
    """A batch of one: the 1 x len(values) matrix."""
    return np.array(values, dtype=float)[None]


def bias_forward(per_scale, batch=1):
    """forward_sample over `batch` videos on a tiny model whose head weights
    are zero and whose head/h{h}/bias is per_scale[h], so each width's
    head logits are exactly that row."""
    widths = tuple(per_scale)
    shape = ModelShapeSpec(raw_dim=2, feat_dim=2, num_frames=max(widths), widths=widths,
                           num_filters=2, num_classes=len(per_scale[widths[0]]))
    params = init_model(shape, make_rng(0))
    for h, bias in per_scale.items():
        params.tensors[f"head/h{h}/weights"][:] = 0.0
        params.tensors[f"head/h{h}/bias"][:] = bias
    rows = make_rng(1).normal(size=(batch, shape.num_frames, shape.raw_dim))
    return forward_sample(params, rows, ones_masks(shape, batch), {})


def ones_masks(shape, batch):
    """Evaluation's width -> B x M keep-all dropout masks."""
    return {h: np.ones((batch, shape.num_filters)) for h in shape.widths}


class TestHeadForward:
    def test_zero_weights_give_bias(self):
        bias = np.array([1.0, 2.0, 3.0])
        ones = np.ones((2, 4))
        assert np.array_equal(head_forward(ones, np.zeros((3, 4)), bias, ones),
                              [[1.0, 2.0, 3.0]] * 2)

    def test_hand_dot_product(self):
        got = head_forward(np.array([[3.0, 1.0], [1.0, 3.0]]), np.array([[1.0, -1.0]]),
                           np.zeros(1), np.ones((2, 2)))
        assert np.array_equal(got, [[2.0], [-2.0]])

    def test_keep_one_mask_is_identity(self):
        rng = make_rng(1)
        weights, bias = rng.normal(size=(3, 5)), rng.normal(size=3)
        c = rng.normal(size=(1, 5))
        mask = dropout_scales(rng.random(5), 1.0)[None]
        assert np.array_equal(head_forward(c, weights, bias, mask), c @ weights.T + bias)

    def test_dimension_mismatch_rejected(self):
        weights, bias = np.zeros((2, 3)), np.zeros(2)
        with pytest.raises(ValueError):
            head_forward(np.zeros((1, 4)), weights, bias, np.ones((1, 4)))
        with pytest.raises(ValueError):
            head_forward(np.zeros(3), weights, bias, np.ones(3))
        with pytest.raises(ValueError):
            head_forward(np.zeros((1, 3)), weights, bias, np.ones((1, 4)))


class TestFuseAndScore:
    """forward_sample sums the per-width head logits; softmax scores them."""

    def test_single_scale_uniform(self):
        fwd = bias_forward({2: [0.0, 0.0]})
        assert np.allclose(softmax(fwd.logits), [[0.5, 0.5]], atol=1e-15)

    def test_symmetric_cancellation(self):
        fwd = bias_forward({2: [1.0, 0.0], 3: [0.0, 1.0]})
        assert np.array_equal(fwd.logits, [[1.0, 1.0]])
        assert np.allclose(softmax(fwd.logits), [[0.5, 0.5]], atol=1e-15)

    def test_27_class_output(self):
        rng = make_rng(2)
        probabilities = softmax(bias_forward({h: rng.normal(size=27) for h in (2, 3, 4, 5, 6)},
                                             batch=4).logits)
        assert probabilities.shape == (4, 27)
        assert np.abs(probabilities.sum(axis=1) - 1.0).max() < 1e-9

    def test_fused_equals_sum(self):
        rng = make_rng(3)
        per_scale = {h: rng.normal(size=4) for h in (2, 3)}
        fwd = bias_forward(per_scale, batch=3)
        assert np.array_equal(fwd.logits, [per_scale[2] + per_scale[3]] * 3)


class TestPredict:
    def test_argmax(self):
        probs = np.array([[0.1, 0.7, 0.2], [0.5, 0.2, 0.3]])
        assert np.array_equal(predict(softmax(np.log(probs))), [1, 0])

    def test_uniform_ties_to_zero(self):
        assert np.array_equal(predict(softmax(np.zeros((2, 4)))), [0, 0])

    def test_matches_fused_logits_argmax(self):
        rng = make_rng(4)
        for _ in range(20):
            fwd = bias_forward({2: rng.normal(size=6), 4: rng.normal(size=6)})
            assert predict(softmax(fwd.logits))[0] == int(np.argmax(fwd.logits[0]))

    def test_invariant_to_constant_shift(self):
        rng = make_rng(5)
        for _ in range(20):
            logits = rng.normal(size=(1, 5))
            shift = float(rng.normal()) * 50.0
            assert predict(softmax(logits)) == predict(softmax(logits + shift))


class TestScaleAdditivity:
    def test_block_concatenated_head_equivalence(self, tiny_params):
        rng = make_rng(6)
        widths = TINY_SHAPE.widths
        for name, arr in tiny_params.tensors.items():
            if name.startswith("head/"):
                arr[:] = rng.normal(size=arr.shape)
        fwd = forward_sample(tiny_params, rng.normal(size=(1, TINY_SHAPE.num_frames,
                                                           TINY_SHAPE.raw_dim)),
                             ones_masks(TINY_SHAPE, 1), {})
        tensors = tiny_params.tensors
        big_w = np.hstack([tensors[f"head/h{h}/weights"] for h in widths])
        big_b = sum(tensors[f"head/h{h}/bias"] for h in widths)
        big_c = np.concatenate([fwd.pooled[h][0][0] for h in widths])
        assert np.abs(fwd.logits[0] - (big_w @ big_c + big_b)).max() < 1e-12


class TestClassifierBackward:
    """head_backward, one width at a time, as model.backward_sample runs it."""

    def test_zero_upstream(self):
        rng = make_rng(7)
        heads = random_heads(rng, (2,), 3, 2)
        c = rng.normal(size=(1, 3))
        gw, gb, grad_c = head_backward(c, heads[2][0], np.ones((1, 3)), np.zeros((1, 2)))
        assert not gw.any() and not gb.any() and not grad_c.any()

    def test_hand_chain_rule(self):
        gw, gb, grad_c = head_backward(row([3.0, 1.0]), np.array([[1.0, -1.0]]), row([1.0, 1.0]),
                                       row([2.0]))
        assert np.array_equal(gw, [[6.0, 2.0]])
        assert np.array_equal(gb, [2.0])
        assert np.array_equal(grad_c, [[2.0, -2.0]])

    def test_every_scale_gets_identical_upstream(self):
        rng = make_rng(8)
        heads = random_heads(rng, (2, 3, 4), 4, 3)
        c = {h: rng.normal(size=(1, 4)) for h in heads}
        upstream = rng.normal(size=(1, 3))
        for h in heads:
            ones = np.ones((1, 4))
            assert np.array_equal(head_backward(c[h], heads[h][0], ones, upstream)[1], upstream[0])

    def test_matches_finite_differences_two_scales(self):
        rng = make_rng(9)
        eps = 1e-5
        widths, M, C = (2, 3), 4, 3
        heads = random_heads(rng, widths, M, C)
        B = 2
        c = {h: rng.normal(size=(B, M)) for h in widths}
        masks = {h: np.stack([dropout_scales(rng.random(M), 0.7) for _ in range(B)])
                 for h in widths}
        probe = rng.normal(size=(B, C))

        def objective():
            fused = sum(head_forward(c[h], *heads[h], masks[h]) for h in widths)
            return float((probe * fused).sum())

        arrays, want = {}, {}
        for h in widths:
            arrays[f"W{h}"], arrays[f"b{h}"], arrays[f"c{h}"] = *heads[h], c[h]
            want[f"W{h}"], want[f"b{h}"], want[f"c{h}"] = head_backward(
                c[h], heads[h][0], masks[h], probe
            )
        finite_difference_check(objective, arrays, want, eps, 1e-6)

    def test_shape_mismatch_rejected(self):
        rng = make_rng(10)
        weights = random_heads(rng, (2,), 3, 2)[2][0]
        with pytest.raises(ValueError):
            head_backward(np.zeros((1, 3)), weights, np.ones((1, 3)), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            head_backward(np.zeros((2, 3)), weights, np.ones((2, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            head_backward(np.zeros((1, 4)), weights, np.ones((1, 4)), np.zeros((1, 2)))


class TestClassScores:
    def test_probabilities_consistent_with_softmax(self, tiny_params):
        # The one-video API scores the forward's logits with softmax.
        features = make_rng(11).normal(size=(6, TINY_SHAPE.raw_dim))
        _, probabilities = predict_sample(tiny_params, features)
        rows, masks = sample_batch(TINY_SHAPE, [features], {})
        assert np.array_equal(probabilities, softmax(forward_sample(tiny_params, rows, masks,
                                                                    {}).logits[0]))
