import numpy as np
import pytest

from din.classifier import (
    fuse_and_score,
    head_backward,
    head_forward,
    predict,
)
from din.numerics import make_rng, sample_dropout_mask, softmax
from din.selftest import finite_difference_check


def random_heads(rng, widths, M, C):
    return {h: (rng.normal(size=(C, M)), rng.normal(size=C)) for h in widths}


def row(values):
    """A batch of one: the 1 x len(values) matrix."""
    return np.array(values, dtype=float)[None]


class TestHeadForward:
    def test_zero_weights_give_bias(self):
        head = (np.zeros((3, 4)), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(head_forward(np.ones((2, 4)), head), [[1.0, 2.0, 3.0]] * 2)

    def test_hand_dot_product(self):
        head = (np.array([[1.0, -1.0]]), np.zeros(1))
        assert np.array_equal(head_forward(np.array([[3.0, 1.0], [1.0, 3.0]]), head),
                              [[2.0], [-2.0]])

    def test_keep_one_mask_is_identity(self):
        rng = make_rng(1)
        head = (rng.normal(size=(3, 5)), rng.normal(size=3))
        c = rng.normal(size=(1, 5))
        mask = sample_dropout_mask(rng, 5, 1.0)[None]
        assert np.array_equal(head_forward(c, head, mask), head_forward(c, head))

    def test_dimension_mismatch_rejected(self):
        head = (np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            head_forward(np.zeros((1, 4)), head)
        with pytest.raises(ValueError):
            head_forward(np.zeros(3), head)
        with pytest.raises(ValueError):
            head_forward(np.zeros((1, 3)), head, np.ones((1, 4)))


class TestFuseAndScore:
    def test_single_scale_uniform(self):
        _, probabilities = fuse_and_score({2: np.zeros((1, 2))})
        assert np.allclose(probabilities, [[0.5, 0.5]], atol=1e-15)

    def test_symmetric_cancellation(self):
        logits, probabilities = fuse_and_score({2: row([1.0, 0.0]), 3: row([0.0, 1.0])})
        assert np.array_equal(logits, [[1.0, 1.0]])
        assert np.allclose(probabilities, [[0.5, 0.5]], atol=1e-15)

    def test_27_class_output(self):
        rng = make_rng(2)
        _, probabilities = fuse_and_score({h: rng.normal(size=(4, 27)) for h in (2, 3, 4, 5, 6)})
        assert probabilities.shape == (4, 27)
        assert np.abs(probabilities.sum(axis=1) - 1.0).max() < 1e-9

    def test_fused_equals_sum(self):
        rng = make_rng(3)
        per_scale = {h: rng.normal(size=(3, 4)) for h in (2, 3)}
        logits, _ = fuse_and_score(per_scale)
        assert np.array_equal(logits, per_scale[2] + per_scale[3])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fuse_and_score({2: np.zeros((1, 3)), 3: np.zeros((1, 4))})
        with pytest.raises(ValueError):
            fuse_and_score({})


class TestPredict:
    def test_argmax(self):
        probs = np.array([[0.1, 0.7, 0.2], [0.5, 0.2, 0.3]])
        _, probabilities = fuse_and_score({2: np.log(probs)})
        assert np.array_equal(predict(probabilities), [1, 0])

    def test_uniform_ties_to_zero(self):
        assert np.array_equal(predict(fuse_and_score({2: np.zeros((2, 4))})[1]), [0, 0])

    def test_matches_fused_logits_argmax(self):
        rng = make_rng(4)
        for _ in range(20):
            logits, probabilities = fuse_and_score(
                {2: rng.normal(size=(1, 6)), 4: rng.normal(size=(1, 6))}
            )
            assert predict(probabilities)[0] == int(np.argmax(logits[0]))

    def test_invariant_to_constant_shift(self):
        rng = make_rng(5)
        for _ in range(20):
            logits = rng.normal(size=(1, 5))
            shift = float(rng.normal()) * 50.0
            assert predict(fuse_and_score({2: logits})[1]) == predict(
                fuse_and_score({2: logits + shift})[1]
            )


class TestScaleAdditivity:
    def test_block_concatenated_head_equivalence(self):
        rng = make_rng(6)
        widths, M, C = (2, 3, 5), 4, 3
        heads = random_heads(rng, widths, M, C)
        c = {h: rng.normal(size=(1, M)) for h in widths}
        fused, _ = fuse_and_score({h: head_forward(c[h], heads[h]) for h in widths})
        big_w = np.hstack([heads[h][0] for h in widths])
        big_b = sum(heads[h][1] for h in widths)
        big_c = np.concatenate([c[h][0] for h in widths])
        assert np.abs(fused[0] - (big_w @ big_c + big_b)).max() < 1e-12


class TestClassifierBackward:
    """head_backward, one width at a time, as model.backward_sample runs it."""

    def test_zero_upstream(self):
        rng = make_rng(7)
        heads = random_heads(rng, (2,), 3, 2)
        c = rng.normal(size=(1, 3))
        gw, gb, grad_c = head_backward(c, heads[2][0], None, np.zeros((1, 2)))
        assert not gw.any() and not gb.any() and not grad_c.any()

    def test_hand_chain_rule(self):
        gw, gb, grad_c = head_backward(row([3.0, 1.0]), np.array([[1.0, -1.0]]), None, row([2.0]))
        assert np.array_equal(gw, [[6.0, 2.0]])
        assert np.array_equal(gb, [2.0])
        assert np.array_equal(grad_c, [[2.0, -2.0]])

    def test_every_scale_gets_identical_upstream(self):
        rng = make_rng(8)
        heads = random_heads(rng, (2, 3, 4), 4, 3)
        c = {h: rng.normal(size=(1, 4)) for h in heads}
        upstream = rng.normal(size=(1, 3))
        for h in heads:
            assert np.array_equal(head_backward(c[h], heads[h][0], None, upstream)[1], upstream[0])

    def test_matches_finite_differences_two_scales(self):
        rng = make_rng(9)
        eps = 1e-5
        widths, M, C = (2, 3), 4, 3
        heads = random_heads(rng, widths, M, C)
        B = 2
        c = {h: rng.normal(size=(B, M)) for h in widths}
        masks = {h: np.stack([sample_dropout_mask(rng, M, 0.7) for _ in range(B)])
                 for h in widths}
        probe = rng.normal(size=(B, C))

        def objective():
            logits = {h: head_forward(c[h], heads[h], masks[h]) for h in widths}
            return float((probe * fuse_and_score(logits)[0]).sum())

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
            head_backward(np.zeros((1, 3)), weights, None, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            head_backward(np.zeros((2, 3)), weights, None, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            head_backward(np.zeros((1, 4)), weights, None, np.zeros((1, 2)))


class TestClassScores:
    def test_probabilities_consistent_with_softmax(self):
        rng = make_rng(11)
        logits, probabilities = fuse_and_score({2: rng.normal(size=(3, 9))})
        assert np.array_equal(probabilities, softmax(logits))
