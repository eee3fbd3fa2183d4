import numpy as np
import pytest

from din.analysis import export_responses
from din.data_io import Sample
from din.model import ModelShapeSpec, init_model
from din.numerics import make_rng
from din.selftest import (
    check_multiscale_gradients,
    check_shape_law,
    naive_scale_responses,
    random_bank,
)
from din.temporal_conv import (
    conv_scale_backward,
    conv_scale_forward,
    multiscale_forward,
    pool_argmax,
    response_profiles,
    temporal_max_pool,
)


def conv_map(X, W, b):
    """The M x (n-h+1) feature map of one n x k DenseImage (a batch of one)."""
    return conv_scale_forward(X[None], W, b, {})[0].T


def single_map(rows):
    """A batch-of-one feature map from its M x W channel rows."""
    return np.array(rows, dtype=float).T[None]


def pool(fmap):
    """(B x M pooled values, B x M argmax windows): the forward's pool and
    the backward's argmax of one map."""
    values = temporal_max_pool(fmap)
    return values, pool_argmax(fmap, values)


class TestConvForward:
    def test_zero_weights_give_bias_everywhere(self):
        X = np.ones((1, 6, 3))
        fmap = conv_scale_forward(X, np.zeros((4, 2 * 3)), np.full(4, 0.5), {})
        assert fmap.shape == (1, 5, 4)
        assert np.array_equal(fmap, np.full((1, 5, 4), 0.5))

    def test_negative_zero_preactivations_rectify_to_positive_zero(self):
        # The map starts from the first offset's product, not from zeros,
        # so a -0.0 input and bias could give -0.0 pre-activations; an
        # exported response or pooled value must still read 0.0.
        X = np.full((2, 5, 3), -0.0)
        fmap = conv_scale_forward(X, np.ones((4, 3 * 3)), np.full(4, -0.0), {})
        assert np.array_equal(fmap, np.zeros((2, 3, 4)))
        assert not np.signbit(fmap).any()

    def test_window_counts_for_eight_frames(self):
        check_shape_law(make_rng(1))

    def test_matches_naive_oracle(self):
        rng = make_rng(2)
        X = rng.normal(size=(5, 3))
        W = rng.normal(size=(2, 2 * 3))
        b = rng.normal(size=2)
        got = conv_map(X, W, b)
        assert np.abs(got - naive_scale_responses(X, W, b)).max() < 1e-12

    def test_width_one_matches_naive_oracle(self):
        # h = 1 is one offset, no shift and add: the smallest width the check allows.
        rng = make_rng(5)
        X = rng.normal(size=(4, 3))
        W = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        assert np.abs(conv_map(X, W, b) - naive_scale_responses(X, W, b)).max() < 1e-12

    def test_width_larger_than_frames_rejected(self):
        with pytest.raises(ValueError):
            conv_map(np.ones((3, 2)), np.zeros((1, 4 * 2)), np.zeros(1))

    def test_values_are_nonnegative(self):
        rng = make_rng(3)
        X = rng.normal(size=(6, 2))
        assert (conv_map(X, rng.normal(size=(5, 6)), rng.normal(size=5)) >= 0.0).all()


class TestMaxPool:
    def test_single_column(self):
        values, argmax = pool(single_map([[2.0], [5.0]]))
        assert np.array_equal(values, [[2.0, 5.0]])
        assert np.array_equal(argmax, [[0, 0]])

    def test_hand_max(self):
        values, argmax = pool(single_map([[1.0, 3.0, 2.0]]))
        assert values[0, 0] == 3.0
        assert argmax[0, 0] == 1

    def test_tie_breaks_to_smallest_index(self):
        values, argmax = pool(single_map([[2.0, 2.0, 1.0]]))
        assert values[0, 0] == 2.0
        assert argmax[0, 0] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one window"):
            temporal_max_pool(np.zeros((1, 0, 3)))

    def test_pool_dominance(self):
        rng = make_rng(4)
        fmap = np.abs(rng.normal(size=(4, 5, 6)))
        values, argmax = pool(fmap)
        assert (values[:, None] >= fmap).all()
        batch, channels = np.indices((4, 6))
        assert np.array_equal(fmap[batch, argmax, channels], values)

    def test_equals_max_and_first_argmax_with_ties_and_dead_channels(self):
        # Rectified maps with tied maxima and all-zero (dead) channels; a
        # faster pooling must still give exactly these values and windows.
        rng = make_rng(17)
        for _ in range(50):
            B, W, M = (int(v) for v in rng.integers(1, 7, size=3))
            fmap = np.maximum(rng.normal(size=(B, W, M)), 0.0)
            peaks = fmap.max(axis=1, keepdims=True)
            fmap = np.where(rng.random((B, W, M)) < 0.3, peaks, fmap)
            fmap[:, :, rng.random(M) < 0.3] = 0.0
            values, argmax = pool(fmap)
            assert np.array_equal(values, fmap.max(axis=1))
            assert np.array_equal(argmax, fmap.argmax(axis=1))


class TestMultiscaleForward:
    def test_zero_network_pools_to_zero(self):
        bank = {2: (np.zeros((3, 2 * 2)), np.zeros(3)), 3: (np.zeros((3, 3 * 2)), np.zeros(3))}
        pooled = multiscale_forward(np.ones((1, 5, 2)), bank, {})
        assert not pooled[2][0].any()
        assert not pooled[3][0].any()

    def test_standard_configuration_sizes(self):
        rng = make_rng(5)
        bank = init_model(ModelShapeSpec(8, 8, 8, (2, 3, 4, 5, 6), 256, 2), rng).bank
        pooled = multiscale_forward(rng.normal(size=(1, 8, 8)), bank, {})
        assert sorted(pooled) == [2, 3, 4, 5, 6]
        assert all(values.shape == (1, 256) for values, _ in pooled.values())


class TestOrderSensitivity:
    def test_row_swap_changes_pooled_output(self):
        # Three near-orthogonal frames and a filter keyed to the ordered
        # pair (first, second): swapping the last two rows removes that
        # pair and the pooled response drops.
        A, B, C = np.eye(3)
        X = np.stack([A, B, C])
        bank = {2: (np.concatenate([A, B])[None, :], np.zeros(1))}
        values, _ = multiscale_forward(np.stack([X, X[[0, 2, 1]]]), bank, {})[2]
        assert values[0, 0] == 2.0
        assert values[1, 0] == 1.0


class TestShiftEquivariance:
    def test_interior_columns_shift_with_rows(self):
        rng = make_rng(8)
        n, k = 8, 3
        X = rng.normal(size=(n, k))
        shifted = np.roll(X, 1, axis=0)
        for h in (2, 3, 4):
            W = rng.normal(size=(3, h * k))
            b = rng.normal(size=3)
            base = conv_map(X, W, b)
            out = conv_map(shifted, W, b)
            # Window i of the shifted image covers original rows i-1..i+h-2
            # whenever it avoids the wrapped row 0.
            for i in range(1, n - h + 1):
                assert np.array_equal(out[:, i], base[:, i - 1]), f"h={h} col={i}"


def grad_buffer(X, W):
    """A flat gradient buffer of the size conv_scale_backward needs for the
    B x n x k batch X and the M x h*k filters W."""
    (B, n, k), (M, hk) = X.shape, W.shape
    return np.empty(max(B * (n - hk // k + 1), M) * hk)


def backward_all(X, bank, upstream):
    """width -> conv_scale_backward's (grad_W, grad_b), and grad_X summed
    over the widths in ascending order, as model.backward_sample runs them,
    each width's gradients in a buffer of its own."""
    scratch = {}
    pooled = multiscale_forward(X, bank, scratch)
    gX = np.zeros_like(X)
    grads = {h: conv_scale_backward(X, bank[h][0], *pooled[h], upstream[h], gX,
                                    grad_buffer(X, bank[h][0]), scratch)
             for h in sorted(bank)}
    return grads, gX


class TestMultiscaleBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = make_rng(9)
        bank = random_bank(rng, (2, 3), 3, 2, 0.1)
        X = rng.normal(size=(1, 5, 2))
        grads, gX = backward_all(X, bank, {2: np.zeros((1, 3)), 3: np.zeros((1, 3))})
        assert not gX.any()
        assert not any(gW.any() or gb.any() for gW, gb in grads.values())

    def test_single_window_routes_bias_gradient_through_gate(self):
        rng = make_rng(10)
        n, k, M = 4, 2, 5
        bank = random_bank(rng, (4,), M, k, 1.0)  # h == n: one window
        X = rng.normal(size=(1, n, k))
        scratch = {}
        pooled = multiscale_forward(X, bank, scratch)
        upstream = rng.normal(size=M)
        _, gb = conv_scale_backward(X, bank[4][0], *pooled[4], upstream[None], np.zeros_like(X),
                                    grad_buffer(X, bank[4][0]), scratch)
        gate = pooled[4][0][0] > 0
        assert np.array_equal(gb, upstream * gate)

    def test_tied_windows_route_to_the_first(self):
        # Identical rows make every window tie for the maximum: the backward
        # finds the argmax in the map itself and must send each gradient to
        # window 0 alone, so only rows 0..h-1 receive any.
        rng = make_rng(14)
        bank = random_bank(rng, (3,), 4, 2, 0.0)
        bank[3] = (np.abs(bank[3][0]), bank[3][1])
        X = np.ones((2, 6, 2))
        scratch = {}
        (values, fmap), = multiscale_forward(X, bank, scratch).values()
        assert np.array_equal(pool_argmax(fmap, values), np.zeros((2, 4), dtype=int))
        gX = np.zeros_like(X)
        conv_scale_backward(X, bank[3][0], values, fmap, np.ones((2, 4)), gX,
                            grad_buffer(X, bank[3][0]), scratch)
        assert gX[:, :3].all() and not gX[:, 3:].any()

    def test_results_held_together_equal_single_calls(self):
        # The selftest holds every width's gradients at once; none may be
        # overwritten by the next width's call.
        rng = make_rng(13)
        bank = random_bank(rng, (2, 3), 4, 3, 0.1)
        X = rng.normal(size=(2, 5, 3))
        upstream = {h: rng.normal(size=(2, 4)) for h in bank}
        scratch = {}
        pooled = multiscale_forward(X, bank, scratch)
        alone = {h: [g.copy() for g in conv_scale_backward(
                     X, bank[h][0], *pooled[h], upstream[h], np.zeros_like(X),
                     grad_buffer(X, bank[h][0]), scratch)]
                 for h in bank}
        held, _ = backward_all(X, bank, upstream)
        for h in bank:
            for got, want in zip(held[h], alone[h]):
                assert np.array_equal(got, want)

    def test_grad_shapes_must_match_cache(self):
        rng = make_rng(11)
        bank = random_bank(rng, (2,), 3, 2, 0.1)
        X = rng.normal(size=(1, 5, 2))
        scratch = {}
        values, fmap = multiscale_forward(X, bank, scratch)[2]
        for grad_up in (np.zeros((1, 4)), np.zeros(3)):
            with pytest.raises(ValueError):
                conv_scale_backward(X, bank[2][0], values, fmap, grad_up, np.zeros_like(X),
                                    grad_buffer(X, bank[2][0]), scratch)

    def test_matches_finite_differences_on_kink_free_instances(self):
        check_multiscale_gradients(make_rng(12), 50)


class TestResponseProfile:
    def test_dead_filter_is_flat_zero(self):
        fmap = conv_scale_forward(np.ones((1, 6, 2)), np.zeros((3, 4)), np.zeros(3), {})
        assert np.array_equal(response_profiles(fmap), np.zeros((1, 5)))

    def test_profile_length_for_eight_frames(self):
        rng = make_rng(13)
        bank = random_bank(rng, (2,), 3, 2, 0.1)
        X = rng.normal(size=(1, 8, 2))
        assert response_profiles(conv_scale_forward(X, *bank[2], {})).shape == (1, 7)

    def test_frame_range_maps_argmax_window(self, tmp_path, tiny_params):
        rng = make_rng(15)
        sample = Sample("s", rng.normal(size=(8, 4)), 0)
        out = export_responses(tiny_params, [sample], 3, tmp_path / "r.csv")
        cells = out.read_text().splitlines()[1].split(",")
        first, last = int(cells[-2]), int(cells[-1])
        assert first == int(cells[-3])
        assert last == first + 2
