import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from din.denseimage import (
    check_features,
    encode,
    gather,
    sample_segments,
)
from din.numerics import glorot_uniform, make_rng

from conftest import gathered



def segment_bounds(T, n, s):
    # Independent restatement of the segment rule used by the sampler.
    return math.ceil(s * T / n), math.ceil((s + 1) * T / n)


class TestSampleSegments:
    def test_one_frame_per_unit_segment(self):
        got = sample_segments(8, 8)
        assert got.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_center_of_two_frame_segments(self):
        got = sample_segments(16, 8)
        assert got.tolist() == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_short_video_repeats_frames(self):
        got = sample_segments(3, 8)
        assert got.tolist() == [0, 0, 1, 1, 1, 2, 2, 2]

    def test_zero_arguments_rejected(self):
        with pytest.raises(ValueError):
            sample_segments(0, 8)
        with pytest.raises(ValueError):
            sample_segments(8, 0)

    @given(T=st.integers(1, 64), n=st.integers(1, 64), seed=st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_random_indices_stay_inside_their_segments(self, T, n, seed):
        got = sample_segments(T, n, make_rng(seed))
        assert len(got) == n
        assert (np.diff(got) >= 0).all()
        prev = None
        for s, idx in enumerate(got):
            lo, hi = segment_bounds(T, n, s)
            assert 0 <= idx < T
            if hi > lo:
                assert lo <= idx < hi
                prev = idx
            else:
                assert idx == prev  # empty segment repeats the last pick

    @given(T=st.integers(1, 64), n=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_center_indices_stay_inside_their_segments(self, T, n):
        got = sample_segments(T, n)
        for s, idx in enumerate(got):
            lo, hi = segment_bounds(T, n, s)
            if hi > lo:
                assert idx == lo + (hi - lo - 1) // 2


def identity_reduction(dim):
    return np.eye(dim), np.zeros(dim)


def glorot_reduction(seed, raw_dim, feat_dim):
    """The (weights, bias) pair init_model draws for a reduction layer."""
    weights = glorot_uniform(make_rng(seed), raw_dim, feat_dim, raw_dim, feat_dim)
    return weights, np.zeros(feat_dim)


def reduce_frame(raw, layer):
    """The reduced row of one raw frame, taken through encode."""
    return encode(raw[None, None, :], layer, {})[0, 0]


def eval_encode(frames, layer, n):
    """The DenseImage of one video: center-gathered rows, then encode."""
    return encode(gathered(frames, n)[None], layer, {})[0]


class TestReduceFrame:
    def test_zero_weights_give_bias(self):
        layer = (np.zeros((3, 2)), np.array([4.0, -1.0]))
        assert np.array_equal(reduce_frame(np.array([9.0, 9.0, 9.0]), layer), [4.0, -1.0])

    def test_hand_sum(self):
        layer = (np.array([[1.0], [1.0]]), np.zeros(1))
        assert np.array_equal(reduce_frame(np.array([3.0, 4.0]), layer), [7.0])

    def test_matches_naive_dot_loop(self):
        rng = make_rng(11)
        weights, bias = layer = (rng.normal(size=(5, 3)), rng.normal(size=3))
        raw = rng.normal(size=5)
        want = np.array(
            [sum(raw[i] * weights[i, j] for i in range(5)) + bias[j] for j in range(3)]
        )
        assert np.abs(reduce_frame(raw, layer) - want).max() < 1e-12

    def test_dim_mismatch_rejected(self):
        layer = (np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            reduce_frame(np.zeros(4), layer)


class TestEncode:
    def test_identity_reduction_passthrough(self):
        frames = np.array([[1.0, 2.0], [3.0, 4.0]])
        rows = gathered(frames, 2)
        assert np.array_equal(rows, frames)
        assert np.array_equal(encode(rows[None], identity_reduction(2), {})[0], frames)

    def test_returns_the_sampled_raw_rows(self):
        rng = make_rng(18)
        frames = rng.normal(size=(16, 4))
        weights, bias = layer = glorot_reduction(19, 4, 3)
        rows = gathered(frames, 8)
        assert np.array_equal(rows, frames[::2])
        assert np.array_equal(encode(rows[None], layer, {})[0], rows @ weights + bias)

    def test_reversing_frames_reverses_rows(self):
        rng = make_rng(13)
        frames = rng.normal(size=(6, 4))
        layer = identity_reduction(4)
        fwd = eval_encode(frames, layer, 6)
        rev = eval_encode(frames[::-1].copy(), layer, 6)
        assert np.array_equal(rev, fwd[::-1])

    def test_permutation_equivariance(self):
        rng = make_rng(14)
        frames = rng.normal(size=(7, 3))
        layer = identity_reduction(3)
        base = eval_encode(frames, layer, 7)
        for _ in range(10):
            perm = rng.permutation(7)
            shuffled = eval_encode(frames[perm].copy(), layer, 7)
            assert np.array_equal(shuffled, base[perm])

    def test_standard_configuration_shape(self):
        rng = make_rng(15)
        frames = rng.normal(size=(20, 1024))
        layer = glorot_reduction(16, 1024, 256)
        rows = gathered(frames, 8)
        assert rows.shape == (8, 1024)
        assert encode(rows[None], layer, {}).shape == (1, 8, 256)

    def test_rows_never_mix_frames(self):
        rng = make_rng(17)
        frames = rng.normal(size=(5, 3))
        layer = identity_reduction(3)
        base = eval_encode(frames, layer, 5)
        for t in range(5):
            bumped = frames.copy()
            bumped[t, 1] += 1.0
            out = eval_encode(bumped, layer, 5)
            changed = [i for i in range(5) if not np.array_equal(out[i], base[i])]
            assert changed == [t]

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode(np.ones((1, 2, 3)), identity_reduction(2), {})
        with pytest.raises(ValueError):
            encode(np.ones((2, 2)), identity_reduction(2), {})  # not a batch

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValueError):
            check_features(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            gathered(np.array([[np.nan, 1.0]]), 1)


    def test_zero_frame_video_rejected(self):
        with pytest.raises(ValueError, match="T >= 1"):
            check_features(np.zeros((0, 3)))


class TestGather:
    @pytest.mark.parametrize("seed", [None, 24], ids=["center", "random"])
    def test_float32_video_gathers_like_its_float64_widening(self, seed):
        video = (make_rng(23).normal(size=(37, 6)) * 100.0).astype(np.float32)
        video.flags.writeable = False  # as loaded from a feature file
        rng32, rng64 = (None, None) if seed is None else (make_rng(seed), make_rng(seed))
        got = gathered(video, 8, rng32)
        want = gathered(video.astype(np.float64), 8, rng64)
        assert got.dtype == np.float64 and got.shape == (8, 6)
        assert np.array_equal(got, want)
        if seed is not None:
            assert rng32.bit_generator.state == rng64.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nonfinite_value_anywhere_rejected(self, dtype):
        # Center sampling at n=2 picks frames 2 and 7 of 10; the check
        # must cover the frames it does not pick too.
        for t in range(10):
            video = np.ones((10, 3), dtype=dtype)
            video[t, t % 3] = np.nan
            with pytest.raises(ValueError):
                gathered(video, 2)

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            gather(np.ones(5, dtype=np.float32), 2, None, np.empty((2, 5)))


class TestDenseImage:
    def test_properties(self):
        # A batch of B videos encodes to B DenseImages of n rows by k columns.
        layer = glorot_reduction(20, 1024, 256)
        assert encode(np.zeros((2, 8, 1024)), layer, {}).shape == (2, 8, 256)

    def test_batch_rows_equal_per_video_rows(self):
        rng = make_rng(21)
        layer = glorot_reduction(22, 6, 4)
        videos = [rng.normal(size=(T, 6)) for T in (3, 8, 20)]
        batch = encode(np.stack([gathered(v, 5) for v in videos]), layer, {})
        for b, video in enumerate(videos):
            assert np.abs(batch[b] - eval_encode(video, layer, 5)).max() < 1e-15
