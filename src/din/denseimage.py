"""Frame sequences into fixed-size DenseImage matrices.

A video arrives as a reader of its feature file or, in memory, as a
T x D array with one feature vector per frame, which `check_features`
validates.
Gathering picks n frames by segment sampling; encoding pushes a whole
batch of gathered rows through the trainable linear reduction at once.
Row i of a DenseImage is always sampled frame i: nothing here may permute
or mix rows.
"""

from __future__ import annotations

import numpy as np

from .numerics import Array, scratch_view


def check_features(features: Array) -> Array:
    """Validate an in-memory video's per-frame feature vectors, a T x D
    matrix with one row per frame in temporal order, and return it
    unchanged. The matrix is checked in the dtype it arrives in, so
    validation never makes a widened copy of the whole video.
    """
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a T x D matrix with T >= 1")
    if not np.all(np.isfinite(features)):
        raise ValueError("features must be finite")
    return features


def sample_segments(T: int, n: int, rng: np.random.Generator | None = None) -> Array:
    """Pick n frame indices from a T-frame video, one per temporal segment.

    Segment s covers [ceil(s*T/n), ceil((s+1)*T/n)). Without an rng the
    pick is the segment's center, start + (len-1)//2; with one it is drawn
    uniformly inside the segment. Segments that are empty (T < n) repeat
    the previous segment's index, so the result is always non-decreasing.
    Segment 0 is never empty.
    """
    if T < 1 or n < 1:
        raise ValueError("T and n must be >= 1")
    indices = np.empty(n, dtype=np.int64)
    prev = 0
    for s in range(n):
        lo = -((-s * T) // n)  # ceil(s*T/n)
        hi = -((-(s + 1) * T) // n)
        if hi > lo:
            prev = lo + (hi - lo - 1) // 2 if rng is None else int(rng.integers(lo, hi))
        indices[s] = prev
    return indices


def gather(features, n: int, rng: np.random.Generator | None, out: Array) -> Array:
    """Write the n x D raw rows of the frames segment sampling picks (segment
    centers without an rng, random draws with one), in temporal order, into
    the n x D float64 `out` and return it. A `data_io.FeatureRows` reader (a
    video loaded from its file) reads and checks only the picked rows. An
    in-memory array video is validated whole in its own dtype. Either way
    only the n picked rows are widened, float32 -> float64 exactly, straight
    into `out`; a video of another D is a ValueError."""
    if hasattr(features, "read_rows"):
        rows = features.read_rows(sample_segments(features.shape[0], n, rng))
    else:
        features = check_features(np.asarray(features))
        rows = features[sample_segments(features.shape[0], n, rng)]
    if rows.shape != out.shape:
        raise ValueError(f"rows of shape {rows.shape} do not match reduction input {out.shape[1]}")
    out[...] = rows
    return out


def encode(rows: Array, reduction: tuple[Array, Array], scratch: dict[str, Array]) -> Array:
    """Reduce a B x n x D batch of sampled rows to B x n x k DenseImages.

    One (B*n) x D GEMM against the (D x k weights, k bias) pair; row i of
    DenseImage b is still sampled frame i of video b. The DenseImages are
    the leading elements of the scratch's "dense" buffer (see
    numerics.scratch_view).
    """
    weights, bias = reduction
    if rows.ndim != 3 or rows.shape[2] != weights.shape[0]:
        raise ValueError(
            f"rows of shape {rows.shape} do not match reduction input {weights.shape[0]}"
        )
    B, n, D = rows.shape
    dense = scratch_view(scratch, "dense", (B, n, weights.shape[1]))
    np.matmul(rows.reshape(B * n, D), weights, out=dense.reshape(B * n, -1))
    dense += bias
    return dense
