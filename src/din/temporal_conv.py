"""Multi-width temporal convolution over DenseImage rows.

A width-h filter is a single flattened weight vector over h consecutive
frames times all k feature dims. Sliding it down the rows with stride 1
and no padding yields n-h+1 windows, so each feature-map entry depends
on exactly h adjacent frames and the map keeps their order. Max pooling
over window positions then picks, per channel, the strongest local
evolution wherever it happened in time.

A filter bank is a width -> (weights, bias) dict. weights[h] has shape
M x (h*k): filter m's row is its h-frame window template flattened
frame-major, so the window response is a single contiguous inner product.

The backward pass is hand-written: the pool routes the upstream gradient
to its (tie-broken) argmax window only, the rectifier gates it, and the
window scatters it back onto the h DenseImage rows it covered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .denseimage import DenseImage
from .numerics import Array


@dataclass(frozen=True)
class ScaleFeatureMap:
    """Post-rectifier responses for one width: element (m, i) is channel m
    applied to the window starting at frame i."""

    width: int
    values: Array  # M x (n-h+1)


@dataclass(frozen=True)
class PooledScaleFeature:
    """Per-channel max over window positions, with the smallest attaining index."""

    width: int
    values: Array  # M
    argmax_positions: Array  # M, int


def _window_matrix(X: Array, h: int) -> Array:
    """All length-h row windows of X, flattened to (n-h+1) x (h*k)."""
    n, k = X.shape
    return sliding_window_view(X, (h, k))[:, 0].reshape(n - h + 1, h * k)


def _conv_windows(X: DenseImage, W_h: Array, b_h: Array) -> tuple[Array, ScaleFeatureMap]:
    """The window matrix of X for W_h's width and the rectified responses over it."""
    n, k = X.values.shape
    if W_h.shape[1] % k != 0:
        raise ValueError("filter length must be a multiple of the feature dim")
    h = W_h.shape[1] // k
    if h < 1 or h > n:
        raise ValueError(f"filter width {h} does not fit {n} frames")
    if b_h.shape != (W_h.shape[0],):
        raise ValueError("bias length must equal the channel count")
    windows = _window_matrix(X.values, h)
    pre = W_h @ windows.T + b_h[:, None]
    return windows, ScaleFeatureMap(h, np.maximum(pre, 0.0))


def conv_scale_forward(X: DenseImage, W_h: Array, b_h: Array) -> ScaleFeatureMap:
    """Rectified width-h responses at every window position (stride 1, no padding)."""
    return _conv_windows(X, W_h, b_h)[1]


def temporal_max_pool(fmap: ScaleFeatureMap) -> PooledScaleFeature:
    """Per-channel maximum over window positions; ties go to the smallest index."""
    if fmap.values.shape[1] < 1:
        raise ValueError("feature map must have at least one window")
    return PooledScaleFeature(
        fmap.width,
        fmap.values.max(axis=1),
        fmap.values.argmax(axis=1),
    )


@dataclass
class MultiscaleCache:
    """Everything the backward pass needs from one multiscale forward.

    Holds a read-only reference to the bank that produced it; a cache is
    valid for exactly one backward call against unmodified parameters.
    """

    bank: dict[int, tuple[Array, Array]]
    X: Array  # n x k
    windows: dict[int, Array]  # h -> (n-h+1) x (h*k)
    fmaps: dict[int, ScaleFeatureMap]
    pooled: dict[int, PooledScaleFeature]


def multiscale_forward(
    X: DenseImage, bank: dict[int, tuple[Array, Array]]
) -> tuple[dict[int, PooledScaleFeature], MultiscaleCache]:
    """Convolve and pool every width of a width -> (weights, bias) bank
    over one DenseImage."""
    windows = {}
    fmaps = {}
    pooled = {}
    for h in sorted(bank):
        windows[h], fmaps[h] = _conv_windows(X, *bank[h])
        pooled[h] = temporal_max_pool(fmaps[h])
    return pooled, MultiscaleCache(bank, X.values, windows, fmaps, pooled)


def multiscale_backward(
    cache: MultiscaleCache, grad_pooled: dict[int, Array]
) -> tuple[dict[int, Array], dict[int, Array], Array]:
    """Gradients of the pooled features wrt filters, biases and the DenseImage.

    For each channel the upstream gradient enters at the argmax window
    alone, passes the rectifier gate (zero where the pooled value hit the
    rectifier floor), and fans out to the filter row, its bias, and the h
    DenseImage rows under that window. grad_X accumulates over widths.
    """
    if set(grad_pooled) != set(cache.fmaps):
        raise ValueError("grad_pooled widths do not match the forward cache")
    k = cache.X.shape[1]
    grad_W: dict[int, Array] = {}
    grad_b: dict[int, Array] = {}
    grad_X = np.zeros_like(cache.X)
    for h, fmap in cache.fmaps.items():
        M, num_windows = fmap.values.shape
        grad_up = np.asarray(grad_pooled[h], dtype=np.float64)
        if grad_up.shape != (M,):
            raise ValueError(f"grad_pooled[{h}] must have length {M}")
        pos = cache.pooled[h].argmax_positions
        channels = np.arange(M)
        gate = fmap.values[channels, pos] > 0.0
        grad_map = np.zeros((M, num_windows))
        grad_map[channels, pos] = grad_up * gate
        windows = cache.windows[h]
        grad_W[h] = grad_map @ windows
        grad_b[h] = grad_map.sum(axis=1)
        # Back through the windows: place each window's gradient onto the
        # h rows it covers.
        grad_windows = grad_map.T @ cache.bank[h][0]
        for i in range(num_windows):
            grad_X[i : i + h] += grad_windows[i].reshape(h, k)
    return grad_W, grad_b, grad_X


@dataclass(frozen=True)
class ResponseProfile:
    """Per-window response intensities of one width over one DenseImage."""

    width: int
    intensities: Array  # n-h+1
    argmax_window: int

    @property
    def frame_range(self) -> tuple[int, int]:
        """Sampled-frame span [first, last] covered by the argmax window."""
        return self.argmax_window, self.argmax_window + self.width - 1


def response_profile(fmap: ScaleFeatureMap, channel: int | None = None) -> ResponseProfile:
    """Row m of a width-h feature map, or the channel mean when channel is None.

    Window i of the profile covers sampled frames i .. i+h-1.
    """
    if channel is None:
        intensities = fmap.values.mean(axis=0)
    else:
        if not 0 <= channel < fmap.values.shape[0]:
            raise ValueError(f"channel {channel} out of range")
        intensities = fmap.values[channel].copy()
    return ResponseProfile(fmap.width, intensities, int(np.argmax(intensities)))
