"""Multi-width temporal convolution over a batch of B DenseImages.

A width-h filter is a single flattened weight vector over h consecutive
frames times all k feature dims. Sliding it down the rows with stride 1
and no padding yields W = n-h+1 windows, so each feature-map entry
depends on exactly h adjacent frames and the map keeps their order. Max
pooling over window positions then picks, per channel, the strongest
local evolution wherever it happened in time.

A filter bank is a width -> (weights, bias) dict. weights[h] has shape
M x (h*k): filter m's row is its h-frame window template flattened
frame-major. Row a of every window is DenseImage row i+a, so a width
runs as h GEMMs over the whole batch, one per row offset a (shift and
add), with the same sums as an im2col window GEMM but no (B*W) x (h*k)
window matrix; at B=1 this is the faster of the two.

The forward pass pools values only and keeps each width's map. The
backward pass is hand-written and runs one width at a time: it finds
each pooled value's (tie-broken) argmax window in that map, routes the
upstream gradient there alone, gates it by the rectifier, and the
windows scatter it back onto the h DenseImage rows they cover.

Every call runs in a scratch its caller passes (see numerics.scratch_view):
the maps, the offset rows and the GEMM products live in its buffers, and
a map is valid until the next forward on that scratch. The backward's
window and filter gradients take turns in one buffer the caller passes.
"""

from __future__ import annotations

import numpy as np

from .numerics import Array, scratch_view


def _offset_rows(X: Array, a: int, num_windows: int, scratch: dict[str, Array]) -> Array:
    """Row a of every window of a B x n x k batch, copied into the scratch's
    "offset" buffer as (B*num_windows) x k."""
    rows = scratch_view(scratch, "offset", (X.shape[0], num_windows, X.shape[2]))
    np.copyto(rows, X[:, a : a + num_windows])
    return rows.reshape(-1, X.shape[2])


def conv_scale_forward(X: Array, W_h: Array, b_h: Array, scratch: dict[str, Array]) -> Array:
    """Rectified width-h responses of a B x n x k batch at every window
    position (stride 1, no padding): a B x (n-h+1) x M map whose element
    (b, i, m) is channel m applied to the window of DenseImage b that
    starts at frame i.

    The map starts as the first offset's product and each later offset's
    product is added to it. The map is the leading elements of the
    scratch's "map/h<h>" buffer, and the offset rows and products go
    through its "offset" and "product" buffers.
    """
    if X.ndim != 3:
        raise ValueError("expected a B x n x k batch of DenseImages")
    B, n, k = X.shape
    if W_h.shape[1] % k != 0:
        raise ValueError("filter length must be a multiple of the feature dim")
    h = W_h.shape[1] // k
    if h < 1 or h > n:
        raise ValueError(f"filter width {h} does not fit {n} frames")
    if b_h.shape != (W_h.shape[0],):
        raise ValueError("bias length must equal the channel count")
    num_windows = n - h + 1
    size = (B * num_windows, W_h.shape[0])
    responses = scratch_view(scratch, f"map/h{h}", size)
    np.matmul(_offset_rows(X, 0, num_windows, scratch), W_h[:, :k].T, out=responses)
    product = scratch_view(scratch, "product", size)
    for a in range(1, h):
        offset = _offset_rows(X, a, num_windows, scratch)
        np.matmul(offset, W_h[:, a * k : (a + 1) * k].T, out=product)
        responses += product
    responses += b_h
    # maximum(-0.0, 0.0) is +0.0: no map holds a -0.0, though it starts from a product.
    np.maximum(responses, 0.0, out=responses)
    return responses.reshape(B, num_windows, -1)


def temporal_max_pool(fmap: Array) -> Array:
    """Per-channel maximum of a B x W x M map over window positions, as
    B x M values."""
    if fmap.shape[1] < 1:
        raise ValueError("feature map must have at least one window")
    return fmap.max(axis=1)


def pool_argmax(fmap: Array, values: Array) -> Array:
    """The window each of the B x M `values` that temporal_max_pool took
    from the B x W x M map came from; ties go to the smallest index.

    The argmax is the first window equal to the maximum, found by stepping
    from the last window down: W contiguous comparisons are cheaper than
    `argmax` along the strided window axis, and give the same windows for
    any map without NaNs.
    """
    num_windows = fmap.shape[1]
    argmax = np.full(values.shape, num_windows - 1, dtype=np.intp)
    for w in range(num_windows - 2, -1, -1):
        np.copyto(argmax, w, where=fmap[:, w] == values)
    return argmax


def multiscale_forward(
    X: Array, bank: dict[int, tuple[Array, Array]], scratch: dict[str, Array]
) -> dict[int, tuple[Array, Array]]:
    """Convolve and pool every width of a width -> (weights, bias) bank
    over a B x n x k batch of DenseImages: width -> (B x M pooled values,
    the B x W x M map conv_scale_forward pooled them from)."""
    pooled = {}
    for h in sorted(bank):
        fmap = conv_scale_forward(X, *bank[h], scratch)
        pooled[h] = (temporal_max_pool(fmap), fmap)
    return pooled


def conv_scale_backward(
    X: Array, W_h: Array, values: Array, fmap: Array, grad_up: Array, grad_X: Array,
    grad: Array, scratch: dict[str, Array],
) -> tuple[Array, Array]:
    """Gradients of one width's pooled features wrt its filters and biases,
    summed over the batch, given the B x n x k DenseImages X, the B x M
    pooled values and the map they were pooled from, as multiscale_forward
    returns them. The gradient wrt X is added into grad_X, so the caller
    sums the widths in its order.

    Per sample and channel the B x M upstream gradient enters at the argmax
    window alone (pool_argmax), passes the rectifier gate (zero where the
    pooled value hit the rectifier floor), and fans out to the filter row,
    its bias, and the h DenseImage rows under that window.

    `grad` is a flat buffer of at least max(B*(n-h+1), M)*h*k elements. The
    window gradients go through its leading elements first; once they are
    added into grad_X, the filter gradient is written there and returned
    as an M x h*k view. The routed map and the offset rows live in the
    leading elements of the scratch's "product" (free once the forward
    has returned) and "offset" buffers, which the next call overwrites.
    """
    B, n, k = X.shape
    M = values.shape[1]
    h = W_h.shape[1] // k
    num_windows = n - h + 1
    if grad_up.shape != (B, M):
        raise ValueError(f"grad_up must have shape {(B, M)}")
    routed = grad_up * (values > 0.0)
    # The flat index of (b, argmax window, m) in the B x W x M routed map.
    at = pool_argmax(fmap, values)
    at *= M
    at += np.arange(M)
    at += np.arange(0, B * num_windows * M, num_windows * M)[:, None]
    grad_map = scratch_view(scratch, "product", (B * num_windows, M))
    grad_map.fill(0.0)
    np.put(grad_map, at, routed)
    # Back through the windows: offset a of window i is row i+a.
    grad_windows = grad[: B * num_windows * h * k].reshape(B * num_windows, h * k)
    np.matmul(grad_map, W_h, out=grad_windows)
    grad_windows = grad_windows.reshape(B, num_windows, h, k)
    for a in range(h):
        grad_X[:, a : a + num_windows] += grad_windows[:, :, a]
    grad_W = grad[: W_h.size].reshape(W_h.shape)
    for a in range(h):
        offset = _offset_rows(X, a, num_windows, scratch)
        np.matmul(grad_map.T, offset, out=grad_W[:, a * k : (a + 1) * k])
    return grad_W, routed.sum(axis=0)


def response_profiles(fmap: Array) -> Array:
    """The B x (n-h+1) channel-mean responses of a width-h feature map, one
    profile per DenseImage; window i covers sampled frames i .. i+h-1."""
    return fmap.mean(axis=2)
