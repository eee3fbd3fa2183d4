"""Model accounting and introspection exports.

Parameter counts sum the model's parameter table, the same table the
live model and its checkpoints are built from, so the accounting cannot
drift from them. FLOP totals use a fixed convention: one multiply-add
counts as 2 operations, elementwise operations (pooling comparisons,
softmax terms) as 1 per element, and bias additions are not counted.

Exports are delimited text with a header row, one row per sample, rows
ordered by sample id; each float is written as the text of its repr, so
files are byte-stable across runs. float_rows prints that text through
orjson when it is importable (the same bytes, faster), else with repr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data_io import Sample, atomic_write_bytes
from .denseimage import encode
from .model import (EVAL_BATCH, ModelParams, ModelShapeSpec, batches, forward_sample,
                    parameter_shapes)
from .numerics import Array
from .temporal_conv import conv_scale_forward, response_profiles


@dataclass(frozen=True)
class CostBreakdown:
    """Total plus per-layer lines; the lines always sum to the total."""

    total: int
    lines: dict[str, int]


def count_parameters(shape: ModelShapeSpec) -> CostBreakdown:
    """Exact trainable-scalar count of the parameter table, one line per
    layer (the tensor names up to their last "/")."""
    lines: dict[str, int] = {}
    for name, dims in parameter_shapes(shape).items():
        layer = name.rsplit("/", 1)[0]
        lines[layer] = lines.get(layer, 0) + math.prod(dims)
    return CostBreakdown(sum(lines.values()), lines)


def estimate_flops(shape: ModelShapeSpec) -> CostBreakdown:
    """Per-video operation count for one evaluation-mode forward pass."""
    n, k = shape.num_frames, shape.feat_dim
    lines: dict[str, int] = {"reduction": n * 2 * shape.raw_dim * k}
    for h in shape.widths:
        windows = n - h + 1
        lines[f"conv/h{h}"] = shape.num_filters * windows * 2 * h * k
    for h in shape.widths:
        lines[f"pool/h{h}"] = shape.num_filters * (n - h + 1)
    for h in shape.widths:
        lines[f"head/h{h}"] = 2 * shape.num_classes * shape.num_filters
    lines["softmax"] = shape.num_classes
    return CostBreakdown(sum(lines.values()), lines)


def _write_lines(rows: list[str], out_path: str | Path) -> Path:
    out_path = Path(out_path)
    atomic_write_bytes(out_path, ("\n".join(rows) + "\n").encode())
    return out_path


def float_rows(values: Array) -> list[str]:
    """Each row of a 2-D float array as comma-separated cells, each cell
    the text of repr(float(v)).

    With orjson importable, the block is printed by orjson, whose Ryu
    digits are repr's shortest round-trip digits; only where repr writes
    another notation (exponent form below 1e-4 and from 1e16, nan, inf)
    are those cells replaced by repr's. Without orjson, every row is
    repr'd from tolist(), whose Python floats repr as the numpy scalars
    would, without a scalar per cell. orjson is imported here, on the
    first call, so importing din does not pay for it."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    try:
        import orjson
    except ImportError:
        return [",".join(map(repr, row)) for row in values.tolist()]
    if not len(values):
        return []  # orjson's "[]" would split into one empty row
    # "[[a,b],[c,d]]" -> "a,b" and "c,d"
    rows = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    magnitude = np.abs(values)
    other_notation = (~np.isfinite(values) | (magnitude >= 1e16)
                      | ((magnitude < 1e-4) & (magnitude > 0)))
    for i in np.flatnonzero(other_notation.any(axis=1)).tolist():
        cells, row = rows[i].split(","), values[i].tolist()
        for j in np.flatnonzero(other_notation[i]).tolist():
            cells[j] = repr(row[j])
        rows[i] = ",".join(cells)
    return rows


def check_width(shape: ModelShapeSpec, h: int) -> None:
    if h not in shape.widths:
        raise ValueError(f"width {h} not in the model (widths {shape.widths})")


def export_responses(
    params: ModelParams, samples: Sequence[Sample], h: int, out_path: str | Path
) -> Path:
    """Per-sample channel-mean response profile for one filter width.

    Columns: sample id, the n-h+1 window intensities, the argmax window
    (ties to the smallest), and the first and last sampled frame that
    window covers (argmax .. argmax+h-1).
    """
    check_width(params.shape, h)
    num_windows = params.shape.num_frames - h + 1
    header = (
        ["id"]
        + [f"win_{i}" for i in range(num_windows)]
        + ["argmax_window", "frame_start", "frame_end"]
    )
    rows = [",".join(header)]
    by_id = sorted(samples, key=lambda s: s.id)
    scratch: dict[str, Array] = {}
    for chunk, batch_rows, _ in batches(params.shape, by_id, EVAL_BATCH, scratch):
        dense = encode(batch_rows, params.reduction, scratch)
        fmap = conv_scale_forward(dense, *params.bank[h], scratch)
        profiles = response_profiles(fmap)
        for sample, intensities, cells in zip(chunk, profiles, float_rows(profiles)):
            window = int(np.argmax(intensities))
            rows.append(f"{sample.id},{cells},{window},{window},{window + h - 1}")
    return _write_lines(rows, out_path)


def export_pooled_features(
    params: ModelParams, samples: Sequence[Sample], out_path: str | Path
) -> Path:
    """Per-sample pooled features (all widths concatenated) with labels.

    Also writes the order-invariant control vector per sample: the column
    mean of the DenseImage, i.e. what the sample looks like to a model
    blind to frame order. Intended for external embedding tools.
    """
    shape = params.shape
    header = ["id", "label"]
    for h in shape.widths:
        header += [f"c{h}_{m}" for m in range(shape.num_filters)]
    header += [f"mean_{j}" for j in range(shape.feat_dim)]
    rows = [",".join(header)]
    by_id = sorted(samples, key=lambda s: s.id)
    scratch: dict[str, Array] = {}
    for chunk, batch_rows, masks in batches(shape, by_id, EVAL_BATCH, scratch):
        fwd = forward_sample(params, batch_rows, masks, scratch)
        cells = [float_rows(fwd.pooled[h][0]) for h in shape.widths]
        baselines = float_rows(fwd.dense.mean(axis=1))
        for sample, *vector, baseline in zip(chunk, *cells, baselines):
            rows.append(f"{sample.id},{sample.label},{','.join(vector)},{baseline}")
    return _write_lines(rows, out_path)
