import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from din.analysis import (
    count_parameters,
    estimate_flops,
    export_pooled_features,
    export_responses,
    float_rows,
)
from din.cli import main
from din.data_io import Sample, read_checkpoint_tensors
from din.denseimage import encode
from din.model import ModelShapeSpec, forward_sample, init_model, sample_batch
from din.numerics import make_rng
from din.temporal_conv import conv_scale_forward, response_profiles
from din.trainer import TrainConfig

from conftest import TINY_SHAPE, save_fresh_checkpoint

# Where repr changes notation: every power of ten from 1e-6 to 1e17 with
# both neighbours, one per row, then signed zeros, 2**53 + 2 and non-finites.
NOTATION_EDGES = np.array(
    [[np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)] for p in 10.0 ** np.arange(-6, 18)]
    + [[0.0, -0.0, 2.0**53 + 2], [np.nan, np.inf, -np.inf]]
)
# Random bit patterns (any double) and log-uniform magnitudes 1e-6 to 1e18.
_rng = np.random.default_rng(32)
SEEDED_DOUBLES = np.concatenate([
    _rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64),
    _rng.choice([-1.0, 1.0], 100_000) * 10.0 ** _rng.uniform(-6, 18, 100_000),
]).reshape(-1, 40)
FLOAT_BLOCKS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                       max_side=6))

PAPER_SHAPE = ModelShapeSpec(
    raw_dim=1024, feat_dim=256, num_frames=8, widths=(2, 3, 4, 5, 6),
    num_filters=256, num_classes=27,
)


class TestCountParameters:
    def test_smallest_model_has_seven(self):
        shape = ModelShapeSpec(1, 1, 2, (2,), 1, 1)
        report = count_parameters(shape)
        assert report.total == 7
        assert report.lines == {"reduction": 2, "conv/h2": 3, "head/h2": 2}

    def test_standard_shape_total(self):
        assert count_parameters(PAPER_SHAPE).total == 1_609_095

    def test_doubling_channels_doubles_conv_lines(self):
        base = count_parameters(TINY_SHAPE)
        doubled_shape = ModelShapeSpec(
            TINY_SHAPE.raw_dim, TINY_SHAPE.feat_dim, TINY_SHAPE.num_frames,
            TINY_SHAPE.widths, TINY_SHAPE.num_filters * 2, TINY_SHAPE.num_classes,
        )
        doubled = count_parameters(doubled_shape)
        for h in TINY_SHAPE.widths:
            assert doubled.lines[f"conv/h{h}"] == 2 * base.lines[f"conv/h{h}"]

    def test_breakdown_sums_to_total(self):
        for shape in (TINY_SHAPE, PAPER_SHAPE):
            report = count_parameters(shape)
            assert sum(report.lines.values()) == report.total
            assert all(v >= 0 for v in report.lines.values())

    def test_matches_serialized_scalar_count(self, tmp_path):
        params = init_model(TINY_SHAPE, make_rng(1))
        cfg = TrainConfig()
        path = tmp_path / "model.ckpt"
        save_fresh_checkpoint(path, params, cfg)
        _, tensors = read_checkpoint_tensors(path)
        serialized = sum(
            arr.size for name, arr in tensors.items() if name.startswith("param/")
        )
        assert serialized == count_parameters(TINY_SHAPE).total


class TestEstimateFlops:
    def test_hand_counted_minimal_model(self):
        shape = ModelShapeSpec(1, 1, 2, (2,), 1, 1)
        report = estimate_flops(shape)
        assert report.lines == {
            "reduction": 4,
            "conv/h2": 4,
            "pool/h2": 1,
            "head/h2": 2,
            "softmax": 1,
        }
        assert report.total == 12

    def test_single_window_conv_term(self):
        shape = ModelShapeSpec(4, 3, 5, (5,), 2, 2)  # h == n
        report = estimate_flops(shape)
        assert report.lines["conv/h5"] == 2 * 2 * 5 * 3  # M * (2*n*k)

    def test_halving_frames_shrinks_every_frame_dependent_term(self):
        big = ModelShapeSpec(8, 4, 8, (2,), 3, 2)
        small = ModelShapeSpec(8, 4, 4, (2,), 3, 2)
        f_big, f_small = estimate_flops(big), estimate_flops(small)
        for line in ("reduction", "conv/h2", "pool/h2"):
            assert f_small.lines[line] < f_big.lines[line]
        assert f_small.total < f_big.total

    def test_breakdown_sums_to_total(self):
        report = estimate_flops(PAPER_SHAPE)
        assert sum(report.lines.values()) == report.total

    def test_report_ends_with_the_flop_total(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"shape": dataclasses.asdict(TINY_SHAPE)}))
        assert main(["inspect-params", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"total flops per video: {estimate_flops(TINY_SHAPE).total:,}"
        assert f"total parameters: {count_parameters(TINY_SHAPE).total:,}" in out


def make_samples(rng, count, frames, dim):
    return [
        Sample(f"s{idx:03d}", rng.normal(size=(frames, dim)), idx % 2)
        for idx in range(count)
    ]


class TestExports:
    @pytest.mark.parametrize("formatter", ["orjson", "repr"])
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.one_of(
        FLOAT_BLOCKS,
        FLOAT_BLOCKS.map(np.asfortranarray),
        FLOAT_BLOCKS.map(lambda a: a[::2, ::-1]),
        FLOAT_BLOCKS.map(lambda a: a.T),
    ))
    @example(values=np.concatenate([NOTATION_EDGES, -NOTATION_EDGES]))
    @example(values=SEEDED_DOUBLES)
    @example(values=SEEDED_DOUBLES[:, :1])
    @example(values=np.zeros((0, 3)))
    @example(values=np.zeros((3, 0)))
    def test_float_rows_format_as_repr_of_each_numpy_scalar(self, formatter, values,
                                                            monkeypatch):
        # The monkeypatch holds for the whole test, so sharing it across
        # Hypothesis examples is what is wanted.
        if formatter == "orjson":
            pytest.importorskip("orjson")
        else:
            monkeypatch.setitem(sys.modules, "orjson", None)
        assert float_rows(values) == [",".join(map(repr, row)) for row in values.tolist()]

    def test_response_rows_have_window_counts(self, tmp_path, tiny_params):
        rng = make_rng(2)
        samples = make_samples(rng, 4, 5, 4)
        for h in (2, 3):
            out = export_responses(tiny_params, samples, h, tmp_path / f"r{h}.csv")
            lines = out.read_text().strip().splitlines()
            header = lines[0].split(",")
            windows = tiny_params.shape.num_frames - h + 1
            assert header == (
                ["id"] + [f"win_{i}" for i in range(windows)]
                + ["argmax_window", "frame_start", "frame_end"]
            )
            assert len(lines) == 5
            for row in lines[1:]:
                assert len(row.split(",")) == len(header)

    def test_zero_model_profiles_are_flat(self, tmp_path):
        params = init_model(TINY_SHAPE, make_rng(3))
        for weights, bias in params.bank.values():
            weights[:] = 0.0
            bias[:] = 0.0
        samples = make_samples(make_rng(4), 2, 5, 4)
        out = export_responses(params, samples, 2, tmp_path / "zero.csv")
        for row in out.read_text().strip().splitlines()[1:]:
            cells = row.split(",")
            assert all(float(v) == 0.0 for v in cells[1:5])

    def test_export_argmax_matches_profile_argmax(self, tmp_path, tiny_params):
        rng = make_rng(5)
        samples = make_samples(rng, 3, 5, 4)
        out = export_responses(tiny_params, samples, 2, tmp_path / "resp.csv")
        rows = out.read_text().strip().splitlines()[1:]
        for row, sample in zip(rows, sorted(samples, key=lambda s: s.id)):
            cells = row.split(",")
            scratch = {}
            batch_rows, _ = sample_batch(tiny_params.shape, [sample.features], scratch)
            dense = encode(batch_rows, tiny_params.reduction, scratch)
            (profile,) = response_profiles(conv_scale_forward(dense, *tiny_params.bank[2], scratch))
            window = int(np.argmax(profile))
            assert int(cells[-3]) == window
            assert (int(cells[-2]), int(cells[-1])) == (window, window + 1)

    def test_rows_sorted_by_id(self, tmp_path, tiny_params):
        rng = make_rng(6)
        samples = list(reversed(make_samples(rng, 5, 5, 4)))
        out = export_responses(tiny_params, samples, 2, tmp_path / "sorted.csv")
        ids = [row.split(",")[0] for row in out.read_text().strip().splitlines()[1:]]
        assert ids == sorted(ids)

    def test_width_not_in_model_rejected(self, tmp_path, tiny_params):
        with pytest.raises(ValueError):
            export_responses(tiny_params, [], 6, tmp_path / "bad.csv")

    def test_feature_vector_lengths(self, tmp_path, tiny_params):
        rng = make_rng(7)
        samples = make_samples(rng, 3, 5, 4)
        out = export_pooled_features(tiny_params, samples, tmp_path / "feat.csv")
        lines = out.read_text().strip().splitlines()
        shape = tiny_params.shape
        want_cols = 2 + shape.num_filters * len(shape.widths) + shape.feat_dim
        assert all(len(row.split(",")) == want_cols for row in lines)

    def test_five_scales_of_256_filters_export_1280_values(self, tmp_path):
        shape = ModelShapeSpec(8, 8, 8, (2, 3, 4, 5, 6), 256, 3)
        params = init_model(shape, make_rng(10))
        samples = make_samples(make_rng(11), 2, 8, 8)
        out = export_pooled_features(params, samples, tmp_path / "wide.csv")
        header = out.read_text().splitlines()[0].split(",")
        pooled_cols = [c for c in header if c.startswith("c")]
        assert len(pooled_cols) == 1280

    def test_identical_samples_export_identically(self, tmp_path, tiny_params):
        rng = make_rng(8)
        features = rng.normal(size=(5, 4))
        samples = [Sample("a", features, 0), Sample("b", features.copy(), 0)]
        out = export_pooled_features(tiny_params, samples, tmp_path / "dup.csv")
        row_a, row_b = out.read_text().strip().splitlines()[1:]
        assert row_a.split(",")[2:] == row_b.split(",")[2:]

    def test_baseline_columns_equal_denseimage_column_mean(self, tmp_path, tiny_params):
        rng = make_rng(9)
        samples = make_samples(rng, 2, 5, 4)
        out = export_pooled_features(tiny_params, samples, tmp_path / "base.csv")
        rows = out.read_text().strip().splitlines()[1:]
        shape = tiny_params.shape
        for row, sample in zip(rows, sorted(samples, key=lambda s: s.id)):
            cells = row.split(",")
            scratch = {}
            rows, masks = sample_batch(shape, [sample.features], scratch)
            fwd = forward_sample(tiny_params, rows, masks, scratch)
            got = np.array([float(v) for v in cells[-shape.feat_dim:]])
            assert np.array_equal(got, fwd.dense[0].mean(axis=0))
            vec = np.concatenate([fwd.pooled[h][0][0] for h in shape.widths])
            got_vec = np.array(
                [float(v) for v in cells[2 : 2 + vec.size]]
            )
            assert np.array_equal(got_vec, vec)
