import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

from din.data_io import (
    FEATURE_MAGIC,
    READ_BLOCK_FRAMES,
    CheckpointData,
    FeatureRows,
    FormatError,
    ManifestError,
    ManifestEntry,
    SyntheticTaskConfig,
    atomic_write_bytes,
    load_checkpoint,
    load_manifest,
    load_split,
    read_feature_file,
    save_checkpoint,
    save_manifest,
    synth_order_task,
    write_feature_file,
    write_synth_dataset,
)
import din.data_io as data_io_mod
from din.cli import CHECKPOINT_FILE, HISTORY_FILE, train_to_checkpoint
from din.denseimage import sample_segments
from din.model import ModelParams, ModelShapeSpec, init_model
from din.numerics import make_rng
from din.trainer import (
    EpochReport,
    TrainConfig,
    TrainState,
    epoch_rng,
    fit,
    init_rng,
    train_epoch,
)

from conftest import (
    TINY_SHAPE,
    assert_history_is_the_checkpoints,
    change_feature_file,
    decode_feature_file,
    edit_checkpoint_meta,
    gathered,
    ignore_epoch,
    in_memory,
    poison_tensor,
    save_fresh_checkpoint,
)
from mean_pool_baseline import train_baseline


def every_frame(path, dim):
    """All T x D frames of a feature file of feature dim `dim` through its
    reader, which must agree with the independent `decode_feature_file`."""
    reader = read_feature_file(path, dim)
    frames = reader.read_rows(np.arange(reader.shape[0]))
    assert frames.dtype == np.float32 and np.array_equal(frames, decode_feature_file(path))
    return frames


class TestFeatureFiles:
    def test_minimal_file_is_16_bytes_and_exact(self, tmp_path):
        path = tmp_path / "one.difx"
        write_feature_file(path, np.array([[1.0]]))
        assert path.stat().st_size == 16
        assert np.array_equal(every_frame(path, 1), [[1.0]])

    def test_size_formula(self, tmp_path):
        path = tmp_path / "f.difx"
        write_feature_file(path, np.zeros((7, 5)))
        assert path.stat().st_size == 12 + 4 * 7 * 5

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.difx"
        write_feature_file(path, np.ones((2, 2)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_feature_file(path, 2)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.difx"
        write_feature_file(path, np.ones((2, 2)))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_feature_file(path, 2)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.difx"
        write_feature_file(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_feature_file(path, 3)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.difx"
        write_feature_file(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_feature_file(path, 3)

    def test_zero_shape_rejected(self, tmp_path):
        path = tmp_path / "zero.difx"
        with pytest.raises(FormatError):
            write_feature_file(path, np.zeros((0, 4)))
        blob = struct.pack("<4sHIH", FEATURE_MAGIC, 1, 0, 4)
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_feature_file(path, 4)

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_feature_file(tmp_path / "inf.difx", np.array([[np.inf]]))

    @pytest.mark.parametrize("values", [[[1e39, 1.0]], [[-3.5e38]]])
    def test_float32_overflow_rejected_without_writing(self, tmp_path, values):
        # Finite in float64 but inf once quantized: refused before any write.
        path = tmp_path / "huge.difx"
        with pytest.raises(FormatError, match=re.escape(str(path))):
            write_feature_file(path, np.array(values))
        assert list(tmp_path.iterdir()) == []

    def test_float32_max_round_trips_exactly(self, tmp_path):
        path = tmp_path / "max.difx"
        top = float(np.finfo(np.float32).max)
        write_feature_file(path, np.array([[top, -top, 1.0]]))
        assert np.array_equal(every_frame(path, 3), [[top, -top, 1.0]])

    def test_nonfinite_payload_names_the_file(self, tmp_path):
        path = tmp_path / "nan.difx"
        write_feature_file(path, np.ones((2, 3)))
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=re.escape(str(path))):
            read_feature_file(path, 3)

    def test_oversized_dim_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_feature_file(tmp_path / "wide.difx", np.zeros((1, 70000)))

    def test_round_trip_equals_float32_quantization(self, tmp_path):
        rng = make_rng(1)
        features = rng.normal(size=(8, 1024))
        path = tmp_path / "big.difx"
        write_feature_file(path, features)
        got = every_frame(path, 1024)
        assert np.array_equal(got, features.astype(np.float32).astype(np.float64))

    def test_header_represents_large_frame_counts(self):
        packed = struct.pack("<4sHIH", FEATURE_MAGIC, 1, 86017, 1024)
        magic, version, frames, dim = struct.unpack("<4sHIH", packed)
        assert (frames, dim) == (86017, 1024)

    @given(
        T=st.integers(1, 12),
        D=st.integers(1, 40),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random_payloads(self, tmp_path_factory, T, D, seed):
        path = tmp_path_factory.mktemp("difx") / "x.difx"
        features = make_rng(seed).normal(size=(T, D)) * 100.0
        write_feature_file(path, features)
        got = every_frame(path, D)
        assert got.shape == (T, D)
        assert np.array_equal(got, features.astype(np.float32).astype(np.float64))

    @given(T=st.integers(1, 3 * READ_BLOCK_FRAMES + 5), n=st.integers(1, 12),
           D=st.integers(1, 6), seed=st.integers(0, 10**6))
    @example(T=3, n=8, D=2, seed=0)  # T < n: repeated rows
    @example(T=8, n=8, D=2, seed=0)  # T == n: every row
    @example(T=2 * READ_BLOCK_FRAMES, n=8, D=2, seed=0)  # whole blocks only
    @example(T=2 * READ_BLOCK_FRAMES + 1, n=8, D=2, seed=0)  # a one-frame last block
    @example(T=2 * READ_BLOCK_FRAMES + 1, n=1, D=2, seed=0)  # the pick starts a block
    @settings(max_examples=60, deadline=None)
    def test_center_rows_are_the_full_reads_sampled_rows(self, tmp_path_factory, T, n, D, seed):
        path = tmp_path_factory.mktemp("difx") / "x.difx"
        write_feature_file(path, make_rng(seed).normal(size=(T, D)))
        got = gathered(read_feature_file(path, D), n)
        assert got.dtype == np.float64 and got.shape == (n, D)
        assert np.array_equal(got, decode_feature_file(path)[sample_segments(T, n)])

    @pytest.mark.parametrize("row", [0, READ_BLOCK_FRAMES + 1, 199])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_unsampled_row_names_the_file(self, tmp_path, row, value):
        assert row not in sample_segments(200, 8)
        features = np.ones((200, 3))
        path = tmp_path / "v.difx"
        write_feature_file(path, features)
        blob = bytearray(path.read_bytes())
        at = 12 + 4 * (3 * row + 1)
        blob[at : at + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=re.escape(f"{path}: non-finite feature values")):
            read_feature_file(path, 3)


class TestAtomicWrite:
    @pytest.fixture
    def full_disk(self, monkeypatch):
        real_open = open

        class FullFile:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(data_io_mod, "open",
                            lambda *args, **kw: FullFile(real_open(*args, **kw)), raising=False)

    def test_failed_write_leaves_no_file(self, tmp_path, full_disk):
        path = tmp_path / "v.difx"
        with pytest.raises(OSError) as info:
            write_feature_file(path, np.ones((2, 3)))
        assert info.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_names_the_target_not_the_temporary_file(self, tmp_path, full_disk):
        path = tmp_path / "history.json"
        with pytest.raises(OSError) as info:
            atomic_write_bytes(path, b"new")
        assert str(info.value) == f"{path}: No space left on device"
        assert info.value.errno == errno.ENOSPC

    def test_failed_write_keeps_the_old_file(self, tmp_path, full_disk):
        path = tmp_path / "history.json"
        path.write_bytes(b"old")
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"new")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old"

    def test_a_second_writer_that_finishes_first_leaves_one_complete_file(
        self, tmp_path, monkeypatch
    ):
        # The second writer of the path runs to completion between the first
        # writer's write and its rename.
        path = tmp_path / "predictions.csv"
        first, second = b"first," * 50, b"second," * 50
        real_replace = os.replace

        def replace(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            atomic_write_bytes(path, second)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        atomic_write_bytes(path, first)
        assert path.read_bytes() in (first, second)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_is_the_umask_applied_to_0o666(self, tmp_path, umask, mode):
        path = tmp_path / "history.json"
        old = os.umask(umask)
        try:
            atomic_write_bytes(path, b"{}")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert list(tmp_path.iterdir()) == [path]


class TestAtomicWriteNamed(TestAtomicWrite):
    """TestAtomicWrite's cases in a directory that refuses an unnamed file,
    so each write goes through a named temporary file (O_CREAT | O_EXCL)."""

    @pytest.fixture(autouse=True, params=[errno.EOPNOTSUPP, errno.EISDIR],
                    ids=["EOPNOTSUPP", "EISDIR"])
    def named_only(self, request, monkeypatch):
        real_open, named = os.open, []

        def open_(path, flags, *args, **kw):
            if flags & os.O_TMPFILE == os.O_TMPFILE:
                raise OSError(request.param, os.strerror(request.param))
            named.append(flags & os.O_EXCL)
            return real_open(path, flags, *args, **kw)

        monkeypatch.setattr(os, "open", open_)
        yield
        assert any(named), "no write took the named path"


def write_dataset(tmp_path, records, classes=("a", "b")):
    entries = []
    for sid, label, split in records:
        rel = f"{sid}.difx"
        write_feature_file(tmp_path / rel, np.full((3, 2), float(label)))
        entries.append(ManifestEntry(sid, rel, label, split))
    path = tmp_path / "manifest.json"
    save_manifest(path, list(classes), entries)
    return path


class TestLoadContract:
    def synth_manifest(self, tmp_path):
        cfg = SyntheticTaskConfig(feature_dim=5, samples_per_class=3,
                                  val_samples_per_class=2, seed=8)
        return load_manifest(write_synth_dataset(cfg, tmp_path))

    def test_loaded_videos_hold_four_bytes_per_value(self, tmp_path):
        path = tmp_path / "v.difx"
        write_feature_file(path, make_rng(3).normal(size=(7, 5)))
        reader = read_feature_file(path, 5)
        assert reader.shape == (7, 5)
        rows = reader.read_rows(np.arange(7))
        assert rows.dtype == np.float32 and rows.nbytes == 4 * 7 * 5

    def test_full_split_keeps_row_readers(self, tmp_path):
        manifest = self.synth_manifest(tmp_path)
        samples = load_split(manifest, "train", 5)
        for sample, entry in zip(samples, manifest.split("train")):
            path = manifest.root / entry.feature_path
            assert isinstance(sample.features, FeatureRows)
            assert sample.features.path == path and sample.features.shape == (8, 5)
            rows = sample.features.read_rows(np.array([7, 0, 0, 3]))
            assert rows.dtype == np.float32
            assert np.array_equal(rows, decode_feature_file(path)[[7, 0, 0, 3]])

    def test_load_split_reads_each_file_once(self, tmp_path, monkeypatch):
        manifest = self.synth_manifest(tmp_path)
        real = data_io_mod.read_feature_file
        monkeypatch.setattr(data_io_mod, "read_feature_file",
                            lambda path, *args, **kw: reads.append(path) or real(path, *args, **kw))
        reads = []
        samples = load_split(manifest, "train", 5)
        assert len(samples) == 6
        assert reads == [manifest.root / e.feature_path for e in manifest.split("train")]

    def test_center_row_split_keeps_the_sampled_rows(self, tmp_path):
        # An evaluation split loads like a training split, as row readers;
        # a center gather reads each video's segment-center rows.
        manifest = self.synth_manifest(tmp_path)
        samples = load_split(manifest, "val", 5)
        full = in_memory(samples)
        for got, want in zip(samples, full):
            assert isinstance(got.features, FeatureRows) and got.label == want.label
            rows = want.features[sample_segments(len(want.features), 3)]
            assert np.array_equal(gathered(got.features, 3), rows)

    def test_wrong_dim_fails_before_the_payload_is_read(self, tmp_path):
        # The payload holds a NaN, so only a check made before reading it
        # reports the dim.
        manifest = self.synth_manifest(tmp_path)
        entry = manifest.split("val")[0]
        path = manifest.root / entry.feature_path
        write_feature_file(path, np.ones((4, 7)))
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ManifestError, match=f"sample {entry.id!r}: .*feature dim 7"):
            load_split(manifest, "val", 5)


class TestManifest:
    def test_loads_samples_in_document_order(self, tmp_path):
        path = write_dataset(
            tmp_path,
            [("s2", 0, "train"), ("s0", 1, "train"), ("s1", 0, "val")],
        )
        manifest = load_manifest(path)
        assert [e.id for e in manifest.entries] == ["s2", "s0", "s1"]
        train = load_split(manifest, "train", 2)
        assert [s.id for s in train] == ["s2", "s0"]
        assert [s.label for s in train] == [0, 1]

    def test_all_three_splits_resolve(self, tmp_path):
        path = write_dataset(
            tmp_path,
            [("a", 0, "train"), ("b", 1, "val"), ("c", 0, "test")],
        )
        manifest = load_manifest(path)
        for split in ("train", "val", "test"):
            assert len(manifest.split(split)) == 1

    def test_label_out_of_range_cites_sample(self, tmp_path):
        path = write_dataset(tmp_path, [("good", 0, "train")])
        doc = json.loads(path.read_text())
        doc["samples"][0]["label"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="samples.0: label must be < 2, got 5"):
            load_manifest(path)

    def test_bool_label_cites_sample(self, tmp_path):
        path = write_dataset(tmp_path, [("flag", 0, "train")])
        doc = json.loads(path.read_text())
        doc["samples"][0]["label"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="samples.0: label must be an integer, got True"):
            load_manifest(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_dataset(tmp_path, [("dup", 0, "train")])
        doc = json.loads(path.read_text())
        doc["samples"].append(dict(doc["samples"][0]))
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="dup"):
            load_manifest(path)

    def test_missing_feature_file_rejected(self, tmp_path):
        path = write_dataset(tmp_path, [("lost", 0, "train")])
        (tmp_path / "lost.difx").unlink()
        with pytest.raises(ManifestError, match="lost"):
            load_manifest(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = write_dataset(tmp_path, [("s", 0, "train")])
        doc = json.loads(path.read_text())
        doc["samples"][0]["split"] = "dev"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_garbage_document_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_undecodable_document_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"classes": ["caf\xe9"], "samples": []}'.encode("latin-1"))
        with pytest.raises(ManifestError, match=f"{re.escape(str(path))}: cannot parse manifest"):
            load_manifest(path)

    @pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
    def test_document_that_is_not_an_object_rejected(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ManifestError, match="m.json: expected an object, got "):
            load_manifest(path)


class TestSynthTask:
    def test_sigma_zero_sequences_follow_the_ring(self):
        cfg = SyntheticTaskConfig(
            num_prototypes=4, feature_dim=6, noise_sigma=0.0,
            sequence_length=8, samples_per_class=6, val_samples_per_class=2, seed=3,
        )
        rng = make_rng(cfg.seed, 2)
        protos = rng.normal(size=(4, 6))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        splits = synth_order_task(cfg)
        for sample in splits["train"] + splits["val"]:
            # Recover the offset from the first frame, then the whole
            # sequence must match the forward or backward ring walk.
            offset = int(np.argmin(np.linalg.norm(protos - sample.features[0], axis=1)))
            step = 1 if sample.label == 0 else -1
            want = protos[[(offset + step * t) % 4 for t in range(8)]]
            assert np.array_equal(sample.features, want)

    def test_equal_offset_classes_share_frame_multisets(self):
        cfg = SyntheticTaskConfig(
            num_prototypes=4, feature_dim=5, noise_sigma=0.0,
            sequence_length=8, samples_per_class=16, val_samples_per_class=2, seed=4,
        )
        splits = synth_order_task(cfg)
        def multiset(sample):
            return np.sort(sample.features, axis=0)
        by_class = {0: [], 1: []}
        for s in splits["train"]:
            by_class[s.label].append(s)
        # Every class-0 multiset appears among class-1 multisets: the walk
        # visits each prototype n/P times regardless of direction/offset.
        m0 = multiset(by_class[0][0])
        assert any(np.allclose(m0, multiset(s), atol=0) for s in by_class[1])
        means0 = {tuple(np.round(s.features.mean(axis=0), 12)) for s in by_class[0]}
        means1 = {tuple(np.round(s.features.mean(axis=0), 12)) for s in by_class[1]}
        assert means0 == means1

    def test_width_two_filter_separates_sigma_zero_classes(self):
        # Exhaustive over the P=4 construction: consecutive ordered pairs
        # of class 0 never occur in class 1, so a filter keyed to one such
        # pair fires on exactly one class.
        cfg = SyntheticTaskConfig(
            num_prototypes=4, feature_dim=4, noise_sigma=0.0,
            sequence_length=8, samples_per_class=32, val_samples_per_class=4, seed=5,
        )
        rng = make_rng(cfg.seed, 2)
        protos = rng.normal(size=(4, 4))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        splits = synth_order_task(cfg)

        def pairs(sample):
            out = set()
            for t in range(7):
                a = int(np.argmin(np.linalg.norm(protos - sample.features[t], axis=1)))
                b = int(np.argmin(np.linalg.norm(protos - sample.features[t + 1], axis=1)))
                out.add((a, b))
            return out

        asc_pairs = set().union(*(pairs(s) for s in splits["train"] if s.label == 0))
        desc_pairs = set().union(*(pairs(s) for s in splits["train"] if s.label == 1))
        assert asc_pairs and desc_pairs
        assert not asc_pairs & desc_pairs

    def test_balanced_splits(self):
        cfg = SyntheticTaskConfig(samples_per_class=10, val_samples_per_class=4, seed=6)
        splits = synth_order_task(cfg)
        assert len(splits["train"]) == 20
        assert len(splits["val"]) == 8
        assert sum(s.label for s in splits["train"]) == 10

    def test_mean_pool_baseline_stays_near_chance(self):
        cfg = SyntheticTaskConfig(
            num_prototypes=4, feature_dim=16, noise_sigma=0.1,
            sequence_length=8, samples_per_class=64, val_samples_per_class=32, seed=7,
        )
        splits = synth_order_task(cfg)
        train_cfg = TrainConfig(max_epochs=25, batch_size=16, initial_lr=0.1,
                                dropout_keep=1.0, seed=8)
        _, history = train_baseline(splits["train"], splits["val"], 16, 2, train_cfg)
        assert max(r.val_accuracy for r in history) <= 0.6

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTaskConfig(num_prototypes=1)
        with pytest.raises(ValueError):
            SyntheticTaskConfig(sequence_length=1)
        with pytest.raises(ValueError):
            SyntheticTaskConfig(noise_sigma=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", math.nan), ("noise_sigma", math.inf), ("seed", 1.0),
        ("val_samples_per_class", 2.5), ("feature_dim", True),
    ])
    def test_bad_fields_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticTaskConfig(**{field: value})

    def test_written_dataset_round_trips(self, tmp_path):
        cfg = SyntheticTaskConfig(
            feature_dim=8, samples_per_class=3, val_samples_per_class=2, seed=9
        )
        manifest_path = write_synth_dataset(cfg, tmp_path)
        manifest = load_manifest(manifest_path)
        assert manifest.classes == ["ascending", "descending"]
        train = load_split(manifest, "train", 8)
        assert len(train) == 6
        in_memory = synth_order_task(cfg)["train"]
        by_id = {s.id: s for s in in_memory}
        for sample in train:
            want = by_id[sample.id].features
            got = sample.features.read_rows(np.arange(sample.features.shape[0]))
            assert np.array_equal(got, want.astype(np.float32).astype(np.float64))


def small_training_setup(seed=21):
    splits = synth_order_task(
        SyntheticTaskConfig(
            num_prototypes=2, feature_dim=4, noise_sigma=0.1,
            sequence_length=5, samples_per_class=8, val_samples_per_class=4, seed=seed,
        )
    )
    cfg = TrainConfig(max_epochs=2, batch_size=4, initial_lr=0.05,
                      dropout_keep=0.8, seed=seed)
    params = init_model(TINY_SHAPE, init_rng(cfg.seed))
    return splits, cfg, params


def train(run_dir, params, splits, config, state, best):
    """Train as `din train` does in the new directory `run_dir`, rewriting
    its checkpoint and history after every epoch; `best` is None for a
    fresh run or the open checkpoint the run resumes. Returns the final
    state."""
    run_dir.mkdir()
    return train_to_checkpoint(run_dir, params, splits["train"], splits["val"], config, state,
                               best, lambda report: None)


def append_tensor(blob, name, arr):
    """Checkpoint bytes with one more tensor at the end of the directory."""
    (meta_len,) = struct.unpack_from("<I", blob, 6)
    at = 10 + meta_len
    (count,) = struct.unpack_from("<I", blob, at)
    encoded = name.encode()
    extra = (struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", arr.ndim)
             + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f8").tobytes())
    return blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:] + extra


def swap_tensors(blob, first, second):
    """Checkpoint bytes with the adjacent tensors `first` and `second`
    (entry and payload each) in the other order."""
    spans = []
    for name in (first, second):
        start = blob.index(struct.pack("<H", len(name)) + name.encode())
        at = start + 2 + len(name)
        dims = struct.unpack_from(f"<{blob[at]}I", blob, at + 1)
        spans.append((start, at + 1 + 4 * len(dims) + 8 * math.prod(dims)))
    (a, b), (c, d) = spans
    assert b == c
    return blob[:a] + blob[c:d] + blob[a:b] + blob[d:]


DROP = "<drop>"  # marks a meta field the test deletes


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        splits, cfg, params = small_training_setup()
        state = train(tmp_path / "run", params, splits, cfg, TrainState.fresh(params), None)
        loaded = load_checkpoint(tmp_path / "run" / CHECKPOINT_FILE)
        assert isinstance(loaded, CheckpointData)
        assert loaded.config == cfg
        # The best snapshot: an identical run stopped after the best epoch.
        best = init_model(TINY_SHAPE, init_rng(cfg.seed))
        stopped = dataclasses.replace(cfg, max_epochs=state.best_epoch + 1)
        fit(best, splits["train"], splits["val"], stopped, TrainState.fresh(best),
            ignore_epoch)
        for name, arr in params.tensors.items():
            assert arr.tobytes() == loaded.model.tensors[name].tobytes()
            assert state.velocity[name].tobytes() == loaded.state.velocity[name].tobytes()
            assert best.tensors[name].tobytes() == loaded.best.tensors[name].tobytes()
        assert loaded.state.history == state.history
        assert loaded.state.best_epoch == state.best_epoch

    def test_corrupt_files_rejected(self, tmp_path):
        splits, cfg, params = small_training_setup()
        path = tmp_path / "model.ckpt"
        save_fresh_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        (tmp_path / "magic.ckpt").write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "magic.ckpt")
        versioned = bytearray(blob)
        struct.pack_into("<H", versioned, 4, 99)
        (tmp_path / "vers.ckpt").write_bytes(bytes(versioned))
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "vers.ckpt")
        (tmp_path / "trunc.ckpt").write_bytes(blob[:-9])
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "trunc.ckpt")
        (tmp_path / "trail.ckpt").write_bytes(blob + b"\x01")
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "trail.ckpt")

    def test_unknown_tensors_rejected(self, tmp_path):
        splits, cfg, params = small_training_setup()
        for name in ("param/bogus", "stray/reduction/bias"):
            path = tmp_path / "model.ckpt"
            save_fresh_checkpoint(path, params, cfg)
            path.write_bytes(append_tensor(path.read_bytes(), name, np.zeros(3)))
            with pytest.raises(FormatError, match=name):
                load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        (field, DROP) for field in (
            "config", "shape", "optimizer", "history", "best_epoch", "best_val_accuracy",
            "has_best", "optimizer.current_lr", "optimizer.best_val_error",
            "optimizer.epochs_since_improvement", "optimizer.epochs_completed",
        )
    ] + [
        ("best_epoch", math.inf), ("has_best", "yes"), ("optimizer.epochs_completed", 1.7),
        ("best_epoch", "1"), ("optimizer.current_lr", True), ("history.0.epoch", 0.9),
        ("best_val_accuracy", "0.5"), ("shape.widths", [2, 2]), ("config.momentum", math.nan),
        ("config.initial_lr", math.inf), ("config.extra", 1), ("shape.extra", 1),
        ("optimizer.velocity", {}), ("history.0.extra", 1),
        # The epoch bookkeeping: counters, history epochs and best_epoch agree.
        ("optimizer.epochs_completed", -2), ("optimizer.epochs_since_improvement", -1),
        ("optimizer.epochs_completed", 2), ("optimizer.epochs_completed", 0),
        ("history.0.epoch", 1), ("best_epoch", 3), ("best_epoch", -2),
        # The numbers' ranges: a rate, an error rate and accuracies.
        ("optimizer.current_lr", -0.5), ("optimizer.current_lr", math.nan),
        ("optimizer.current_lr", math.inf), ("optimizer.best_val_error", 1.5),
        ("optimizer.best_val_error", -math.inf), ("optimizer.best_val_error", math.nan),
        ("history.0.val_accuracy", 7.0), ("history.0.val_accuracy", math.nan),
        ("history.0.current_lr", -0.5), ("history.0.current_lr", math.inf),
        ("best_val_accuracy", 7.0), ("best_val_accuracy", math.nan), ("best_epoch", 0),
        # In range, but not what the history gives: each used to load and
        # change the resumed run's schedule, its rate or its output.
        ("optimizer.best_val_error", 0.0), ("optimizer.current_lr", 0.5),
        ("optimizer.epochs_since_improvement", 40), ("history.1.current_lr", 7.0),
    ])
    def test_bad_meta_field_names_the_file(self, tmp_path, field, value):
        splits, cfg, params = small_training_setup()
        path = tmp_path / "model.ckpt"
        # Three epochs as fit runs them: epoch 1 is the best, epoch 2 does
        # not improve on it, and the rate stays at 0.05.
        state = TrainState.fresh(params)
        for epoch, accuracy in enumerate((0.25, 0.5, 0.5)):
            state.history.append(EpochReport(epoch, 1.0, 1.0, accuracy, cfg.initial_lr))
        save_checkpoint(path, params, state, cfg, None)
        load_checkpoint(path)  # unedited

        def edit(meta):
            *parents, key = field.split(".")
            for parent in parents:
                meta = meta[int(parent)] if isinstance(meta, list) else meta[parent]
            if value == DROP:
                del meta[key]
            else:
                meta[key] = value

        path.write_bytes(edit_checkpoint_meta(path.read_bytes(), edit))
        key = field.split(".")[-1]
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: .*{key}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("optimizer.epochs_completed", 3.0), ("optimizer.epochs_since_improvement", True),
        ("best_epoch", 1.0),
    ])
    def test_derived_value_of_another_type_names_the_file(self, tmp_path, field, value):
        # Compared by JSON text, 3.0 is not 3 and true is not 1.
        self.test_bad_meta_field_names_the_file(tmp_path, field, value)

    def test_tensor_errors_name_the_group_and_tensor(self, tmp_path):
        splits, cfg, params = small_training_setup()
        state = TrainState.fresh(params)
        state.velocity["conv/h3/bias"] = np.zeros(2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, state, cfg, None)
        with pytest.raises(FormatError, match=r"velocity/conv/h3/bias: shape \(2,\)"):
            load_checkpoint(path)
        blob = append_tensor(path.read_bytes(), "param/reduction/bias", np.zeros(3))
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: velocity/conv/h3/bias: "
                                              r"shape \(2,\), expected \(4,\)$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, error", [
        ("num_filters", 2**32, "conv/h2/weights: shape (4, 6), expected (4294967296, 6)"),
        ("num_filters", 2**33, "conv/h2/weights: shape (4, 6), expected (8589934592, 6)"),
        ("raw_dim", 10**30, f"reduction/weights: shape (4, 3), expected ({10**30}, 3)"),
    ])
    @pytest.mark.parametrize("groups", [None, ("param",), ()])
    def test_meta_dim_beyond_u32_names_the_file_and_tensor(
        self, tmp_path, field, value, error, groups
    ):
        # No directory entry holds such a dim, so the first tensor that has
        # it is the first that differs from the layout.
        path = tmp_path / "wide.ckpt"
        path.write_bytes(edit_checkpoint_meta(pinned_checkpoint(path),
                                              lambda meta: meta["shape"].update({field: value})))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: param/{error}')}$"):
            load_checkpoint(path, groups=groups)

    @pytest.mark.parametrize("edit, error", [
        (lambda blob: swap_tensors(blob, "param/reduction/weights", "param/reduction/bias"),
         "param/reduction/weights: tensor 'param/reduction/bias' of shape (3,), expected (4, 3)"),
        (lambda blob: append_tensor(blob, "best/head/h3/bias", np.zeros(3)),
         "unexpected tensor 'best/head/h3/bias'"),
    ], ids=["reordered", "duplicated"])
    def test_tensors_out_of_layout_order_fail(self, tmp_path, edit, error):
        # A file holds each group's tensors once, in table order.
        path = tmp_path / "model.ckpt"
        path.write_bytes(edit(pinned_checkpoint(path)))
        for groups in (None, ("param",), ("best",)):
            with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {error}')}$"):
                load_checkpoint(path, groups=groups)

    def test_tensor_count_must_be_the_layouts(self, tmp_path):
        path = tmp_path / "model.ckpt"
        blob = bytearray(pinned_checkpoint(path))
        (meta_len,) = struct.unpack_from("<I", blob, 6)
        struct.pack_into("<I", blob, 10 + meta_len, 29)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: tensor count 29, "
                                              "expected 30$"):
            load_checkpoint(path)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        splits, cfg, params_a = small_training_setup(seed=22)
        four = dataclasses.replace(cfg, max_epochs=4)
        state_a = train(tmp_path / "whole", params_a, splits, four,
                        TrainState.fresh(params_a), params_a)

        params_b = init_model(TINY_SHAPE, init_rng(cfg.seed))
        train(tmp_path / "halfway", params_b, splits, cfg, TrainState.fresh(params_b),
              params_b)  # 2 epochs
        with open(tmp_path / "halfway" / CHECKPOINT_FILE, "rb") as halfway:
            loaded = load_checkpoint(halfway, groups=("param", "velocity"))
            assert len(loaded.state.history) == 2
            resumed = train(tmp_path / "resumed", loaded.model, splits, four, loaded.state,
                            halfway)
        assert resumed.history == state_a.history
        for name, arr in params_a.tensors.items():
            assert np.array_equal(arr, loaded.model.tensors[name])
        assert ((tmp_path / "resumed" / CHECKPOINT_FILE).read_bytes()
                == (tmp_path / "whole" / CHECKPOINT_FILE).read_bytes())
        for run in ("whole", "halfway", "resumed"):
            assert_history_is_the_checkpoints(tmp_path / run)

    @pytest.mark.parametrize("cut_group", [False, True], ids=["meta", "meta-and-group"])
    @pytest.mark.parametrize("groups", [None, ("param",), ("velocity",), ("best",)])
    def test_checkpoint_without_best_fails_every_load(self, tmp_path, groups, cut_group):
        # Every checkpoint has a best/ group; a meta that says otherwise
        # fails, whichever groups are read, with or without the group.
        path = tmp_path / "no-best.ckpt"
        blob = edit_checkpoint_meta(pinned_checkpoint(path), lambda m: m.update(has_best=False))
        path.write_bytes(without_best_group(blob) if cut_group else blob)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: invalid meta block: "
                                              "has_best must be true, got False$"):
            load_checkpoint(path, groups=groups)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("group", ["param", "velocity", "best"])
    def test_non_finite_payload_fails_the_loads_that_read_it(self, tmp_path, group, value):
        path = tmp_path / "poisoned.ckpt"
        name = f"{group}/conv/h2/weights"
        path.write_bytes(poison_tensor(pinned_checkpoint(path), name, value))
        for groups in (None, ("param",), ("velocity",), ("best",)):
            if groups is None or group in groups:
                with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: non-finite "
                                                      f"values in tensor '{name}'$"):
                    load_checkpoint(path, groups=groups)
            else:  # a skipped group's payload is not checked
                load_checkpoint(path, groups=groups)


PINNED_SIZE = 4111  # bytes of the pinned checkpoint (TestLayoutPin)


def without_best_group(blob):
    """Checkpoint bytes of TINY_SHAPE cut before its best/ group, the last
    third of the tensor directory, with the tensor count to match."""
    (meta_len,) = struct.unpack_from("<I", blob, 6)
    (count,) = struct.unpack_from("<I", blob, 10 + meta_len)
    at = blob.index(b"best/") - 2  # the first best/ entry's name length
    return blob[: 10 + meta_len] + struct.pack("<I", count * 2 // 3) + blob[14 + meta_len : at]


def pinned_checkpoint(path):
    params = init_model(TINY_SHAPE, make_rng(123))
    save_fresh_checkpoint(path, params, TrainConfig())
    return path.read_bytes()


class TestLayoutPin:
    def test_fresh_tiny_checkpoint_bytes(self, tmp_path):
        # Pins tensor names, order, shapes and the init draw order at once.
        blob = pinned_checkpoint(tmp_path / "pin.ckpt")
        assert len(blob) == 4111
        assert hashlib.sha256(blob).hexdigest() == (
            "d4c15089c059eff6b0d19886174876eae4eb3b706e4bb1450c7f403d3e8a972d"
        )


def format_error_or_valid_load(load, path, blob):
    path.write_bytes(blob)
    try:
        load(path)
    except FormatError:
        pass


FUZZ = settings(max_examples=150, derandomize=True, deadline=None)


def check_center_read_agrees(path, blob, n, dim):
    """A load fails exactly when an independent check of the blob's header,
    size and values finds it invalid. Otherwise the reader reads every
    frame, and its center gather the sampled rows, of the file as
    `decode_feature_file` decodes it."""
    path.write_bytes(blob)
    magic, version, T, D = struct.unpack_from("<4sHIH", blob) if len(blob) >= 12 else [0] * 4
    valid = (magic == FEATURE_MAGIC and version == 1 and T * D > 0 and len(blob) == 12 + 4 * T * D
             and np.all(np.isfinite(np.frombuffer(blob, "<f4", offset=12))))
    try:
        reader = read_feature_file(path, dim)
    except FormatError:
        assert not valid
        return
    assert valid
    full = decode_feature_file(path)
    assert np.array_equal(reader.read_rows(np.arange(T)), full)
    assert np.array_equal(gathered(reader, n), full[sample_segments(T, n)])


class TestFuzz:
    """Truncated or single-byte-flipped files give FormatError or a valid
    load; a loaded feature file's reads agree with an independent decode."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        write_feature_file(root / "valid.difx", make_rng(3).uniform(-2.0, 2.0, size=(3, 4)))
        return {
            "difx": (root / "fuzz.difx", (root / "valid.difx").read_bytes(),
                     lambda path: read_feature_file(path, 4)),
            "ckpt": (root / "fuzz.ckpt", pinned_checkpoint(root / "valid.ckpt"), load_checkpoint),
        }

    @pytest.mark.parametrize("kind", ["difx", "ckpt"])
    @given(data=st.data())
    @FUZZ
    def test_truncation(self, files, kind, data):
        path, blob, load = files[kind]
        cut = data.draw(st.integers(0, len(blob) - 1))
        format_error_or_valid_load(load, path, blob[:cut])

    @pytest.mark.parametrize("kind", ["difx", "ckpt"])
    @given(data=st.data())
    @FUZZ
    def test_single_byte_flip(self, files, kind, data):
        path, blob, load = files[kind]
        at = data.draw(st.integers(0, len(blob) - 1))
        flipped = bytearray(blob)
        # Single-bit flips reach float exponents (inf/NaN) far more often.
        flipped[at] ^= data.draw(st.sampled_from([1 << b for b in range(8)]) | st.integers(1, 255))
        format_error_or_valid_load(load, path, bytes(flipped))

    @pytest.fixture(scope="class")
    def videos(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("center")
        blobs = []
        # One block, and three blocks of which the last is partial.
        for T, D in ((3, 4), (2 * READ_BLOCK_FRAMES + 6, 2)):
            write_feature_file(root / "valid.difx", make_rng(T).uniform(-2.0, 2.0, size=(T, D)))
            blobs.append(((root / "valid.difx").read_bytes(), D))
        return root / "fuzz.difx", blobs

    @given(data=st.data())
    @FUZZ
    def test_center_read_truncation(self, videos, data):
        path, blobs = videos
        blob, dim = data.draw(st.sampled_from(blobs))
        cut = data.draw(st.integers(0, len(blob)))
        check_center_read_agrees(path, blob[:cut], data.draw(st.integers(1, 10)), dim)

    @given(data=st.data())
    @FUZZ
    def test_center_read_single_byte_flip(self, videos, data):
        path, blobs = videos
        blob, dim = data.draw(st.sampled_from(blobs))
        flipped = bytearray(blob)
        at = data.draw(st.integers(0, len(flipped) - 1))
        flipped[at] ^= data.draw(st.sampled_from([1 << b for b in range(8)]) | st.integers(1, 255))
        check_center_read_agrees(path, bytes(flipped), data.draw(st.integers(1, 10)), dim)


def load_or_none(path, groups=None):
    try:
        return load_checkpoint(path, groups=groups)
    except FormatError:
        return None


def assert_fresh_arrays(params):
    for arr in params.tensors.values():
        assert arr.dtype == np.float64
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous


def check_group_loads_agree(path, blob):
    """A param/-only and a best/-only load fail exactly when the full load
    does, and otherwise hold the full load's tensors and nothing else. That
    holds only for a blob whose payloads are finite: a non-finite value
    fails just the loads that read its group."""
    path.write_bytes(blob)
    full = load_or_none(path)
    param_only = load_or_none(path, ("param",))
    best_only = load_or_none(path, ("best",))
    assert (param_only is None) == (best_only is None) == (full is None)
    if full is None:
        return
    assert param_only.state.velocity is None and param_only.best is None
    assert best_only.model is None and best_only.state.velocity is None
    for got, want in ((param_only.model, full.model), (best_only.best, full.best)):
        assert (got is None) == (want is None)
        if want is None:
            continue
        assert_fresh_arrays(got)
        for name, arr in want.tensors.items():
            assert np.array_equal(got.tensors[name], arr, equal_nan=True)


# 256 -> 128 reduction, widths 2 and 3, 64 filters: three 0.6 MB groups.
MEMORY_SHAPE = ModelShapeSpec(256, 128, 8, (2, 3), 64, 4)


def traced_peak(fn):
    """Peak bytes that Python and numpy allocate while fn runs, including
    what its result still holds."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


class TestStreamedCheckpoints:
    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        params = init_model(MEMORY_SHAPE, make_rng(4))
        path = tmp_path_factory.mktemp("big") / "big.ckpt"
        state = TrainState.fresh(params)
        save_checkpoint(path, params, state, TrainConfig(), None)
        assert path.stat().st_size >= 1 << 20
        return path, params, state

    def test_save_does_not_copy_the_payloads(self, big):
        path, params, state = big
        peak = traced_peak(lambda: save_checkpoint(path, params, state, TrainConfig(), None))
        assert peak <= 0.1 * path.stat().st_size

    @pytest.mark.parametrize("groups, bound", [(None, 1.1), (("param",), 0.4)])
    def test_load_holds_only_the_tensors_it_returns(self, big, groups, bound):
        path, *_ = big
        peak = traced_peak(lambda: load_checkpoint(path, groups=groups))
        assert peak <= bound * path.stat().st_size

    def test_loaded_tensors_are_fresh_aligned_arrays(self, big):
        path, params, *_ = big
        loaded = load_checkpoint(path)
        for group, want in ((loaded.model, params), (loaded.best, params)):
            assert_fresh_arrays(group)
            for name, arr in want.tensors.items():
                assert np.array_equal(group.tensors[name], arr)
        assert_fresh_arrays(ModelParams(MEMORY_SHAPE, loaded.state.velocity))

    @pytest.mark.parametrize("corrupt", ["param", "velocity", "best"])
    @pytest.mark.parametrize("groups", [None, ("param",), ("velocity",), ("best",)])
    def test_absurd_dims_fail_before_allocating(self, tmp_path, corrupt, groups):
        blob = bytearray(pinned_checkpoint(tmp_path / "pin.ckpt"))
        name = f"{corrupt}/reduction/weights"
        at = blob.index(name.encode()) + len(name)
        assert blob[at] == 2  # ndim, then the two u32 dims
        struct.pack_into("<2I", blob, at + 1, 2**32 - 1, 2**32 - 1)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {name}: shape "
                                              r"\(4294967295, 4294967295\), expected \(4, 3\)$"):
            load_checkpoint(path, groups=groups)

    @pytest.fixture(scope="class")
    def pinned(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("groups")
        return root / "fuzz.ckpt", pinned_checkpoint(root / "valid.ckpt")

    @given(data=st.data())
    @FUZZ
    def test_group_loads_agree_on_truncation(self, pinned, data):
        path, blob = pinned
        check_group_loads_agree(path, blob[: data.draw(st.integers(0, len(blob)))])

    @given(at=st.integers(0, PINNED_SIZE - 1),
           mask=st.sampled_from([1 << b for b in range(8)]) | st.integers(1, 255))
    # The ndim byte of param/conv/h3/bias, 1 -> 17: its 17 dims hold a 0,
    # so the payload fits the file however large the other dims are.
    @example(at=1314, mask=0x10)
    @FUZZ
    def test_group_loads_agree_on_byte_flips(self, pinned, at, mask):
        path, blob = pinned
        assert len(blob) == PINNED_SIZE
        # Every value lies in (-1, 1), so its exponent is below 0x3ff and no
        # single-byte flip can make it all ones: every payload stays finite.
        path.write_bytes(blob)
        valid = load_checkpoint(path)
        for named in (valid.model.tensors, valid.state.velocity, valid.best.tensors):
            assert all(np.abs(arr).max() < 1.0 for arr in named.values())
        flipped = bytearray(blob)
        flipped[at] ^= mask
        check_group_loads_agree(path, bytes(flipped))

    def test_zero_dim_fails_before_allocating_naming_the_tensor(self, pinned):
        path, blob = pinned
        name = "param/conv/h3/bias"
        at = blob.index(name.encode()) + len(name)
        assert at == 1314 and blob[at] == 1  # the byte-flip test's example
        flipped = bytearray(blob)
        flipped[at] ^= 0x10
        path.write_bytes(bytes(flipped))
        for groups in (None, ("param",), ("velocity",), ("best",)):
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {name}: shape "
                                                  r"\(4, 0, 0, 0, 0, 0, 0, 0, 0, [0-9, ]+\), "
                                                  r"expected \(4,\)$"):
                load_checkpoint(path, groups=groups)


@st.composite
def training_runs(draw):
    """(shape, config, synth task, resume_at): a small model and training
    run, and the epoch it is resumed at (None: not resumed)."""
    n = draw(st.integers(2, 6))
    raw_dim = draw(st.integers(1, 5))
    shape = ModelShapeSpec(raw_dim, draw(st.integers(1, raw_dim)), n,
                           tuple(draw(st.lists(st.integers(2, n), min_size=1, max_size=3,
                                               unique=True))),
                           draw(st.integers(1, 4)), draw(st.integers(2, 3)))
    config = TrainConfig(batch_size=draw(st.integers(1, 4)),
                         initial_lr=draw(st.sampled_from([0.0, 0.05, 0.5])),
                         max_epochs=draw(st.integers(0, 3)),
                         dropout_keep=draw(st.sampled_from([0.5, 1.0])),
                         seed=draw(st.integers(0, 99)))
    task = SyntheticTaskConfig(num_prototypes=2, feature_dim=raw_dim, sequence_length=n,
                               samples_per_class=draw(st.integers(1, 3)),
                               val_samples_per_class=draw(st.integers(1, 3)),
                               seed=config.seed)
    return shape, config, task, draw(st.none() | st.integers(0, config.max_epochs))


def train_and_save(run_dir, shape, config, splits, resume_at):
    """Train as `din train` does, into the new directory `run_dir`: from
    fresh parameters, or resumed from the checkpoint of a run of the first
    `resume_at` epochs (None: not resumed) in `<run_dir>-halfway`. Returns
    the final state."""
    params = init_model(shape, init_rng(config.seed))
    if resume_at is None:
        return train(run_dir, params, splits, config, TrainState.fresh(params), None)
    halfway = run_dir.with_name(f"{run_dir.name}-halfway")
    train_and_save(halfway, shape, dataclasses.replace(config, max_epochs=resume_at), splits, None)
    with open(halfway / CHECKPOINT_FILE, "rb") as source:
        loaded = load_checkpoint(source, groups=("param", "velocity"))
        return train(run_dir, loaded.model, splits, config, loaded.state, source)


# Three epochs whose validation accuracy rises every epoch (0.5, 0.75, 0.875).
IMPROVING = TrainConfig(max_epochs=3, initial_lr=0.05, batch_size=4, seed=0)
IMPROVING_TASK = SyntheticTaskConfig(feature_dim=4, samples_per_class=4,
                                     val_samples_per_class=4, seed=0)


class TestBestCopy:
    """A checkpoint's best/ group is the best epoch's parameters: saved from
    the live ones after an improving epoch, copied from the checkpoint
    written before otherwise."""

    @given(run=training_runs())
    @example(run=(TINY_SHAPE, TrainConfig(max_epochs=0), SyntheticTaskConfig(feature_dim=4),
                  None))
    @example(run=(TINY_SHAPE, IMPROVING, IMPROVING_TASK, None))
    @example(run=(TINY_SHAPE, TrainConfig(max_epochs=2, initial_lr=0.0),
                  SyntheticTaskConfig(feature_dim=4, samples_per_class=2), None))
    @example(run=(TINY_SHAPE, IMPROVING, IMPROVING_TASK, 1))
    @example(run=(TINY_SHAPE, TrainConfig(max_epochs=2, initial_lr=0.0),
                  SyntheticTaskConfig(feature_dim=4, samples_per_class=2), 1))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_best_group_is_the_best_epochs_parameters(self, tmp_path_factory, run):
        # The examples pin the cases: no epochs, a last epoch that improves
        # (every epoch of IMPROVING does), a last epoch that does not (lr 0
        # keeps the validation accuracy), and resumed runs, one of whose
        # epochs copies best/ from the checkpoint it resumes.
        shape, config, task, resume_at = run
        splits = synth_order_task(dataclasses.replace(task, sequence_length=shape.num_frames))
        root = tmp_path_factory.mktemp("snapshot")
        try:
            state = train_and_save(root / "run", shape, config, splits, resume_at)
        except ArithmeticError:  # lr 0.5 can diverge, leaving no finished run to check
            reject()
        # The reference: an identical fresh run stopped after the best epoch.
        stopped = dataclasses.replace(config, max_epochs=state.best_epoch + 1)
        reference = init_model(shape, init_rng(config.seed))
        fit(reference, splits["train"], splits["val"], stopped,
            TrainState.fresh(reference), ignore_epoch)
        best = load_checkpoint(root / "run" / CHECKPOINT_FILE, groups=("best",)).best
        for name, arr in reference.tensors.items():
            assert best.tensors[name].tobytes() == arr.tobytes(), name
        runs = ["run"]
        if resume_at is not None:
            train_and_save(root / "whole", shape, config, splits, None)
            assert ((root / "run" / CHECKPOINT_FILE).read_bytes()
                    == (root / "whole" / CHECKPOINT_FILE).read_bytes())
            runs += ["run-halfway", "whole"]
        files = [f"{run}/{name}" for run in runs for name in (CHECKPOINT_FILE, HISTORY_FILE)]
        assert sorted(str(p.relative_to(root)) for p in root.rglob("*")) == sorted(runs + files)
        for run in runs:
            assert_history_is_the_checkpoints(root / run)
        if config == IMPROVING:
            assert state.best_epoch == 2 and state.history[1].val_accuracy < state.best_val_accuracy
        improved = config.max_epochs > 0 and state.best_epoch == config.max_epochs - 1
        event(f"epochs {config.max_epochs}, last improves {improved}, "
              f"resumed {resume_at is not None}")

    def test_diverged_run_names_the_tensor_and_keeps_a_checked_best_group(self, tmp_path):
        # lr 0.5, batch 1 and keep 0.5 grow the reduction weights past
        # float64 in epoch 2. Epoch 1 did not improve on epoch 0, so the
        # checkpoint the run keeps copied its best/ group.
        config = TrainConfig(batch_size=1, initial_lr=0.5, dropout_keep=0.5, max_epochs=4, seed=1)
        splits = synth_order_task(SyntheticTaskConfig(
            num_prototypes=2, feature_dim=4, sequence_length=5, samples_per_class=3,
            val_samples_per_class=2, seed=1))
        params = init_model(TINY_SHAPE, init_rng(config.seed))
        with pytest.raises(ArithmeticError, match="^training diverged in epoch 2: non-finite "
                                                  "values in parameter tensor reduction/weights$"):
            train(tmp_path / "run", params, splits, config, TrainState.fresh(params), None)
        kept = load_checkpoint(tmp_path / "run" / CHECKPOINT_FILE)
        assert len(kept.state.history) == 2 and kept.state.best_epoch == 0
        reference = init_model(TINY_SHAPE, init_rng(config.seed))
        fit(reference, splits["train"], splits["val"], dataclasses.replace(config, max_epochs=1),
            TrainState.fresh(reference), ignore_epoch)
        for name, arr in reference.tensors.items():
            assert kept.best.tensors[name].tobytes() == arr.tobytes(), name
        assert_history_is_the_checkpoints(tmp_path / "run")

    def test_copy_reads_through_one_tensor_sized_buffer(self, tmp_path):
        params = init_model(MEMORY_SHAPE, make_rng(4))
        largest = max(arr.nbytes for arr in params.tensors.values())
        state = TrainState.fresh(params)
        save_checkpoint(tmp_path / "source.ckpt", params, state, TrainConfig(), None)
        path = tmp_path / "big.ckpt"
        with open(tmp_path / "source.ckpt", "rb") as source:
            peak = traced_peak(lambda: save_checkpoint(path, params, state, TrainConfig(), source))
        # The buffer, and the finiteness check's boolean mask of one tensor.
        assert peak <= largest + largest // 8 + 64 * 1024
        loaded = load_checkpoint(path, groups=("best",)).best
        for name, arr in params.tensors.items():
            assert np.array_equal(loaded.tensors[name], arr)

    def test_copy_over_its_source_equals_a_save_of_the_parameters(self, tmp_path):
        # The source stays readable after the save's rename replaces its
        # name: `din train --resume run/checkpoint.ckpt --out-dir run`.
        params = init_model(TINY_SHAPE, make_rng(123))
        pinned = pinned_checkpoint(tmp_path / "pin.ckpt")
        path = tmp_path / "a.ckpt"
        save_fresh_checkpoint(path, params, TrainConfig())
        with open(path, "rb") as source:
            for _ in range(2):
                save_checkpoint(path, params, TrainState.fresh(params),
                                TrainConfig(), source)
                assert path.read_bytes() == pinned
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt", "pin.ckpt"]

    @pytest.mark.parametrize("source, error", [
        ("empty", "not a checkpoint file"),
        ("poisoned", "non-finite values in tensor 'best/conv/h2/weights'"),
        ("truncated", "truncated payload for tensor 'best/head/h3/bias'"),
    ], ids=["empty", "poisoned", "truncated"])
    def test_copy_from_a_bad_source_fails_naming_it_and_writes_nothing(
        self, tmp_path, source, error
    ):
        params = init_model(TINY_SHAPE, make_rng(123))
        blob = pinned_checkpoint(tmp_path / "pin.ckpt")
        path = tmp_path / f"{source}.ckpt"
        path.write_bytes({"empty": b"", "truncated": blob[:-1],
                          "poisoned": poison_tensor(blob, "best/conv/h2/weights", math.nan)}[source])
        with open(path, "rb") as f:
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {re.escape(error)}$"):
                save_checkpoint(tmp_path / "a.ckpt", params,
                                TrainState.fresh(params), TrainConfig(), f)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, "pin.ckpt"])

    def test_rejects_another_shape(self, tmp_path):
        params = init_model(TINY_SHAPE, make_rng(123))
        state = TrainState.fresh(params)
        other = tmp_path / "other.ckpt"
        save_fresh_checkpoint(other, init_model(MEMORY_SHAPE, make_rng(4)), TrainConfig())
        with open(other, "rb") as source:
            with pytest.raises(FormatError, match=f"^{re.escape(str(other))}: shape.raw_dim 256, "
                                                  "expected 4; shape.feat_dim 128, expected 3; "
                                                  "shape.num_frames 8, expected 5; "
                                                  "shape.num_filters 64, expected 4; "
                                                  "shape.num_classes 4, expected 3$"):
                save_checkpoint(tmp_path / "a.ckpt", params, state, TrainConfig(), source)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.ckpt"]


class TestCenterRowMemory:
    T, D = 2000, 256

    @pytest.fixture(scope="class")
    def long_video(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("long") / "long.difx"
        write_feature_file(path, make_rng(5).normal(size=(self.T, self.D)))
        return path

    def test_row_reader_load_holds_one_block(self, long_video):
        peak = traced_peak(lambda: read_feature_file(long_video, self.D))
        assert peak <= READ_BLOCK_FRAMES * 4 * self.D + 32 * 1024


class TestTrainingRowReads:
    """A full load_split leaves the videos in their files: each epoch reads
    only the rows it draws."""

    D = 256
    SHAPE = ModelShapeSpec(D, 8, 8, (2, 3), 8, 2)

    def write_split(self, root, T, count=6):
        root.mkdir()
        rng = make_rng(T)
        entries = []
        for i in range(count):
            write_feature_file(root / f"v{i}.difx", rng.normal(size=(T, self.D)))
            entries.append(ManifestEntry(f"v{i}", f"v{i}.difx", i % 2, ("train", "val")[i % 3 == 2]))
        save_manifest(root / "manifest.json", ["a", "b"], entries)
        return load_manifest(root / "manifest.json")

    def train(self, manifest, epochs=2):
        """Load the train split and train `epochs` epochs on it."""
        samples = load_split(manifest, "train", self.D)
        params = init_model(self.SHAPE, init_rng(1))
        cfg = TrainConfig(batch_size=2, seed=1)
        velocity, scratch = TrainState.fresh(params).velocity, {}
        for epoch in range(epochs):
            train_epoch(params, samples, cfg, velocity, cfg.initial_lr, epoch_rng(cfg.seed, epoch),
                        scratch)
        return samples, params, cfg, velocity

    @given(T=st.integers(1, 2 * READ_BLOCK_FRAMES + 3), n=st.integers(1, 12),
           D=st.integers(1, 5), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_gather_draws_and_reads_like_an_array_gather(self, tmp_path_factory, T, n, D, seed):
        path = tmp_path_factory.mktemp("rows") / "x.difx"
        write_feature_file(path, make_rng(seed).normal(size=(T, D)))
        reader = read_feature_file(path, D)
        full = decode_feature_file(path)
        assert reader.shape == (T, D)
        assert np.array_equal(gathered(reader, n), gathered(full, n))
        ours, theirs = make_rng(seed), make_rng(seed)
        got = gathered(reader, n, ours)
        assert got.dtype == np.float64 and np.array_equal(got, gathered(full, n, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_training_peak_does_not_grow_with_frames(self, tmp_path):
        peaks = {}
        for T in (READ_BLOCK_FRAMES, 2000):
            manifest = self.write_split(tmp_path / f"t{T}", T)
            peaks[T] = traced_peak(lambda: self.train(manifest))
        # Holding the four 2000-frame training videos would add 8 MB.
        assert peaks[2000] <= peaks[READ_BLOCK_FRAMES] + 16 * 1024
        assert peaks[2000] < 2000 * 4 * self.D

    def test_two_epochs_read_each_file_once(self, tmp_path, monkeypatch):
        manifest = self.write_split(tmp_path / "data", 100)
        real = data_io_mod.read_feature_file
        reads = []
        monkeypatch.setattr(data_io_mod, "read_feature_file",
                            lambda path, *args, **kw: reads.append(path) or real(path, *args, **kw))
        train = load_split(manifest, "train", self.D)
        val = load_split(manifest, "val", self.D)
        params = init_model(self.SHAPE, init_rng(1))
        cfg = TrainConfig(batch_size=2, max_epochs=2, seed=1)
        fit(params, train, val, cfg, TrainState.fresh(params), ignore_epoch)
        assert sorted(reads) == sorted(manifest.root / e.feature_path for e in manifest.entries)

    @pytest.mark.parametrize("change", ["size", "rewrite", "delete"])
    def test_changed_file_fails_the_next_epoch_naming_it(self, tmp_path, change):
        manifest = self.write_split(tmp_path / "data", 20)
        samples, params, cfg, velocity = self.train(manifest, epochs=1)
        path = samples[1].features.path
        change_feature_file(path, change)
        with pytest.raises((FormatError, FileNotFoundError), match=re.escape(str(path))):
            train_epoch(params, samples, cfg, velocity, cfg.initial_lr, epoch_rng(cfg.seed, 1), {})

    def test_nonfinite_drawn_row_fails_naming_the_file(self, tmp_path):
        # Written in place after the scan, with the file's stamp kept.
        path = tmp_path / "v.difx"
        write_feature_file(path, np.ones((4, 3)))
        reader = read_feature_file(path, 3)
        st = path.stat()
        with open(path, "r+b") as f:
            f.seek(12 + 4 * 3 * 2)
            f.write(np.array([np.nan], dtype="<f4").tobytes())
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert np.array_equal(reader.read_rows(np.array([0, 1, 3])), np.ones((3, 3)))
        with pytest.raises(FormatError, match=re.escape(f"{path}: non-finite feature values")):
            gathered(reader, 4)
