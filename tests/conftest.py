import contextlib
import dataclasses
import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import din
from din.data_io import (
    ManifestEntry,
    SnapshotFile,
    save_checkpoint,
    save_manifest,
    write_feature_file,
)
from din.denseimage import gather
from din.model import ModelParams, ModelShapeSpec, init_model
from din.numerics import make_rng
from din.trainer import TrainConfig, TrainState

TINY_SHAPE = ModelShapeSpec(
    raw_dim=4, feat_dim=3, num_frames=5, widths=(2, 3), num_filters=4, num_classes=3
)


@pytest.fixture
def tiny_params():
    return init_model(TINY_SHAPE, make_rng(123))


@pytest.fixture
def best_file(tmp_path):
    """best_file(params): a new SnapshotFile in tmp_path holding `params`,
    as `din train` fills it before its first epoch (with the initial
    parameters, or with a resumed checkpoint's best/ group). The files
    close after the test."""
    with contextlib.ExitStack() as stack:
        def new(params):
            best = stack.enter_context(SnapshotFile(params.shape, tmp_path))
            best.capture(params)
            return best
        yield new


def save_fresh_checkpoint(path, params, config):
    """Save the state before the first epoch, its best snapshot in a
    SnapshotFile beside `path`, as a fresh `din train` run with no epochs does."""
    with SnapshotFile(params.shape, path.parent) as best:
        best.capture(params)
        save_checkpoint(path, params, TrainState.fresh(params, config), config, best)


def copy_params(params):
    """A copy of the parameters, every tensor in a new array."""
    return ModelParams(params.shape, {name: arr.copy() for name, arr in params.tensors.items()})


def gathered(features, n, rng=None):
    """The n x D float64 rows `denseimage.gather` picks from a video, in a
    new array."""
    return gather(features, n, rng, np.empty((n, features.shape[1])))


def child_env(**overrides):
    """os.environ plus `overrides`, with this checkout's din first on PYTHONPATH."""
    src = str(Path(din.__file__).resolve().parents[1])
    return dict(os.environ, **overrides,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def edit_checkpoint_meta(blob, edit):
    """Checkpoint bytes whose JSON meta block went through edit(meta) in place."""
    (meta_len,) = struct.unpack_from("<I", blob, 6)
    meta = json.loads(blob[10 : 10 + meta_len])
    edit(meta)
    encoded = json.dumps(meta, sort_keys=True).encode()
    return blob[:6] + struct.pack("<I", len(encoded)) + encoded + blob[10 + meta_len :]


def poison_tensor(blob, name, value):
    """Checkpoint bytes with the last value of tensor `name`'s payload set to `value`."""
    at = blob.index(struct.pack("<H", len(name)) + name.encode()) + 2 + len(name)
    dims = struct.unpack_from(f"<{blob[at]}I", blob, at + 1)
    end = at + 1 + 4 * len(dims) + 8 * math.prod(dims)
    return blob[: end - 8] + struct.pack("<d", value) + blob[end:]


def decode_feature_file(path):
    """Every frame of a feature file as a float32 T x D array, decoded
    independently of din's reader: the 12-byte header gives T and D, the
    float32 payload follows."""
    with open(path, "rb") as f:
        _, _, T, D = struct.unpack("<4sHIH", f.read(12))
    return np.fromfile(path, "<f4", offset=12).reshape(T, D)


def in_memory(samples):
    """Each sample of a `load_split` with every frame of its file, decoded
    by `decode_feature_file`, in place of its row reader."""
    return [dataclasses.replace(s, features=decode_feature_file(s.features.path))
            for s in samples]


def change_feature_file(path, change):
    """Change a feature file after it was loaded. "size" rewrites it one
    frame longer; "rewrite" overwrites its payload in place, keeping its
    size and inode, and moves its mtime on by a second; "delete" removes it."""
    if change == "delete":
        path.unlink()
        return
    T, D = decode_feature_file(path).shape
    if change == "size":
        write_feature_file(path, np.ones((T + 1, D)))
        return
    st = path.stat()
    with open(path, "r+b") as f:
        f.seek(12)
        f.write(np.ones(T * D, dtype="<f4").tobytes())
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def write_test_split(root, count, lengths=(2, 4, 5, 9, 70)):
    """(checkpoint, manifest) under root: an untrained TINY_SHAPE model and
    a manifest of `count` "test" videos whose ids are listed out of order
    and whose frame counts cycle through `lengths`, which lie below, at and
    above TINY_SHAPE.num_frames."""
    rng = np.random.default_rng(4)
    params = init_model(TINY_SHAPE, make_rng(9))
    checkpoint = root / "model.ckpt"
    save_fresh_checkpoint(checkpoint, params, TrainConfig())
    (root / "features").mkdir()
    entries = []
    for i in rng.permutation(count):
        path = f"features/v{i:03d}.difx"
        frames = lengths[i % len(lengths)]
        write_feature_file(root / path, rng.normal(size=(frames, TINY_SHAPE.raw_dim)))
        label = int(rng.integers(TINY_SHAPE.num_classes))
        entries.append(ManifestEntry(f"v{i:03d}", path, label, "test"))
    manifest = root / "manifest.json"
    save_manifest(manifest, [f"c{c}" for c in range(TINY_SHAPE.num_classes)], entries)
    return checkpoint, manifest
