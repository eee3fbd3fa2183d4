"""Bit-exact persistence: feature files, manifests, checkpoints, synth data.

Feature file ("DIFX", little-endian):
    magic      4 bytes  b"DIFX"
    version    u16      1
    frames T   u32
    dim D      u16
    payload    T*D float32, frame-major
    total size 12 + 4*T*D bytes, nothing after the payload

Checkpoint ("DICK", little-endian):
    magic      4 bytes  b"DICK"
    version    u16      1
    meta_len   u32      length of the UTF-8 JSON meta block
    meta       JSON: config echo, model shape, optimizer scalars,
               epoch history, best-epoch bookkeeping (sorted keys,
               so identical state -> identical bytes)
    count      u32      number of named tensors
    per tensor: name_len u16, name UTF-8, ndim u8, ndim * u32 dims,
               float64 payload
    tensor namespaces: "param/" current model, "velocity/" optimizer
    buffers, "best/" best-validation snapshot (required; "has_best": true)

Writers go through a temporary file plus atomic rename, so readers never
observe a partial file. Features are quantized to float32 on disk; a write
whose float32 values are not all finite is refused before anything is
written. A load (`read_feature_file`) scans every value of the file once
for non-finite values, in blocks of READ_BLOCK_FRAMES frames, and keeps no
frames: it returns a `FeatureRows` reader of the file. Training, evaluation
and every export read through `denseimage.gather` just the n rows segment
sampling picks, so a run holds O(batch) feature values, not every frame
of a split. Only those rows are widened to float64 (exactly). Checkpoints
round-trip float64 exactly.

Checkpoint I/O moves each tensor's bytes once, between the file and the
array that owns them. A save writes every payload straight from its
array's buffer, but the best snapshot's: a `SnapshotFile` holds the "best/"
group in this layout, and a save appends its bytes through one buffer of at
most SNAPSHOT_BLOCK bytes. A load reads each payload it keeps into a fresh
aligned float64 array (readinto) and seeks over the tensors of the groups
it was not asked for; inference reads only "param/" or "best/". Either way
the whole tensor directory is walked and checked: names, dims (none of 0),
each payload's end against the file size before anything is allocated,
duplicates and trailing bytes; each payload it reads must be finite.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Collection

import numpy as np

from .model import ModelParams, ModelShapeSpec, check_parameter_shapes, parameter_shapes
from .numerics import Array, from_fields, make_rng, require_fields
from .trainer import EpochReport, OptimizerState, TrainConfig, TrainState

FEATURE_MAGIC = b"DIFX"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sHIH")  # magic, version, frames, dim
# Frames per block of a load's finiteness scan: 256 KB of buffer at D = 1024.
READ_BLOCK_FRAMES = 64

CHECKPOINT_MAGIC = b"DICK"
CHECKPOINT_VERSION = 1

SPLITS = ("train", "val", "test")


class FormatError(ValueError):
    """A binary file does not match its declared format."""


class ManifestError(ValueError):
    """A dataset manifest fails validation."""


@dataclass(frozen=True)
class FeatureRows:
    """A scanned feature file from which `read_rows` reads single frames:
    the features of a video loaded by `read_feature_file`. It holds the
    file's identity as seen at the scan (inode, size, mtime); a file that
    changed or is gone since then fails the next read, naming it."""

    path: Path
    shape: tuple[int, int]  # T, D
    stamp: tuple[int, int, int]  # st_ino, st_size, st_mtime_ns

    def read_rows(self, picks: Array) -> Array:
        """The picked frames as a float32 array, checked for finiteness;
        the file is opened for this call only and each row is one pread."""
        rows = np.empty((len(picks), self.shape[1]), dtype="<f4")
        fd = os.open(self.path, os.O_RDONLY)
        try:
            st = os.fstat(fd)
            if (st.st_ino, st.st_size, st.st_mtime_ns) != self.stamp:
                raise FormatError(f"{self.path}: changed since it was loaded")
            for row, t in zip(rows, picks):
                if os.preadv(fd, [row], _FEATURE_HEADER.size + row.nbytes * int(t)) != row.nbytes:
                    raise FormatError(f"{self.path}: changed since it was loaded")
        finally:
            os.close(fd)
        if not np.all(np.isfinite(rows)):
            raise FormatError(f"{self.path}: non-finite feature values")
        return rows


@dataclass(frozen=True)
class Sample:
    """One sample: its raw frame features and label. The features are a
    `FeatureRows` reader (a video loaded from its file) or a T x D array
    (an in-memory video, such as a generated one). `denseimage.gather`
    takes either and widens only the rows it samples, so arithmetic on
    them runs in float64 either way."""

    id: str
    features: Array | FeatureRows
    label: int


def atomic_write_bytes(path: Path, *parts) -> None:
    """Write the parts one after the other to a new temporary file beside
    `path`, then rename it over `path`. A part is bytes or any C-contiguous
    buffer, or a streamed part: an iterator of such buffers, each written
    before the next is asked for (so it may reuse one buffer).
    The temporary file has a short random name and is created exclusively
    ("x": O_CREAT | O_EXCL, mode 0o666 less the umask). If anything fails,
    it is removed and `path` is left as it was."""
    tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            for part in parts:
                for buffer in part if isinstance(part, Iterator) else (part,):
                    f.write(buffer)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_feature_file(path: str | Path, features: Array) -> None:
    """Store one T x D frame-feature matrix, quantized to float32. A matrix
    whose float32 values are not all finite (|x| > 3.4e38 overflows) is
    refused, naming the file, and nothing is written."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
        raise FormatError("features must be a non-empty T x D matrix")
    T, D = features.shape
    if D > 0xFFFF:
        raise FormatError("feature dim exceeds the u16 header field")
    with np.errstate(over="ignore"):  # overflow to inf is caught just below
        payload = features.astype("<f4", order="C")
    if not np.all(np.isfinite(payload)):
        raise FormatError(f"{path}: features must be finite in float32 (|x| <= 3.4e38)")
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, T, D)
    atomic_write_bytes(Path(path), header, payload)


def read_feature_file(path: str | Path, raw_dim: int | None = None) -> FeatureRows:
    """Scan every value of a feature file for finiteness, one block of
    READ_BLOCK_FRAMES frames at a time, and return a `FeatureRows` reader
    of it; no frame is kept. When `raw_dim` is given, a file of another
    feature dim fails before its payload is read."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        size = st.st_size
        head = f.read(_FEATURE_HEADER.size)
        if len(head) < _FEATURE_HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, T, D = _FEATURE_HEADER.unpack(head)
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if T == 0 or D == 0:
            raise FormatError(f"{path}: empty shape {T}x{D}")
        expected = _FEATURE_HEADER.size + 4 * T * D
        if size != expected:
            raise FormatError(f"{path}: size {size} != expected {expected}")
        if raw_dim is not None and D != raw_dim:
            raise ManifestError(f"{path}: feature dim {D}, the model's raw_dim is {raw_dim}")
        buffer = np.empty((min(T, READ_BLOCK_FRAMES), D), dtype="<f4")
        for lo in range(0, T, READ_BLOCK_FRAMES):
            block = buffer[: T - lo]
            if f.readinto(block) != block.nbytes:  # the file shrank while being read
                raise FormatError(f"{path}: size {f.tell()} != expected {expected}")
            if not np.all(np.isfinite(block)):
                raise FormatError(f"{path}: non-finite feature values")
    return FeatureRows(Path(path), (T, D), (st.st_ino, st.st_size, st.st_mtime_ns))


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    feature_path: str
    label: int
    split: str


@dataclass
class DatasetManifest:
    """Class names plus sample records; order follows the document."""

    classes: list[str]
    entries: list[ManifestEntry]
    root: Path

    def split(self, name: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == name]


def save_manifest(path: str | Path, classes: list[str], entries: list[ManifestEntry]) -> None:
    doc = {
        "classes": list(classes),
        "samples": [
            {"id": e.id, "feature_path": e.feature_path, "label": e.label, "split": e.split}
            for e in entries
        ],
    }
    atomic_write_bytes(Path(path), json.dumps(doc, indent=2, sort_keys=True).encode())


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a manifest; every feature path must resolve."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ManifestError(f"{path}: cannot parse manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object, got {type(doc).__name__}")
    classes = doc.get("classes")
    samples = doc.get("samples")
    if not isinstance(classes, list) or not classes:
        raise ManifestError(f"{path}: 'classes' must be a non-empty list")
    if not isinstance(samples, list):
        raise ManifestError(f"{path}: 'samples' must be a list")
    root = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for record in samples:
        if not isinstance(record, dict):
            raise ManifestError(f"{path}: sample records must be objects: {record!r}")
        sid = record.get("id")
        if not isinstance(sid, str) or not sid:
            raise ManifestError(f"{path}: sample without a valid id: {record!r}")
        if any(c in sid for c in ',"\r\n'):
            raise ManifestError(f"{path}: sample {sid!r}: an id must not hold ',', '\"', CR or LF")
        if sid in seen:
            raise ManifestError(f"{path}: duplicate sample id {sid!r}")
        seen.add(sid)
        label = record.get("label")
        if isinstance(label, bool) or not isinstance(label, int) or not 0 <= label < len(classes):
            raise ManifestError(f"{path}: sample {sid!r} label {label!r} outside [0, {len(classes)})")
        split = record.get("split")
        if split not in SPLITS:
            raise ManifestError(f"{path}: sample {sid!r} has unknown split {split!r}")
        feature_path = record.get("feature_path")
        if not isinstance(feature_path, str) or not (root / feature_path).is_file():
            raise ManifestError(f"{path}: sample {sid!r} feature file not found: {feature_path!r}")
        entries.append(ManifestEntry(sid, feature_path, label, split))
    return DatasetManifest(list(classes), entries, root)


def load_split(manifest: DatasetManifest, split: str, raw_dim: int) -> list[Sample]:
    """Scan every feature file of one split, in manifest order, with one
    `read_feature_file` call each; every sample's feature dim must equal
    the model's raw_dim. Each sample's features are a `FeatureRows` reader
    of its file."""
    if split not in SPLITS:
        raise ManifestError(f"unknown split {split!r}")
    samples = []
    for e in manifest.split(split):
        try:
            features = read_feature_file(manifest.root / e.feature_path, raw_dim)
        except ManifestError as exc:  # the dim check, which cannot know the sample
            raise ManifestError(f"sample {e.id!r}: {exc}") from exc
        samples.append(Sample(e.id, features, e.label))
    return samples


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """Cyclic-order task: identical frame multisets, opposite traversal order.

    Class 0 walks the prototype ring forward from a random offset, class 1
    walks it backward, so per offset both classes contain exactly the same
    frames and only their order carries the label.
    """

    num_prototypes: int = 4
    feature_dim: int = 16
    noise_sigma: float = 0.1
    sequence_length: int = 8
    samples_per_class: int = 256
    val_samples_per_class: int | None = None
    seed: int = 0

    def __post_init__(self):
        require_fields(self, finite=True)
        if self.num_prototypes < 2:
            raise ValueError("need at least 2 prototypes")
        if self.sequence_length < 2:
            raise ValueError("sequence_length must be >= 2")
        if self.feature_dim < 1 or self.samples_per_class < 1:
            raise ValueError("feature_dim and samples_per_class must be >= 1")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if self.val_samples_per_class is not None and self.val_samples_per_class < 1:
            raise ValueError("val_samples_per_class must be >= 1")

    @property
    def val_count(self) -> int:
        if self.val_samples_per_class is not None:
            return self.val_samples_per_class
        return max(1, self.samples_per_class // 2)


SYNTH_CLASSES = ["ascending", "descending"]


def synth_order_task(config: SyntheticTaskConfig) -> dict[str, list[Sample]]:
    """Generate the order-sensitivity dataset in memory.

    Prototypes are unit-norm Gaussian directions. Each sample walks the
    prototype ring from a random offset (forward for class 0, backward for
    class 1) and adds i.i.d. Gaussian noise per frame element.
    """
    rng = make_rng(config.seed, 2)
    protos = rng.normal(size=(config.num_prototypes, config.feature_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    n = config.sequence_length
    splits: dict[str, list[Sample]] = {"train": [], "val": []}
    for split, count in (("train", config.samples_per_class), ("val", config.val_count)):
        for label in (0, 1):
            step = 1 if label == 0 else -1
            tag = ("asc", "desc")[label]
            for i in range(count):
                offset = int(rng.integers(config.num_prototypes))
                ring = [(offset + step * t) % config.num_prototypes for t in range(n)]
                frames = protos[ring].copy()
                if config.noise_sigma > 0.0:
                    frames += rng.normal(0.0, config.noise_sigma, size=frames.shape)
                splits[split].append(Sample(f"{split}-{tag}-{i:04d}", frames, label))
    return splits


def write_synth_dataset(config: SyntheticTaskConfig, out_dir: str | Path) -> Path:
    """Materialize the synthetic task as feature files plus a manifest."""
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    entries: list[ManifestEntry] = []
    for split, samples in synth_order_task(config).items():
        for sample in samples:
            rel = f"features/{sample.id}.difx"
            write_feature_file(out_dir / rel, sample.features)
            entries.append(ManifestEntry(sample.id, rel, sample.label, split))
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest_path, SYNTH_CLASSES, entries)
    return manifest_path


# Bytes per read when a save streams a snapshot file.
SNAPSHOT_BLOCK = 1 << 16


class SnapshotFile:
    """A best-epoch snapshot kept in an unlinked temporary file inside a
    directory: a model's parameters as a checkpoint's "best/" group, each
    tensor's directory entry then its float64 payload, in parameter-table
    order. The file has no name from its creation on (O_TMPFILE, or an
    unlink right after it where the file system lacks that), so it leaves
    nothing behind, even after a kill. Its pages are file cache that the
    kernel can write back and evict, not the process's anonymous memory.
    Its owner fills it first, then `fit` captures each best epoch into it
    and `save_checkpoint` copies it. Use it as a context manager: leaving
    it closes the file."""

    def __init__(self, shape: ModelShapeSpec, directory: str | Path):
        self.shape = shape
        self._file = tempfile.TemporaryFile(dir=directory)

    def __enter__(self) -> "SnapshotFile":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def capture(self, params: ModelParams) -> None:
        """Overwrite the snapshot with the parameters' values."""
        if params.shape != self.shape:
            raise ValueError("the parameters' shape differs from the snapshot's")
        self._file.seek(0)
        for name, arr in params.tensors.items():
            self._file.write(_tensor_entry(f"best/{name}", arr.shape))
            self._file.write(np.ascontiguousarray(arr, dtype="<f8"))
        self._file.flush()

    def chunks(self) -> Iterator[memoryview]:
        """The file's bytes as a streamed part, read through one buffer of
        at most SNAPSHOT_BLOCK bytes and at most the largest tensor's: a
        chunk is valid until the next one is read."""
        if os.fstat(self._file.fileno()).st_size == 0:
            raise ValueError("nothing has been captured into the snapshot file")
        largest = max(8 * math.prod(d) for d in parameter_shapes(self.shape).values())
        buffer = memoryview(bytearray(min(SNAPSHOT_BLOCK, largest)))
        self._file.seek(0)
        while read := self._file.readinto(buffer):
            yield buffer[:read]


@dataclass
class CheckpointData:
    """A loaded checkpoint. A tensor group the load did not ask for is None:
    `model` (param/), `state.optimizer.velocity` (velocity/) and `best` (best/)."""

    model: ModelParams | None
    state: TrainState
    config: TrainConfig
    best: ModelParams | None


def _tensor_entry(name: str, dims: tuple[int, ...]) -> bytes:
    """A tensor's directory entry: everything that precedes its payload."""
    encoded = name.encode()
    return struct.pack(f"<H{len(encoded)}sB{len(dims)}I", len(encoded), encoded, len(dims), *dims)


def save_checkpoint(
    path: str | Path,
    model: ModelParams,
    state: TrainState,
    config: TrainConfig,
    best: SnapshotFile,
) -> None:
    """Serialize model, optimizer, training bookkeeping and the best
    snapshot, atomically. Each tensor is written from its array's own
    buffer, not copied; the best snapshot's file is appended as it is."""
    opt = state.optimizer
    meta = {
        "config": asdict(config),
        "shape": asdict(model.shape),
        "optimizer": {
            "current_lr": opt.current_lr,
            "best_val_error": opt.best_val_error,
            "epochs_since_improvement": opt.epochs_since_improvement,
            "epochs_completed": opt.epochs_completed,
        },
        "history": [asdict(r) for r in state.history],
        "best_epoch": state.best_epoch,
        "best_val_accuracy": state.best_val_accuracy,
        "has_best": True,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    groups = {"param": model.tensors, "velocity": opt.velocity}
    tensors = {f"{g}/{name}": arr for g, named in groups.items() for name, arr in named.items()}
    count = len(tensors) + len(parameter_shapes(best.shape))
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<HI", CHECKPOINT_VERSION, len(meta_bytes)),
        meta_bytes,
        struct.pack("<I", count),
    ]
    for name, arr in tensors.items():  # no copy for live float64 tensors
        parts += [_tensor_entry(name, arr.shape), np.ascontiguousarray(arr, dtype="<f8")]
    atomic_write_bytes(Path(path), *parts, best.chunks())


def _read_checkpoint(
    path: str | Path, groups: Collection[str] | None
) -> tuple[dict, dict[str, tuple[int, ...]], dict[str, Array]]:
    """(meta, name -> dims of every tensor, name -> finite array of the
    tensors whose group is in `groups`, or of all when it is None)."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(10)
        if len(head) < 10 or head[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        version, meta_len = struct.unpack_from("<HI", head, 4)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        if 10 + meta_len > size:
            raise FormatError(f"{path}: truncated meta block")
        try:
            meta = json.loads(f.read(meta_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: bad meta block: {exc}") from exc
        dims: dict[str, tuple[int, ...]] = {}
        tensors: dict[str, Array] = {}
        try:
            (count,) = struct.unpack("<I", f.read(4))
            for _ in range(count):
                (name_len,) = struct.unpack("<H", f.read(2))
                encoded = f.read(name_len)
                if len(encoded) != name_len:
                    raise FormatError(f"{path}: truncated tensor directory")
                name = encoded.decode()
                if name in dims:
                    raise FormatError(f"{path}: duplicate tensor {name!r}")
                (ndim,) = struct.unpack("<B", f.read(1))
                dims[name] = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
                nbytes = 8 * math.prod(dims[name])
                # Checked before allocating: absurd dims, or a 0 among them, cannot exhaust memory.
                if 0 in dims[name]:
                    raise FormatError(f"{path}: tensor {name!r} has a dim of 0")
                if f.tell() + nbytes > size:
                    raise FormatError(f"{path}: truncated payload for tensor {name!r}")
                if groups is None or name.partition("/")[0] in groups:
                    tensors[name] = np.empty(dims[name], dtype="<f8")
                    if f.readinto(tensors[name]) != nbytes:
                        raise FormatError(f"{path}: truncated payload for tensor {name!r}")
                    if not np.isfinite(tensors[name]).all():
                        raise FormatError(f"{path}: non-finite values in tensor {name!r}")
                else:
                    f.seek(nbytes, os.SEEK_CUR)
        except (struct.error, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: corrupt tensor directory: {exc}") from exc
        if f.tell() != size:
            raise FormatError(f"{path}: {size - f.tell()} trailing bytes")
    return meta, dims, tensors


def read_checkpoint_tensors(path: str | Path) -> tuple[dict, dict[str, Array]]:
    """Low-level read: (meta dict, name -> float64 array). Validates framing."""
    meta, _, tensors = _read_checkpoint(path, None)
    return meta, tensors


def load_checkpoint(
    path: str | Path, groups: Collection[str] | None = None
) -> CheckpointData:
    """Restore a checkpoint, reading only the tensor groups in `groups`
    (all of them when it is None). Every tensor's name and dims, read or
    not, is validated against the embedded shape spec. Each meta record
    holds exactly its fields and checks itself (numbers are kept as read)."""
    meta, dims, tensors = _read_checkpoint(path, groups)
    try:
        shape = ModelShapeSpec.from_dict(meta["shape"])
        config = from_fields(TrainConfig, meta["config"])
        state = TrainState(from_fields(OptimizerState, meta["optimizer"], velocity=None),
                           [from_fields(EpochReport, r) for r in meta["history"]],
                           meta["best_epoch"], meta["best_val_accuracy"])
        if meta["has_best"] is not True:  # every checkpoint has a best/ group
            raise ValueError(f"has_best must be true, got {meta['has_best']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid meta block: {exc}") from exc
    present: dict[str, dict[str, tuple[int, ...]]] = {"param": {}, "velocity": {}, "best": {}}
    for key, key_dims in dims.items():
        prefix, _, name = key.partition("/")
        if prefix not in present:
            raise FormatError(f"{path}: unexpected tensor {key!r}")
        present[prefix][name] = key_dims
    loaded: dict[str, ModelParams] = {}
    for prefix, group in present.items():
        try:
            if groups is None or prefix in groups:
                loaded[prefix] = ModelParams(shape, {n: tensors[f"{prefix}/{n}"] for n in group})
            else:
                check_parameter_shapes(shape, group)
        except ValueError as exc:
            raise FormatError(f"{path}: {prefix}/{exc}") from exc
    state.optimizer.velocity = loaded["velocity"].tensors if "velocity" in loaded else None
    return CheckpointData(loaded.get("param"), state, config, loaded.get("best"))
