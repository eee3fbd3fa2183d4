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
    meta       JSON: config echo, model shape, epoch history, and the
               optimizer scalars and best-epoch bookkeeping they fix
               (sorted keys, so identical state -> identical bytes)
    count      u32      number of named tensors
    per tensor: name_len u16, name UTF-8, ndim u8, ndim * u32 dims,
               float64 payload
    layout: the groups "param/" (current model), "velocity/" (optimizer
    buffers) and "best/" (best-validation snapshot), in that order, each
    holding the meta shape's parameter table in table order

Writers go through a file that gets its name only as it is renamed into
place, so readers never observe a partial file. Features are quantized to
float32 on disk; a write whose float32 values are not all finite is
refused before anything is written. A load (`read_feature_file`) scans every value of the file once
for non-finite values, in blocks of READ_BLOCK_FRAMES frames, and keeps no
frames: it returns a `FeatureRows` reader of the file. Training, evaluation
and every export read through `denseimage.gather` just the n rows segment
sampling picks, so a run holds O(batch) feature values, not every frame
of a split. Only those rows are widened to float64 (exactly). Checkpoints
round-trip float64 exactly.

Checkpoint I/O moves each tensor's bytes once, between the file and the
array that owns them, along one path. A load first checks the header and
the meta block; the meta's shape then fixes the layout, so the load walks
it without reading a payload: each directory entry must be the bytes that
`_entry` writes for the layout's next tensor, each payload must end
within the file, the file must end at the last payload and the count
must be the layout's. Only then does it read, with one pread each, the
payloads it keeps into fresh aligned float64 arrays, each checked finite.
Inference reads only "param/" or "best/". A save writes each group as a
streamed part of entries and payloads, every payload from its array's
own buffer; a "best/" group it copies from an open checkpoint file (`din
train` copies the one it wrote last) is walked the same way and read
into one buffer of the largest tensor's size.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, Collection

import numpy as np

from .model import ModelParams, ModelShapeSpec, parameter_shapes
from .numerics import Array, from_fields, make_rng, require_fields
from .trainer import EpochReport, TrainConfig, TrainState, schedule

FEATURE_MAGIC = b"DIFX"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sHIH")  # magic, version, frames, dim
# Frames per block of a load's finiteness scan: 256 KB of buffer at D = 1024.
READ_BLOCK_FRAMES = 64

CHECKPOINT_MAGIC = b"DICK"
CHECKPOINT_VERSION = 1
# A checkpoint's tensor groups, in file order.
GROUPS = ("param", "velocity", "best")

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
    """Write the parts one after the other to a new file beside `path`,
    then rename it over `path`. A part is bytes or any C-contiguous buffer,
    or a streamed part: an iterator of such buffers, each written before
    the next is asked for (so it may reuse one buffer). The file has no
    name while it is written (O_TMPFILE, mode 0o666 less the umask): it is
    linked to a short random name just before the rename, so a kill leaves
    it behind only between the two. A directory that refuses an unnamed
    file gets that name at once (O_CREAT | O_EXCL). If anything fails, the
    name is removed, `path` is left as it was, and an OSError names `path`."""
    tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")
    try:
        try:
            fd, unnamed = os.open(path.parent, os.O_TMPFILE | os.O_WRONLY, 0o666), True
        except OSError as exc:
            if exc.errno not in (errno.EISDIR, errno.EOPNOTSUPP):
                raise
            fd, unnamed = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), False
        with open(fd, "wb") as f:
            for part in parts:
                for buffer in part if isinstance(part, Iterator) else (part,):
                    f.write(buffer)
            f.flush()
            if unnamed:  # link(2) of /proc/self/fd/N fails (EXDEV). With a src_dir_fd,
                # which linkat(2) ignores for an absolute path, CPython calls
                # linkat(..., AT_SYMLINK_FOLLOW), which links the file itself.
                os.link(f"/proc/self/fd/{fd}", tmp, src_dir_fd=fd)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if not isinstance(exc, OSError):
            raise
        named = OSError(f"{path}: {exc.strerror or exc}")  # not the temporary file
        named.errno = exc.errno
        raise named from exc


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


def read_feature_file(path: str | Path, raw_dim: int) -> FeatureRows:
    """Scan every value of a feature file for finiteness, one block of
    READ_BLOCK_FRAMES frames at a time, and return a `FeatureRows` reader
    of it; no frame is kept. A file whose feature dim is not `raw_dim`
    fails before its payload is read."""
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
        if D != raw_dim:
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
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8 JSON, too deep
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
        if min(self.noise_sigma, self.seed) < 0:
            raise ValueError("noise_sigma and seed must be >= 0")
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


@dataclass
class CheckpointData:
    """A loaded checkpoint. A tensor group the load did not ask for is None:
    `model` (param/), `state.velocity` (velocity/) and `best` (best/)."""

    model: ModelParams | None
    state: TrainState
    config: TrainConfig
    best: ModelParams | None


def save_checkpoint(
    path: str | Path,
    model: ModelParams,
    state: TrainState,
    config: TrainConfig,
    best: ModelParams | BinaryIO,
) -> None:
    """Serialize model, optimizer, training bookkeeping and the best
    snapshot, atomically. Each tensor is written from its array's own
    buffer, not copied. The best snapshot is parameters of the model's
    shape, or a checkpoint file open for binary reading whose "best/"
    group is copied."""
    meta_bytes = json.dumps(_meta(config, model.shape, state), sort_keys=True).encode()
    if isinstance(best, ModelParams) and best.shape != model.shape:
        raise ValueError("the best snapshot's shape differs from the model's")
    saved = best.tensors.items() if isinstance(best, ModelParams) else _copy_best(model.shape, best)
    head = struct.pack("<4sHI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(meta_bytes))
    count = struct.pack("<I", 2 * len(model.tensors) + len(state.velocity))
    atomic_write_bytes(Path(path), head, meta_bytes, count, _group("param", model.tensors.items()),
                       _group("velocity", state.velocity.items()), _group("best", saved))


def _meta(config: TrainConfig, shape: ModelShapeSpec, state: TrainState) -> dict:
    """The meta block of a checkpoint: the config, the shape and the history,
    and the bookkeeping they determine."""
    lr, best_val_error, since = schedule(state.history, config)
    return {
        "config": asdict(config),
        "shape": asdict(shape),
        "optimizer": {"current_lr": lr, "best_val_error": best_val_error,
                      "epochs_since_improvement": since, "epochs_completed": len(state.history)},
        "history": [asdict(r) for r in state.history],
        "best_epoch": state.best_epoch,
        "best_val_accuracy": state.best_val_accuracy,
        "has_best": True,
    }


def _parse_meta(meta: dict) -> tuple[ModelShapeSpec, TrainConfig, TrainState]:
    """The shape, config and state (velocity None) of a meta block. Their
    records hold exactly their fields and check themselves (numbers are
    kept as read); every other field must have the JSON text of the one
    they determine. An error names the field."""
    shape = ModelShapeSpec.from_dict(meta["shape"])
    config = from_fields(TrainConfig, meta["config"])
    state = TrainState(None, [from_fields(EpochReport, r) for r in meta["history"]])
    stored, rebuilt = _fields(meta), _fields(_meta(config, shape, state))
    for name in [*rebuilt, *sorted(stored.keys() - rebuilt.keys())]:
        if name not in stored or name not in rebuilt:
            raise ValueError(f"{'missing' if name in rebuilt else 'unknown'} key {name!r}")
        text = json.dumps(rebuilt[name], sort_keys=True)
        if json.dumps(stored[name], sort_keys=True) != text:
            raise ValueError(f"{name} must be {text}, got {stored[name]!r}")
    return shape, config, state


def _fields(meta: dict) -> dict:
    """Dotted name -> value of each meta field, a dict's fields one level down."""
    return dict(pair for key, value in meta.items()
                for pair in ([(f"{key}.{k}", v) for k, v in value.items()]
                             if isinstance(value, dict) else [(key, value)]))


def _entry(key: str, dims: tuple[int, ...]) -> bytes:
    """The directory entry of tensor `key` of shape `dims`: name_len u16,
    the UTF-8 name, ndim u8 and the dims, u32 each."""
    encoded = key.encode()
    return struct.pack(f"<H{len(encoded)}sB{len(dims)}I", len(encoded), encoded, len(dims), *dims)


def _group(prefix: str, tensors: Iterable[tuple[str, Array]]) -> Iterator:
    """A tensor group as a streamed part: each (name, array) pair's
    directory entry, then its payload from the array's own buffer."""
    for name, arr in tensors:
        yield _entry(f"{prefix}/{name}", arr.shape)
        yield np.ascontiguousarray(arr, dtype="<f8")


def _copy_best(shape: ModelShapeSpec, f: BinaryIO) -> Iterator[tuple[str, Array]]:
    """The "best/" tensors of a checkpoint file open for binary reading, in
    parameter-table order, each read into one buffer of the largest
    tensor's size. Their dims must be those of `shape`."""
    _, _, directory = _read_checkpoint(f)
    table = parameter_shapes(shape)
    buffer = np.empty(max(math.prod(dims) for dims in table.values()), dtype="<f8")
    for name, dims in table.items():
        found = directory.get(f"best/{name}", (None,))[0]
        if found != dims:
            raise FormatError(f"{f.name}: tensor 'best/{name}' has dims {found}, expected {dims}")
        yield name, _read_tensor(f, directory, f"best/{name}", buffer)


def _found_entry(fd: int, at: int) -> tuple[str, tuple[int, ...]]:
    """(name, dims) of the directory entry at offset `at`, or ("", ()) where
    the bytes there are not one."""
    raw = os.pread(fd, 3 + 0xFFFF + 4 * 0xFF, at)  # the longest entry
    try:
        (name_len,) = struct.unpack_from("<H", raw)
        (ndim,) = struct.unpack_from("<B", raw, 2 + name_len)
        return raw[2 : 2 + name_len].decode(), struct.unpack_from(f"<{ndim}I", raw, 3 + name_len)
    except (struct.error, UnicodeDecodeError):
        return "", ()


def _read_checkpoint(f: BinaryIO) -> tuple[dict, tuple, dict[str, tuple[tuple[int, ...], int]]]:
    """(meta, its `_parse_meta` shape, config and state, key -> (dims,
    payload offset) of every tensor) of a checkpoint file open for binary
    reading; no payload is read. The meta is checked first. Its shape fixes
    the layout: the parameter table under each of GROUPS. Each directory
    entry must be the bytes `_entry` gives the layout's next tensor, each
    payload must fit in the file, the file must end at the last payload
    and the count must be the layout's."""
    path, fd = f.name, f.fileno()
    size = os.fstat(fd).st_size
    head = os.pread(fd, 10, 0)
    if len(head) < 10 or head[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version, meta_len = struct.unpack_from("<HI", head, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if 10 + meta_len > size:
        raise FormatError(f"{path}: truncated meta block")
    try:
        meta = json.loads(os.pread(fd, meta_len, 10).decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: bad meta block: {exc}") from exc
    try:
        parsed = _parse_meta(meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid meta block: {exc}") from exc
    table, directory, at = parameter_shapes(parsed[0]), {}, 14 + meta_len  # after the count
    for key, dims in [(f"{group}/{name}", dims) for group in GROUPS for name, dims in table.items()]:
        entry = _entry(key, dims) if max(dims) <= 0xFFFFFFFF else b""  # no entry holds a larger dim
        if not entry or os.pread(fd, len(entry), at) != entry:
            name, found = _found_entry(fd, at)
            what = (f"shape {found}" if name == key else f"tensor {name!r} of shape {found}" if name
                    else "a corrupt or truncated entry")
            raise FormatError(f"{path}: {key}: {what}, expected {dims}")
        directory[key] = dims, at + len(entry)
        at += len(entry) + 8 * math.prod(dims)
        if at > size:
            raise FormatError(f"{path}: truncated payload for tensor {key!r}")
    if at < size:
        name, _ = _found_entry(fd, at)
        raise FormatError(f"{path}: unexpected tensor {name!r}" if name
                          else f"{path}: {size - at} trailing bytes")
    (count,) = struct.unpack("<I", os.pread(fd, 4, 10 + meta_len))  # the first entry follows it
    if count != len(directory):
        raise FormatError(f"{path}: tensor count {count}, expected {len(directory)}")
    return meta, parsed, directory


def _read_tensor(f: BinaryIO, directory: dict, name: str, out: Array | None) -> Array:
    """Tensor `name`'s payload, read with one pread at the offset the walk
    found into a fresh aligned float64 array, or into the front of the flat
    float64 buffer `out`, and checked finite."""
    dims, offset = directory[name]
    arr = np.empty(dims, dtype="<f8") if out is None else out[: math.prod(dims)].reshape(dims)
    if os.preadv(f.fileno(), [arr], offset) != arr.nbytes:  # the file shrank since the walk
        raise FormatError(f"{f.name}: truncated payload for tensor {name!r}")
    if not np.isfinite(arr).all():
        raise FormatError(f"{f.name}: non-finite values in tensor {name!r}")
    return arr


def read_checkpoint_tensors(path: str | Path) -> tuple[dict, dict[str, Array]]:
    """Low-level read: (meta dict, key -> float64 array) of every tensor, in
    file order, after the checks of a load."""
    with open(path, "rb") as f:
        meta, _, directory = _read_checkpoint(f)
        return meta, {key: _read_tensor(f, directory, key, None) for key in directory}


def load_checkpoint(
    source: str | Path | BinaryIO, groups: Collection[str] | None = None
) -> CheckpointData:
    """Restore a checkpoint from a path or an open file, reading only the
    tensor groups in `groups` (all of them when it is None). The meta, and
    every tensor's entry (read or not) against the layout of its shape, are
    checked before any payload is read."""
    opened = isinstance(source, (str, os.PathLike))
    with open(source, "rb") if opened else contextlib.nullcontext(source) as f:
        _, (shape, config, state), directory = _read_checkpoint(f)
        loaded = {group: ModelParams(shape, {name: _read_tensor(f, directory, f"{group}/{name}", None)
                                             for name in parameter_shapes(shape)})
                  for group in GROUPS if groups is None or group in groups}
    state.velocity = loaded["velocity"].tensors if "velocity" in loaded else None
    return CheckpointData(loaded.get("param"), state, config, loaded.get("best"))
