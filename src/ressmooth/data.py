"""Dataset ingestion and sampling.

IDX files (MNIST family), big-endian:
    i32  magic (0x00000803 images / 0x00000801 labels)
    i32  item count, then i32 rows, i32 cols for images
    u8[] pixels row-wise / labels, to the exact length: trailing bytes are an error
Gzip-wrapped IDX files are accepted. CIFAR-10 binary: 3073-byte records,
one label byte then 1024 R + 1024 G + 1024 B plane bytes.

A gzip file is inflated a piece at a time into one buffer sized from its
ISIZE trailer. A clean inflate is kept in $XDG_CACHE_HOME/ressmooth, named by
the file's sha256, and read back by later loads when its length and CRC-32
match the trailer. The loaders return the raw uint8 pixel codes (the IDX one a
read-only view of the decoded bytes), and the codes stay codes through
subsetting, batching and augmentation: `features` turns one batch or one
evaluation chunk at a time into float64 features in [0, 1] by /255, with no
further normalization. `augment_batch` pads, crops and mirrors a whole batch
of CIFAR rows; the per-image reference it is tested against lives in the
tests (`oracles.py`).
"""

import contextlib
import gzip
import hashlib
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InputError, ShapeError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073
_GZIP_PIECE = 1 << 20  # bytes read, and at most bytes inflated, per step
# deflate expands at most 1032:1, so a larger ISIZE trailer is forged
_MAX_DEFLATE_RATIO = 1032


@dataclass
class Dataset:
    inputs: np.ndarray  # [n, N] uint8 pixel codes, scaled per batch by `features`,
    #                     or float features, checked finite here
    labels: np.ndarray  # [n] int64
    class_count: int
    split: str = "train"

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeError(f"{self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels")
        if self.labels.size and (int(self.labels.min()) < 0
                                 or int(self.labels.max()) >= self.class_count):
            raise InputError("label out of range")
        if self.inputs.dtype != np.uint8 and self.inputs.dtype.kind != "f":
            raise InputError(f"{self.split} split holds {self.inputs.dtype} inputs, "
                             "neither uint8 pixel codes nor float features")
        if self.inputs.dtype.kind == "f" and not np.all(np.isfinite(self.inputs)):
            raise InputError(f"non-finite input in the {self.split} split")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def feature_count(self) -> int:
        return self.inputs.shape[1]


def _read_maybe_gzip(path):
    """The file's bytes, gunzipped when it starts with the gzip magic.

    A one-member stream is inflated into one buffer, or read from its cache
    entry, and returned as a read-only view. Every stream that path does not
    take to a verified end (damaged, multi-member, trailing bytes) goes to
    `gzip.decompress`, so the result, or the cause of the `FormatError`, is
    always the reference decoder's."""
    with open(path, "rb") as f:
        if f.read(2) != b"\x1f\x8b":
            f.seek(0)
            return f.read()
        decoded = _inflate_one_member(f)
    if decoded is not None:
        return memoryview(decoded).toreadonly()
    try:
        return gzip.decompress(Path(path).read_bytes())
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise FormatError(f"{path}: corrupt gzip stream: {exc}") from exc


def _inflate_one_member(f):
    """Inflate a gzip file holding one member into a uint8 array of its ISIZE
    (the decoded size mod 2**32), or None when the stream does not end
    cleanly at exactly that size and at the end of the file. A cache entry
    that passes the trailer's checks stands in for the inflate, and a clean
    inflate is stored as the entry."""
    compressed = os.fstat(f.fileno()).st_size
    if compressed < 18:  # shorter than a gzip header and trailer
        return None
    f.seek(-8, os.SEEK_END)
    crc, size = struct.unpack("<II", f.read(8))
    if size > _MAX_DEFLATE_RATIO * compressed:
        return None
    try:
        out = np.empty(size, np.uint8)  # untouched pages cost no memory
    except MemoryError:
        return None
    entry = _cache_entry(f)
    if entry is not None and _read_entry(entry, out, crc):
        return out
    view = memoryview(out)
    f.seek(0)
    inflater = zlib.decompressobj(31)
    pos = 0
    while not inflater.eof:
        piece = inflater.unconsumed_tail or f.read(_GZIP_PIECE)
        try:
            chunk = inflater.decompress(piece, _GZIP_PIECE)
        except zlib.error:
            return None
        if (not chunk and (not piece or inflater.unconsumed_tail)) or pos + len(chunk) > size:
            return None
        view[pos:pos + len(chunk)] = chunk
        pos += len(chunk)
    if pos != size or inflater.unused_data or f.read(1):
        return None
    if entry is not None:
        _write_entry(entry, out)
    return out


def _cache_entry(f):
    """The cache path of the open file's bytes, $XDG_CACHE_HOME/ressmooth/<sha256>
    (~/.cache/ressmooth/ when that is unset or relative), or None without a home."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        home = os.path.expanduser("~")
        if not (os.path.isabs(home) and os.path.isdir(home)):
            return None
        base = os.path.join(home, ".cache")
    digest = hashlib.sha256()
    f.seek(0)
    while piece := f.read(_GZIP_PIECE):
        digest.update(piece)
    return os.path.join(base, "ressmooth", digest.hexdigest())


def _read_entry(entry, out, crc) -> bool:
    """Fill `out` from a cache entry; True only when the entry has out's
    length and the trailer's CRC-32, the check gunzip applies."""
    try:
        with open(entry, "rb") as f:
            return (os.fstat(f.fileno()).st_size == out.size and f.readinto(out) == out.size
                    and zlib.crc32(out) == crc)
    except OSError:
        return False


def _write_entry(entry, out):
    """Store a verified inflate as the cache entry, through a temp file in the
    cache dir and os.replace; an OSError skips the store and leaves no temp file."""
    tmp = None
    try:
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(entry))
        with open(fd, "wb") as f:
            f.write(out)
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _read_idx(path, magic: int, ndim: int) -> np.ndarray:
    """Decode one IDX file (gzipped or raw) whose header is `magic` and `ndim`
    dimensions: a read-only uint8 view of its payload, shaped by the header."""
    raw = _read_maybe_gzip(path)
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"{path}: truncated header at offset {len(raw)}")
    found, *dims = struct.unpack_from(f">{1 + ndim}I", raw, 0)
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x} at offset 0")
    if min(dims[1:], default=1) < 1:
        raise FormatError(f"{path}: bad dims {'x'.join(map(str, dims[1:]))} at offset 8")
    need = header + math.prod(dims)
    if len(raw) < need:
        raise FormatError(f"{path}: truncated at offset {len(raw)}, need {need}")
    if len(raw) > need:
        raise FormatError(f"{path}: {len(raw) - need} trailing bytes at offset {need}")
    return np.frombuffer(raw, np.uint8, need - header, offset=header).reshape(dims)


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Load an IDX image/label file pair (gzipped or raw) as uint8 codes: a
    read-only view of the decoded image bytes."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1).astype(np.int64)
    count, rows, cols = images.shape
    if labels.size != count:
        raise FormatError(f"{labels_path}: {labels.size} labels for {count} images")
    bad = np.flatnonzero(labels > 9)
    if bad.size:  # label i sits at offset 8 + i, past the magic and count words
        raise FormatError(f"{labels_path}: label {labels[bad[0]]} exceeds 9 at offset {8 + bad[0]}")
    return Dataset(images.reshape(count, rows * cols), labels, 10, split)


def load_cifar10_bin(paths, split: str = "train") -> Dataset:
    """Load and concatenate CIFAR-10 binary batch files, in the given order,
    as uint8 codes: the inputs are a view of the records past the label byte."""
    parts = []
    for path in paths:
        raw = _read_maybe_gzip(path)
        if len(raw) % CIFAR_RECORD_BYTES != 0:
            raise FormatError(f"{path}: size {len(raw)} not a multiple of {CIFAR_RECORD_BYTES}")
        part = np.frombuffer(raw, np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        bad = np.flatnonzero(part[:, 0] > 9)
        if bad.size:
            raise FormatError(f"{path}: label {part[bad[0], 0]} exceeds 9 "
                              f"at offset {bad[0] * CIFAR_RECORD_BYTES}")
        parts.append(part)
    records = np.concatenate(parts) if parts else np.zeros((0, CIFAR_RECORD_BYTES), np.uint8)
    return Dataset(records[:, 1:], records[:, 0].astype(np.int64), 10, split)


def features(rows: np.ndarray) -> np.ndarray:
    """Model inputs for a block of rows: uint8 pixel codes become float64 in
    [0, 1] by /255, float features pass through unchanged."""
    return rows / 255.0 if rows.dtype == np.uint8 else rows


def take_uniform(dataset: Dataset, count: int, rng: np.random.Generator) -> Dataset:
    """Uniform subset without replacement, kept in original order."""
    if not 0 <= count <= dataset.n:
        raise ConfigError(f"cannot take {count} of {dataset.n} examples")
    idx = np.sort(rng.choice(dataset.n, size=count, replace=False))
    return replace(dataset, inputs=dataset.inputs[idx], labels=dataset.labels[idx])


def batches(dataset: Dataset, batch_size: int, rng: np.random.Generator):
    """One epoch: a fresh uniform shuffle cut into consecutive index batches;
    the final short batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(dataset.n)
    for start in range(0, dataset.n, batch_size):
        yield perm[start:start + batch_size]


def augment_batch(xb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random 32x32 crop of each zero-padded (4 px per side) CIFAR row, plus a
    fair-coin horizontal mirror.

    Rows are [B, 3072] channel-planes-first, as in the binary layout. Each row
    draws its y offset, x offset and flip, in that order; offsets (4, 4)
    without flip reproduce the row exactly."""
    if xb.ndim != 2 or xb.shape[1] != 3 * 32 * 32:
        raise ShapeError(f"expected [B, 3072] CIFAR rows, got {xb.shape}")
    b = xb.shape[0]
    padded = np.zeros((b, 3, 40, 40), xb.dtype)
    padded[:, :, 4:36, 4:36] = xb.reshape(b, 3, 32, 32)
    out = np.empty((b, 3, 32, 32), xb.dtype)
    for i in range(b):
        offset_y = int(rng.integers(0, 9))
        offset_x = int(rng.integers(0, 9))
        crop = padded[i, :, offset_y:offset_y + 32, offset_x:offset_x + 32]
        out[i] = crop[:, :, ::-1] if rng.random() < 0.5 else crop
    return out.reshape(b, -1)
