"""Seeded input generator for the benchmark workloads.

Two kinds of input, both pure functions of the seed and cached on disk by it:

- a Fashion-MNIST-shaped image corpus (28x28 uint8, 10 classes), written as
  the four gzipped IDX files the `fashion_mnist` dataset kind reads;
- the `many_class` arrays: Gaussian clusters with 100 classes and 64 features
  in [0, 1], written as one compressed `.npz`, so that set-up inflates and
  copies them as the corpus set-up gunzips and decodes.

The corpus never comes from `$RSM_DATA_DIR` or a real download, so the
numbers compare across machines. Each cache directory holds a `manifest.json`
with the seed, the sizes and the sha256 of every file; a directory without a
manifest is incomplete and is regenerated.
"""

import gzip
import hashlib
import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np

IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte.gz",
    "train_labels": "train-labels-idx1-ubyte.gz",
    "test_images": "t10k-images-idx3-ubyte.gz",
    "test_labels": "t10k-labels-idx1-ubyte.gz",
}

# (train rows, test rows) per size; "full" is what the benchmark measures,
# "tiny" keeps the benchmark's own tests fast.
CORPUS_SIZES = {"full": (60000, 10000), "tiny": (1200, 400)}
MANY_CLASS_SIZES = {"full": (10000, 2000), "tiny": (1000, 400)}
MANY_CLASS_CLASSES = 100
MANY_CLASS_FEATURES = 64
MANY_CLASS_CENTRE_SEED = 20190722


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _prototypes():
    """Ten 28x28 shape masks; pairs (0,1), (2,3), ... look alike on purpose."""
    yy, xx = np.mgrid[0:28, 0:28].astype(np.float64)
    r = np.hypot(yy - 13.5, xx - 13.5)
    masks = [
        (yy >= 6) & (yy < 22) & (xx >= 8) & (xx < 20),
        ((yy >= 4) & (yy < 24) & (xx >= 6) & (xx < 22))
        & ~((yy >= 8) & (yy < 20) & (xx >= 10) & (xx < 18)),
        (yy.astype(int) // 3) % 2 == 0,
        (xx.astype(int) // 3) % 2 == 0,
        r < 8.0,
        (r > 5.0) & (r < 9.5),
        np.abs(yy - xx) < 4.0,
        np.abs(yy + xx - 27.0) < 4.0,
        (np.hypot(yy - 7.0, xx - 7.0) < 5.0) | (np.hypot(yy - 20.0, xx - 20.0) < 5.0),
        (np.abs(yy - 13.5) < 3.0) | (np.abs(xx - 13.5) < 3.0),
    ]
    return np.stack([m.astype(np.float64) for m in masks])


def render_images(count: int, rng: np.random.Generator):
    """`count` images with balanced random labels; returns (uint8 [n,28,28], uint8 [n]).

    Each image blends its class shape with the look-alike partner's, shifts it
    by up to 3 px, scales, adds noise and sometimes erases an 8x8 patch; 5% of
    labels are swapped with the partner, which caps accuracy below 100%."""
    protos = _prototypes()
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    shifts = rng.integers(-3, 4, size=(count, 2))
    intensity = rng.uniform(0.5, 1.0, size=count)
    blend = rng.uniform(0.0, 0.5, size=count)
    erase = rng.random(count) < 0.3
    erase_at = rng.integers(0, 20, size=(count, 2))
    flip = rng.random(count) < 0.05
    images = np.empty((count, 28, 28), dtype=np.uint8)
    for i in range(count):
        img = (1.0 - blend[i]) * protos[labels[i]] + blend[i] * protos[labels[i] ^ 1]
        img = np.roll(img, (shifts[i, 0], shifts[i, 1]), axis=(0, 1)) * intensity[i]
        img += rng.normal(0.0, 0.28, size=(28, 28))
        if erase[i]:
            y0, x0 = erase_at[i]
            img[y0:y0 + 8, x0:x0 + 8] = 0.0
        images[i] = np.clip(np.round(img * 255.0), 0, 255)
    labels[flip] ^= 1
    return images, labels


def write_idx_pair(images: np.ndarray, labels: np.ndarray, images_path, labels_path):
    n, rows, cols = images.shape
    img_blob = struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()
    lbl_blob = struct.pack(">II", 0x00000801, n) + labels.tobytes()
    # mtime=0 keeps the gzip bytes, and so the recorded sha256, a function of the seed
    Path(images_path).write_bytes(gzip.compress(img_blob, compresslevel=1, mtime=0))
    Path(labels_path).write_bytes(gzip.compress(lbl_blob, compresslevel=1, mtime=0))


def many_class_arrays(n_train: int, n_test: int, rng: np.random.Generator):
    """Gaussian clusters, clipped to [0, 1], around centres that are the same
    for every seed, so that accuracy varies little between seeds; the seed
    draws the labels and the noise."""
    centres = np.random.default_rng(MANY_CLASS_CENTRE_SEED).uniform(
        0.2, 0.8, size=(MANY_CLASS_CLASSES, MANY_CLASS_FEATURES))

    def split(n):
        labels = rng.integers(0, MANY_CLASS_CLASSES, size=n)
        x = centres[labels] + rng.normal(0.0, 0.12, size=(n, MANY_CLASS_FEATURES))
        return np.clip(x, 0.0, 1.0), labels.astype(np.int64)

    x_train, y_train = split(n_train)
    x_test, y_test = split(n_test)
    return {"x_train": x_train, "y_train": y_train, "x_test": x_test, "y_test": y_test}


def _write_corpus(root: Path, seed: int, size: str):
    n_train, n_test = CORPUS_SIZES[size]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    for split, n in (("train", n_train), ("test", n_test)):
        images, labels = render_images(n, rng)
        write_idx_pair(images, labels, root / IDX_NAMES[f"{split}_images"],
                       root / IDX_NAMES[f"{split}_labels"])
    return {"train_rows": n_train, "test_rows": n_test}


def _write_many_class(root: Path, seed: int, size: str):
    n_train, n_test = MANY_CLASS_SIZES[size]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    np.savez_compressed(root / "many_class.npz", **many_class_arrays(n_train, n_test, rng))
    return {"train_rows": n_train, "test_rows": n_test, "classes": MANY_CLASS_CLASSES,
            "features": MANY_CLASS_FEATURES}


_WRITERS = {"corpus": _write_corpus, "many_class": _write_many_class}


def ensure_inputs(cache_dir, kind: str, seed: int, size: str = "full") -> tuple:
    """Directory holding the `kind` inputs for `seed`, generating them if absent.

    Returns (directory, manifest dict)."""
    root = Path(cache_dir) / f"{kind}-{size}-seed{seed}"
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        return root, json.loads(manifest_path.read_text())
    if root.exists():
        shutil.rmtree(root)
    tmp = root.with_name(root.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    manifest = {"kind": kind, "seed": seed, "size": size, **_WRITERS[kind](tmp, seed, size)}
    manifest["sha256"] = {p.name: sha256_file(p) for p in sorted(tmp.iterdir())}
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    os.replace(tmp, root)
    return root, manifest
