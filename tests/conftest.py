"""Shared fixtures: finite-difference oracles, synthetic blob datasets, and
the image corpus used by the end-to-end protocol tests.

The corpus prefers real Fashion-MNIST IDX files (looked up in $RSM_DATA_DIR,
then ./data). When absent, a deterministic procedurally generated surrogate
with the same shape (60k/10k, 28x28, 10 classes) is written as gzipped IDX
files and loaded through the production loader, so every pipeline stage is
still exercised end to end.
"""

import gzip
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from ressmooth.data import Dataset
from ressmooth.nn import Network, load_parameters

FASHION_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@pytest.fixture(scope="session", autouse=True)
def decoded_gzip_cache(tmp_path_factory):
    """Point XDG_CACHE_HOME, and with it the loaders' cache of inflated gzip
    files, at a directory of this session's own, for every test and any
    process a test starts: the user's cache is neither read nor filled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def fd_grad():
    """Central-difference gradient of a scalar function w.r.t. a list of
    arrays, perturbing one entry at a time. The arrays are mutated in place
    during probing and restored afterwards."""

    def _fd(f, arrays, h=1e-6):
        grads = []
        for arr in arrays:
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                f_plus = f()
                flat[j] = orig - h
                f_minus = f()
                flat[j] = orig
                gflat[j] = (f_plus - f_minus) / (2.0 * h)
            grads.append(g)
        return grads

    return _fd


def net_of(pairs, output_activation):
    """A network holding the given (weights, bias) pairs: relu on every layer
    but the last, which applies `output_activation`."""
    dims = [pairs[0][0].shape[1], *(w.shape[0] for w, _ in pairs)]
    return load_parameters(Network(dims, output_activation), pairs)


@pytest.fixture
def make_blobs():
    """Gaussian class blobs as an in-memory Dataset."""

    def _make(n_per_class=30, centers=((2.0, 0.0, 0.0, 0.0), (-2.0, 0.0, 0.0, 0.0)),
              noise=0.3, seed=0, split="train"):
        rng = np.random.default_rng(seed)
        xs, ys = [], []
        for label, center in enumerate(centers):
            xs.append(rng.normal(0.0, noise, size=(n_per_class, len(center))) + np.asarray(center))
            ys.append(np.full(n_per_class, label, dtype=np.int64))
        inputs = np.concatenate(xs)
        labels = np.concatenate(ys)
        order = rng.permutation(inputs.shape[0])
        return Dataset(inputs[order], labels[order], len(centers), split)

    return _make


def write_idx_pair(images, labels, images_path, labels_path, gzipped=True):
    """Write uint8 images [n, r, c] and labels [n] in IDX layout."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, r, c = images.shape
    img_blob = struct.pack(">IIII", 0x00000803, n, r, c) + images.tobytes()
    lbl_blob = struct.pack(">II", 0x00000801, n) + labels.tobytes()
    if gzipped:
        img_blob = gzip.compress(img_blob, compresslevel=1)
        lbl_blob = gzip.compress(lbl_blob, compresslevel=1)
    Path(images_path).write_bytes(img_blob)
    Path(labels_path).write_bytes(lbl_blob)


def _prototypes():
    yy, xx = np.mgrid[0:28, 0:28].astype(float)
    r = np.sqrt((yy - 13.5) ** 2 + (xx - 13.5) ** 2)
    protos = [
        (yy >= 6) & (yy < 22) & (xx >= 8) & (xx < 20),
        ((yy >= 4) & (yy < 24) & (xx >= 6) & (xx < 22))
        & ~((yy >= 8) & (yy < 20) & (xx >= 10) & (xx < 18)),
        (yy.astype(int) // 3) % 2 == 0,
        (xx.astype(int) // 3) % 2 == 0,
        r < 8.0,
        (r > 5.0) & (r < 9.5),
        np.abs(yy - xx) < 4.0,
        np.abs(yy + xx - 27.0) < 4.0,
        (np.sqrt((yy - 7.0) ** 2 + (xx - 7.0) ** 2) < 5.0)
        | (np.sqrt((yy - 20.0) ** 2 + (xx - 20.0) ** 2) < 5.0),
        (np.abs(yy - 13.5) < 3.0) | (np.abs(xx - 13.5) < 3.0),
    ]
    return [p.astype(float) for p in protos]


def _render_split(count, seed):
    """count samples, balanced labels; returns (uint8 images, uint8 labels).

    Shaped to behave like the desk-scale MLP reference corpus: quick early
    separability (most classes are distinct shapes) with a modest accuracy
    ceiling from heavily blended look-alike pairs (0/1, 2/3, 4/5, 6/7, 8/9)."""
    rng = np.random.default_rng(seed)
    protos = _prototypes()
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    images = np.empty((count, 28, 28), dtype=np.uint8)
    shifts = rng.integers(-3, 4, size=(count, 2))
    intensities = rng.uniform(0.5, 1.0, size=count)
    blend_weight = rng.uniform(0.0, 0.5, size=count)
    erase = rng.random(count) < 0.3
    erase_at = rng.integers(0, 20, size=(count, 2))
    noise = rng.normal(0.0, 0.28, size=(count, 28, 28))
    flip = rng.random(count) < 0.05  # twin-pair label ambiguity caps accuracy
    for i in range(count):
        twin = labels[i] ^ 1  # the confusable partner class
        img = (1.0 - blend_weight[i]) * protos[labels[i]] + blend_weight[i] * protos[twin]
        img = np.roll(img, (shifts[i, 0], shifts[i, 1]), axis=(0, 1))
        img = img * intensities[i] + noise[i]
        if erase[i]:
            y0, x0 = erase_at[i]
            img[y0:y0 + 8, x0:x0 + 8] = 0.0
        images[i] = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    labels[flip] ^= 1
    return images, labels


def generate_surrogate(root: Path):
    train_images, train_labels = _render_split(60000, seed=20240901)
    test_images, test_labels = _render_split(10000, seed=20240902)
    write_idx_pair(train_images, train_labels,
                   root / (FASHION_FILES["train_images"] + ".gz"),
                   root / (FASHION_FILES["train_labels"] + ".gz"))
    write_idx_pair(test_images, test_labels,
                   root / (FASHION_FILES["test_images"] + ".gz"),
                   root / (FASHION_FILES["test_labels"] + ".gz"))


def _find_real_corpus():
    candidates = []
    if os.environ.get("RSM_DATA_DIR"):
        candidates.append(Path(os.environ["RSM_DATA_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for base in candidates:
        paths = {}
        for key, stem in FASHION_FILES.items():
            for name in (stem + ".gz", stem):
                if (base / name).exists():
                    paths[key] = base / name
                    break
        if len(paths) == 4:
            return paths
    return None


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Dict with the four IDX paths plus a 'source' tag (fashion-mnist or
    surrogate)."""
    real = _find_real_corpus()
    if real is not None:
        return {**{k: str(v) for k, v in real.items()}, "source": "fashion-mnist"}
    root = tmp_path_factory.mktemp("corpus")
    generate_surrogate(root)
    return {
        "train_images": str(root / (FASHION_FILES["train_images"] + ".gz")),
        "train_labels": str(root / (FASHION_FILES["train_labels"] + ".gz")),
        "test_images": str(root / (FASHION_FILES["test_images"] + ".gz")),
        "test_labels": str(root / (FASHION_FILES["test_labels"] + ".gz")),
        "source": "surrogate",
    }


def read_csv(path):
    """Header plus rows of strings; the inverse of the harness CSV writers."""
    with open(path, "r", newline="") as f:
        lines = f.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]
