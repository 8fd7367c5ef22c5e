"""Shared fixtures: finite-difference oracles, synthetic blob datasets, and
the image corpus used by the end-to-end protocol tests.

The corpus prefers real Fashion-MNIST IDX files (looked up in $RSM_DATA_DIR,
then ./data). When absent, it is the benchmark's generated corpus
(`perfbench/gen.py`) at seed 17, which ROADMAP.md's and BENCH_*.json's
accuracy numbers use: 60k/10k 28x28 images of 10 classes, written as gzipped
IDX files under pytest's tmp dir and read through the production loader.
"""

import gzip
import importlib.util
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from ressmooth.data import Dataset
from ressmooth.nn import Network, load_parameters

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

CORPUS_SEED = 17  # ROADMAP's protocol seed and BENCH_21.json's, fixed before any gate ran


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


def _find_real_corpus():
    candidates = []
    if os.environ.get("RSM_DATA_DIR"):
        candidates.append(Path(os.environ["RSM_DATA_DIR"]))
    candidates.append(ROOT / "data")
    for base in candidates:
        paths = {}
        for key, gz_name in gen.IDX_NAMES.items():
            for name in (gz_name, gz_name.removesuffix(".gz")):
                if (base / name).exists():
                    paths[key] = base / name
                    break
        if len(paths) == 4:
            return paths
    return None


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Dict with the four IDX paths plus a 'source' tag: fashion-mnist, or the
    benchmark's generated corpus at CORPUS_SEED."""
    real = _find_real_corpus()
    if real is not None:
        return {**{k: str(v) for k, v in real.items()}, "source": "fashion-mnist"}
    root, _ = gen.ensure_inputs(tmp_path_factory.mktemp("corpus"), "corpus", CORPUS_SEED)
    return {**{k: str(root / name) for k, name in gen.IDX_NAMES.items()},
            "source": f"benchmark corpus seed {CORPUS_SEED}"}


def read_csv(path):
    """Header plus rows of strings; the inverse of the harness CSV writers."""
    with open(path, "r", newline="") as f:
        lines = f.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]
