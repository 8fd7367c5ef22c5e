"""The `corpus` fixture: the real Fashion-MNIST lookup, and the generated
fallback pinned to the benchmark's seed-17 corpus."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import ROOT, _find_real_corpus, gen, write_idx_pair


def test_the_fallback_corpus_is_the_benchmarks_seed_17_corpus(corpus):
    # a change to gen's corpus moves the data every acceptance gate reads
    if corpus["source"] == "fashion-mnist":
        pytest.skip("the real Fashion-MNIST is in use")
    bench = json.loads((ROOT / "BENCH_21.json").read_text())
    pinned = bench["reports"]["fashion_train-seed17"]["facts"]["inputs"]["sha256"]
    assert {Path(corpus[key]).name: gen.sha256_file(corpus[key])
            for key in gen.IDX_NAMES} == pinned


def test_the_real_corpus_is_found_gzipped_or_raw_and_only_when_complete(tmp_path,
                                                                        monkeypatch):
    monkeypatch.setenv("RSM_DATA_DIR", str(tmp_path))
    images, labels = np.zeros((2, 28, 28)), np.array([0, 1])
    names = gen.IDX_NAMES
    write_idx_pair(images, labels, tmp_path / names["train_images"],
                   tmp_path / names["train_labels"])
    test_names = {key: names[key].removesuffix(".gz") for key in ("test_images", "test_labels")}
    write_idx_pair(images, labels, tmp_path / test_names["test_images"],
                   tmp_path / test_names["test_labels"], gzipped=False)
    assert _find_real_corpus() == {"train_images": tmp_path / names["train_images"],
                                   "train_labels": tmp_path / names["train_labels"],
                                   "test_images": tmp_path / test_names["test_images"],
                                   "test_labels": tmp_path / test_names["test_labels"]}
    (tmp_path / test_names["test_labels"]).unlink()
    found = _find_real_corpus()  # ./data may still hold a real corpus
    assert found is None or all(tmp_path not in path.parents for path in found.values())
