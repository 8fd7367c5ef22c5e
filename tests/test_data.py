import gzip
import hashlib
import re
import struct
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx_pair
from oracles import pad_crop_flip
from ressmooth import data
from ressmooth.data import (Dataset, augment_batch, batches, features, load_cifar10_bin,
                            load_idx, take_uniform)
from ressmooth.errors import ConfigError, FormatError, InputError, ShapeError


def write_cifar(path, labels, pixel_value=0):
    records = b""
    for label in labels:
        records += bytes([label]) + bytes([pixel_value]) * 3072
    path.write_bytes(records)


# --- IDX loading -----------------------------------------------------------------

def test_load_idx_all_zero_fixture(tmp_path):
    write_idx_pair(np.zeros((4, 28, 28), np.uint8), np.zeros(4, np.uint8),
                   tmp_path / "imgs.gz", tmp_path / "lbls.gz")
    ds = load_idx(tmp_path / "imgs.gz", tmp_path / "lbls.gz")
    assert ds.inputs.shape == (4, 784)
    assert np.array_equal(ds.inputs, np.zeros((4, 784)))
    assert ds.class_count == 10


def test_load_idx_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(23)
    images = rng.integers(0, 256, size=(10, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=10).astype(np.uint8)
    write_idx_pair(images, labels, tmp_path / "i.gz", tmp_path / "l.gz")
    ds = load_idx(tmp_path / "i.gz", tmp_path / "l.gz")
    assert ds.inputs.dtype == np.uint8
    assert np.array_equal(ds.inputs, images.reshape(10, 784))
    assert np.array_equal(ds.labels, labels.astype(np.int64))


def test_load_idx_accepts_raw_and_gzip(tmp_path):
    images = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
    labels = np.array([1, 2], np.uint8)
    write_idx_pair(images, labels, tmp_path / "i.gz", tmp_path / "l.gz", gzipped=True)
    write_idx_pair(images, labels, tmp_path / "i", tmp_path / "l", gzipped=False)
    a = load_idx(tmp_path / "i.gz", tmp_path / "l.gz")
    b = load_idx(tmp_path / "i", tmp_path / "l")
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    assert not a.inputs.flags.writeable and not b.inputs.flags.writeable


def test_load_idx_bad_magic_reports_offset(tmp_path):
    blob = struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4)
    (tmp_path / "i").write_bytes(blob)
    write_idx_pair(np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8),
                   tmp_path / "ok_i", tmp_path / "ok_l", gzipped=False)
    with pytest.raises(FormatError, match="offset 0"):
        load_idx(tmp_path / "i", tmp_path / "ok_l")


def test_load_idx_truncated_is_an_error_not_a_crash(tmp_path):
    write_idx_pair(np.zeros((4, 28, 28), np.uint8), np.zeros(4, np.uint8),
                   tmp_path / "i", tmp_path / "l", gzipped=False)
    raw = (tmp_path / "i").read_bytes()
    (tmp_path / "i").write_bytes(raw[:100])
    with pytest.raises(FormatError, match="truncated"):
        load_idx(tmp_path / "i", tmp_path / "l")


def test_load_idx_count_mismatch(tmp_path):
    write_idx_pair(np.zeros((4, 2, 2), np.uint8), np.zeros(4, np.uint8),
                   tmp_path / "i", tmp_path / "l", gzipped=False)
    write_idx_pair(np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8),
                   tmp_path / "i3", tmp_path / "l3", gzipped=False)
    with pytest.raises(FormatError, match="labels for"):
        load_idx(tmp_path / "i", tmp_path / "l3")


@pytest.mark.parametrize("file, extra", [("i", b"junk"), ("l", bytes(1)), ("i", bytes(2 * 3))],
                         ids=["image_junk", "label_byte", "whole_image"])
def test_load_idx_trailing_bytes_are_an_error(tmp_path, file, extra):
    write_idx_pair(np.zeros((3, 2, 3), np.uint8), np.zeros(3, np.uint8),
                   tmp_path / "i", tmp_path / "l", gzipped=False)
    path = tmp_path / file
    end = path.stat().st_size
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(FormatError, match=f"{file}: {len(extra)} trailing bytes at offset {end}$"):
        load_idx(tmp_path / "i", tmp_path / "l")


def test_load_idx_label_out_of_range(tmp_path):
    # the first bad label is named, at its byte offset past the 8-byte header
    write_idx_pair(np.zeros((3, 2, 2), np.uint8), np.array([3, 11, 12], np.uint8),
                   tmp_path / "i", tmp_path / "l", gzipped=False)
    with pytest.raises(FormatError) as exc:
        load_idx(tmp_path / "i", tmp_path / "l")
    assert str(exc.value) == f"{tmp_path / 'l'}: label 11 exceeds 9 at offset 9"


# --- CIFAR-10 binary ---------------------------------------------------------------

def test_load_cifar_single_record(tmp_path):
    path = tmp_path / "batch.bin"
    write_cifar(path, [3], pixel_value=255)
    ds = load_cifar10_bin([path])
    assert ds.n == 1
    assert ds.labels.tolist() == [3]
    assert ds.inputs.dtype == np.uint8
    assert np.array_equal(ds.inputs, np.full((1, 3072), 255, np.uint8))


def test_load_cifar_empty_file_is_valid(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    ds = load_cifar10_bin([path])
    assert ds.n == 0


def test_load_cifar_bad_size(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(3072))  # one byte short of a record
    with pytest.raises(FormatError, match="multiple of 3073"):
        load_cifar10_bin([path])


def test_load_cifar_concatenates_in_order(tmp_path):
    write_cifar(tmp_path / "a.bin", [1, 2])
    write_cifar(tmp_path / "b.bin", [3])
    ds = load_cifar10_bin([tmp_path / "a.bin", tmp_path / "b.bin"])
    assert ds.labels.tolist() == [1, 2, 3]


def test_load_cifar_bad_label_names_its_file_and_offset(tmp_path):
    write_cifar(tmp_path / "a.bin", [1, 2])
    write_cifar(tmp_path / "b.bin", [3, 12, 15])  # records 1 and 2 are bad; 1 is reported
    with pytest.raises(FormatError, match=rf"^{re.escape(str(tmp_path / 'b.bin'))}: "
                                          r"label 12 exceeds 9 at offset 3073$"):
        load_cifar10_bin([tmp_path / "a.bin", tmp_path / "b.bin"])


def test_load_cifar_plane_order(tmp_path):
    # label byte, then R plane, G plane, B plane
    record = bytes([5]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
    (tmp_path / "p.bin").write_bytes(record)
    ds = load_cifar10_bin([tmp_path / "p.bin"])
    img = ds.inputs[0].reshape(3, 32, 32)
    assert ds.inputs.dtype == np.uint8
    assert np.array_equal(img[0], np.full((32, 32), 10, np.uint8))
    assert np.array_equal(img[1], np.full((32, 32), 20, np.uint8))
    assert np.array_equal(img[2], np.full((32, 32), 30, np.uint8))


# --- damaged gzip --------------------------------------------------------------------

def _truncated(blob):
    return blob[:-12]  # the deflate stream ends early


def _bad_block_type(blob):
    damaged = bytearray(blob)
    damaged[10] |= 0b110  # first deflate block type := 3, which is reserved
    return bytes(damaged)


def _bad_crc(blob):
    damaged = bytearray(blob)
    damaged[-8] ^= 0xFF  # first byte of the CRC-32 trailer
    return bytes(damaged)


@pytest.mark.parametrize("damage, cause", [(_truncated, EOFError), (_bad_block_type, zlib.error),
                                           (_bad_crc, gzip.BadGzipFile)])
def test_damaged_gzip_is_a_format_error(tmp_path, damage, cause):
    images = np.random.default_rng(28).integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
    write_idx_pair(images, np.arange(4, dtype=np.uint8), tmp_path / "i.gz", tmp_path / "l.gz")
    (tmp_path / "i.gz").write_bytes(damage((tmp_path / "i.gz").read_bytes()))
    with pytest.raises(FormatError, match="i.gz") as idx_err:
        load_idx(tmp_path / "i.gz", tmp_path / "l.gz")
    assert isinstance(idx_err.value.__cause__, cause)
    (tmp_path / "c.bin.gz").write_bytes(damage(gzip.compress(bytes(range(256)) * 12 + bytes(1))))
    with pytest.raises(FormatError, match="c.bin.gz") as cifar_err:
        load_cifar10_bin([tmp_path / "c.bin.gz"])
    assert isinstance(cifar_err.value.__cause__, cause)


# --- streaming gunzip -----------------------------------------------------------------

def _payloads():
    # repeated pieces compress well, so one input piece can inflate past the
    # output cap and leave an unconsumed tail
    piece = st.tuples(st.binary(max_size=300), st.integers(1, 40)).map(lambda p: p[0] * p[1])
    return st.lists(piece, min_size=1, max_size=3)


@pytest.fixture(scope="module")
def gz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("gunzip") / "f.gz"


def _streamed(path, blob, piece, reference=True):
    """_read_maybe_gzip of `blob` inflated `piece` bytes at a time; with
    reference=False, falling back to gzip.decompress fails the test."""
    path.write_bytes(blob)
    fallback = gzip.decompress if reference else mock.Mock(side_effect=AssertionError("fell back"))
    with mock.patch.object(data, "_GZIP_PIECE", piece), \
            mock.patch.object(data.gzip, "decompress", fallback):
        return bytes(data._read_maybe_gzip(path))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(members=_payloads(), level=st.integers(0, 9), piece=st.sampled_from([1, 7, 512, 1 << 20]))
def test_streaming_gunzip_matches_gzip_decompress(gz_path, members, level, piece):
    """One member or several: the decoded bytes are gzip.decompress's, and a
    single member is decoded without it."""
    blob = b"".join(gzip.compress(m, compresslevel=level, mtime=0) for m in members)
    assert _streamed(gz_path, blob, piece, reference=len(members) > 1) == gzip.decompress(blob)


def _damage(draw, blob):
    kind = draw(st.sampled_from(["truncate", "flip", "append", "isize"]))
    if kind == "truncate":
        return blob[:draw(st.integers(2, len(blob) - 1))]
    if kind == "flip":
        at = draw(st.integers(2, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ (1 << draw(st.integers(0, 7)))]) + blob[at + 1:]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=40))
    return blob[:-4] + draw(st.integers(0, 2**32 - 1)).to_bytes(4, "little")


@st.composite
def _damaged_streams(draw):
    members = draw(_payloads())
    blob = b"".join(gzip.compress(m, compresslevel=6, mtime=0) for m in members)
    return _damage(draw, blob)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blob=_damaged_streams(), piece=st.sampled_from([7, 1 << 20]))
def test_damaged_gzip_decodes_like_gzip_decompress_or_is_a_format_error(gz_path, blob, piece):
    """Truncation, bit flips, appended junk, forged ISIZE: the result is
    gzip.decompress's, or a FormatError caused by the error it raises."""
    try:
        want = gzip.decompress(blob)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        with pytest.raises(FormatError, match="f.gz") as err:
            _streamed(gz_path, blob, piece)
        assert type(err.value.__cause__) is type(exc)
    else:
        assert _streamed(gz_path, blob, piece) == want


# --- cache of inflated files ------------------------------------------------------------

def _gz_file(path, seed=29, size=5000):
    """A one-member gzip file of random bytes at `path`; returns its decoded bytes."""
    payload = np.random.default_rng(seed).integers(0, 256, size).astype(np.uint8).tobytes()
    path.write_bytes(gzip.compress(payload, compresslevel=1, mtime=0))
    return payload


def _entry(cache, path):
    return cache / "ressmooth" / hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _no_inflate(monkeypatch):
    def refuse(*args):
        raise AssertionError("inflated")
    monkeypatch.setattr(data.zlib, "decompressobj", refuse)
    monkeypatch.setattr(data.gzip, "decompress", refuse)


def test_a_second_load_inflates_nothing(tmp_path, cache, monkeypatch):
    _gz_file(tmp_path / "f.gz")
    want = gzip.decompress((tmp_path / "f.gz").read_bytes())
    assert bytes(data._read_maybe_gzip(tmp_path / "f.gz")) == want
    _no_inflate(monkeypatch)
    warm = data._read_maybe_gzip(tmp_path / "f.gz")
    assert warm.readonly and bytes(warm) == want


def test_a_damaged_copy_of_a_cached_file_is_the_same_format_error(tmp_path, cache):
    path = tmp_path / "f.gz"
    _gz_file(path)
    data._read_maybe_gzip(path)
    intact = _entry(cache, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 1  # one bit in the middle of the deflate stream
    path.write_bytes(blob)
    with pytest.raises((EOFError, zlib.error, gzip.BadGzipFile)) as reference:
        gzip.decompress(bytes(blob))
    with pytest.raises(FormatError) as err:
        data._read_maybe_gzip(path)
    assert str(err.value) == f"{path}: corrupt gzip stream: {reference.value}"
    assert type(err.value.__cause__) is type(reference.value)
    assert list((cache / "ressmooth").iterdir()) == [intact]


@pytest.mark.parametrize("damage", [lambda e: e[:-1], lambda e: e + b"\0",
                                    lambda e: e[:7] + bytes([e[7] ^ 4]) + e[8:]],
                         ids=["truncated", "extended", "bit-flipped"])
def test_a_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, cache, damage):
    payload = _gz_file(tmp_path / "f.gz")
    data._read_maybe_gzip(tmp_path / "f.gz")
    entry = _entry(cache, tmp_path / "f.gz")
    entry.write_bytes(damage(entry.read_bytes()))
    assert bytes(data._read_maybe_gzip(tmp_path / "f.gz")) == payload
    assert entry.read_bytes() == payload
    assert list(entry.parent.iterdir()) == [entry]  # no temp file left


@pytest.mark.parametrize("where", ["XDG_CACHE_HOME is a file", "the entry is a directory",
                                   "no home directory"])
def test_an_unusable_cache_location_leaves_the_load_as_it_was(tmp_path, monkeypatch, where):
    payload = _gz_file(tmp_path / "f.gz")
    if where == "XDG_CACHE_HOME is a file":
        (tmp_path / "cache").write_bytes(b"not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    elif where == "the entry is a directory":  # the temp file is written, os.replace fails
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _entry(tmp_path / "cache", tmp_path / "f.gz").mkdir(parents=True)
    else:
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
    before = sorted(tmp_path.rglob("*"))
    for _ in range(2):
        assert bytes(data._read_maybe_gzip(tmp_path / "f.gz")) == payload
    assert sorted(tmp_path.rglob("*")) == before


def test_a_cifar_batch_loads_identically_through_a_warm_entry(tmp_path, cache, monkeypatch):
    write_cifar(tmp_path / "c.bin", [3, 7, 0], pixel_value=200)
    (tmp_path / "c.bin.gz").write_bytes(gzip.compress((tmp_path / "c.bin").read_bytes()))
    raw = load_cifar10_bin([tmp_path / "c.bin"])
    cold = load_cifar10_bin([tmp_path / "c.bin.gz"])
    _no_inflate(monkeypatch)
    warm = load_cifar10_bin([tmp_path / "c.bin.gz"])
    for ds in (cold, warm):
        assert np.array_equal(ds.inputs, raw.inputs) and np.array_equal(ds.labels, raw.labels)


# --- subsetting --------------------------------------------------------------------

def small_dataset(n=100, features=3, classes=10, seed=24):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, features)), rng.integers(0, classes, size=n),
                   classes, "train")


def test_subsample_preserves_label_marginals():
    labels = (np.arange(60000) % 10).astype(np.int64)
    ds = Dataset(np.zeros((60000, 1)), labels, 10, "train")
    got = take_uniform(ds, 30000, np.random.default_rng(42))
    expected = 3000.0
    counts = np.bincount(got.labels, minlength=10)
    assert np.all(np.abs(counts - expected) <= 4.0 * np.sqrt(expected))


def test_take_uniform_bounds():
    ds = small_dataset(n=10)
    with pytest.raises(ConfigError):
        take_uniform(ds, 11, np.random.default_rng(0))


# --- batching ---------------------------------------------------------------------

def test_batches_sizes_with_short_tail():
    ds = small_dataset(n=300)
    sizes = [len(b) for b in batches(ds, 128, np.random.default_rng(3))]
    assert sizes == [128, 128, 44]


def test_batches_cover_every_index_once():
    ds = small_dataset(n=257)
    seen = np.concatenate(list(batches(ds, 64, np.random.default_rng(4))))
    assert sorted(seen.tolist()) == list(range(257))


def test_batches_deterministic():
    ds = small_dataset(n=50)
    a = list(batches(ds, 16, np.random.default_rng(5)))
    b = list(batches(ds, 16, np.random.default_rng(5)))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_batches_validation():
    with pytest.raises(ConfigError):
        list(batches(small_dataset(), 0, np.random.default_rng(0)))


# --- augmentation ------------------------------------------------------------------

class ScriptedRng:
    """Stands in for the generator: every offset draw returns `offset`, every
    coin draw returns `coin` (a flip when below 0.5)."""

    def __init__(self, offset, coin):
        self.offset, self.coin = offset, coin

    def integers(self, low, high):
        return self.offset

    def random(self):
        return self.coin


def test_pad_crop_center_is_identity():
    rows = np.random.default_rng(25).random((5, 3072))
    assert np.array_equal(augment_batch(rows, ScriptedRng(4, coin=0.9)), rows)


def test_flip_twice_is_identity():
    rows = np.random.default_rng(26).random((5, 3072))
    once = augment_batch(rows, ScriptedRng(4, coin=0.0))
    assert not np.array_equal(once, rows)
    assert np.array_equal(augment_batch(once, ScriptedRng(4, coin=0.0)), rows)


def test_augment_values_come_from_input_or_padding():
    rng = np.random.default_rng(27)
    rows = rng.random((4, 3072))
    for _ in range(10):
        out = augment_batch(rows, rng)
        for row, augmented in zip(rows, out):
            assert set(augmented.tolist()) <= set(row.tolist()) | {0.0}


@pytest.mark.parametrize("seed", range(5))
def test_augment_batch_matches_per_image_oracle(seed):
    rows = np.random.default_rng(100 + seed).random((17, 3072))
    rng = np.random.default_rng(seed)
    got = augment_batch(rows, rng)
    replay = np.random.default_rng(seed)  # the draws per row: integers, integers, random
    for row, augmented in zip(rows, got):
        offset_y = int(replay.integers(0, 9))
        offset_x = int(replay.integers(0, 9))
        flip = bool(replay.random() < 0.5)
        want = pad_crop_flip(row.reshape(3, 32, 32), offset_y, offset_x, flip).reshape(-1)
        assert np.array_equal(augmented, want)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_augment_shape_validation():
    with pytest.raises(ShapeError):
        augment_batch(np.zeros((2, 3071)), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        augment_batch(np.zeros((2, 3, 32, 32)), np.random.default_rng(0))


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 2)), np.zeros(4, np.int64), 10)
    with pytest.raises(InputError):
        Dataset(np.zeros((2, 2)), np.array([0, 10]), 10)
    with pytest.raises(InputError, match="label out of range"):
        Dataset(np.zeros((2, 2)), np.array([-1, 0]), 2)
    for dtype in (np.int8, np.uint16, np.int64, np.bool_, np.complex128):
        with pytest.raises(InputError, match="neither uint8 pixel codes nor float features"):
            Dataset(np.zeros((2, 2), dtype), np.zeros(2, np.int64), 10)


def test_features_scale_codes_and_pass_floats_through():
    codes = np.arange(256, dtype=np.uint8).reshape(4, 64)
    scaled = features(codes)
    assert scaled.dtype == np.float64
    assert scaled.tobytes() == (codes.astype(np.float64) / 255.0).tobytes()
    assert scaled[0, 0] == 0.0 and scaled[-1, -1] == 1.0
    floats = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
    assert features(floats) is floats


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_inputs(bad):
    inputs = np.zeros((3, 2))
    inputs[1, 0] = bad
    with pytest.raises(InputError, match="non-finite"):
        Dataset(inputs, np.zeros(3, np.int64), 10, "test")
    with pytest.raises(InputError, match="non-finite"):
        Dataset(inputs.astype(np.float32), np.zeros(3, np.int64), 10, "test")
