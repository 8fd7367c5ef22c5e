import dataclasses
import gzip
import hashlib
import os
import re
import struct
import tracemalloc
import zlib
from pathlib import Path
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
    assert ds.labels.dtype == np.uint8  # the codes as decoded, like the pixels
    assert np.array_equal(ds.labels, labels)


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


def test_load_idx_zero_dims_report_offset(tmp_path):
    (tmp_path / "i").write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 1, 28, 0))
    write_idx_pair(np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8),
                   tmp_path / "ok_i", tmp_path / "ok_l", gzipped=False)
    with pytest.raises(FormatError) as exc:
        load_idx(tmp_path / "i", tmp_path / "ok_l")
    assert str(exc.value) == f"{tmp_path / 'i'}: bad dims 28x0 at offset 8"


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
    assert ds.labels.dtype == ds.inputs.dtype == np.uint8
    assert np.array_equal(ds.inputs, np.full((1, 3072), 255, np.uint8))


def test_load_cifar_with_no_record_is_an_empty_split(tmp_path):
    empty, batch = tmp_path / "empty.bin", tmp_path / "batch.bin"
    empty.write_bytes(b"")
    write_cifar(batch, [3, 7])
    with pytest.raises(InputError, match="^empty train split$"):
        load_cifar10_bin([empty])
    assert load_cifar10_bin([empty, batch]).labels.tolist() == [3, 7]  # an empty file adds none


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


_PAYLOAD = np.random.default_rng(30).integers(0, 256, 3000).astype(np.uint8).tobytes()
_ONE = gzip.compress(_PAYLOAD, compresslevel=1, mtime=0)
# streams the one-member path does not take to a verified end
_FALLBACK_STREAMS = {"two-members": _ONE + gzip.compress(_PAYLOAD[::-1], mtime=0),
                     "trailing-bytes": _ONE + b"junk", "truncated": _truncated(_ONE),
                     "bad-block-type": _bad_block_type(_ONE), "bad-crc": _bad_crc(_ONE),
                     "forged-isize": _ONE[:-4] + (1 << 20).to_bytes(4, "little")}


@pytest.mark.parametrize("blob", _FALLBACK_STREAMS.values(), ids=_FALLBACK_STREAMS)
def test_the_fallback_reads_the_file_it_has_open(tmp_path, monkeypatch, blob):
    """A stream the one-member path refuses decodes as gzip.decompress does, or
    fails with its FormatError, from the one open of the file."""
    path = tmp_path / "f.gz"
    path.write_bytes(blob)
    opened, real_open = [], open

    def refuse(*args):
        raise AssertionError("read the file again")

    def recording(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    monkeypatch.setattr(data, "open", recording, raising=False)
    try:
        want = gzip.decompress(blob)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        with pytest.raises(FormatError, match=re.escape(f"{path}: corrupt gzip stream: {exc}")):
            data._read_maybe_gzip(path)
    else:
        assert data._read_maybe_gzip(path) == want
    assert opened.count(path) == 1


# --- cache of inflated files ------------------------------------------------------------

def _gz_file(path, seed=29, size=5000):
    """A one-member gzip file of random bytes at `path`; returns its decoded bytes."""
    payload = np.random.default_rng(seed).integers(0, 256, size).astype(np.uint8).tobytes()
    path.write_bytes(gzip.compress(payload, compresslevel=1, mtime=0))
    return payload


def _entry(cache, path):
    """The cache entry of a gzip file, named from its length and trailer."""
    blob = path.read_bytes()
    crc, size = struct.unpack("<II", blob[-8:])
    return cache / "ressmooth" / f"{len(blob)}-{crc:08x}-{size}"


def _entry_size(path):
    """An entry's bytes: a copy of the gzip file, then its 5000-byte payload."""
    return path.stat().st_size + 5000


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


def _flip(at):
    return lambda e, n: e[:at(n)] + bytes([e[at(n)] ^ 4]) + e[at(n) + 1:]


# the entry is the file's n bytes, then the payload: a wrong size, a copy that
# differs from the file and a payload off its CRC-32 are each a miss
@pytest.mark.parametrize("damage", [lambda e, n: e[:-1], lambda e, n: e + b"\0",
                                    _flip(lambda n: 7), _flip(lambda n: n // 2),
                                    _flip(lambda n: n + 2500)],
                         ids=["truncated", "extended", "bit-flipped", "copy-flipped",
                              "payload-flipped"])
def test_a_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, cache, damage):
    payload = _gz_file(tmp_path / "f.gz")
    blob = (tmp_path / "f.gz").read_bytes()
    data._read_maybe_gzip(tmp_path / "f.gz")
    entry = _entry(cache, tmp_path / "f.gz")
    entry.write_bytes(damage(entry.read_bytes(), len(blob)))
    assert bytes(data._read_maybe_gzip(tmp_path / "f.gz")) == payload
    assert entry.read_bytes() == blob + payload
    assert list(entry.parent.iterdir()) == [entry]  # no temp file left


def test_files_with_one_trailer_and_length_each_load_their_own_bytes(tmp_path, cache):
    # two 16-byte payloads with one CRC-32, from a birthday search over
    # default_rng(21).bytes(16); stored at level 0, their gzip files have one
    # length and trailer, so one entry name, and only the byte comparison
    # tells them apart
    a = bytes.fromhex("e074f2d84d3128979e56aeab5a17b64d")
    b = bytes.fromhex("0db91e4df2dce07e1497e5e6c5a5dae0")
    assert a != b and zlib.crc32(a) == zlib.crc32(b)
    for name, payload in (("a.gz", a), ("b.gz", b)):
        (tmp_path / name).write_bytes(gzip.compress(payload, compresslevel=0, mtime=0))
    assert _entry(cache, tmp_path / "a.gz") == _entry(cache, tmp_path / "b.gz")
    for name, payload in (("a.gz", a), ("b.gz", b), ("a.gz", a)):
        path = tmp_path / name
        assert bytes(data._read_maybe_gzip(path)) == payload
        assert _entry(cache, path).read_bytes() == path.read_bytes() + payload


def test_a_load_hashes_nothing(tmp_path, cache, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hashed")

    monkeypatch.setattr(hashlib, "sha256", refuse)
    monkeypatch.setattr(hashlib, "new", refuse)
    payload = _gz_file(tmp_path / "f.gz")
    for load in ("cold", "warm"):
        assert bytes(data._read_maybe_gzip(tmp_path / "f.gz")) == payload, load
    assert _entry(cache, tmp_path / "f.gz").exists()


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


def test_without_xdg_cache_home_the_entry_goes_under_the_home_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    (tmp_path / "home").mkdir()
    payload = _gz_file(tmp_path / "f.gz")
    assert bytes(data._read_maybe_gzip(tmp_path / "f.gz")) == payload
    assert _entry(tmp_path / "home" / ".cache", tmp_path / "f.gz").stat().st_size == \
        _entry_size(tmp_path / "f.gz")
    _no_inflate(monkeypatch)
    assert bytes(data._read_maybe_gzip(tmp_path / "f.gz")) == payload


def test_a_decoded_size_it_cannot_allocate_goes_to_gzip_decompress(tmp_path, cache,
                                                                    monkeypatch):
    payload = _gz_file(tmp_path / "f.gz")
    empty, decompress, sizes = np.empty, gzip.decompress, []

    def no_room_for_the_trailer_size(shape, *args, **kwargs):
        if shape == len(payload):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    def recording(blob):
        sizes.append(len(blob))
        return decompress(blob)
    monkeypatch.setattr(data.np, "empty", no_room_for_the_trailer_size)
    monkeypatch.setattr(data.gzip, "decompress", recording)
    assert data._read_maybe_gzip(tmp_path / "f.gz") == payload
    assert sizes == [(tmp_path / "f.gz").stat().st_size]
    assert not cache.exists()


def test_a_cifar_batch_loads_identically_through_a_warm_entry(tmp_path, cache, monkeypatch):
    write_cifar(tmp_path / "c.bin", [3, 7, 0], pixel_value=200)
    (tmp_path / "c.bin.gz").write_bytes(gzip.compress((tmp_path / "c.bin").read_bytes()))
    raw = load_cifar10_bin([tmp_path / "c.bin"])
    cold = load_cifar10_bin([tmp_path / "c.bin.gz"])
    _no_inflate(monkeypatch)
    warm = load_cifar10_bin([tmp_path / "c.bin.gz"])
    for ds in (cold, warm):
        assert np.array_equal(ds.inputs, raw.inputs) and np.array_equal(ds.labels, raw.labels)


def _stored(cache, *paths, mtimes=()):
    """Load each gzip file through the cache, then date its entry's mtime to the
    matching `mtimes` second, if any; returns the entries."""
    entries = []
    for k, path in enumerate(paths):
        data._read_maybe_gzip(path)
        entries.append(_entry(cache, path))
        if k < len(mtimes):
            os.utime(entries[-1], ns=(mtimes[k] * 10**9, mtimes[k] * 10**9))
    return entries


def test_a_store_past_the_cap_deletes_the_least_recently_used(tmp_path, cache, monkeypatch):
    paths = [tmp_path / f"{k}.gz" for k in range(4)]
    for k, path in enumerate(paths):
        _gz_file(path, seed=k)
    monkeypatch.setattr(data, "_CACHE_BYTES", 2 * _entry_size(paths[0]))  # two entries
    first, second = _stored(cache, *paths[:2], mtimes=(2, 1))
    third, = _stored(cache, paths[2])
    assert sorted((cache / "ressmooth").iterdir()) == sorted([first, third])
    fourth, = _stored(cache, paths[3])
    assert sorted((cache / "ressmooth").iterdir()) == sorted([third, fourth])


def test_the_entry_just_stored_stays_past_the_cap(tmp_path, cache, monkeypatch):
    monkeypatch.setattr(data, "_CACHE_BYTES", 1000)  # less than one payload
    for k in range(2):
        _gz_file(tmp_path / f"{k}.gz", seed=k)
        entry, = _stored(cache, tmp_path / f"{k}.gz")
        assert list((cache / "ressmooth").iterdir()) == [entry]


def test_a_hit_writes_nothing(tmp_path, cache, monkeypatch):
    payload = _gz_file(tmp_path / "f.gz")
    entry, = _stored(cache, tmp_path / "f.gz", mtimes=(1,))
    before = entry.read_bytes(), entry.stat().st_mtime_ns

    def refuse(*args, **kwargs):
        raise AssertionError("utime")

    monkeypatch.setattr(data.os, "utime", refuse)
    _no_inflate(monkeypatch)
    for _ in range(3):
        assert bytes(data._read_maybe_gzip(tmp_path / "f.gz")) == payload
    assert (entry.read_bytes(), entry.stat().st_mtime_ns) == before
    assert list(entry.parent.iterdir()) == [entry]


def test_a_store_past_the_cap_deletes_the_oldest_stored_even_right_after_its_hit(
        tmp_path, cache, monkeypatch):
    paths = [tmp_path / f"{k}.gz" for k in range(3)]
    for k, path in enumerate(paths):
        _gz_file(path, seed=k)
    monkeypatch.setattr(data, "_CACHE_BYTES", 2 * _entry_size(paths[0]))
    first, second = _stored(cache, *paths[:2], mtimes=(1, 2))
    with monkeypatch.context() as hit_only:
        _no_inflate(hit_only)
        _stored(cache, paths[0])  # a hit: its mtime stays its store time
    third, = _stored(cache, paths[2])
    assert sorted((cache / "ressmooth").iterdir()) == sorted([second, third])


def test_only_entry_names_are_pruned(tmp_path, cache, monkeypatch):
    # a concurrent writer's mkstemp file, names that are no entry's and an
    # entry named by the sha256 of its file, as entries of earlier versions
    # were, neither count nor go, however old and large
    folder = cache / "ressmooth"
    folder.mkdir(parents=True)
    others = [folder / "tmpa1b2c3d4", folder / ("g" * 64), folder / ("A" * 64),
              folder / "5023-ABCDEF01-5000", folder / ("0f" * 32)]
    for other in others:
        other.write_bytes(bytes(20000))
        os.utime(other, ns=(0, 0))
    _gz_file(tmp_path / "0.gz", seed=0)
    _gz_file(tmp_path / "1.gz", seed=1)
    # the two entries fill the cap, so any other name that counted would put it past
    monkeypatch.setattr(data, "_CACHE_BYTES", 2 * _entry_size(tmp_path / "0.gz"))
    first, = _stored(cache, tmp_path / "0.gz", mtimes=(1,))
    second, = _stored(cache, tmp_path / "1.gz")
    assert sorted(folder.iterdir()) == sorted([first, second, *others])


@pytest.mark.parametrize("call", ["unlink", "scandir"])
def test_a_cache_it_cannot_prune_or_touch_leaves_the_load_as_it_was(tmp_path, cache,
                                                                    monkeypatch, call):
    # an unwritable cache directory: deleting an entry or listing the
    # directory fails with the error a read-only directory gives
    monkeypatch.setattr(data, "_CACHE_BYTES", 5000)
    payloads = [_gz_file(tmp_path / f"{k}.gz", seed=k) for k in range(2)]
    _stored(cache, tmp_path / "0.gz", mtimes=(1,))

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(data.os, call, refuse)
    for k, payload in enumerate(payloads):
        assert bytes(data._read_maybe_gzip(tmp_path / f"{k}.gz")) == payload
    # the second file is stored, and the first, older one is kept
    assert sorted((cache / "ressmooth").iterdir()) == sorted(
        _entry(cache, tmp_path / f"{k}.gz") for k in range(2))


@pytest.mark.parametrize("name", ["c.bin", "c.bin.gz"])
def test_a_one_file_cifar_load_does_not_copy_its_records(tmp_path, name):
    rng = np.random.default_rng(31)
    records = rng.integers(0, 256, (5460, 3073), dtype=np.uint8)  # 16 MiB
    records[:, 0] %= 10
    blob = records.tobytes()
    (tmp_path / name).write_bytes(gzip.compress(blob, compresslevel=1) if name.endswith(".gz")
                                  else blob)
    tracemalloc.start()
    try:
        ds = load_cifar10_bin([tmp_path / name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * records.nbytes
    assert not ds.inputs.flags.writeable
    assert np.array_equal(ds.inputs, records[:, 1:])
    assert np.array_equal(ds.labels, records[:, 0].astype(np.int64))


def test_a_one_member_gzip_load_peaks_near_its_decoded_size(tmp_path, cache):
    """Cold (inflate, store) and warm (compare the entry's copy with the file, read
    the decoded part, check its CRC-32): beyond the decoded buffer, only a few
    pieces of the file are held at once."""
    payload = _gz_file(tmp_path / "f.gz", size=5 << 20)
    for load in ("cold", "warm"):
        tracemalloc.start()
        try:
            decoded = data._read_maybe_gzip(tmp_path / "f.gz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bytes(decoded) == payload
        assert peak < len(payload) + (5 << 18), (load, peak - len(payload))
        del decoded
    assert _entry(cache, tmp_path / "f.gz").exists()


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


def test_batches_are_slices_of_the_generators_permutation():
    ds = small_dataset(n=50)
    rng, twin = np.random.default_rng(6), np.random.default_rng(6)
    perm = twin.permutation(50)
    assert not np.array_equal(perm, np.arange(50))
    got = list(batches(ds, 16, rng))
    assert [b.tolist() for b in got] == [perm[s:s + 16].tolist() for s in range(0, 50, 16)]
    assert rng.random() == twin.random()  # the epoch drew its permutation and nothing more


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


def test_dataset_validation():
    # the step path takes [n, N] rows as given, so a split of any other shape is refused here
    for shape in ((3, 2), (4,), (4, 2, 2), (4, 0)):
        with pytest.raises(ShapeError, match=r"not \[4, N\] with N >= 1$"):
            Dataset(np.zeros(shape), np.zeros(4, np.int64), 10)
    for shape in ((0, 2), (0, 0)):  # no rows: nothing to train on or evaluate
        with pytest.raises(InputError, match="^empty test split$"):
            Dataset(np.zeros(shape), np.zeros(0, np.int64), 10, "test")
    with pytest.raises(InputError):
        Dataset(np.zeros((2, 2)), np.array([0, 10]), 10)
    with pytest.raises(InputError, match="label out of range"):
        Dataset(np.zeros((2, 2)), np.array([-1, 0]), 2)
    # the first product widens float16/32 features to float64 exactly, but it would carry
    # extended precision through the whole step
    wide = [np.longdouble] if np.dtype(np.longdouble).itemsize > 8 else []
    for dtype in (np.int8, np.uint16, np.int64, np.bool_, np.complex128, *wide):
        with pytest.raises(InputError, match="neither uint8 pixel codes nor float features"):
            Dataset(np.zeros((2, 2), dtype), np.zeros(2, np.int64), 10)
    for dtype in ("u1", "f2", "f4", "<f8", ">f8"):
        assert Dataset(np.zeros((2, 2), dtype), np.zeros(2, np.int64), 10).feature_count == 2
    for dtype in (np.uint8, np.int32, np.int64):
        assert Dataset(np.zeros((2, 2)), np.array([0, 1], dtype), 2).n == 2


@pytest.mark.parametrize("labels, class_count, split, message", [
    (np.array([0, 5, 1]), 2, "train", r"row 1 of the train split holds 5, not in \[0, 2\)"),
    (np.array([-1, 0, 1]), 2, "test", r"row 0 of the test split holds -1, not in \[0, 2\)"),
    (np.array([0, 1, 9, 12], np.uint8), np.int64(3), "test",
     r"row 2 of the test split holds 9, not in \[0, 3\)"),
], ids=["above", "negative", "first-of-two"])
def test_a_label_out_of_range_is_named_with_its_split_row_and_range(labels, class_count,
                                                                    split, message):
    with pytest.raises(InputError, match=f"^label out of range: {message}$"):
        Dataset(np.zeros((len(labels), 2)), labels, class_count, split)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(0, 3), feature_count=st.integers(0, 3),
       input_dtype=st.sampled_from(["u1", "f2", "f4", "<f8", ">f8", "i1", "u2", "i8", "?", "c16"]),
       poison=st.sampled_from([None, np.nan, -np.inf]),
       label_dtype=st.sampled_from(["u1", "i2", "<i8", ">i8", "u8", "f8", "?"]),
       class_count=st.integers(-1, 4), data=st.data())
def test_a_dataset_is_built_exactly_when_its_whole_rule_holds(
        n, feature_count, input_dtype, poison, label_dtype, class_count, data):
    inputs = np.zeros((n, feature_count), input_dtype)
    poisoned = poison is not None and inputs.dtype.kind == "f" and inputs.size > 0
    if poisoned:
        inputs.flat[data.draw(st.integers(0, inputs.size - 1))] = poison
    shape = data.draw(st.sampled_from([(n,), (n, 1), (n + 1,), ()]))
    values = data.draw(st.lists(st.integers(-1, 4), min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape))))
    labels = np.array(values, np.int64).astype(label_dtype).reshape(shape)  # -1 wraps if unsigned
    usable = (n >= 1 and feature_count >= 1 and shape == (n,) and labels.dtype.kind in "iu"
              and class_count >= 2 and 0 <= labels.min() and labels.max() < class_count
              and input_dtype in ("u1", "f2", "f4", "<f8", ">f8") and not poisoned)
    try:
        Dataset(inputs, labels, class_count)
    except (InputError, ShapeError):
        assert not usable
    else:
        assert usable


@pytest.mark.parametrize("labels, class_count", [
    (np.zeros((4, 1), np.int64), 10),
    (np.zeros(4), 10),
    (np.zeros(4, np.bool_), 10),
    (np.zeros(4, np.int64), 1),  # a residual of one element has nothing to smooth across
    (np.zeros(4, np.int64), 2.5),  # a count of classes is an integer
    (np.zeros(4, np.int64), "2"),
], ids=["column", "float", "bool", "one-class", "fractional-count", "string-count"])
def test_dataset_refuses_labels_that_are_not_integers_of_two_or_more_classes(labels,
                                                                           class_count):
    with pytest.raises(InputError, match=r"^test split holds \w+ labels of shape \(4,( 1)?\) "
                                         rf"for {class_count} classes, not \[n\] integer"):
        Dataset(np.zeros((4, 2)), labels, class_count, "test")


def test_a_dataset_is_frozen_so_no_field_gets_past_its_check():
    d = Dataset(np.zeros((8, 3)), np.zeros(8, np.uint8), 2)
    for field in dataclasses.fields(d):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, field.name, getattr(d, field.name))
    with pytest.raises(ShapeError, match=r"^inputs of shape \(8, 0\), not \[8, N\] with N >= 1$"):
        dataclasses.replace(d, inputs=np.zeros((8, 0)))
    assert d.inputs.shape == (8, 3)


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
