"""Reader fuzzing: damaged IDX pairs, CIFAR-10 records and checkpoints.

Each test builds a valid file, then truncates it, flips one bit, appends
junk, rewrites one header word, or leaves it intact, and reads it back. The
reader must either return a result that re-encodes to exactly the bytes it
read (so nothing was skipped, padded or ignored), or raise FormatError; any
other exception fails the test. An intact file must load.
"""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ressmooth.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, load_cifar10_bin, load_idx
from ressmooth.errors import FormatError
from ressmooth.nn import CHECKPOINT_MAGIC, build_network, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _damage(draw, blob, words=0, word_format=">I"):
    """`blob` truncated, with one bit flipped, with junk appended, with one of
    its first `words` 4-byte header words rewritten, or unchanged."""
    kind = draw(st.sampled_from(["intact", "truncate", "flip", "append", "word"]))
    if kind == "truncate" and blob:
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip" and blob:
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ (1 << draw(st.integers(0, 7)))]) + blob[at + 1:]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=40))
    if kind == "word" and words:
        at = 4 * draw(st.integers(0, words - 1))
        return blob[:at] + struct.pack(word_format, draw(st.integers(0, 2**32 - 1))) + blob[at + 4:]
    return blob


def _write(path, blob, gzipped):
    path.write_bytes(gzip.compress(blob, mtime=0) if gzipped else blob)
    return path


@st.composite
def _idx_pairs(draw):
    """(images file, labels file, whether both are intact): a valid pair of a
    few small images with one of its files damaged."""
    count, rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = (struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols)
              + rng.integers(0, 256, count * rows * cols, dtype=np.uint8).tobytes())
    labels = (struct.pack(">II", IDX_LABEL_MAGIC, count)
              + rng.integers(0, 10, count, dtype=np.uint8).tobytes())
    if draw(st.booleans()):
        damaged = _damage(draw, images, words=4), labels
    else:
        damaged = images, _damage(draw, labels, words=2)
    return (*damaged, damaged == (images, labels))


@FUZZ
@given(pair=_idx_pairs(), gzipped=st.booleans())
@example(pair=(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 28, 28),  # zero count: a (0, 784) split
               struct.pack(">II", IDX_LABEL_MAGIC, 0), True), gzipped=False)
@example(pair=(struct.pack(">IIII", IDX_IMAGE_MAGIC, 1, 2, 2) + bytes(4),
               struct.pack(">II", IDX_LABEL_MAGIC, 1) + bytes(2), False),  # one extra label byte
         gzipped=False)
def test_idx_pair_round_trips_or_is_a_format_error(fuzz_dir, pair, gzipped):
    images, labels, intact = pair
    try:
        ds = load_idx(_write(fuzz_dir / "i", images, gzipped), _write(fuzz_dir / "l", labels, gzipped))
    except FormatError:
        assert not intact
        return
    _, count, rows, cols = struct.unpack_from(">IIII", images)
    assert ds.inputs.shape == (count, rows * cols)
    assert images == struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols) + ds.inputs.tobytes()
    assert labels == struct.pack(">II", IDX_LABEL_MAGIC, count) + ds.labels.astype(np.uint8).tobytes()


@FUZZ
@given(data=st.data(), sizes=st.lists(st.integers(0, 3), min_size=1, max_size=2),
       gzipped=st.booleans())
def test_cifar_records_round_trip_or_are_a_format_error(fuzz_dir, data, sizes, gzipped):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    files = [np.concatenate([rng.integers(0, 10, (n, 1)), rng.integers(0, 256, (n, 3072))],
                            axis=1).astype(np.uint8).tobytes() for n in sizes]
    hit = data.draw(st.integers(0, len(files) - 1))
    damaged = [_damage(data.draw, blob) if k == hit else blob for k, blob in enumerate(files)]
    paths = [_write(fuzz_dir / f"c{k}.bin", blob, gzipped) for k, blob in enumerate(damaged)]
    try:
        ds = load_cifar10_bin(paths)
    except FormatError:
        assert damaged != files
        return
    records = np.concatenate([ds.labels[:, None].astype(np.uint8), ds.inputs], axis=1)
    assert records.tobytes() == b"".join(damaged)


def _checkpoint_bytes(pairs):
    """The checkpoint layout of (weights, bias) pairs, written out by hand."""
    blob = CHECKPOINT_MAGIC + struct.pack("<I", len(pairs))
    for w, b in pairs:
        blob += struct.pack("<II", *w.shape) + w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    return blob


@FUZZ
@given(data=st.data(), dims=st.lists(st.integers(1, 5), min_size=2, max_size=4))
def test_checkpoint_round_trips_or_is_a_format_error(fuzz_dir, data, dims):
    net = build_network(dims, rng=np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    path = fuzz_dir / "net.rsm"
    save_checkpoint(net, path)
    blob = path.read_bytes()
    # the header words: magic, layer count, the first layer's out_dim and in_dim
    damaged = _damage(data.draw, blob, words=4, word_format="<I")
    path.write_bytes(damaged)
    try:
        pairs = load_checkpoint(path)
    except FormatError:
        assert damaged != blob
        return
    assert _checkpoint_bytes(pairs) == damaged
