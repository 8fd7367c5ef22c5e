"""Every file the package writes goes through `data.write_whole`: whole or not at
all, with no temp file left behind, and a checkpoint without a copy of its weights."""

import errno
import gzip
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ressmooth
from ressmooth import data
from ressmooth.nn import build_network, load_checkpoint, save_checkpoint

SRC = Path(ressmooth.__file__).resolve().parents[1]


def test_write_whole_makes_the_folder_and_replaces_the_target(tmp_path):
    target = tmp_path / "a" / "b" / "f.bin"
    data.write_whole(target, [b"one", memoryview(b"two"), np.arange(2, dtype="<u2")])
    assert target.read_bytes() == b"onetwo\x00\x00\x01\x00"
    data.write_whole(target, [b"again"])
    assert target.read_bytes() == b"again"
    assert os.listdir(target.parent) == ["f.bin"]


@pytest.mark.parametrize("raised", [ValueError, KeyboardInterrupt])
def test_a_write_that_raises_midway_leaves_the_previous_file_and_no_temp(tmp_path, raised):
    target = tmp_path / "f.bin"
    target.write_bytes(b"previous")

    def parts():
        yield b"x" * 100_000
        raise raised

    with pytest.raises(raised):
        data.write_whole(target, parts())
    assert target.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["f.bin"]


_FSIZE_LIMIT = 4096
_PAST_THE_LIMIT = """
import hashlib, json, resource, signal, sys
import numpy as np
from ressmooth import data, harness, nn

folder, gz = sys.argv[1], sys.argv[2]
network = nn.build_network([100, 50, 10], rng=np.random.default_rng(0))  # a 44 KB checkpoint
rows = [harness.EpochMetrics(k, 0.5, 50.0, 50.0, 0.25, 0.125) for k in range(400)]  # 18 KB
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # so a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (%d, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
errors = []
for write in (lambda: nn.save_checkpoint(network, folder + "/checkpoint_trial0.rsm"),
              lambda: harness.write_metrics_csv(rows, folder + "/metrics_trial0.csv")):
    try:
        write()
        errors.append(None)
    except OSError as exc:
        errors.append(exc.errno)
decoded = hashlib.sha256(data._read_maybe_gzip(gz)).hexdigest()  # its entry is 10 KB
print(json.dumps({"errors": errors, "decoded": decoded}))
""" % _FSIZE_LIMIT


@pytest.mark.parametrize("previous", [True, False])
def test_a_write_past_the_file_size_limit_leaves_no_partial_file(tmp_path, previous):
    out, xdg = tmp_path / "out", tmp_path / "xdg"
    out.mkdir()
    before = {"checkpoint_trial0.rsm": b"previous checkpoint", "metrics_trial0.csv": b"a,b\n"}
    if previous:
        for name, blob in before.items():
            (out / name).write_bytes(blob)
    payload = np.random.default_rng(7).integers(0, 256, 5000, np.uint8).tobytes()
    (tmp_path / "f.gz").write_bytes(gzip.compress(payload, compresslevel=1, mtime=0))
    proc = subprocess.run([sys.executable, "-c", _PAST_THE_LIMIT, str(out), str(tmp_path / "f.gz")],
                          env={**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(xdg)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"errors": [errno.EFBIG, errno.EFBIG],
                      "decoded": hashlib.sha256(payload).hexdigest()}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == (before if previous else {})
    assert list((xdg / "ressmooth").iterdir()) == []  # no entry, no temp file


@pytest.mark.skipif(sys.byteorder != "little", reason="a big-endian host converts to '<f8'")
def test_a_checkpoint_is_written_from_the_parameters_and_read_back_as_views(tmp_path):
    network = build_network([784, 256, 10], rng=np.random.default_rng(11))
    path = tmp_path / "net.rsm"
    peaks = []
    for step in (lambda: save_checkpoint(network, path), lambda: load_checkpoint(path)):
        tracemalloc.start()
        try:
            pairs = step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size == 4 + 4 + 2 * 8 + 8 * network.params.size
    assert peaks[0] < 64 << 10, peaks  # the weights alone are 1.6 MB
    assert peaks[1] < 1.25 * size, (peaks, size)
    for (w, b), w_net, b_net in zip(pairs, network.weights, network.biases):
        assert np.array_equal(w, w_net) and np.array_equal(b, b_net)
        for a in (w, b):
            assert not a.flags.owndata and not a.flags.writeable and a.dtype == "<f8"
