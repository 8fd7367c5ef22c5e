import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_idx_pair
import ressmooth
from ressmooth import data, nn
from ressmooth.cli import main


@pytest.fixture
def tiny_corpus(tmp_path):
    """A 60-image IDX dataset small enough for ~instant CLI runs."""
    rng = np.random.default_rng(31)
    labels = (np.arange(60) % 10).astype(np.uint8)
    images = np.zeros((60, 8, 8), np.uint8)
    for i, label in enumerate(labels):
        images[i, label % 8, :] = 255  # one bright row per class
        images[i] += rng.integers(0, 30, size=(8, 8)).astype(np.uint8)
    write_idx_pair(images, labels, tmp_path / "ti.gz", tmp_path / "tl.gz")
    write_idx_pair(images[:30], labels[:30], tmp_path / "vi.gz", tmp_path / "vl.gz")
    config = tmp_path / "exp.ini"
    config.write_text(f"""
[dataset]
kind = fashion_mnist
train_images = {tmp_path / 'ti.gz'}
train_labels = {tmp_path / 'tl.gz'}
test_images = {tmp_path / 'vi.gz'}
test_labels = {tmp_path / 'vl.gz'}

[model]
hidden = 8

[optimizer]
kind = sgd
momentum = 0.9

[regularizer]
mode = global_local
schedule = laplace
b = 0.5
alpha = 1.0

[run]
epochs = 2
batch_size = 16
trials = 2
""")
    return config


def test_train_writes_outputs(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", str(tiny_corpus), "--out-dir", str(out)]) == 0
    assert (out / "metrics_trial0.csv").exists()
    assert (out / "metrics_trial1.csv").exists()
    assert (out / "checkpoint_trial0.rsm").exists()
    assert (out / "aggregate.csv").exists()
    printed = capsys.readouterr().out
    assert "mean max val acc" in printed


def test_train_repeat_is_byte_identical(tiny_corpus, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(tiny_corpus), "--out-dir", str(out_a)]) == 0
    assert main(["train", "--config", str(tiny_corpus), "--out-dir", str(out_b)]) == 0
    for name in ("metrics_trial0.csv", "metrics_trial1.csv", "aggregate.csv",
                 "checkpoint_trial0.rsm", "checkpoint_trial1.rsm"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_a_train_under_a_umask_writes_every_file_in_its_mode_and_no_temp(tiny_corpus,
                                                                         tmp_path):
    # a new out-dir, made at the first write; the cache entries of the four gzip files
    out, xdg = tmp_path / "new" / "out", tmp_path / "xdg"
    proc = subprocess.run(
        [sys.executable, "-c", "import os, sys; os.umask(0o027); from ressmooth.cli import main; "
         f"sys.exit(main(['train', '--config', {str(tiny_corpus)!r}, '--out-dir', {str(out)!r}]))"],
        env={**os.environ, "PYTHONPATH": str(Path(ressmooth.__file__).resolve().parents[1]),
             "XDG_CACHE_HOME": str(xdg)}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = sorted(out.iterdir()) + sorted((xdg / "ressmooth").iterdir())
    assert [p.name for p in written[:5]] == [
        "aggregate.csv", "checkpoint_trial0.rsm", "checkpoint_trial1.rsm",
        "metrics_trial0.csv", "metrics_trial1.csv"]
    assert len(written) == 9 and not [p for p in written if p.name.endswith(".tmp")]
    assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in written} == {
        p.name: oct(0o640) for p in written}


def test_seed_override_changes_outputs(tiny_corpus, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", str(tiny_corpus), "--out-dir", str(out_a)])
    main(["train", "--config", str(tiny_corpus), "--out-dir", str(out_b), "--seed", "99"])
    assert (out_a / "checkpoint_trial0.rsm").read_bytes() != \
        (out_b / "checkpoint_trial0.rsm").read_bytes()


def test_eval_subcommand(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    main(["train", "--config", str(tiny_corpus), "--out-dir", str(out)])
    code = main(["eval", "--config", str(tiny_corpus),
                 "--checkpoint", str(out / "checkpoint_trial0.rsm")])
    assert code == 0
    assert "val acc:" in capsys.readouterr().out


def test_eval_reads_only_the_test_split(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    main(["train", "--config", str(tiny_corpus), "--out-dir", str(out), "--trials", "1"])
    argv = ["eval", "--config", str(tiny_corpus),
            "--checkpoint", str(out / "checkpoint_trial0.rsm")]
    capsys.readouterr()
    assert main(argv) == 0
    before = capsys.readouterr().out
    (tmp_path / "ti.gz").unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out == before
    last_val_acc = (out / "metrics_trial0.csv").read_text().splitlines()[-1].split(",")[3]
    assert f"val acc: {last_val_acc}" in before


def test_eval_of_a_mismatched_checkpoint_exits_nonzero(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    main(["train", "--config", str(tiny_corpus), "--out-dir", str(out), "--trials", "1"])
    tiny_corpus.write_text(tiny_corpus.read_text().replace("hidden = 8", "hidden = 5"))
    code = main(["eval", "--config", str(tiny_corpus),
                 "--checkpoint", str(out / "checkpoint_trial0.rsm")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_takes_only_config_and_checkpoint(tiny_corpus, tmp_path):
    for flag in (["--out-dir", str(tmp_path)], ["--seed", "1"], ["--trials", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", str(tiny_corpus), "--checkpoint", "x.rsm", *flag])
        assert exc.value.code == 2  # argparse's usage error


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("width", [10**17, 10**12], ids=["past_addressing", "past_memory"])
def test_a_network_too_large_to_allocate_exits_nonzero(tiny_corpus, tmp_path, capsys,
                                                       command, width):
    # neither can be allocated, not even lazily: 10**17 * 75 float64 entries
    # pass numpy's largest array size, 10**12 * 75 of them any address space
    tiny_corpus.write_text(tiny_corpus.read_text().replace("hidden = 8", f"hidden = {width}"))
    flags = {"train": ["--out-dir", str(tmp_path / "out")],
             "eval": ["--checkpoint", str(tmp_path / "x.rsm")]}[command]
    before = sorted(tmp_path.iterdir())
    assert main([command, "--config", str(tiny_corpus), *flags]) == 2
    dims, count = [64, width, 10], 64 * width + width * 10 + width + 10
    assert capsys.readouterr().err == (f"error: dims {dims} need {count} parameters, "
                                       "more than can be allocated\n")
    assert sorted(tmp_path.iterdir()) == before


def test_negative_seed_exits_nonzero(tiny_corpus, tmp_path, capsys):
    code = main(["train", "--config", str(tiny_corpus), "--out-dir", str(tmp_path / "out"),
                 "--seed", "-1"])
    assert code == 2
    assert "error: base_seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_subcommand(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out),
                 "--trials", "1", "--b-grid", "0.3,0.5", "--alpha-grid", "1"])
    assert code == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "b,alpha,trial,max_val_acc,tail_mean_val_acc"
    assert len(lines) == 3  # two grid points, one trial each
    assert "best b=" in capsys.readouterr().out


def test_grid_in_mode_local_writes_b_0(tiny_corpus, tmp_path, capsys):
    tiny_corpus.write_text(tiny_corpus.read_text().replace("mode = global_local", "mode = local"))
    out = tmp_path / "out"
    code = main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out),
                 "--trials", "1", "--b-grid", "0.5", "--alpha-grid", "1,2"])
    assert code == 0
    rows = [line.split(",") for line in (out / "grid.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["0.000000", "1.000000"], ["0.000000", "2.000000"]]
    assert re.search(r"^best b=0 alpha=[12] mean max val acc: ", capsys.readouterr().out,
                     flags=re.M)


# (mode, schedule) edits of tiny_corpus for each kind of config that reads an axis,
# and the (b, alpha) its rows carry: 0 for a setting the config does not read
_READS_AN_AXIS = {
    "global-laplace": ([("mode = global_local", "mode = global")], "0.5", "0"),
    "global_local-laplace": ([], "0.5", "1"),
    "global_local-logistic": ([("schedule = laplace", "schedule = logistic")], "0.5", "1"),
    "local-laplace": ([("mode = global_local", "mode = local")], "0", "1"),
    "local-off": ([("mode = global_local", "mode = local"),
                   ("schedule = laplace", "schedule = off")], "0", "1"),
}


@pytest.mark.parametrize("case", sorted(_READS_AN_AXIS))
def test_grid_without_axis_flags_runs_the_configs_own_point(tiny_corpus, tmp_path, capsys, case):
    edits, b, alpha = _READS_AN_AXIS[case]
    text = tiny_corpus.read_text()
    for old, new in edits:
        text = text.replace(old, new)
    tiny_corpus.write_text(text)
    assert main(["train", "--config", str(tiny_corpus), "--out-dir", str(tmp_path / "train")]) == 0
    mean_max = re.search(r"^mean max val acc: (.*)$", capsys.readouterr().out, flags=re.M)[1]
    assert main(["grid", "--config", str(tiny_corpus), "--out-dir", str(tmp_path / "grid")]) == 0
    assert capsys.readouterr().out == (
        f"grid points: 1\nbest b={b} alpha={alpha} mean max val acc: {mean_max}\n")
    assert ((tmp_path / "grid" / "grid.csv").read_bytes()
            == (tmp_path / "train" / "aggregate.csv").read_bytes())


@pytest.mark.parametrize("mode, flag, values, label", [
    ("global", "--b-grid", "0.3,0.5", [["0.300000", "0.000000"], ["0.500000", "0.000000"]]),
    ("local", "--alpha-grid", "1,2", [["0.000000", "1.000000"], ["0.000000", "2.000000"]]),
], ids=["global", "local"])
def test_grid_over_the_one_axis_a_mode_reads(tiny_corpus, tmp_path, mode, flag, values, label):
    # the other axis is the config's own value, which this mode does not read
    tiny_corpus.write_text(tiny_corpus.read_text().replace("mode = global_local", f"mode = {mode}"))
    out = tmp_path / "out"
    code = main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out),
                 "--trials", "1", flag, values])
    assert code == 0
    rows = [line.split(",") for line in (out / "grid.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == label


def test_grid_without_axis_flags_in_mode_off_exits_nonzero(tiny_corpus, tmp_path, capsys):
    tiny_corpus.write_text(tiny_corpus.read_text().replace("mode = global_local", "mode = off"))
    out = tmp_path / "out"
    assert main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: smoothing mode off (schedule laplace, local_scale 1) reads neither b nor alpha: "
        "every grid point would train the same network\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grid"])
def test_a_test_split_that_does_not_fit_the_network_exits_before_training(
        tiny_corpus, tmp_path, capsys, monkeypatch, command):
    images = np.zeros((30, 6, 6), np.uint8)  # 36 features next to the train split's 64
    write_idx_pair(images, np.arange(30) % 10, tmp_path / "vi.gz", tmp_path / "vl.gz")

    def forward_batch(*args):
        raise AssertionError("trained before the splits were checked")

    monkeypatch.setattr(nn, "forward_batch", forward_batch)
    out = tmp_path / "out"
    assert main([command, "--config", str(tiny_corpus), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: test split (features, classes) (36, 10) != train split (64, 10)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grid"])
def test_an_empty_test_split_exits_before_training(
        tiny_corpus, tmp_path, capsys, monkeypatch, command):
    write_idx_pair(np.zeros((0, 8, 8)), np.zeros(0), tmp_path / "vi.gz", tmp_path / "vl.gz")

    def forward_batch(*args):
        raise AssertionError("trained before the splits were checked")

    monkeypatch.setattr(nn, "forward_batch", forward_batch)
    out = tmp_path / "out"
    assert main([command, "--config", str(tiny_corpus), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: empty test split\n"
    assert not out.exists()


@pytest.mark.parametrize("command, split", [("train", "train"), ("grid", "train"),
                                            ("eval", "test")])
def test_an_empty_split_is_refused_at_load_before_any_network_is_built(
        tiny_corpus, tmp_path, capsys, monkeypatch, command, split):
    files = {"train": ("ti.gz", "tl.gz"), "test": ("vi.gz", "vl.gz")}[split]
    write_idx_pair(np.zeros((0, 8, 8)), np.zeros(0), *(tmp_path / name for name in files))

    def build_network(*args, **kwargs):
        raise AssertionError("built a network before the splits were checked")

    monkeypatch.setattr(nn, "build_network", build_network)
    out = tmp_path / "out"
    flags = ["--out-dir", str(out)] if command != "eval" else ["--checkpoint", "x.rsm"]
    assert main([command, "--config", str(tiny_corpus), *flags]) == 2
    assert capsys.readouterr().err == f"error: empty {split} split\n"
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["the-file", "below-the-file"])
@pytest.mark.parametrize("command", ["train", "grid"])
def test_an_out_dir_at_or_below_a_file_exits_before_the_corpus_is_read(
        tiny_corpus, tmp_path, capsys, monkeypatch, command, below):
    def refuse(*args):
        raise AssertionError("read or trained before --out-dir was checked")

    monkeypatch.setattr(data, "load_idx", refuse)
    monkeypatch.setattr(nn, "forward_batch", refuse)
    file = tmp_path / "taken"
    file.write_bytes(b"not a directory")
    out = file / below  # "" leaves the path as it is
    assert main([command, "--config", str(tiny_corpus), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out-dir {out}: {file} is not a directory\n"
    assert file.read_bytes() == b"not a directory"


def test_a_config_that_is_not_utf8_exits_with_one_line(tiny_corpus, capsys):
    blob = tiny_corpus.read_bytes()
    at = blob.index(b"[model]")
    tiny_corpus.write_bytes(blob[:at] + b"\xff" + blob[at:])
    assert main(["train", "--config", str(tiny_corpus)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read config {tiny_corpus}: 'utf-8' codec can't decode byte 0xff "
        f"in position {at}: invalid start byte\n")


def test_bad_config_exits_nonzero(tiny_corpus, capsys):
    good = tiny_corpus.read_text()
    for old, new, message in [
            ("mode = global_local", "mode = nonsense", "unknown smoothing mode 'nonsense'"),
            ("schedule = laplace", "schedule = constant", "unknown schedule kind 'constant'"),
            ("b = 0.5", "b = 0.5\nconst_s = 0.6", "unknown key 'const_s' in [regularizer]")]:
        tiny_corpus.write_text(good.replace(old, new))
        assert main(["train", "--config", str(tiny_corpus)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_config_exits_nonzero(capsys):
    assert main(["train", "--config", "/no/such/file.ini"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_dataset_file_exits_nonzero(tiny_corpus, tmp_path, capsys):
    broken = tiny_corpus.read_text().replace("ti.gz", "missing.gz")
    tiny_corpus.write_text(broken)
    assert main(["train", "--config", str(tiny_corpus)]) == 2
    assert "error:" in capsys.readouterr().err


def test_damaged_gzip_exits_nonzero(tiny_corpus, tmp_path, capsys):
    images = tmp_path / "ti.gz"
    images.write_bytes(images.read_bytes()[:-12])  # deflate stream cut short
    assert main(["train", "--config", str(tiny_corpus), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "ti.gz" in err
    assert not (tmp_path / "out").exists()


def test_bad_grid_flag_exits_nonzero(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out),
                 "--b-grid", "a,b"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, name", [("--b-grid", "b"), ("--alpha-grid", "alpha")])
def test_empty_grid_exits_nonzero(tiny_corpus, tmp_path, capsys, flag, name):
    out = tmp_path / "out"
    assert main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out), flag, ""]) == 2
    assert capsys.readouterr().err == f"error: {name} grid must list at least one value\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--b-grid", "inf"), ("--b-grid", "0.5,-inf"),
                                         ("--alpha-grid", "1,nan")])
def test_non_finite_grid_value_exits_nonzero(tiny_corpus, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out), flag, value]) == 2
    entry = value.split(",")[-1]  # the non-finite one
    assert f"error: {flag} = {entry!r} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


_DATASET = r"\[dataset\].*?\n\n"  # the whole [dataset] section of tiny_corpus
_CIFAR = "[dataset]\nkind = cifar10\ntrain_files = {}\ntest_files = {}\n\n"


@pytest.mark.parametrize("argv, edit, name", [
    (["grid", "--b-grid", "0.1,,0.5"], None, "--b-grid"),
    (["grid", "--alpha-grid", "1,"], None, "--alpha-grid"),
    (["train"], ("hidden = 8", "hidden = 8,"), "[model] hidden"),
    (["train"], (_DATASET, _CIFAR.format("a.bin, , b.bin", "t.bin")), "[dataset] train_files"),
    (["train"], (_DATASET, _CIFAR.format("a.bin", ",t.bin")), "[dataset] test_files"),
], ids=["b_grid", "alpha_grid", "hidden", "train_files", "test_files"])
def test_a_blank_list_entry_exits_nonzero(tiny_corpus, tmp_path, capsys, argv, edit, name):
    if edit:
        tiny_corpus.write_text(re.sub(*edit, tiny_corpus.read_text(), count=1, flags=re.S))
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(tiny_corpus), "--out-dir", str(out), *argv[1:]]) == 2
    assert re.search(rf"^error: {re.escape(name)} = '.*' has a blank entry$",
                     capsys.readouterr().err, flags=re.M)
    assert not out.exists()


@pytest.mark.parametrize("b_grid, alpha_grid, name", [("0.5,0.3,0.5", "1", "b"),
                                                      ("0.5", "1,2,1.0", "alpha")])
def test_grid_with_a_repeated_value_exits_nonzero(tiny_corpus, tmp_path, capsys,
                                                  b_grid, alpha_grid, name):
    out = tmp_path / "out"
    code = main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out),
                 "--b-grid", b_grid, "--alpha-grid", alpha_grid])
    assert code == 2
    assert f"error: {name} grid" in capsys.readouterr().err
    assert not out.exists()


def test_grid_in_mode_off_exits_nonzero(tiny_corpus, tmp_path, capsys):
    tiny_corpus.write_text(tiny_corpus.read_text().replace("mode = global_local", "mode = off"))
    out = tmp_path / "out"
    code = main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out),
                 "--b-grid", "0.3,0.5", "--alpha-grid", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: smoothing mode off (schedule laplace, local_scale 1) reads neither b nor alpha: "
        "every grid point would train the same network\n")
    assert not out.exists()


def test_grid_over_an_unread_axis_exits_nonzero(tiny_corpus, tmp_path, capsys):
    # mode local never reads b, so both b points would train alike
    tiny_corpus.write_text(tiny_corpus.read_text().replace("mode = global_local", "mode = local"))
    out = tmp_path / "out"
    code = main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out),
                 "--b-grid", "0.3,0.5", "--alpha-grid", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: smoothing mode local (schedule laplace, local_scale 1) never reads b: "
        "every point of the b grid [0.3, 0.5] would train the same network\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--b-grid", "0,0.5", "schedule scale b must be > 0, got 0.0"),
    ("--alpha-grid", "-1,1", "alpha must be >= 0, got -1.0")])
def test_a_grid_value_the_config_refuses_exits_before_the_corpus_is_read(
        tiny_corpus, tmp_path, capsys, flag, value, message):
    for name in ("ti.gz", "tl.gz", "vi.gz", "vl.gz"):
        (tmp_path / name).unlink()
    out = tmp_path / "out"
    assert main(["grid", "--config", str(tiny_corpus), "--out-dir", str(out),
                 f"{flag}={value}"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cifar_kind_with_augmentation(tmp_path, capsys):
    rng = np.random.default_rng(33)
    records = b""
    for i in range(40):
        label = i % 10
        pixels = rng.integers(0, 256, size=3072).astype(np.uint8)
        pixels[label * 100:(label + 1) * 100] = 255  # class-dependent stripe
        records += bytes([label]) + pixels.tobytes()
    (tmp_path / "train.bin").write_bytes(records)
    (tmp_path / "test.bin").write_bytes(records[:10 * 3073])
    config = tmp_path / "cifar.ini"
    config.write_text(f"""
[dataset]
kind = cifar10
train_files = {tmp_path / 'train.bin'}
test_files = {tmp_path / 'test.bin'}
augment = true

[model]
hidden = 8

[optimizer]
kind = sgd

[run]
epochs = 1
batch_size = 16
trials = 1
""")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    assert (out / "metrics_trial0.csv").exists()
    assert "mean max val acc" in capsys.readouterr().out
