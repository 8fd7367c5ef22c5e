import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ressmooth.annealing import AnnealSchedule
from ressmooth.cli import _parse_grid
from ressmooth.config import (DatasetSpec, ExperimentConfig, ModelSpec, parse_config,
                              parse_config_text)
from ressmooth.errors import ConfigError
from ressmooth.optim import OPTIMIZERS, AdaGradConfig, AdamConfig, SgdConfig
from ressmooth.smoothing import SmoothingConfig

NAN = float("nan")

GOOD = """
[dataset]
kind = fashion_mnist
train_images = data/train-images-idx3-ubyte.gz
train_labels = data/train-labels-idx1-ubyte.gz
test_images = data/t10k-images-idx3-ubyte.gz
test_labels = data/t10k-labels-idx1-ubyte.gz
take = 10000
seed = 7

[model]
hidden = 256
output_activation = softmax

[optimizer]
kind = sgd
lr_high = 0.1
lr_low = 0.001
momentum = 0.9
weight_decay = 0.001

[regularizer]
mode = global_local
schedule = laplace
mu = 0.75
b = 0.5
alpha = 1.0

[run]
epochs = 15
batch_size = 128
trials = 5
base_seed = 3
"""


def test_parse_full_config():
    cfg = parse_config_text(GOOD)
    assert cfg.dataset.kind == "fashion_mnist"
    assert cfg.dataset.take == 10000
    assert cfg.model.hidden == (256,)
    assert isinstance(cfg.optimizer, SgdConfig)
    assert cfg.optimizer.weight_decay == 0.001
    assert cfg.smoothing.mode == "global_local"
    assert cfg.schedule.kind == "laplace"
    assert cfg.schedule.b == 0.5
    assert cfg.epochs == 15
    assert cfg.trials == 5
    assert cfg.base_seed == 3


def test_parse_resolves_relative_paths(tmp_path):
    (tmp_path / "exp.ini").write_text(GOOD)
    cfg = parse_config(tmp_path / "exp.ini")
    assert cfg.dataset.train_images == str(tmp_path / "data/train-images-idx3-ubyte.gz")


# eps_std is no key: the std clamp is the constant smoothing.EPS_STD
@pytest.mark.parametrize("old, new", [
    ("take = 10000", "tak = 10000"),
    ("alpha = 1.0", "alpha = 1.0\neps_std = 1e-6"),
], ids=["tak", "eps_std"])
def test_unknown_key_is_fatal(old, new):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(GOOD.replace(old, new))


# configparser would copy [DEFAULT]'s keys into every section; here it is
# one more section the schema does not know
@pytest.mark.parametrize("section, key", [("extras", "x = 1"), ("DEFAULT", "take = 5")],
                         ids=["extras", "DEFAULT"])
def test_unknown_section_is_fatal(section, key):
    with pytest.raises(ConfigError, match=rf"^unknown section \[{section}\]$"):
        parse_config_text(GOOD + f"\n[{section}]\n{key}\n")


def test_missing_required_section():
    with pytest.raises(ConfigError, match=r"missing section \[run\]"):
        parse_config_text(GOOD[:GOOD.index("[run]")])


def test_missing_epochs():
    trimmed = GOOD[:GOOD.index("[run]")] + "[run]\ntrials = 2\n"
    with pytest.raises(ConfigError, match="epochs"):
        parse_config_text(trimmed)


def test_bad_number():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config_text(GOOD.replace("b = 0.5", "b = half"))


def test_bad_enum_values():
    with pytest.raises(ConfigError, match="dataset kind"):
        parse_config_text(GOOD.replace("kind = fashion_mnist", "kind = imagenet", 1))
    with pytest.raises(ConfigError, match="smoothing mode"):
        parse_config_text(GOOD.replace("mode = global_local", "mode = everywhere"))
    with pytest.raises(ConfigError, match="output_activation .*got 'tanh'"):
        parse_config_text(GOOD.replace("output_activation = softmax", "output_activation = tanh"))


@pytest.mark.parametrize("old, new, key", [
    ("alpha = 1.0", "alpha = nan", "[regularizer] alpha"),
    ("b = 0.5", "b = inf", "[regularizer] b"),
    ("lr_high = 0.1", "lr_high = -inf", "[optimizer] lr_high"),
    ("weight_decay = 0.001", "weight_decay = NaN", "[optimizer] weight_decay"),
])
def test_non_finite_numbers_are_rejected(old, new, key):
    with pytest.raises(ConfigError, match=rf"^\{key} = '.*' is not a finite number$"):
        parse_config_text(GOOD.replace(old, new))


def test_an_integer_past_float_range_parses():
    huge = 10**400  # math.isfinite(huge) raises OverflowError
    assert parse_config_text(GOOD.replace("take = 10000", f"take = {huge}")).dataset.take == huge


@pytest.mark.parametrize("make", [
    lambda: AnnealSchedule(b=NAN),
    lambda: SmoothingConfig(alpha=NAN),
    lambda: SmoothingConfig(local_scale=NAN),
    lambda: SgdConfig(weight_decay=NAN),
    lambda: SgdConfig(lr_low=NAN),
    lambda: AdamConfig(lr=NAN),
    lambda: AdamConfig(eps=NAN),
    lambda: AdaGradConfig(lr=NAN),
    lambda: AdaGradConfig(eps=NAN),
    lambda: DatasetSpec(kind="cifar10", train_files=("a",), test_files=("b",),
                        subsample_ratio=NAN),
    # and the ends outside subsample_ratio's range (0, 1]
    lambda: DatasetSpec(kind="cifar10", train_files=("a",), test_files=("b",),
                        subsample_ratio=0.0),
    lambda: DatasetSpec(kind="cifar10", train_files=("a",), test_files=("b",),
                        subsample_ratio=1.5),
], ids=["b", "alpha", "local_scale", "weight_decay", "lr_low", "adam_lr",
        "adam_eps", "adagrad_lr", "adagrad_eps", "subsample_ratio", "subsample_ratio_0",
        "subsample_ratio_1.5"])
def test_nan_fails_the_dataclass_checks(make):
    with pytest.raises(ConfigError):
        make()


def test_optimizer_kind_scopes_keys():
    text = GOOD.replace("kind = sgd", "kind = adam")
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config_text(text)


def test_adam_and_adagrad_configs():
    base = GOOD[:GOOD.index("[optimizer]")]
    tail = GOOD[GOOD.index("[regularizer]"):].replace("mode = global_local", "mode = off")
    cfg = parse_config_text(base + "[optimizer]\nkind = adam\nlr = 0.002\n" + tail)
    assert isinstance(cfg.optimizer, AdamConfig)
    assert cfg.optimizer.lr == 0.002
    cfg = parse_config_text(base + "[optimizer]\nkind = adagrad\n" + tail)
    assert isinstance(cfg.optimizer, AdaGradConfig)


MINIMAL = """
[dataset]
kind = fashion_mnist
train_images = a
train_labels = b
test_images = c
test_labels = d

[model]

[optimizer]
kind = {kind}

[run]
epochs = 3
"""


@pytest.mark.parametrize("kind", list(OPTIMIZERS))
def test_omitted_keys_take_the_dataclass_defaults(kind):
    optimizer = OPTIMIZERS[kind][0]()  # so every kind parses to its table class
    spec = DatasetSpec(kind="fashion_mnist", train_images="a", train_labels="b",
                       test_images="c", test_labels="d")
    cfg = parse_config_text(MINIMAL.format(kind=kind))
    # ExperimentConfig's own defaults include SmoothingConfig() and AnnealSchedule()
    assert cfg == ExperimentConfig(dataset=spec, model=ModelSpec(), optimizer=optimizer,
                                   epochs=3)


def test_every_regularizer_field_is_set_from_its_key():
    # each field of SmoothingConfig and AnnealSchedule at a valid value
    # other than its default; the schedule's kind is keyed `schedule`
    smoothing = SmoothingConfig(mode="local", alpha=2.5, n_steps=3, local_scale=0.25)
    schedule = AnnealSchedule(kind="logistic", mu=0.4, b=0.2, const_s=0.6)
    for value in (smoothing, schedule):
        assert all(getattr(value, f.name) != f.default for f in fields(value))
    text = MINIMAL.format(kind="sgd") + """
[regularizer]
mode = local
alpha = 2.5
n_steps = 3
local_scale = 0.25
schedule = logistic
mu = 0.4
b = 0.2
const_s = 0.6
"""
    cfg = parse_config_text(text)
    assert (cfg.smoothing, cfg.schedule) == (smoothing, schedule)


def test_augment_needs_cifar10():
    with pytest.raises(ConfigError, match="augment"):
        parse_config_text(GOOD.replace("seed = 7", "seed = 7\naugment = true"))


CIFAR_DATASET = """
[dataset]
kind = cifar10
train_files = a.bin, b.bin
test_files = t.bin
"""


@pytest.mark.parametrize("dataset, stray", [
    (GOOD[:GOOD.index("[model]")] + "train_files = x.bin\n", "train_files"),
    (GOOD[:GOOD.index("[model]")] + "test_files = x.bin\n", "test_files"),
    (CIFAR_DATASET + "train_images = x.gz\n", "train_images"),
    (CIFAR_DATASET + "test_labels = x.gz\n", "test_labels"),
])
def test_other_dataset_kinds_file_keys_are_rejected(dataset, stray):
    text = dataset + GOOD[GOOD.index("[model]"):]
    with pytest.raises(ConfigError, match=f"'{stray}' does not apply to dataset kind"):
        parse_config_text(text)


@pytest.mark.parametrize("old, new, key", [
    ("seed = 7", "seed = -5", "seed"),
    ("base_seed = 3", "base_seed = -1", "base_seed"),
])
def test_negative_seeds_are_rejected(old, new, key):
    with pytest.raises(ConfigError, match=f"^{key} must be >= 0"):
        parse_config_text(GOOD.replace(old, new))


def test_label_smoothing_conflicts_with_smoothing_mode():
    with pytest.raises(ConfigError, match="alternatives"):
        parse_config_text(GOOD.replace("alpha = 1.0", "alpha = 1.0\nlabel_smoothing = 0.1"))


def test_regularizer_section_optional():
    trimmed = GOOD[:GOOD.index("[regularizer]")] + GOOD[GOOD.index("[run]"):]
    cfg = parse_config_text(trimmed)
    assert cfg.smoothing.mode == "off"
    assert cfg.schedule.kind == "off"
    assert cfg.label_smoothing == 0.0


# the three list parsers that `config._list` replaced, as references: each
# dropped blank entries

def _old_widths(raw):
    return tuple(int(h.strip()) for h in raw.split(",") if h.strip())


def _old_paths(raw, base_dir):
    paths = (p.strip() for p in raw.split(",") if p.strip())
    return tuple(p if Path(p).is_absolute() else str(base_dir / p) for p in paths)


def _old_grid(raw):
    return [float(v) for v in raw.split(",") if v.strip()]


BASE = Path("/configs")


def _hidden(raw):
    return parse_config_text(GOOD.replace("hidden = 256", f"hidden = {raw}")).model.hidden


def _train_files(raw):
    dataset = CIFAR_DATASET.replace("a.bin, b.bin", raw)
    return parse_config_text(dataset + GOOD[GOOD.index("[model]"):], BASE).dataset.train_files


def _hex(values):
    return [v.hex() for v in values]  # tells -0.0 from 0.0


_PAD = st.text(" \t", max_size=2)


@st.composite
def _comma_lists(draw, entry):
    """(raw, blank): `entry` strings padded with blanks and joined by commas,
    and whether an extra blank entry went in (a doubled, leading or trailing
    comma)."""
    entries = draw(st.lists(entry, min_size=1, max_size=4))
    blank = draw(st.booleans())
    if blank:
        entries.insert(draw(st.integers(0, len(entries))), draw(_PAD))
    return ",".join(draw(_PAD) + e + draw(_PAD) for e in entries), blank


# widths past float range, which math.isfinite cannot take, included
@pytest.mark.parametrize("name, entry, parse, old", [
    ("[model] hidden", st.integers(1, 10**400).map(str), _hidden, _old_widths),
    ("[dataset] train_files", st.text("ab./_-", min_size=1), _train_files,
     lambda raw: _old_paths(raw, BASE)),
    ("--b-grid", st.floats(allow_nan=False, allow_infinity=False).map(repr),
     lambda raw: _hex(_parse_grid(raw, "--b-grid")), lambda raw: _hex(_old_grid(raw))),
], ids=["hidden", "train_files", "b_grid"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_blank_list_entry_is_refused_and_the_rest_parse_as_before(name, entry, parse, old,
                                                                    data):
    raw, blank = data.draw(_comma_lists(entry))
    if blank:
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} = '.*' has a blank entry$"):
            parse(raw)
    else:
        assert parse(raw) == old(raw)


def test_a_blank_list_value_is_an_empty_list():
    assert _hidden("") == ()  # no hidden layer
    with pytest.raises(ConfigError, match="^dataset kind cifar10 needs train_files$"):
        _train_files("")
    with pytest.raises(ConfigError, match="^--b-grid must list at least one value$"):
        _parse_grid("", "--b-grid")


def test_cifar_requires_file_lists():
    text = GOOD.replace("kind = fashion_mnist", "kind = cifar10", 1)
    with pytest.raises(ConfigError, match="cifar10 needs"):
        parse_config_text(text)


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/nonexistent/exp.ini")
