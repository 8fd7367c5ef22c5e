import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ressmooth.annealing import AnnealSchedule
from ressmooth.config import (DatasetSpec, ExperimentConfig, ModelSpec, float_list,
                              parse_config, parse_config_text)
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

# GOOD without residual smoothing, so label smoothing is only bounded by its range
PLAIN = replace(parse_config_text(GOOD), smoothing=SmoothingConfig())


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
# and const_s is none either: a fixed scale is mode local's local_scale
@pytest.mark.parametrize("old, new, message", [
    ("take = 10000", "tak = 10000", r"^unknown key 'tak' in \[dataset\]$"),
    ("alpha = 1.0", "alpha = 1.0\neps_std = 1e-6", r"^unknown key 'eps_std' in \[regularizer\]$"),
    ("b = 0.5", "b = 0.5\nconst_s = 0.6", r"^unknown key 'const_s' in \[regularizer\]$"),
], ids=["tak", "eps_std", "const_s"])
def test_unknown_key_is_fatal(old, new, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(GOOD.replace(old, new))


@pytest.mark.parametrize("old, new, message", [
    ("take = 10000", "take = -1", r"^take must be >= 0, got -1$"),
    ("hidden = 256", "hidden = 4, 0", r"^hidden widths must be >= 1, got \(4, 0\)$"),
    ("epochs = 15", "epochs = 0", r"^epochs must be >= 1, got 0$"),
    ("trials = 5", "trials = 0", r"^trials must be >= 1, got 0$"),
    ("momentum = 0.9", "momentum = 0.9\ndrop_at = 1.5", r"^drop_at must be in \[0, 1\], got 1.5$"),
    ("seed = 7", "seed = 7\naugment = maybe", r"^\[dataset\] augment = 'maybe' is not a boolean$"),
], ids=["take", "hidden", "epochs", "trials", "drop_at", "augment"])
def test_a_value_out_of_its_range_is_refused_with_the_value(old, new, message):
    with pytest.raises(ConfigError, match=message):
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
    with pytest.raises(ConfigError, match="^unknown schedule kind 'constant'$"):
        parse_config_text(GOOD.replace("schedule = laplace", "schedule = constant"))
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
    # the run's own bounds, checked here and nowhere on the step path
    lambda: replace(PLAIN, batch_size=0),
    lambda: replace(PLAIN, label_smoothing=1.0),
    lambda: replace(PLAIN, label_smoothing=-0.1),
    lambda: replace(PLAIN, label_smoothing=NAN),
], ids=["b", "alpha", "local_scale", "weight_decay", "lr_low", "adam_lr",
        "adam_eps", "adagrad_lr", "adagrad_eps", "subsample_ratio", "subsample_ratio_0",
        "subsample_ratio_1.5", "batch_size_0", "label_smoothing_1", "label_smoothing_-0.1",
        "label_smoothing"])
def test_nan_fails_the_dataclass_checks(make):
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize("optimizer", [object(), None, SmoothingConfig()],
                         ids=["object", "None", "SmoothingConfig"])
def test_an_optimizer_that_no_kind_selects_is_refused_when_the_config_is_built(optimizer):
    with pytest.raises(ConfigError, match=f"^unknown optimizer config {type(optimizer).__name__}$"):
        replace(PLAIN, optimizer=optimizer)


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


# a minimal config's section bodies, and what it parses to
MINIMAL = {"dataset": "kind = fashion_mnist\ntrain_images = a\ntrain_labels = b\n"
                      "test_images = c\ntest_labels = d",
           "model": "", "optimizer": "kind = sgd", "run": "epochs = 3"}
FASHION = DatasetSpec(kind="fashion_mnist", train_images="a", train_labels="b",
                      test_images="c", test_labels="d")
DEFAULTS = ExperimentConfig(dataset=FASHION, model=ModelSpec(), optimizer=SgdConfig(), epochs=3)


def _minimal_with(sections) -> str:
    """MINIMAL, with the given sections' bodies in place of its own."""
    return "".join(f"[{name}]\n{body}\n\n" for name, body in {**MINIMAL, **sections}.items())


@pytest.mark.parametrize("kind", list(OPTIMIZERS))
def test_omitted_keys_take_the_dataclass_defaults(kind):
    optimizer = OPTIMIZERS[kind][0]()  # so every kind parses to its table class
    cfg = parse_config_text(_minimal_with({"optimizer": f"kind = {kind}"}))
    # ExperimentConfig's own defaults include SmoothingConfig() and AnnealSchedule()
    assert cfg == replace(DEFAULTS, optimizer=optimizer)

# Per case, the sections that replace MINIMAL's and the config they parse to.
# Between them the cases set every field a key sets to a valid value other
# than its default; the schedule's kind is keyed `schedule`.
SET_EVERY_FIELD = {
    "fashion_mnist": (
        {"dataset": "kind = fashion_mnist\ntrain_images = i\ntrain_labels = l\n"
                    "test_images = ti\ntest_labels = tl\ntake = 100\nsubsample_ratio = 0.5\n"
                    "seed = 4"},
        replace(DEFAULTS, dataset=DatasetSpec(
            kind="fashion_mnist", train_images="i", train_labels="l", test_images="ti",
            test_labels="tl", take=100, subsample_ratio=0.5, seed=4))),
    "cifar10": (
        {"dataset": "kind = cifar10\ntrain_files = a.bin, b.bin\ntest_files = t.bin\n"
                    "augment = true"},
        replace(DEFAULTS, dataset=DatasetSpec(kind="cifar10", train_files=("a.bin", "b.bin"),
                                              test_files=("t.bin",), augment=True))),
    "model": ({"model": "hidden = 64, 32\noutput_activation = identity"},
              replace(DEFAULTS, model=ModelSpec(hidden=(64, 32), output_activation="identity"))),
    "sgd": ({"optimizer": "kind = sgd\nlr_high = 0.2\nlr_low = 0.01\ndrop_at = 0.5\n"
                          "momentum = 0.8\nweight_decay = 0.001"},
            replace(DEFAULTS, optimizer=SgdConfig(lr_high=0.2, lr_low=0.01, drop_at=0.5,
                                                  momentum=0.8, weight_decay=0.001))),
    "adam": ({"optimizer": "kind = adam\nlr = 0.002\nbeta1 = 0.8\nbeta2 = 0.99\neps = 1e-7"},
             replace(DEFAULTS, optimizer=AdamConfig(lr=0.002, beta1=0.8, beta2=0.99, eps=1e-7))),
    "adagrad": ({"optimizer": "kind = adagrad\nlr = 0.01\neps = 1e-9"},
                replace(DEFAULTS, optimizer=AdaGradConfig(lr=0.01, eps=1e-9))),
    "regularizer": (
        {"regularizer": "mode = local\nalpha = 2.5\nn_steps = 3\nlocal_scale = 0.25\n"
                        "schedule = logistic\nmu = 0.4\nb = 0.2"},
        replace(DEFAULTS, smoothing=SmoothingConfig(mode="local", alpha=2.5, n_steps=3,
                                                    local_scale=0.25),
                schedule=AnnealSchedule(kind="logistic", mu=0.4, b=0.2))),
    "run": ({"regularizer": "label_smoothing = 0.1",
             "run": "epochs = 7\nbatch_size = 32\ntrials = 2\nbase_seed = 9"},
            replace(DEFAULTS, label_smoothing=0.1, epochs=7, batch_size=32, trials=2,
                    base_seed=9)),
}


@pytest.mark.parametrize("sections, expected", SET_EVERY_FIELD.values(), ids=SET_EVERY_FIELD)
def test_every_field_is_set_from_its_key(sections, expected):
    assert parse_config_text(_minimal_with(sections)) == expected


def test_the_cases_set_every_field_off_its_default():
    parsed = [value for _, cfg in SET_EVERY_FIELD.values()
              for value in (cfg, cfg.dataset, cfg.model, cfg.optimizer, cfg.smoothing,
                            cfg.schedule)]
    for owner in (DatasetSpec, ModelSpec, *(c for c, _ in OPTIMIZERS.values()),
                  SmoothingConfig, AnnealSchedule, ExperimentConfig):
        for f in fields(owner):
            if f.default is not MISSING:  # ExperimentConfig's scalar fields among them
                assert any(type(value) is owner and getattr(value, f.name) != f.default
                           for value in parsed), f"{owner.__name__}.{f.name}"


# [optimizer] keys convert, in the order of the optimizer classes' fields,
# before kind selects a class and the keys that do not apply are named
def test_an_optimizer_number_is_checked_before_the_kind():
    text = _minimal_with({"optimizer": "kind = rms\nweight_decay = nan"})
    with pytest.raises(ConfigError, match=r"^\[optimizer\] weight_decay = 'nan' is not a finite"):
        parse_config_text(text)


def test_keys_that_do_not_apply_are_named_in_field_order():
    text = _minimal_with({"optimizer": "kind = adagrad\nbeta1 = 0.8\ndrop_at = 0.5"})
    with pytest.raises(ConfigError,
                       match="^key 'drop_at' does not apply to optimizer kind 'adagrad'$"):
        parse_config_text(text)


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
     lambda raw: _hex(float_list(raw, "--b-grid", None)), lambda raw: _hex(_old_grid(raw))),
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


def test_cifar_requires_file_lists():
    text = GOOD.replace("kind = fashion_mnist", "kind = cifar10", 1)
    with pytest.raises(ConfigError, match="cifar10 needs"):
        parse_config_text(text)


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/nonexistent/exp.ini")


def test_a_config_that_is_not_utf8_names_the_file_and_the_byte(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_bytes(GOOD.encode().replace(b"take = 10000", b"take = 10\xff00"))
    at = path.read_bytes().index(b"\xff")
    with pytest.raises(ConfigError, match=re.escape(
            f"cannot read config {path}: 'utf-8' codec can't decode byte 0xff in position {at}")):
        parse_config(path)


def test_a_config_saved_with_a_byte_order_mark_parses_as_without(tmp_path):
    text = (Path(__file__).resolve().parent.parent / "configs/fashion_baseline.ini").read_text()
    (tmp_path / "plain.ini").write_text(text, encoding="utf-8")
    (tmp_path / "bom.ini").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.ini").read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_config(tmp_path / "bom.ini") == parse_config(tmp_path / "plain.ini")


@pytest.mark.parametrize("text, message", [
    ("\ufeff" + GOOD.lstrip(), "File contains no section headers. file: '<string>', line: 1 "
                               "'\\ufeff[dataset]\\n'"),
    ("garbage\n" + GOOD, "File contains no section headers. file: '<string>', line: 1 "
                         "'garbage\\n'"),
    (GOOD.replace("seed = 7", "seed = 7\ngarbage line"),
     "Source contains parsing errors: '<string>' [line 10]: 'garbage line\\n'"),
], ids=["bom-in-text", "no-header", "malformed-line"])
def test_an_unparsable_config_is_refused_on_one_line(text, message):
    # configparser wraps these messages over several lines; the CLI prints one per error
    with pytest.raises(ConfigError) as refused:
        parse_config_text(text)
    assert str(refused.value) == f"unparsable config: {message}"


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(at=st.integers(0, len(GOOD)), dropped=st.integers(0, 8), inserted=st.binary(max_size=8))
@example(at=0, dropped=0, inserted=b"\xff")
@example(at=len(GOOD), dropped=0, inserted=b"\xc3")  # a multi-byte character cut short
def test_damaged_config_bytes_parse_or_raise_config_error(config_dir, at, dropped, inserted):
    """A valid config file with bytes dropped and inserted at one place: the parser returns
    a config or raises ConfigError, and nothing else escapes."""
    blob = GOOD.encode()
    path = config_dir / "exp.ini"
    path.write_bytes(blob[:at] + inserted + blob[at + dropped:])
    try:
        assert isinstance(parse_config(path), ExperimentConfig)
    except ConfigError as exc:
        assert "\n" not in str(exc)  # the CLI prints one line per refusal
