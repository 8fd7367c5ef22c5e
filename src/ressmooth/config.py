"""Declarative experiment configuration and its INI-file parser.

A config file has sections [dataset], [model], [optimizer], [regularizer]
and [run]; each key sets the field of its name in the section's dataclass,
and omitted keys take the dataclass defaults. Unknown sections or keys are a
hard error so typos in grid scripts cannot pass silently.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .annealing import AnnealSchedule
from .data import load_cifar10_bin, load_idx
from .errors import ConfigError
from .nn import OUTPUT_ACTIVATIONS
from .optim import OPTIMIZERS
from .smoothing import SmoothingConfig

# dataset kind -> (its loader, the file keys it takes, in order); another kind's keys are an error
DATASETS = {"fashion_mnist": (load_idx, ("train_images", "train_labels", "test_images",
                                         "test_labels")),
            "cifar10": (load_cifar10_bin, ("train_files", "test_files"))}


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_files: tuple = ()  # cifar10 binary batches
    test_files: tuple = ()
    take: int = 0  # fixed-size uniform subset of the train split; 0 = all
    subsample_ratio: float = 1.0
    seed: int = 0
    augment: bool = False

    def __post_init__(self):
        if self.kind not in DATASETS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        missing = [k for k in DATASETS[self.kind][1] if not getattr(self, k)]
        if missing:
            raise ConfigError(f"dataset kind {self.kind} needs {', '.join(missing)}")
        stray = [k for kind, (_, keys) in DATASETS.items() if kind != self.kind
                 for k in keys if getattr(self, k)]
        if stray:
            raise ConfigError(f"key {stray[0]!r} does not apply to dataset kind {self.kind!r}")
        if self.take < 0:
            raise ConfigError(f"take must be >= 0, got {self.take}")
        if not 0.0 < self.subsample_ratio <= 1.0:
            raise ConfigError(f"subsample_ratio must be in (0, 1], got {self.subsample_ratio}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.augment and self.kind != "cifar10":
            raise ConfigError(f"augment applies to dataset kind cifar10 only, not {self.kind}")


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple = (256,)
    output_activation: str = "softmax"

    def __post_init__(self):
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigError(f"output_activation must be {' or '.join(OUTPUT_ACTIVATIONS)}, "
                              f"got {self.output_activation!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    model: ModelSpec
    optimizer: object  # an instance of a config class of optim.OPTIMIZERS
    epochs: int
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    label_smoothing: float = 0.0
    batch_size: int = 128
    trials: int = 5
    base_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if not isinstance(self.optimizer, tuple(cls for cls, _ in OPTIMIZERS.values())):
            raise ConfigError(f"unknown optimizer config {type(self.optimizer).__name__}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.label_smoothing > 0.0 and self.smoothing.mode != "off":
            raise ConfigError("label smoothing and residual smoothing are alternatives; pick one")


def _text(raw, name, base_dir):
    return raw.strip()


def _path(raw, name, base_dir):
    path = raw.strip()
    if base_dir is None or not path or Path(path).is_absolute():
        return path
    return str(base_dir / path)


def _list(element):
    """Converter of a comma-separated list of `element` values to a tuple. A
    blank value is the empty tuple; any other value with a blank entry (a
    doubled, leading or trailing comma) is an error naming the key."""
    def convert(raw, name, base_dir):
        entries = [entry.strip() for entry in raw.split(",")] if raw.strip() else []
        if not all(entries):
            raise ConfigError(f"{name} = {raw!r} has a blank entry")
        return tuple(element(entry, name, base_dir) for entry in entries)
    return convert


def _number(kind, noun):
    def convert(raw, name, base_dir):
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"{name} = {raw!r} is not {noun}") from None
        # ints are finite, and math.isfinite overflows on one past float range
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{name} = {raw!r} is not a finite number")
        return value
    return convert


_int = _number(int, "an integer")
_float = _number(float, "a number")
float_list = _list(_float)  # the CLI's grid flags


def _bool(raw, name, base_dir):
    value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
    if value is None:
        raise ConfigError(f"{name} = {raw!r} is not a boolean")
    return value


_CONVERTERS = {str: _text, int: _int, float: _float, bool: _bool}  # a field's, by its type
# What no field's type states: each class's section, moved keys, special converters
_SECTIONS = {DatasetSpec: "dataset", ModelSpec: "model",
             **{config_class: "optimizer" for config_class, _ in OPTIMIZERS.values()},
             SmoothingConfig: "regularizer", AnnealSchedule: "regularizer", ExperimentConfig: "run"}
_KEY_OF = {(AnnealSchedule, "kind"): ("regularizer", "schedule"),
           (ExperimentConfig, "label_smoothing"): ("regularizer", "label_smoothing")}
_SPECIAL = {**{(DatasetSpec, name): _list(_path) if kind == "cifar10" else _path
               for kind, (_, names) in DATASETS.items() for name in names},
            (ModelSpec, "hidden"): _list(_int)}


def _key_table() -> dict:
    """(section, key) -> (target, field, converter, whether it has no default),
    section by section; [optimizer] keys set the class its kind selects."""
    table = {("optimizer", "kind"): (OPTIMIZERS, "kind", _text, False)}
    for target, section in _SECTIONS.items():
        for f in fields(target):
            if convert := _SPECIAL.get((target, f.name), _CONVERTERS.get(f.type)):
                key = _KEY_OF.get((target, f.name), (section, f.name))
                table[key] = (OPTIMIZERS if section == "optimizer" else target, f.name, convert,
                              f.default is MISSING and f.default_factory is MISSING)
    return dict(sorted(table.items(), key=lambda item: [*_SECTIONS.values()].index(item[0][0])))


_KEYS = _key_table()


def parse_config_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    # no header line can name "\n", so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparsable config: {' '.join(str(exc).split())}") from None

    for section in parser.sections():
        if section not in _SECTIONS.values():
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("dataset", "model", "optimizer", "run"):
        if required not in parser:
            raise ConfigError(f"missing section [{required}]")

    def values(target) -> dict:
        """The converted values of the keys that set `target`'s fields."""
        out = {}
        for (section, key), (owner, name, convert, required) in _KEYS.items():
            if owner is target and section in parser and key in parser[section]:
                out[name] = convert(parser[section][key], f"[{section}] {key}", base_dir)
            elif owner is target and required:
                raise ConfigError(f"missing key {key!r} in [{section}]")
        return out

    dataset = DatasetSpec(**values(DatasetSpec))
    model = ModelSpec(**values(ModelSpec))
    opt = values(OPTIMIZERS)
    opt_kind = opt.pop("kind", "sgd")
    if opt_kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer kind {opt_kind!r}")
    opt_class = OPTIMIZERS[opt_kind][0]
    stray = [key for key in opt if key not in {f.name for f in fields(opt_class)}]
    if stray:
        raise ConfigError(f"key {stray[0]!r} does not apply to optimizer kind {opt_kind!r}")
    return ExperimentConfig(dataset=dataset, model=model, optimizer=opt_class(**opt),
                            smoothing=SmoothingConfig(**values(SmoothingConfig)),
                            schedule=AnnealSchedule(**values(AnnealSchedule)),
                            **values(ExperimentConfig))


def parse_config(path) -> ExperimentConfig:
    """Parse a config file; relative dataset paths resolve against its directory."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, base_dir=path.parent)
