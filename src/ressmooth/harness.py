"""Experiment runner: the training loop, evaluation, multi-trial
aggregation, grid search and CSV emission.

Every mode trains through the one smoothed loss: mode off gives kappa = 0,
which is plain squared error bitwise. Prepared splits hold the uint8 pixel
codes; each training batch (after `data.augment_batch` for CIFAR rows) and
each evaluation chunk becomes float64 features through `data.features`, so
no whole split is ever held as float64.

Everything an experiment emits is a pure function of (config, seed). Each
trial uses seed base_seed + k, and initialization, shuffling and augmentation
draw from independent named substreams of the trial seed; dataset subsetting
draws from substreams of the dataset seed so every trial sees the same subset.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import data as data_mod
from . import nn, optim, smoothing
from .annealing import scale_at
from .config import DATASET_FILES, DatasetSpec, ExperimentConfig
from .errors import ConfigError, InputError, TrainingError

_EVAL_CHUNK = 1024  # rows per product; fixed, as a row's bits depend on its product's row count
_STREAMS = {"init": 0, "shuffle": 1, "augment": 2, "take": 3, "ratio": 4}


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent, named, deterministic RNG stream derived from a seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAMS[name],)))


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    s_t: float
    mean_kappa: float


@dataclass(frozen=True)
class TrialRow:
    b: float
    alpha: float
    trial: int
    max_val_acc: float
    tail_mean_val_acc: float


# The CSV columns: each row type's fields, in order.
METRICS_HEADER = ",".join(f.name for f in fields(EpochMetrics))
AGGREGATE_HEADER = ",".join(f.name for f in fields(TrialRow))


@dataclass(frozen=True)
class TrialAggregate:
    rows: tuple
    mean_max_val_acc: float
    mean_tail_val_acc: float
    metrics: tuple  # one EpochMetrics tuple per trial
    networks: tuple


def load_split(ds: DatasetSpec, split: str) -> data_mod.Dataset:
    """The configured dataset's "train" or "test" split as uint8 codes."""
    files = [getattr(ds, key) for key in DATASET_FILES[ds.kind] if key.startswith(split)]
    load = data_mod.load_cifar10_bin if ds.kind == "cifar10" else data_mod.load_idx
    return load(*files, split)


def prepare_data(config: ExperimentConfig):
    """Load the train/test splits as uint8 codes and apply the configured
    subsetting to the train split."""
    ds = config.dataset
    train = load_split(ds, "train")
    if ds.take > 0:
        train = data_mod.take_uniform(train, ds.take, substream(ds.seed, "take"))
    if ds.subsample_ratio < 1.0:
        train = data_mod.take_uniform(train, math.floor(ds.subsample_ratio * train.n),
                                      substream(ds.seed, "ratio"))
    return train, load_split(ds, "test")


def _diagnose_nonfinite(network: nn.Network, epoch: int, batch_idx: int, iteration: int) -> str:
    bad = [i for i, (w, b) in enumerate(zip(network.weights, network.biases))
           if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b)))]
    where = f"layers {bad}" if bad else "parameters finite; loss overflow"
    return (f"non-finite loss at iteration {iteration} "
            f"(epoch {epoch}, batch {batch_idx}); {where}")


def train(config: ExperimentConfig, trial_seed: int, dataset_pair):
    """One full training run on a prepared (train, test) pair; returns
    (network, per-epoch metrics)."""
    train_ds, test_ds = dataset_pair
    if train_ds.n == 0:
        raise InputError("empty training split")

    dims = [train_ds.feature_count, *config.model.hidden, train_ds.class_count]
    network = nn.build_network(dims, config.model.output_activation,
                               substream(trial_seed, "init"))
    optimizer = optim.make_optimizer(config.optimizer, network)
    grads = np.empty_like(network.params)  # one per trial: a kept network holds none
    shuffle_rng = substream(trial_seed, "shuffle")
    augment_rng = substream(trial_seed, "augment")

    sm = config.smoothing
    # row k: the target of class k; smoothing by 0 is np.eye bit for bit
    table = optim.label_smooth(np.eye(train_ds.class_count), config.label_smoothing)

    n = train_ds.n
    total_iters = config.epochs * math.ceil(n / config.batch_size)
    t = 0
    metrics = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        kappa_sum = 0.0
        correct = 0
        for batch_idx, idx in enumerate(data_mod.batches(train_ds, config.batch_size, shuffle_rng)):
            progress = t / total_iters
            xb = train_ds.inputs[idx]
            if config.dataset.augment:
                xb = data_mod.augment_batch(xb, augment_rng)
            lb = train_ds.labels[idx]
            yb = table[lb]
            acts = nn.forward_batch(network, data_mod.features(xb))
            preds = acts[-1]
            correct += int((np.argmax(preds, axis=1) == lb).sum())  # while preds is warm
            s_t = scale_at(config.schedule, progress) if sm.mode != "off" else 0.0
            loss_rows, grad_rows, kappa = smoothing.batch_smoothed_loss_grad(preds, yb, s_t, sm)
            kappa_sum += float(kappa.mean(axis=1).sum())
            batch_loss = float(loss_rows.sum())
            if not math.isfinite(batch_loss):
                raise TrainingError(_diagnose_nonfinite(network, epoch, batch_idx, t))
            loss_sum += batch_loss
            grad_rows /= idx.size
            nn.backward_batch(network, acts, grad_rows, grads)
            optimizer.step(network, grads, progress)
            t += 1
        for i, (w, b) in enumerate(zip(network.weights, network.biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise TrainingError(f"non-finite parameters in layer {i} after epoch {epoch}")
        val_acc, _ = evaluate(network, test_ds)
        metrics.append(EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_acc=100.0 * correct / n,
            val_acc=val_acc,
            s_t=s_t,  # the epoch's last batch's
            mean_kappa=kappa_sum / n,
        ))
    return network, metrics


def evaluate(network: nn.Network, dataset: data_mod.Dataset):
    """(accuracy percent, mean plain squared-error loss) on a dataset.

    The predicted class is the first index attaining the output maximum."""
    if dataset.n == 0:
        raise InputError("cannot evaluate on an empty dataset")
    eye = np.eye(dataset.class_count)
    correct = 0
    loss_sum = 0.0
    for start in range(0, dataset.n, _EVAL_CHUNK):
        xb = data_mod.features(dataset.inputs[start:start + _EVAL_CHUNK])
        lb = dataset.labels[start:start + _EVAL_CHUNK]
        preds = nn.forward_batch(network, xb)[-1]
        correct += int((np.argmax(preds, axis=1) == lb).sum())
        r = preds - eye[lb]
        loss_sum += float(np.einsum("bj,bj->b", r, r).sum())
    return 100.0 * correct / dataset.n, loss_sum / dataset.n


def summarize(metrics):
    """(max validation accuracy over epochs, its mean over the last 10% of
    epochs, at least one)."""
    vals = [m.val_acc for m in metrics]
    n_tail = max(1, math.ceil(len(vals) / 10))
    return max(vals), sum(vals[-n_tail:]) / n_tail


def run_trials(config: ExperimentConfig, dataset_pair=None) -> TrialAggregate:
    """Train `trials` times with seeds base_seed .. base_seed + trials - 1.
    Rows carry the config's (b, alpha), (0, 0) in mode off."""
    if dataset_pair is None:
        dataset_pair = prepare_data(config)
    b, alpha = ((config.schedule.b, config.smoothing.alpha)
                if config.smoothing.mode != "off" else (0.0, 0.0))
    rows, all_metrics, networks = [], [], []
    for k in range(config.trials):
        network, metrics = train(config, config.base_seed + k, dataset_pair)
        rows.append(TrialRow(b, alpha, k, *summarize(metrics)))
        all_metrics.append(tuple(metrics))
        networks.append(network)
    return TrialAggregate(
        rows=tuple(rows),
        mean_max_val_acc=sum(r.max_val_acc for r in rows) / len(rows),
        mean_tail_val_acc=sum(r.tail_mean_val_acc for r in rows) / len(rows),
        metrics=tuple(all_metrics),
        networks=tuple(networks),
    )


def grid_search(config: ExperimentConfig, b_values, alpha_values):
    """run_trials per (b, alpha) point, in (b, alpha) order, keeping only each point's rows.
    Returns (rows, best), best the (b, alpha, mean max val acc) of the largest mean, ties
    to the smallest (b, alpha). An axis with several values must be one the config reads."""
    if not b_values or not alpha_values:
        raise ConfigError("grid values must be non-empty")
    sm, schedule = config.smoothing, config.schedule
    if sm.mode == "off":
        raise ConfigError("smoothing mode off has no (b, alpha) to search: "
                          "every grid point would train the same network")
    # b shapes s_t, which only the annealed global modes read; alpha shapes
    # the sigmoid of the local modes, and does nothing when its scale (s_t,
    # or local_scale in mode local) is always 0
    s_always_zero = schedule.kind == "off" or (schedule.kind == "constant"
                                               and schedule.const_s == 0.0)
    reads = {"b": (sm.mode in ("global", "global_local")
                   and schedule.kind in ("laplace", "logistic")),
             "alpha": ((sm.mode == "local" and sm.local_scale != 0.0)
                       or (sm.mode == "global_local" and not s_always_zero))}
    for name, values in (("b", b_values), ("alpha", alpha_values)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{name} grid {sorted(values)} repeats a value")
        if len(values) > 1 and not reads[name]:
            setting = (f"local_scale {sm.local_scale:g}" if (name, sm.mode) == ("alpha", "local")
                       else f"schedule {schedule.kind}")
            raise ConfigError(f"smoothing mode {sm.mode} with {setting} never "
                              f"reads {name}: every point of the {name} grid {sorted(values)} "
                              "would train the same network")
    points = [(b, alpha, replace(config, schedule=replace(schedule, b=b),
                                 smoothing=replace(sm, alpha=alpha)))
              for b in sorted(b_values) for alpha in sorted(alpha_values)]
    dataset_pair = prepare_data(config)  # once every point's config is built and checked
    rows, best = [], None
    for b, alpha, point_config in points:
        point = run_trials(point_config, dataset_pair)
        rows.extend(point.rows)
        if best is None or point.mean_max_val_acc > best[2]:  # a tie keeps the smaller point
            best = (b, alpha, point.mean_max_val_acc)
        del point  # and its networks, before the next point trains
    return rows, best


def _write_rows(rows, header, path):
    """One CSV line per dataclass row, in field order: int fields as written,
    float fields fixed at 6 decimals so files are comparable."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(getattr(row, f.name)) if f.type is int
                              else f"{getattr(row, f.name):.6f}" for f in fields(row)))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def write_metrics_csv(metrics, path):
    """Per-epoch metrics, one `EpochMetrics` per line."""
    _write_rows(metrics, METRICS_HEADER, path)


def write_aggregate_csv(rows, path):
    """Per-trial summary rows, one per (b, alpha, trial)."""
    _write_rows(rows, AGGREGATE_HEADER, path)
