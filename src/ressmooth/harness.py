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
from .config import DATASETS, DatasetSpec, ExperimentConfig
from .errors import ConfigError, ShapeError, TrainingError

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
    """The "train" or "test" split as uint8 codes. The loader is called by name, as a density is,
    so a tracer's wrapper runs: perfbench's `data.load_idx.s` reads that call."""
    loader, keys = DATASETS[ds.kind]
    files = [getattr(ds, key) for key in keys if key.startswith(split)]
    return getattr(data_mod, loader.__name__)(*files, split)


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


def _nonfinite_layers(network: nn.Network):
    return [i for i, (w, b) in enumerate(zip(network.weights, network.biases))
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b)))]


def train(config: ExperimentConfig, trial_seed: int, dataset_pair):
    """One full training run on a prepared (train, test) pair, each split non-empty
    as every `Dataset` is; returns (network, per-epoch metrics)."""
    train_ds, test_ds = dataset_pair
    if (shapes := [(ds.feature_count, ds.class_count) for ds in dataset_pair])[0] != shapes[1]:
        raise ShapeError(f"test split (features, classes) {shapes[1]} != train split {shapes[0]}")
    if config.dataset.augment and train_ds.feature_count != 3072:
        raise ShapeError(f"augment crops [n, 3072] CIFAR rows, not [n, {train_ds.feature_count}]")

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
            s_t = scale_at(config.schedule, progress)
            loss_rows, grad_rows, kappa = smoothing.batch_smoothed_loss_grad(preds, yb, s_t, sm)
            kappa_sum += float(kappa.mean(axis=1).sum())
            batch_loss = float(loss_rows.sum())
            if not math.isfinite(batch_loss):
                bad = _nonfinite_layers(network)
                where = f"layers {bad}" if bad else "parameters finite; loss overflow"
                raise TrainingError(f"non-finite loss at iteration {t} "
                                    f"(epoch {epoch}, batch {batch_idx}); {where}")
            loss_sum += batch_loss
            grad_rows /= idx.size
            nn.backward_batch(network, acts, grad_rows, grads)
            optimizer.step(network, grads, progress)
            t += 1
        bad = _nonfinite_layers(network)
        if bad:
            raise TrainingError(f"non-finite parameters in layer {bad[0]} after epoch {epoch}")
        val_acc, _ = evaluate(network, test_ds)
        metrics.append(EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_acc=100.0 * correct / n,
            val_acc=val_acc,
            s_t=smoothing.sigmoid_args(sm, s_t)[0],  # the sigmoid's scale at the last batch
            mean_kappa=kappa_sum / n,
        ))
    return network, metrics


def evaluate(network: nn.Network, dataset: data_mod.Dataset):
    """(accuracy percent, mean plain squared-error loss) on a dataset; the predicted class is the
    first index attaining the output maximum, the residual the output less 1 at the label."""
    correct = 0
    loss_sum = 0.0
    for start in range(0, dataset.n, _EVAL_CHUNK):
        xb = data_mod.features(dataset.inputs[start:start + _EVAL_CHUNK])
        lb = dataset.labels[start:start + _EVAL_CHUNK]
        r = nn.forward_batch(network, xb)[-1]
        correct += int((np.argmax(r, axis=1) == lb).sum())
        r[np.arange(lb.size), lb] -= 1.0
        loss_sum += float(np.einsum("bj,bj->b", r, r).sum())
    return 100.0 * correct / dataset.n, loss_sum / dataset.n


def summarize(metrics):
    """(max validation accuracy over epochs, its mean over the last 10% of
    epochs, at least one)."""
    vals = [m.val_acc for m in metrics]
    n_tail = max(1, math.ceil(len(vals) / 10))
    return max(vals), sum(vals[-n_tail:]) / n_tail


def read_axes(config: ExperimentConfig):
    """(reads_b, reads_alpha): whether the run's kappa reads the schedule's b and the alpha.
    b shapes s_t, read where the sigmoid's (scale, alpha) follow it; alpha is read where the
    sigmoid takes it at a scale not always 0: s_t's peak is 0 only if s_t always is."""
    sm, schedule = config.smoothing, config.schedule
    peak = scale_at(schedule, schedule.mu)
    peak_scale, unit_alpha = smoothing.sigmoid_args(replace(sm, alpha=1.0), peak)
    return (smoothing.sigmoid_args(sm, 0.0) != smoothing.sigmoid_args(sm, peak),
            peak_scale * unit_alpha != 0.0)


def run_trials(config: ExperimentConfig, dataset_pair=None) -> TrialAggregate:
    """Train `trials` times with seeds base_seed .. base_seed + trials - 1.
    Rows carry the (b, alpha) the run reads, 0 for a setting it does not."""
    if dataset_pair is None:
        dataset_pair = prepare_data(config)
    reads_b, reads_alpha = read_axes(config)
    b = config.schedule.b if reads_b else 0.0
    alpha = config.smoothing.alpha if reads_alpha else 0.0
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
    Returns (rows, best), best the rows' (b, alpha) and mean max val acc at the largest mean,
    ties to the smallest point. Refuses a grid whose points `read_axes` cannot tell apart."""
    axes = (("b", b_values), ("alpha", alpha_values))
    for name, values in axes:
        if not values:
            raise ConfigError(f"{name} grid must list at least one value")
    sm, schedule = config.smoothing, config.schedule
    reads = read_axes(config)
    setting = f"smoothing mode {sm.mode} (schedule {schedule.kind}, local_scale {sm.local_scale:g})"
    if not any(reads):
        raise ConfigError(f"{setting} reads neither b nor alpha: "
                          "every grid point would train the same network")
    for (name, values), read in zip(axes, reads):
        if len(set(values)) != len(values):
            raise ConfigError(f"{name} grid {sorted(values)} repeats a value")
        if len(values) > 1 and not read:
            raise ConfigError(f"{setting} never reads {name}: every point of the {name} grid "
                              f"{sorted(values)} would train the same network")
    points = [replace(config, schedule=replace(schedule, b=b), smoothing=replace(sm, alpha=alpha))
              for b in sorted(b_values) for alpha in sorted(alpha_values)]
    dataset_pair = prepare_data(config)  # once every point's config is built and checked
    rows, best = [], None
    for point_config in points:
        point = run_trials(point_config, dataset_pair)
        rows.extend(point.rows)
        if best is None or point.mean_max_val_acc > best[2]:  # a tie keeps the smaller point
            best = (point.rows[0].b, point.rows[0].alpha, point.mean_max_val_acc)
        del point  # and its networks, before the next point trains
    return rows, best


def _write_rows(rows, header, path):
    """One CSV line per dataclass row, in field order: int fields as written,
    float fields fixed at 6 decimals so files are comparable."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(getattr(row, f.name)) if f.type is int
                              else f"{getattr(row, f.name):.6f}" for f in fields(row)))
    data_mod.write_whole(path, [("\n".join(lines) + "\n").encode()])


def write_metrics_csv(metrics, path):
    """Per-epoch metrics, one `EpochMetrics` per line."""
    _write_rows(metrics, METRICS_HEADER, path)


def write_aggregate_csv(rows, path):
    """Per-trial summary rows, one per (b, alpha, trial)."""
    _write_rows(rows, AGGREGATE_HEADER, path)
