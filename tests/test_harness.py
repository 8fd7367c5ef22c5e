import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import net_of, read_csv, write_idx_pair
from ressmooth import harness, nn, optim
from ressmooth.annealing import AnnealSchedule, scale_at
from ressmooth.config import DatasetSpec, ExperimentConfig, ModelSpec
from ressmooth.data import features, load_cifar10_bin, load_idx, take_uniform
from ressmooth.errors import ConfigError, InputError, TrainingError
from ressmooth.harness import (AGGREGATE_HEADER, METRICS_HEADER, EpochMetrics, TrialAggregate,
                               TrialRow, evaluate, grid_search, prepare_data, run_trials,
                               substream, summarize, train, write_aggregate_csv,
                               write_metrics_csv)
from ressmooth.nn import build_network
from ressmooth.optim import SgdConfig
from ressmooth.smoothing import SmoothingConfig

BLOB_DATASET = DatasetSpec(kind="fashion_mnist", train_images="unused", train_labels="unused",
                           test_images="unused", test_labels="unused")


def blob_config(epochs=10, mode="off", schedule_kind="off", b=0.5, alpha=0.0,
                label_smoothing=0.0, trials=1, batch_size=16, hidden=(8,),
                optimizer=None, output_activation="softmax", base_seed=0):
    return ExperimentConfig(
        dataset=BLOB_DATASET,
        model=ModelSpec(hidden=hidden, output_activation=output_activation),
        optimizer=optimizer or SgdConfig(momentum=0.9, weight_decay=1e-3),
        epochs=epochs,
        smoothing=SmoothingConfig(mode=mode, alpha=alpha),
        schedule=AnnealSchedule(kind=schedule_kind, b=b),
        label_smoothing=label_smoothing,
        batch_size=batch_size,
        trials=trials,
        base_seed=base_seed,
    )


def blob_pair(make_blobs, seed=0):
    train_ds = make_blobs(n_per_class=40, noise=0.4, seed=seed, split="train")
    test_ds = make_blobs(n_per_class=20, noise=0.4, seed=seed + 1, split="test")
    return train_ds, test_ds


# --- data preparation ------------------------------------------------------------

def _subset(spec, train_ds):
    if spec.take > 0:
        train_ds = take_uniform(train_ds, spec.take, substream(spec.seed, "take"))
    if spec.subsample_ratio < 1.0:  # floor(ratio * n) rows, sorted, from the "ratio" stream
        count = math.floor(spec.subsample_ratio * train_ds.n)
        idx = np.sort(substream(spec.seed, "ratio").choice(train_ds.n, size=count, replace=False))
        train_ds = dataclasses.replace(train_ds, inputs=train_ds.inputs[idx],
                                       labels=train_ds.labels[idx])
    return train_ds


def _old_prepare_data(spec, train_codes, test_codes):
    """The first path: every row scaled to float64 at load, then subset."""
    def scale(ds):
        return dataclasses.replace(ds, inputs=ds.inputs.astype(np.float64) / 255.0)
    return _subset(spec, scale(train_codes)), scale(test_codes)


def _idx_spec(tmp_path, n_train=300, n_test=40, shape=(7, 9), **subset):
    rng = np.random.default_rng(34)
    for split, n in (("train", n_train), ("test", n_test)):
        write_idx_pair(rng.integers(0, 256, size=(n, *shape)).astype(np.uint8),
                       rng.integers(0, 10, size=n).astype(np.uint8),
                       tmp_path / f"{split}_i.gz", tmp_path / f"{split}_l.gz")
    return DatasetSpec(kind="fashion_mnist", seed=12, **subset,
                       train_images=str(tmp_path / "train_i.gz"),
                       train_labels=str(tmp_path / "train_l.gz"),
                       test_images=str(tmp_path / "test_i.gz"),
                       test_labels=str(tmp_path / "test_l.gz"))


def _cifar_spec(tmp_path, **subset):
    rng = np.random.default_rng(35)
    for name, n in (("a", 20), ("b", 13), ("t", 6)):
        records = np.concatenate([rng.integers(0, 10, size=(n, 1)),
                                  rng.integers(0, 256, size=(n, 3072))], axis=1)
        (tmp_path / f"{name}.bin").write_bytes(records.astype(np.uint8).tobytes())
    return DatasetSpec(kind="cifar10", seed=13, **subset,
                       train_files=(str(tmp_path / "a.bin"), str(tmp_path / "b.bin")),
                       test_files=(str(tmp_path / "t.bin"),))


@pytest.mark.parametrize("make_spec, subset", [
    (_idx_spec, {"take": 120}),
    (_idx_spec, {"subsample_ratio": 0.3}),
    (_idx_spec, {"take": 200, "subsample_ratio": 0.5}),
    (_cifar_spec, {"take": 25, "subsample_ratio": 0.6}),
])
def test_prepare_data_matches_scale_then_subset_oracle(tmp_path, make_spec, subset):
    spec = make_spec(tmp_path, **subset)
    cfg = dataclasses.replace(blob_config(), dataset=spec)
    if spec.kind == "cifar10":
        codes = (load_cifar10_bin(spec.train_files), load_cifar10_bin(spec.test_files, "test"))
    else:
        codes = (load_idx(spec.train_images, spec.train_labels),
                 load_idx(spec.test_images, spec.test_labels, "test"))
    kept_codes = (_subset(spec, codes[0]), codes[1])
    prepared = prepare_data(cfg)
    n = spec.take or codes[0].n
    assert prepared[0].n == (math.floor(spec.subsample_ratio * n) if spec.subsample_ratio < 1.0
                             else n)
    for again, got in zip(prepare_data(cfg), prepared):  # the same rows on every call
        assert again.inputs.tobytes() == got.inputs.tobytes()
        assert np.array_equal(again.labels, got.labels)
    for got, kept, want in zip(prepared, kept_codes, _old_prepare_data(spec, *codes)):
        assert got.inputs.dtype == np.uint8
        assert got.inputs.shape == kept.inputs.shape
        assert got.inputs.tobytes() == kept.inputs.tobytes()
        scaled = features(got.inputs)
        assert scaled.dtype == np.float64
        assert scaled.shape == want.inputs.shape
        assert scaled.tobytes() == want.inputs.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.split == want.split


def test_prepare_data_scales_only_the_kept_rows(tmp_path):
    """A regression guard on the data path's memory: the traced peak of
    preparing a 500-row subset stays below three times the decoded train
    image bytes, so scaling the full split to float64 (8 bytes a pixel) or
    gunzipping through `gzip.decompress` (about 3x the decoded size) fails it."""
    spec = _idx_spec(tmp_path, n_train=6000, n_test=500, shape=(28, 28), take=500)
    cfg = dataclasses.replace(blob_config(), dataset=spec)
    tracemalloc.start()
    try:
        train_ds, _ = prepare_data(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert train_ds.n == 500
    assert peak < 3 * (16 + 6000 * 784), f"traced peak {peak / 2**20:.1f} MiB"


# --- training loop -------------------------------------------------------------

def test_separable_blobs_reach_full_train_accuracy(make_blobs):
    pair = blob_pair(make_blobs)
    _, metrics = train(blob_config(epochs=20), trial_seed=0, dataset_pair=pair)
    assert metrics[-1].train_acc == 100.0
    assert all(0.0 <= m.val_acc <= 100.0 and m.train_loss >= 0.0 for m in metrics)


def test_mode_off_matches_schedule_forced_to_zero(make_blobs):
    # the plain path and the adaptive path with scale identically zero must
    # produce bit-identical parameters and metrics
    pair = blob_pair(make_blobs)
    net_off, metrics_off = train(blob_config(epochs=5, mode="off"), 3, pair)
    net_zero, metrics_zero = train(
        blob_config(epochs=5, mode="global_local", schedule_kind="off", alpha=1.0), 3, pair)
    assert metrics_off == metrics_zero
    assert net_off.params.tobytes() == net_zero.params.tobytes()


def test_training_is_deterministic(make_blobs):
    pair = blob_pair(make_blobs)
    cfg = blob_config(epochs=4, mode="global_local", schedule_kind="laplace", alpha=1.0)
    net_a, metrics_a = train(cfg, 5, pair)
    net_b, metrics_b = train(cfg, 5, pair)
    assert metrics_a == metrics_b
    assert np.array_equal(net_a.params, net_b.params)


def test_mode_off_reduces_to_reference_mse_sgd(make_blobs):
    # an independently written plain-MSE momentum-SGD loop, sharing only the
    # rng substreams, must reproduce the production baseline path bit for bit
    from ressmooth.data import batches
    from ressmooth.harness import substream

    pair = blob_pair(make_blobs)
    train_ds, _ = pair
    cfg = blob_config(epochs=2, batch_size=16)
    produced, _ = train(cfg, 11, pair)

    net = build_network([train_ds.feature_count, 8, train_ds.class_count],
                        rng=substream(11, "init"))
    shuffle = substream(11, "shuffle")
    w1, b1 = net.weights[0].copy(), net.biases[0].copy()
    w2, b2 = net.weights[1].copy(), net.biases[1].copy()
    vw1, vb1 = np.zeros_like(w1), np.zeros_like(b1)
    vw2, vb2 = np.zeros_like(w2), np.zeros_like(b2)
    targets = np.eye(train_ds.class_count)[train_ds.labels]
    opt = cfg.optimizer
    total = cfg.epochs * (-(-train_ds.n // cfg.batch_size))
    t = 0
    for _ in range(cfg.epochs):
        for idx in batches(train_ds, cfg.batch_size, shuffle):
            lr = opt.lr_high if t / total < opt.drop_at else opt.lr_low
            x = train_ds.inputs[idx]
            z1 = x @ w1.T + b1
            h = np.maximum(z1, 0.0)
            z2 = h @ w2.T + b2
            e = np.exp(z2 - z2.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            g = 2.0 * (p - targets[idx]) / idx.size
            dz2 = p * (g - np.sum(p * g, axis=1, keepdims=True))
            gw2, gb2 = dz2.T @ h, dz2.sum(axis=0)
            dz1 = (dz2 @ w2) * (z1 > 0.0)
            gw1, gb1 = dz1.T @ x, dz1.sum(axis=0)
            vw1 = opt.momentum * vw1 + (gw1 + opt.weight_decay * w1)
            w1 = w1 - lr * vw1
            vb1 = opt.momentum * vb1 + gb1
            b1 = b1 - lr * vb1
            vw2 = opt.momentum * vw2 + (gw2 + opt.weight_decay * w2)
            w2 = w2 - lr * vw2
            vb2 = opt.momentum * vb2 + gb2
            b2 = b2 - lr * vb2
            t += 1
    assert np.array_equal(produced.weights[0], w1)
    assert np.array_equal(produced.biases[0], b1)
    assert np.array_equal(produced.weights[1], w2)
    assert np.array_equal(produced.biases[1], b2)


def test_schedule_peaks_near_three_quarters_of_epochs(make_blobs):
    pair = blob_pair(make_blobs)
    for kind in ("laplace", "logistic"):
        cfg = blob_config(epochs=8, mode="global", schedule_kind=kind, b=0.2)
        _, metrics = train(cfg, 0, pair)
        peak_epoch = int(np.argmax([m.s_t for m in metrics]))
        assert peak_epoch in (5, 6)  # nearest 0.75 * 8 epochs


def test_recorded_scale_matches_independent_evaluation(make_blobs):
    pair = blob_pair(make_blobs)
    cfg = blob_config(epochs=8, mode="global", schedule_kind="laplace", b=0.5)
    _, metrics = train(cfg, 1, pair)
    n = pair[0].n
    iters_per_epoch = -(-n // cfg.batch_size)
    total = cfg.epochs * iters_per_epoch
    for m in metrics:
        progress = ((m.epoch + 1) * iters_per_epoch - 1) / total
        assert m.s_t == pytest.approx(scale_at(cfg.schedule, progress), abs=1e-12)


@pytest.mark.parametrize("mode", ["global", "local", "global_local"])
def test_mean_kappa_bounded_by_scale(make_blobs, mode):
    pair = blob_pair(make_blobs)
    cfg = blob_config(epochs=10, mode=mode, schedule_kind="laplace", b=0.5, alpha=1.0)
    _, metrics = train(cfg, 2, pair)
    assert any(m.mean_kappa > 0.0 for m in metrics)
    for m in metrics:
        assert m.mean_kappa <= m.s_t + 1e-12


def test_local_mode_trains_with_kappa_under_its_fixed_scale(make_blobs):
    pair = blob_pair(make_blobs)
    cfg = blob_config(epochs=6, mode="local", alpha=1.0)
    cfg = dataclasses.replace(cfg, smoothing=dataclasses.replace(cfg.smoothing, local_scale=0.3,
                                                                 n_steps=2))
    net_a, metrics_a = train(cfg, 4, pair)
    net_b, metrics_b = train(cfg, 4, pair)
    assert any(m.mean_kappa > 0.0 for m in metrics_a)
    assert all(m.mean_kappa <= 0.3 for m in metrics_a)
    assert metrics_a == metrics_b
    assert net_a.params.tobytes() == net_b.params.tobytes()


def test_label_smoothing_trains(make_blobs):
    pair = blob_pair(make_blobs)
    _, metrics = train(blob_config(epochs=10, label_smoothing=0.1), 0, pair)
    assert metrics[-1].train_acc > 90.0
    assert all(m.mean_kappa == 0.0 for m in metrics)


def test_divergence_aborts_with_diagnostic(make_blobs):
    pair = blob_pair(make_blobs)
    cfg = blob_config(epochs=30, output_activation="identity",
                      optimizer=SgdConfig(lr_high=1e12, lr_low=1e10, momentum=0.9))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="iteration"):
            train(cfg, 0, pair)


def test_parameters_poisoned_mid_epoch_name_their_layers(make_blobs, monkeypatch):
    # the second step writes NaN into layer 0 and inf into layer 1; the
    # third batch's loss is the first to see them
    real_step, calls = optim.Sgd.step, []

    def poisoning_step(self, network, grads, progress):
        real_step(self, network, grads, progress)
        calls.append(progress)
        if len(calls) == 2:
            network.biases[0][0] = np.nan
            network.weights[1][0, 0] = np.inf

    monkeypatch.setattr(optim.Sgd, "step", poisoning_step)
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError, match=r"^non-finite loss at iteration 2 "
                                                r"\(epoch 0, batch 2\); layers \[0, 1\]$"):
            train(blob_config(epochs=2, batch_size=16), 0, blob_pair(make_blobs))


def test_finite_parameters_whose_loss_overflows_say_so(make_blobs, monkeypatch):
    # identity outputs of a network scaled by 1e200 are finite parameters
    # times finite activations, and their squares overflow to inf
    real_build = nn.build_network

    def huge_network(*args):
        network = real_build(*args)
        network.params *= 1e200
        return network

    monkeypatch.setattr(nn, "build_network", huge_network)
    cfg = blob_config(epochs=1, output_activation="identity")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"^non-finite loss at iteration 0 "
                                                r"\(epoch 0, batch 0\); "
                                                r"parameters finite; loss overflow$"):
            train(cfg, 0, blob_pair(make_blobs))


def test_parameters_poisoned_by_the_last_step_fail_the_epoch_end_check(make_blobs,
                                                                       monkeypatch):
    # one batch per epoch: its loss is taken before the step that writes NaN
    # into the last bias, so only the check after the epoch can see it
    real_step = optim.Sgd.step

    def poisoning_step(self, network, grads, progress):
        real_step(self, network, grads, progress)
        network.biases[-1][0] = np.nan

    monkeypatch.setattr(optim.Sgd, "step", poisoning_step)
    pair = blob_pair(make_blobs)
    assert pair[0].n <= 128
    with pytest.raises(TrainingError, match=r"^non-finite parameters in layer 1 after epoch 0$"):
        train(blob_config(epochs=3, batch_size=128), 0, pair)


def test_augmentation_path_is_deterministic_and_active():
    from ressmooth.data import Dataset
    rng = np.random.default_rng(30)
    n = 48
    labels = (np.arange(n) % 2).astype(np.int64)
    inputs = rng.random((n, 3072)) * 0.5 + labels[:, None] * 0.3
    pair = (Dataset(inputs, labels, 2, "train"), Dataset(inputs[:16], labels[:16], 2, "test"))
    spec = dataclasses.replace(BLOB_DATASET, kind="cifar10", train_images="", train_labels="",
                               test_images="", test_labels="",
                               train_files=("unused",), test_files=("unused",))
    cfg = dataclasses.replace(blob_config(epochs=2, hidden=(8,)),
                              dataset=dataclasses.replace(spec, augment=True))
    net_a, metrics_a = train(cfg, 0, pair)
    net_b, metrics_b = train(cfg, 0, pair)
    assert metrics_a == metrics_b
    assert np.array_equal(net_a.weights[0], net_b.weights[0])
    plain_cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(spec, augment=False))
    net_c, metrics_c = train(plain_cfg, 0, pair)
    assert metrics_c != metrics_a  # augmentation really perturbs the inputs


def test_train_rejects_empty_split(make_blobs):
    from ressmooth.data import Dataset
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, np.int64), 2, "train")
    with pytest.raises(InputError):
        train(blob_config(), 0, (empty, blob_pair(make_blobs)[1]))


def _same_network(net_a, net_b):
    return net_a.params.tobytes() == net_b.params.tobytes()


def test_training_on_codes_equals_training_on_scaled_features(make_blobs):
    """A pair of uint8 codes, scaled a batch at a time, trains and evaluates
    bitwise like the same pair scaled up front; with augmentation too, since
    zero codes pad to the same 0.0 features."""
    def to_codes(ds):
        codes = np.clip(ds.inputs * 40 + 128, 0, 255).astype(np.uint8)
        return dataclasses.replace(ds, inputs=codes)

    def scaled(ds):
        return dataclasses.replace(ds, inputs=ds.inputs / 255.0)

    codes_pair = tuple(to_codes(ds) for ds in blob_pair(make_blobs))
    features_pair = tuple(scaled(ds) for ds in codes_pair)
    cfg = blob_config(epochs=3, mode="global_local", schedule_kind="laplace", alpha=1.0)
    net_codes, metrics_codes = train(cfg, 0, codes_pair)
    net_features, metrics_features = train(cfg, 0, features_pair)
    assert metrics_codes == metrics_features
    assert _same_network(net_codes, net_features)
    assert evaluate(net_codes, codes_pair[1]) == evaluate(net_codes, features_pair[1])

    from ressmooth.data import Dataset
    rng = np.random.default_rng(36)
    labels = (np.arange(40) % 2).astype(np.int64)
    codes = rng.integers(0, 256, size=(40, 3072)).astype(np.uint8)
    codes_pair = (Dataset(codes, labels, 2, "train"), Dataset(codes[:12], labels[:12], 2, "test"))
    features_pair = tuple(scaled(ds) for ds in codes_pair)
    spec = dataclasses.replace(BLOB_DATASET, kind="cifar10", augment=True, train_images="",
                               train_labels="", test_images="", test_labels="",
                               train_files=("unused",), test_files=("unused",))
    cfg = dataclasses.replace(blob_config(epochs=2), dataset=spec)
    net_codes, metrics_codes = train(cfg, 0, codes_pair)
    net_features, metrics_features = train(cfg, 0, features_pair)
    assert metrics_codes == metrics_features
    assert _same_network(net_codes, net_features)


# --- evaluation ------------------------------------------------------------------

def test_evaluate_perfect_network(make_blobs):
    pair = blob_pair(make_blobs)
    _, _ = pair
    net, _ = train(blob_config(epochs=20), 0, pair)
    train_acc, train_loss = evaluate(net, pair[0])
    assert train_acc == 100.0
    assert train_loss >= 0.0


def test_evaluate_uniform_network_hits_class_zero_frequency(make_blobs):
    test_ds = blob_pair(make_blobs)[1]
    net = build_network([test_ds.feature_count, test_ds.class_count])  # zero weights
    acc, _ = evaluate(net, test_ds)
    class0 = float(np.mean(test_ds.labels == 0))
    assert acc == pytest.approx(100.0 * class0, abs=1e-12)


def test_evaluate_shuffle_invariant(make_blobs):
    test_ds = blob_pair(make_blobs)[1]
    net = net_of([(np.random.default_rng(0).normal(size=(2, 4)), np.zeros(2))], ["softmax"])
    perm = np.random.default_rng(1).permutation(test_ds.n)
    shuffled = dataclasses.replace(test_ds, inputs=test_ds.inputs[perm],
                                   labels=test_ds.labels[perm])
    assert evaluate(net, test_ds)[0] == evaluate(net, shuffled)[0]


def test_evaluate_empty_dataset():
    from ressmooth.data import Dataset
    net = build_network([4, 2])
    with pytest.raises(InputError):
        evaluate(net, Dataset(np.zeros((0, 4)), np.zeros(0, np.int64), 2, "test"))


# --- summaries and trials ------------------------------------------------------------

def test_summarize_tail_window():
    rows = [EpochMetrics(i, 0.0, 0.0, float(v), 0.0, 0.0)
            for i, v in enumerate([50, 60, 80, 70, 75, 72, 71, 74, 73, 76,
                                   77, 78, 79, 80, 81, 82, 83, 84, 85, 86])]
    max_val_acc, tail_mean_val_acc = summarize(rows)
    assert max_val_acc == 86.0
    assert tail_mean_val_acc == 85.5  # mean of the last 2 of 20
    assert tail_mean_val_acc <= max_val_acc


def test_run_trials_single_trial_equals_train(make_blobs):
    pair = blob_pair(make_blobs)
    cfg = blob_config(epochs=5, trials=1)
    aggregate = run_trials(cfg, pair)
    _, metrics = train(cfg, cfg.base_seed, pair)
    max_val_acc, tail_mean_val_acc = summarize(metrics)
    assert len(aggregate.rows) == 1
    assert aggregate.rows[0].max_val_acc == max_val_acc
    assert aggregate.mean_max_val_acc == max_val_acc
    assert aggregate.mean_tail_val_acc == tail_mean_val_acc


def test_run_trials_mean_of_max_dominates(make_blobs):
    pair = blob_pair(make_blobs)
    aggregate = run_trials(blob_config(epochs=5, trials=3), pair)
    assert len(aggregate.rows) == 3
    assert aggregate.mean_max_val_acc >= aggregate.mean_tail_val_acc
    assert [r.trial for r in aggregate.rows] == [0, 1, 2]


def test_run_trials_repeatable(make_blobs):
    pair = blob_pair(make_blobs)
    cfg = blob_config(epochs=4, trials=2, base_seed=9)
    a = run_trials(cfg, pair)
    b = run_trials(cfg, pair)
    assert a.rows == b.rows


# --- grid search -----------------------------------------------------------------------

def test_grid_single_point_equals_run_trials(make_blobs, monkeypatch):
    pair = blob_pair(make_blobs)
    monkeypatch.setattr("ressmooth.harness.prepare_data", lambda cfg: pair)
    cfg = blob_config(epochs=4, trials=1, mode="global_local",
                      schedule_kind="laplace", alpha=1.0)
    rows, best = grid_search(cfg, [0.5], [1.0])
    direct = run_trials(dataclasses.replace(
        cfg,
        schedule=dataclasses.replace(cfg.schedule, b=0.5),
        smoothing=dataclasses.replace(cfg.smoothing, alpha=1.0)), pair)
    assert tuple(rows) == direct.rows
    assert best == (0.5, 1.0, direct.mean_max_val_acc)


def test_grid_shape_and_tags(make_blobs, monkeypatch):
    pair = blob_pair(make_blobs)
    monkeypatch.setattr("ressmooth.harness.prepare_data", lambda cfg: pair)
    cfg = blob_config(epochs=2, trials=2, mode="global_local",
                      schedule_kind="laplace", alpha=1.0)
    rows, best = grid_search(cfg, [0.3, 0.1], [2.0, 1.0])
    points = [(0.1, 1.0), (0.1, 2.0), (0.3, 1.0), (0.3, 2.0)]
    assert [(r.b, r.alpha, r.trial) for r in rows] == [
        (b, alpha, k) for b, alpha in points for k in range(2)]
    means = [(rows[2 * i].max_val_acc + rows[2 * i + 1].max_val_acc) / 2 for i in range(4)]
    first_best = means.index(max(means))
    assert best == (*points[first_best], means[first_best])


def _equal_aggregate(cfg, dataset_pair):
    """What run_trials returns, with the same accuracy at every grid point."""
    row = TrialRow(cfg.schedule.b, cfg.smoothing.alpha, 0, 50.0, 40.0)
    return TrialAggregate((row,), 50.0, 40.0, ((),), (None,))


def test_grid_tie_break_prefers_smallest(monkeypatch):
    monkeypatch.setattr(harness, "prepare_data", lambda cfg: None)
    monkeypatch.setattr(harness, "run_trials", _equal_aggregate)
    cfg = blob_config(mode="global_local", schedule_kind="laplace", alpha=1.0)
    rows, best = grid_search(cfg, [0.7, 0.3], [2.0, 0.5])
    assert [(r.b, r.alpha) for r in rows] == [(0.3, 0.5), (0.3, 2.0), (0.7, 0.5), (0.7, 2.0)]
    assert best == (0.3, 0.5, 50.0)


def test_grid_best_is_the_first_point_of_the_largest_mean(monkeypatch):
    def run_trials(cfg, dataset_pair):  # two points tie at the largest mean, after a worse one
        mean = {(0.3, 0.5): 40.0, (0.3, 2.0): 60.0, (0.7, 0.5): 60.0}.get(
            (cfg.schedule.b, cfg.smoothing.alpha), 50.0)
        row = TrialRow(cfg.schedule.b, cfg.smoothing.alpha, 0, mean, 40.0)
        return TrialAggregate((row,), mean, 40.0, ((),), (None,))

    monkeypatch.setattr(harness, "prepare_data", lambda cfg: None)
    monkeypatch.setattr(harness, "run_trials", run_trials)
    cfg = blob_config(mode="global_local", schedule_kind="laplace", alpha=1.0)
    assert grid_search(cfg, [0.7, 0.3], [2.0, 0.5])[1] == (0.3, 2.0, 60.0)


def test_grid_keeps_no_network(make_blobs, monkeypatch):
    # a weakref to every network train returns: once a point ends, its
    # networks are gone, both while the next point trains and in the result
    pair = blob_pair(make_blobs)
    monkeypatch.setattr(harness, "prepare_data", lambda cfg: pair)
    real_train, refs, alive_at_start = harness.train, [], []

    def spy(*args):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in refs))
        network, metrics = real_train(*args)
        refs.append(weakref.ref(network))
        return network, metrics

    monkeypatch.setattr(harness, "train", spy)
    cfg = blob_config(epochs=1, trials=2, mode="global_local", schedule_kind="laplace",
                      alpha=1.0)
    result = grid_search(cfg, [0.1, 0.3], [1.0, 2.0])
    gc.collect()
    assert len(result[0]) == len(refs) == 8
    assert alive_at_start == [0, 1] * 4  # only the point's own earlier trial
    assert [ref() for ref in refs] == [None] * 8


@pytest.mark.parametrize("mode, kind, local_scale, b_values, alpha_values, unread", [
    ("global", "off", 1.0, [0.7, 0.3], [1.0], "b"),
    ("local", "laplace", 1.0, [0.7, 0.3], [1.0], "b"),
    ("global_local", "off", 1.0, [0.7, 0.3], [1.0], "b"),
    ("global", "laplace", 1.0, [0.5], [1.0, 2.0], "alpha"),
    ("global_local", "off", 1.0, [0.5], [1.0, 2.0], "alpha"),
    ("local", "laplace", 0.0, [0.5], [0.5, 1.0, 4.0], "alpha"),
    ("global", "logistic", 1.0, [0.7, 0.3], [1.0], None),
    ("global_local", "laplace", 1.0, [0.7, 0.3], [1.0, 2.0], None),
    ("local", "off", 1.0, [0.5], [1.0, 2.0], None),
])
def test_grid_refuses_several_values_on_an_axis_the_config_never_reads(
        monkeypatch, mode, kind, local_scale, b_values, alpha_values, unread):
    monkeypatch.setattr(harness, "prepare_data", lambda cfg: None)
    monkeypatch.setattr(harness, "run_trials", _equal_aggregate)
    cfg = blob_config(mode=mode, alpha=1.0)
    cfg = dataclasses.replace(cfg, schedule=AnnealSchedule(kind=kind),
                              smoothing=dataclasses.replace(cfg.smoothing, local_scale=local_scale))
    if unread is None:
        rows, _ = grid_search(cfg, b_values, alpha_values)
        assert len(rows) == len(b_values) * len(alpha_values)  # one trial per point
    else:
        with pytest.raises(ConfigError, match=f"never reads {unread}: every point") as err:
            grid_search(cfg, b_values, alpha_values)
        assert ("with local_scale 0 never" in str(err.value)) == (local_scale == 0.0)


@pytest.mark.parametrize("b_values, alpha_values, message", [
    ([0.0, 0.5], [1.0], r"^schedule scale b must be > 0, got 0.0$"),
    ([0.5], [1.0, -0.5], r"^alpha must be >= 0, got -0.5$")])
def test_grid_refuses_a_bad_point_before_reading_the_corpus(monkeypatch, b_values,
                                                            alpha_values, message):
    def prepare_data(cfg):
        raise AssertionError("read the corpus for a grid with a point the config refuses")

    monkeypatch.setattr(harness, "prepare_data", prepare_data)
    cfg = blob_config(mode="global_local", schedule_kind="laplace", alpha=1.0)
    with pytest.raises(ConfigError, match=message):
        grid_search(cfg, b_values, alpha_values)


def test_grid_rejects_empty():
    for mode in ("global_local", "off"):  # an empty axis is named first, in every mode
        cfg = blob_config(mode=mode, schedule_kind="laplace", alpha=1.0)
        for b_values, alpha_values, name in [([], [1.0], "b"), ([0.5], [], "alpha"),
                                             ([], [], "b")]:
            with pytest.raises(ConfigError, match=f"^{name} grid must list at least one value$"):
                grid_search(cfg, b_values, alpha_values)


# --- CSV emission ------------------------------------------------------------------------

def test_metrics_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics_csv([], path)
    assert path.read_text() == METRICS_HEADER + "\n"


def test_metrics_csv_round_trip(tmp_path):
    metrics = [EpochMetrics(0, 1.234567890, 12.3, 45.6, 0.5, 0.25),
               EpochMetrics(1, 0.5, 99.0, 88.8, 1.0, 0.5)]
    path = tmp_path / "m.csv"
    write_metrics_csv(metrics, path)
    header, rows = read_csv(path)
    assert header == METRICS_HEADER.split(",")
    assert rows[0][0] == "0"
    assert float(rows[0][1]) == pytest.approx(1.234568, abs=1e-9)  # six decimals
    assert float(rows[1][3]) == 88.8


def test_csv_emission_is_byte_stable(tmp_path, make_blobs):
    pair = blob_pair(make_blobs)
    cfg = blob_config(epochs=3)
    for name in ("a.csv", "b.csv"):
        _, metrics = train(cfg, 0, pair)
        write_metrics_csv(metrics, tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_aggregate_csv_schema(tmp_path, make_blobs):
    # the (b, alpha) columns are the settings the run reads, 0 for one it does not
    pair = blob_pair(make_blobs)
    for mode, kind, local_scale, columns in [
            ("off", "laplace", 1.0, ("0.000000", "0.000000")),
            ("global", "laplace", 1.0, ("0.300000", "0.000000")),
            ("local", "laplace", 1.0, ("0.000000", "1.500000")),
            ("global_local", "laplace", 1.0, ("0.300000", "1.500000")),
            ("global_local", "off", 1.0, ("0.000000", "0.000000")),
            ("local", "laplace", 0.0, ("0.000000", "0.000000"))]:
        cfg = blob_config(epochs=2, trials=2, mode=mode, schedule_kind=kind, b=0.3, alpha=1.5)
        cfg = dataclasses.replace(cfg, smoothing=dataclasses.replace(cfg.smoothing,
                                                                     local_scale=local_scale))
        path = tmp_path / f"{mode}-{kind}-{local_scale}.csv"
        write_aggregate_csv(run_trials(cfg, pair).rows, path)
        header, rows = read_csv(path)
        assert header == AGGREGATE_HEADER.split(",")
        assert len(rows) == 2
        assert [tuple(row[:2]) for row in rows] == [columns] * 2, (mode, kind, local_scale)
        assert rows[0][2] == "0" and rows[1][2] == "1"
