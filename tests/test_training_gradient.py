"""The gradient the training loop hands its optimizer, checked by central
differences of the dense per-sample smoothed loss in `oracles.py`: through
`harness.train` itself, so the `/ rows` scaling, label smoothing, several
smoothing steps, a short final batch and the network's layers (relu on every
one but the last, softmax or identity there) are all on the checked path."""

import numpy as np
import pytest

from oracles import diffusivity, forward, normalize_residual, smoothed_loss, smoothing_matrix
from ressmooth import data, harness, optim
from ressmooth.annealing import AnnealSchedule, scale_at
from ressmooth.config import DatasetSpec, ExperimentConfig, ModelSpec
from ressmooth.optim import SgdConfig
from ressmooth.smoothing import SmoothingConfig

CENTERS = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


class Recorder:
    """An optimizer that keeps a copy of each step's gradient and progress
    and updates nothing, so every step sees the initial parameters. The
    schedules take progress as given: the loop must keep it in [0, 1)."""

    def __init__(self, network):
        self.network = network
        self.steps = []

    def step(self, network, grads, progress):
        assert 0.0 <= progress < 1.0
        self.steps.append((grads.copy(), progress))


def _frozen_loss(network, x, y, s_t, cfg):
    """sum(smoothed loss rows) / rows as a function of the network's
    parameters, each row's smoothing matrix frozen at the current ones."""
    mats = []
    for xi, yi in zip(x, y):
        d = np.abs(forward(network, xi).prediction - yi)
        feed = d if cfg.mode == "global" else normalize_residual(d).d_tilde
        mats.append(smoothing_matrix(diffusivity(feed, s_t, cfg.alpha, cfg.mode,
                                                 cfg.local_scale)))
    return lambda: sum(smoothed_loss(np.abs(forward(network, xi).prediction - yi), w,
                                     cfg.n_steps) for xi, yi, w in zip(x, y, mats)) / len(x)


OFF = (SmoothingConfig(mode="off"), AnnealSchedule(), 0.1)
GLOBAL_LOCAL = (SmoothingConfig(mode="global_local", alpha=1.5, n_steps=2),
                AnnealSchedule(kind="laplace", b=0.3), 0.0)
DEEP = ModelSpec(hidden=(5, 4), output_activation="identity")


@pytest.mark.parametrize("smoothing_cfg, schedule, label_smoothing, model", [
    (*OFF, ModelSpec(hidden=(5,))), (*GLOBAL_LOCAL, ModelSpec(hidden=(5,))),
    (*OFF, DEEP), (*GLOBAL_LOCAL, DEEP)],
    ids=["off-label-smoothing", "global_local", "deep-identity-off-label-smoothing",
         "deep-identity-global_local"])
def test_each_step_hands_the_optimizer_the_smoothed_loss_gradient(
        make_blobs, fd_grad, monkeypatch, smoothing_cfg, schedule, label_smoothing, model):
    train_ds = make_blobs(n_per_class=15, centers=CENTERS, noise=0.5, seed=11)
    test_ds = make_blobs(n_per_class=4, centers=CENTERS, noise=0.5, seed=12, split="test")
    config = ExperimentConfig(
        dataset=DatasetSpec(kind="fashion_mnist", train_images="unused",
                            train_labels="unused", test_images="unused", test_labels="unused"),
        model=model, optimizer=SgdConfig(), epochs=1,
        smoothing=smoothing_cfg, schedule=schedule, label_smoothing=label_smoothing,
        batch_size=16)
    recorders, rows = [], []
    real_batches = data.batches

    def make_recorder(optimizer_config, network):
        recorders.append(Recorder(network))
        return recorders[-1]

    def recorded_batches(*args):
        for idx in real_batches(*args):
            rows.append(idx.copy())
            yield idx

    monkeypatch.setattr(optim, "make_optimizer", make_recorder)
    monkeypatch.setattr(data, "batches", recorded_batches)
    harness.train(config, 3, (train_ds, test_ds))

    (recorder,) = recorders
    assert [idx.size for idx in rows] == [16, 16, 13]  # 45 rows: a short final batch
    assert len(recorder.steps) == len(rows)
    assert recorder.steps[-1][1] == (len(rows) - 1) / len(rows)  # (T - 1) / T
    network = recorder.network
    assert network.dims == [3, *model.hidden, 3]
    m = train_ds.class_count
    for idx, (grads, progress) in zip(rows, recorder.steps):
        s_t = scale_at(schedule, progress) if smoothing_cfg.mode != "off" else 0.0
        y = (1.0 - label_smoothing) * np.eye(m)[train_ds.labels[idx]] + label_smoothing / m
        loss = _frozen_loss(network, train_ds.inputs[idx], y, s_t, smoothing_cfg)
        (want,) = fd_grad(loss, [network.params])
        np.testing.assert_allclose(grads, want, rtol=1e-6, atol=1e-9)
