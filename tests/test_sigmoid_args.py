"""Each smoothing mode is one diffusivity formula, kappa = scale *
sigmoid(alpha * normalized residual), at the (scale, alpha) that
`smoothing.sigmoid_args` picks: checked through whole training runs, and
through the value-chosen fast paths of `batch_diffusivity`."""

import dataclasses

import numpy as np
import pytest

from ressmooth import smoothing
from ressmooth.annealing import AnnealSchedule
from ressmooth.config import DatasetSpec, ExperimentConfig, ModelSpec
from ressmooth.harness import train, write_metrics_csv
from ressmooth.optim import AdamConfig, SgdConfig
from ressmooth.smoothing import SmoothingConfig, batch_diffusivity, batch_smoothed_loss_grad

OPTIMIZERS = {"sgd": SgdConfig(momentum=0.9, weight_decay=1e-3), "adam": AdamConfig(lr=0.01)}
CENTERS = ((2.0, 0.0, 0.0, 0.0), (-2.0, 0.0, 0.0, 0.0), (0.0, 2.0, 0.0, 0.0))


def _config(optimizer, smoothing_cfg, schedule):
    return ExperimentConfig(
        dataset=DatasetSpec(kind="fashion_mnist", train_images="unused",
                            train_labels="unused", test_images="unused", test_labels="unused"),
        model=ModelSpec(hidden=(8,)), optimizer=OPTIMIZERS[optimizer], epochs=3,
        smoothing=smoothing_cfg, schedule=schedule, batch_size=16)


@pytest.fixture
def blobs(make_blobs):
    """90 train rows, five full batches and a short one, in three classes."""
    return (make_blobs(n_per_class=30, centers=CENTERS, noise=0.8, seed=5),
            make_blobs(n_per_class=10, centers=CENTERS, noise=0.8, seed=6, split="test"))


def _run(config, pair):
    """(parameter bytes, each epoch's metrics as a dict of float bytes)."""
    network, metrics = train(config, 7, pair)
    return network.params.tobytes(), [
        {name: np.float64(value).tobytes() for name, value in dataclasses.asdict(m).items()}
        for m in metrics]


@pytest.mark.parametrize("n_steps", [1, 3])
@pytest.mark.parametrize("kind", ["laplace", "logistic", "off"])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_global_trains_bitwise_like_global_local_at_alpha_zero(blobs, optimizer, kind, n_steps):
    schedule = AnnealSchedule(kind=kind, b=0.3)
    got = _run(_config(optimizer, SmoothingConfig(mode="global", alpha=1.5, n_steps=n_steps),
                       schedule), blobs)
    want = _run(_config(optimizer, SmoothingConfig(mode="global_local", alpha=0.0,
                                                   n_steps=n_steps), schedule), blobs)
    assert got == want
    assert any(m["mean_kappa"] != np.float64(0.0).tobytes() for m in got[1]) == (kind != "off")


@pytest.mark.parametrize("n_steps", [1, 3])
@pytest.mark.parametrize("s", [0.3, 0.9])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_local_trains_bitwise_alike_under_every_schedule(blobs, optimizer, s, n_steps):
    """Mode local reads no schedule: its kappa's scale and its logged s_t are local_scale."""
    smoothing_cfg = SmoothingConfig(mode="local", alpha=1.5, n_steps=n_steps, local_scale=s)
    got, *others = [_run(_config(optimizer, smoothing_cfg, AnnealSchedule(kind=kind, b=0.3)),
                         blobs) for kind in ("laplace", "logistic", "off")]
    assert others == [got, got]
    assert [m["s_t"] for m in got[1]] == [np.float64(s).tobytes()] * 3


# --- fast paths chosen by value ----------------------------------------------------

FAST_PATHS = [  # (config, s_t, the constant kappa)
    pytest.param(SmoothingConfig(mode="global_local", alpha=1.5), 0.0, 0.0, id="s_t-0"),
    pytest.param(SmoothingConfig(mode="local", alpha=1.5, local_scale=0.0), 0.7, 0.0,
                 id="local_scale-0"),
    pytest.param(SmoothingConfig(mode="local", alpha=1.5, local_scale=-0.0), 0.7, -0.0,
                 id="local_scale--0"),
    pytest.param(SmoothingConfig(mode="local", alpha=0.0, local_scale=0.9), 0.7, 0.45,
                 id="local-alpha-0"),
    pytest.param(SmoothingConfig(mode="global_local", alpha=0.0), 0.7, 0.35,
                 id="global_local-alpha-0"),
    pytest.param(SmoothingConfig(mode="global", alpha=1.5), 0.7, 0.35, id="global"),
    pytest.param(SmoothingConfig(mode="off", alpha=1.5), 0.7, 0.0, id="off"),
]


@pytest.mark.parametrize("cfg, s_t, kappa", FAST_PATHS)
def test_scale_zero_and_alpha_zero_normalize_nothing(monkeypatch, cfg, s_t, kappa):
    def refuse(d_rows):
        raise AssertionError("normalized residuals the sigmoid does not read")

    monkeypatch.setattr(smoothing, "batch_normalize", refuse)
    d_rows = np.random.default_rng(6).random((5, 7))
    got = batch_diffusivity(d_rows, s_t, cfg)
    assert got.tobytes() == np.full((5, 7), kappa).tobytes()


@pytest.mark.parametrize("cfg, s_t, kappa", FAST_PATHS + [pytest.param(
    SmoothingConfig(mode="global_local", alpha=1.5), 0.7, None, id="sigmoid")])
def test_a_nan_prediction_row_gives_a_nan_loss_on_every_path(cfg, s_t, kappa):
    """So the training loop's non-finite loss check still fires."""
    rng = np.random.default_rng(8)
    preds = rng.random((4, 6))
    preds[2, 3] = np.nan
    targets = np.eye(6)[[0, 1, 2, 3]]
    with np.errstate(invalid="ignore"):
        loss, _, _ = batch_smoothed_loss_grad(preds, targets, s_t, dataclasses.replace(
            cfg, n_steps=2))
    assert np.isnan(loss[2])
    assert np.all(np.isfinite(np.delete(loss, 2)))


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_a_local_scale_of_minus_zero_trains_like_plus_zero(blobs, tmp_path, optimizer):
    """local_scale = -0 passes the [0, 1] check and its kappa is the constant -0.0
    (scale / 2), which smooths nothing: the network is +0's bit for bit, and mean_kappa
    is +0.0, as the kappa sum starts at +0.0. The logged s_t keeps the sign."""
    schedule = AnnealSchedule(kind="laplace", b=0.3)
    minus = SmoothingConfig(mode="local", alpha=1.5, local_scale=-0.0)
    network, metrics = train(_config(optimizer, minus, schedule), 7, blobs)
    plus, _ = train(_config(optimizer, dataclasses.replace(minus, local_scale=0.0), schedule),
                    7, blobs)
    assert network.params.tobytes() == plus.params.tobytes()
    assert [np.float64(m.mean_kappa).tobytes() for m in metrics] == [np.float64(0.0).tobytes()] * 3
    write_metrics_csv(metrics, tmp_path / "metrics.csv")
    rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-2:] for row in rows] == [["-0.000000", "0.000000"]] * 3
