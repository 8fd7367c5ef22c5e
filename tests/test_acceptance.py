"""End-to-end acceptance gates. Each test prints one PASS line with the
measured values (run with -s to see them inline).

The protocol tests (1, 5, 6, 7, 8) run on real Fashion-MNIST when the files
are available (see conftest) and otherwise on the deterministic surrogate
corpus; the printed lines name the source in use.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import read_csv
from oracles import smoothed_loss, smoothing_matrix
from ressmooth.annealing import AnnealSchedule, laplace_pdf_scaled, logistic_pdf_scaled
from ressmooth.cli import main as cli_main
from ressmooth.config import DatasetSpec, ExperimentConfig, ModelSpec
from ressmooth.harness import prepare_data, run_trials, train, write_metrics_csv
from ressmooth.nn import backward_batch, build_network, forward_batch, save_checkpoint
from ressmooth.optim import AdaGradConfig, AdamConfig, SgdConfig
from ressmooth.smoothing import SmoothingConfig, batch_smoothed_loss_grad


def dataset_spec(corpus, take=10000, ratio=1.0, seed=101):
    return DatasetSpec(kind="fashion_mnist",
                       train_images=corpus["train_images"],
                       train_labels=corpus["train_labels"],
                       test_images=corpus["test_images"],
                       test_labels=corpus["test_labels"],
                       take=take, subsample_ratio=ratio, seed=seed)


def protocol_config(corpus, take=10000, ratio=1.0, epochs=15, trials=3, **overrides):
    base = ExperimentConfig(
        dataset=dataset_spec(corpus, take=take, ratio=ratio),
        model=ModelSpec(hidden=(256,)),
        optimizer=SgdConfig(lr_high=0.1, lr_low=0.001, drop_at=0.75,
                            momentum=0.9, weight_decay=1e-3),
        epochs=epochs, batch_size=128, trials=trials, base_seed=0)
    return dataclasses.replace(base, **overrides) if overrides else base


@pytest.fixture(scope="session")
def tenk_pair(corpus):
    cfg = protocol_config(corpus)
    return prepare_data(cfg)


def test_criterion_1_zero_diffusion_equivalence(corpus, tmp_path):
    started = time.perf_counter()
    cfg_off = protocol_config(corpus, take=2000, epochs=5)
    cfg_zero = dataclasses.replace(
        cfg_off,
        smoothing=SmoothingConfig(mode="global_local", alpha=1.0),
        schedule=AnnealSchedule(kind="off"))
    pair = prepare_data(cfg_off)
    net_off, metrics_off = train(cfg_off, 0, pair)
    net_zero, metrics_zero = train(cfg_zero, 0, pair)

    save_checkpoint(net_off, tmp_path / "off.rsm")
    save_checkpoint(net_zero, tmp_path / "zero.rsm")
    write_metrics_csv(metrics_off, tmp_path / "off.csv")
    write_metrics_csv(metrics_zero, tmp_path / "zero.csv")
    assert (tmp_path / "off.rsm").read_bytes() == (tmp_path / "zero.rsm").read_bytes()
    assert (tmp_path / "off.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 zero-diffusion equivalence: PASS "
          f"(bit-identical checkpoints and CSVs on {corpus['source']}, {elapsed:.1f}s)")


def test_criterion_2_gradient_oracle():
    """The training path forward_batch -> batch_smoothed_loss_grad ->
    backward_batch against central differences of sum_b ||W_b d_b||^2, with
    each W_b the dense smoothing matrix of the kappa row the analytic call
    returned, held constant."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240903)
    extra_rng = np.random.default_rng(20240905)  # rows 2-4 at B = 4, apart from the configs
    checked = 0
    for mode in ("global", "local", "global_local"):
        for _ in range(7):
            net = build_network([20, 16, 10], rng=rng)
            x = rng.uniform(0.0, 1.0, size=20)
            y = np.eye(10)[int(rng.integers(0, 10))]
            s_t = float(rng.uniform(0.3, 1.0))
            alpha = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))
            cfg = SmoothingConfig(mode=mode, alpha=alpha)
            xs = np.vstack([x, extra_rng.uniform(0.0, 1.0, size=(3, 20))])
            ys = np.vstack([y, np.eye(10)[extra_rng.integers(0, 10, size=3)]])

            for b in (1, 4):
                xb, yb = xs[:b], ys[:b]
                acts = forward_batch(net, xb)
                _, grad, kappa = batch_smoothed_loss_grad(acts[-1], yb, s_t, cfg)
                analytic = net.views(backward_batch(net, acts, grad, np.empty_like(net.params)))
                ws = [smoothing_matrix(k) for k in kappa]

                def loss():
                    d = np.abs(forward_batch(net, xb)[-1] - yb)
                    return sum(smoothed_loss(d_i, w) for d_i, w in zip(d, ws))

                h = 1e-6
                for w, b, gw, gb in zip(net.weights, net.biases, *analytic):
                    for arr, grad_arr in ((w, gw), (b, gb)):
                        flat = arr.reshape(-1)
                        gflat = grad_arr.reshape(-1)
                        fd = np.empty_like(gflat)
                        for j in range(flat.size):
                            orig = flat[j]
                            flat[j] = orig + h
                            f_plus = loss()
                            flat[j] = orig - h
                            f_minus = loss()
                            flat[j] = orig
                            fd[j] = (f_plus - f_minus) / (2.0 * h)
                        assert np.allclose(gflat, fd, rtol=1e-5, atol=1e-8), \
                            f"gradient mismatch in mode {mode} at B={b}"
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 21
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 gradient oracle: PASS "
          f"({checked} random configs over 3 modes on the batch path at B=1 and B=4, "
          f"h=1e-6, rel<=1e-5, {elapsed:.1f}s)")


def test_criterion_3_smoothing_matrix_invariants():
    rng = np.random.default_rng(20240904)
    for m in (2, 10, 100):
        worst_row = 0.0
        min_entry = np.inf
        for _ in range(10000):
            kappa = rng.uniform(0.0, 1.0, size=m) * (1.0 - 1e-12)
            w = smoothing_matrix(kappa)
            worst_row = max(worst_row, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
            min_entry = min(min_entry, float(w.min()))
        assert worst_row < 1e-12, f"M={m}: worst row-sum error {worst_row}"
        assert min_entry >= 0.0
        assert np.array_equal(smoothing_matrix(np.zeros(m)), np.eye(m))
    print("\nACCEPTANCE 3 smoothing-matrix invariants: PASS "
          "(10000 draws each for M in {2,10,100}; row sums within 1e-12, "
          "entries >= 0, kappa=0 gives exact identity)")


def test_criterion_4_schedule_closed_forms():
    mu, b = 0.4, 0.15
    assert laplace_pdf_scaled(mu + b, mu, b) == pytest.approx(math.exp(-1.0), abs=1e-9)
    sech2_1 = (1.0 / math.cosh(1.0)) ** 2
    assert logistic_pdf_scaled(mu + 2 * b, mu, b) == pytest.approx(sech2_1, abs=1e-9)
    assert sech2_1 == pytest.approx(0.419974, abs=1e-6)
    assert laplace_pdf_scaled(mu, mu, b) == 1.0
    assert logistic_pdf_scaled(mu, mu, b) == 1.0
    print("\nACCEPTANCE 4 schedule closed forms: PASS "
          "(laplace(mu+b)=1/e, logistic(mu+2b)=sech^2(1)~0.419974, peaks exactly 1)")


def test_criterion_5_protocol_fidelity(corpus, tenk_pair):
    started = time.perf_counter()
    baseline = run_trials(protocol_config(corpus), tenk_pair)
    assert baseline.mean_max_val_acc >= 85.0, \
        f"baseline mean max {baseline.mean_max_val_acc:.2f} < 85"

    adaptive = {}
    for kind in ("laplace", "logistic"):
        cfg = protocol_config(
            corpus,
            smoothing=SmoothingConfig(mode="global_local", alpha=1.0),
            schedule=AnnealSchedule(kind=kind, mu=0.75, b=0.5))
        adaptive[kind] = run_trials(cfg, tenk_pair)
        diff = adaptive[kind].mean_max_val_acc - baseline.mean_max_val_acc
        assert abs(diff) <= 2.0, f"{kind} lands {diff:+.2f} points from baseline"

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    ordering = {kind: agg.mean_max_val_acc - baseline.mean_max_val_acc
                for kind, agg in adaptive.items()}
    # the full-scale ordering (adaptive > baseline) is reported, not asserted
    print(f"\nACCEPTANCE 5 protocol fidelity ({corpus['source']}): PASS "
          f"(baseline={baseline.mean_max_val_acc:.2f}, "
          f"laplace={adaptive['laplace'].mean_max_val_acc:.2f} ({ordering['laplace']:+.2f}), "
          f"logistic={adaptive['logistic'].mean_max_val_acc:.2f} ({ordering['logistic']:+.2f}), "
          f"{elapsed:.0f}s)")


def test_criterion_6_partial_data_protocol(corpus, tmp_path):
    from ressmooth.harness import AGGREGATE_HEADER, write_aggregate_csv
    means = {}
    for ratio in (0.5, 0.25, 0.125):
        cfg = protocol_config(corpus, ratio=ratio)
        aggregate = run_trials(cfg)
        means[ratio] = aggregate.mean_max_val_acc
        path = tmp_path / f"aggregate_{ratio}.csv"
        write_aggregate_csv(aggregate.rows, path)
        header, rows = read_csv(path)
        assert header == AGGREGATE_HEADER.split(",")
        assert len(rows) == 3
        assert {r[2] for r in rows} == {"0", "1", "2"}
        for row in rows:
            assert float(row[3]) >= float(row[4])  # max >= tail mean
    assert means[0.5] >= means[0.25] - 1.0
    assert means[0.25] >= means[0.125] - 1.0
    print(f"\nACCEPTANCE 6 partial-data protocol ({corpus['source']}): PASS "
          f"(mean max 1/2={means[0.5]:.2f} >= 1/4={means[0.25]:.2f} - 1 "
          f">= 1/8={means[0.125]:.2f} - 1; aggregate CSVs emitted)")


def test_criterion_7_baseline_battery(corpus, tenk_pair):
    results = {}
    for name, optimizer, label_eps in (
            ("adam", AdamConfig(), 0.0),
            ("adagrad", AdaGradConfig(), 0.0),
            ("label_smoothing", SgdConfig(lr_high=0.1, lr_low=0.001, drop_at=0.75,
                                          momentum=0.9, weight_decay=1e-3), 0.1)):
        cfg = protocol_config(corpus, trials=1, optimizer=optimizer,
                              label_smoothing=label_eps)
        aggregate = run_trials(cfg, tenk_pair)
        results[name] = aggregate.mean_max_val_acc
        assert results[name] >= 80.0, f"{name} reached only {results[name]:.2f}"
    print(f"\nACCEPTANCE 7 baseline battery ({corpus['source']}): PASS "
          f"(adam={results['adam']:.2f}, adagrad={results['adagrad']:.2f}, "
          f"label_smoothing={results['label_smoothing']:.2f}, all >= 80)")


def test_criterion_8_determinism(corpus, tmp_path):
    config_text = f"""
[dataset]
kind = fashion_mnist
train_images = {corpus['train_images']}
train_labels = {corpus['train_labels']}
test_images = {corpus['test_images']}
test_labels = {corpus['test_labels']}
take = 2000
seed = 101

[model]
hidden = 64

[optimizer]
kind = sgd
momentum = 0.9
weight_decay = 0.001

[regularizer]
mode = global_local
schedule = laplace
mu = 0.75
b = 0.5
alpha = 1.0

[run]
epochs = 3
batch_size = 128
trials = 2
"""
    config_path = tmp_path / "exp.ini"
    config_path.write_text(config_text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--config", str(config_path), "--out-dir", str(out_a)]) == 0
    assert cli_main(["train", "--config", str(config_path), "--out-dir", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["aggregate.csv", "checkpoint_trial0.rsm", "checkpoint_trial1.rsm",
                     "metrics_trial0.csv", "metrics_trial1.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    print(f"\nACCEPTANCE 8 determinism ({corpus['source']}): PASS "
          f"(two CLI runs, {len(names)} output files byte-identical)")
