import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (apply_smoothing, diffusivity, fresh_batch_smoothed_loss_grad,
                     normalize_residual, residual, smoothed_loss, smoothed_loss_backward,
                     smoothing_matrix)
from ressmooth.errors import ConfigError, InputError, ShapeError
from ressmooth.smoothing import (SmoothingConfig, batch_diffusivity, batch_normalize,
                                 batch_smoothed_loss_grad, sigmoid_scale)


# --- residual (the dense oracle's; the batch path takes |r| inline) ---------------

def test_residual_zero_when_equal():
    p = np.array([0.3, 0.7])
    assert residual(p, p).tolist() == [0.0, 0.0]


def test_residual_against_one_hot():
    got = residual(np.array([0.2, 0.9]), np.array([0.0, 1.0]))
    assert np.allclose(got, [0.2, 0.1], atol=1e-15)


def test_residual_permutation_equivariant():
    rng = np.random.default_rng(0)
    p = rng.random(6)
    y = rng.random(6)
    perm = rng.permutation(6)
    assert np.array_equal(residual(p, y)[perm], residual(p[perm], y[perm]))


def test_residual_shape_mismatch():
    with pytest.raises(ShapeError):
        residual(np.zeros(3), np.zeros(4))


# --- normalization ------------------------------------------------------------

def test_normalize_constant_vector_is_zero():
    got = batch_normalize(np.full((2, 7), 0.5))
    assert got.tolist() == [[0.0] * 7] * 2
    # a constant whose mean is not exactly representable still lands near zero
    got = batch_normalize(np.full((1, 3), 0.1))
    assert np.max(np.abs(got)) < 1e-6


def test_normalize_1_2_3():
    d = np.array([1.0, 2.0, 3.0])
    # independent arithmetic: (d - mean) / population std
    mean = (1.0 + 2.0 + 3.0) / 3.0
    pstd = math.sqrt(((1 - mean) ** 2 + (2 - mean) ** 2 + (3 - mean) ** 2) / 3.0)
    got = batch_normalize(np.vstack([d, 10.0 * d]))
    for row in got:
        assert np.allclose(row, (d - mean) / pstd, atol=1e-12)
        assert np.allclose(row, [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_normalize_preserves_argmax():
    rng = np.random.default_rng(5)
    d_rows = rng.random((20, 10))
    got = batch_normalize(d_rows)
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(d_rows, axis=1))
    assert np.argmax(batch_normalize(d_rows[:1])) == np.argmax(d_rows[0])


def test_normalize_moments():
    rng = np.random.default_rng(6)
    d_rows = rng.random((20, 12)) * rng.uniform(0.1, 5.0, size=(20, 1))
    got = batch_normalize(d_rows)
    assert np.all(np.abs(got.mean(axis=1)) < 1e-10)
    assert np.all(np.abs(np.sqrt(np.mean(got ** 2, axis=1)) - 1.0) < 1e-10)


def test_normalize_a_small_std_row_is_not_clamped():
    # rows whose population std lies between the 1e-8 clamp and 1e-4 are divided by that std
    rng = np.random.default_rng(8)
    d_rows = 0.5 + rng.standard_normal((3, 10)) * np.array([[2e-8], [1e-6], [5e-5]])
    centered = d_rows - d_rows.mean(axis=1, keepdims=True)
    std = np.sqrt((centered ** 2).mean(axis=1, keepdims=True))
    assert np.all((std > 1e-8) & (std < 1e-4))
    np.testing.assert_allclose(batch_normalize(d_rows), centered / std, rtol=1e-9, atol=0)


# --- sigmoid ------------------------------------------------------------------

def test_sigmoid_midpoint():
    assert sigmoid_scale(np.array([0.0]), 1.0, 3.7)[0] == 0.5


def test_sigmoid_alpha_zero_is_half_scale():
    x = np.array([-5.0, 0.0, 2.0, 100.0])
    assert sigmoid_scale(x, 0.6, 0.0).tolist() == [0.3, 0.3, 0.3, 0.3]


def test_sigmoid_zero_scale():
    x = np.linspace(-3, 3, 7)
    assert sigmoid_scale(x, 0.0, 2.0).tolist() == [0.0] * 7


def test_sigmoid_no_overflow_at_extremes():
    out = sigmoid_scale(np.array([-1e6, 1e6]), 1.0, 1.0)
    assert out[0] == 0.0
    assert out[1] == 1.0


def test_sigmoid_bitwise_matches_two_branch_formula():
    def two_branch(x, s, alpha):
        z = alpha * np.asarray(x, dtype=np.float64)
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = s / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = s * ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(21)
    x = np.concatenate([[0.0, -0.0, 1e308, -1e308],
                        rng.normal(0.0, 1.0, 200), rng.normal(0.0, 1e3, 200)])
    for s in (0.0, 0.37, 1.0):
        for alpha in (0.0, 1.0, 2.5):
            with np.errstate(over="ignore"):
                got, want = sigmoid_scale(x, s, alpha), two_branch(x, s, alpha)
            assert got.tobytes() == want.tobytes(), (s, alpha)


# --- diffusivity --------------------------------------------------------------

def test_diffusivity_off_is_zero():
    cfg = SmoothingConfig(mode="off", alpha=2.0)
    assert batch_diffusivity(np.ones((2, 4)), 0.9, cfg).tolist() == [[0.0] * 4] * 2


def test_diffusivity_global_is_uniform_half_scale():
    cfg = SmoothingConfig(mode="global", alpha=7.0)
    got = batch_diffusivity(np.array([[0.1, 0.9, 0.4], [0.0, 2.0, 0.5]]), 0.6, cfg)
    assert got.tolist() == [[0.3, 0.3, 0.3]] * 2


def test_diffusivity_global_local_monotone():
    cfg = SmoothingConfig(mode="global_local", alpha=1.5)
    d_rows = np.vstack([np.linspace(0.0, 2.0, 41), np.linspace(0.5, 0.9, 41)])
    got = batch_diffusivity(d_rows, 0.8, cfg)
    assert np.all(np.diff(got, axis=1) > 0.0)


def test_diffusivity_local_uses_fixed_scale():
    # the middle residual normalizes to exactly 0, where the sigmoid is half its scale
    cfg = SmoothingConfig(mode="local", alpha=1.0, local_scale=0.8)
    got = batch_diffusivity(np.array([[0.0, 0.5, 1.0]]), 0.0, cfg)
    assert got[0, 1] == 0.4


def test_diffusivity_validation():
    with pytest.raises(ConfigError):
        SmoothingConfig(mode="sideways")


# --- the dense oracle: smoothing matrix, its application, loss and gradient -----
# Production never builds these; they are the reference the batch path is
# compared against below, so their own invariants are pinned here.

# --- smoothing matrix ---------------------------------------------------------

def test_matrix_zero_kappa_is_exact_identity():
    for m in (2, 5, 10):
        assert np.array_equal(smoothing_matrix(np.zeros(m)), np.eye(m))


def test_matrix_two_by_two_hand_case():
    got = smoothing_matrix(np.array([0.4, 0.0]))
    assert np.allclose(got, [[0.6, 0.4], [0.0, 1.0]], atol=1e-15)


def test_matrix_rows_sum_to_one_and_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(200):
        kappa = rng.uniform(0.0, 1.0, size=10) * 0.999
        w = smoothing_matrix(kappa)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        assert np.min(w) >= 0.0


def test_matrix_degenerate_single_element():
    assert smoothing_matrix(np.array([0.7])).tolist() == [[1.0]]


def test_matrix_rejects_bad_kappa():
    with pytest.raises(InputError):
        smoothing_matrix(np.array([0.5, 1.0]))
    with pytest.raises(InputError):
        smoothing_matrix(np.array([-0.1, 0.5]))


# --- applying the smoothing ---------------------------------------------------

def test_apply_identity_any_steps():
    d = np.array([0.3, 0.1, 0.6])
    for n in (1, 2, 5):
        assert np.array_equal(apply_smoothing(np.eye(3), d, n), d)


def test_apply_two_steps_composes():
    rng = np.random.default_rng(12)
    kappa = rng.uniform(0.0, 0.9, size=6)
    d = rng.random(6)
    w = smoothing_matrix(kappa)
    once_twice = apply_smoothing(w, apply_smoothing(w, d, 1), 1)
    assert np.allclose(apply_smoothing(w, d, 2), once_twice, atol=1e-15)


def test_apply_shape_error():
    with pytest.raises(ShapeError):
        apply_smoothing(np.eye(3), np.zeros(4))


def test_contraction_of_spread():
    rng = np.random.default_rng(13)
    for _ in range(100):
        kappa = rng.uniform(0.0, 1.0, size=8) * 0.999
        d = rng.random(8) * 3.0
        u = apply_smoothing(smoothing_matrix(kappa), d, 1)
        assert np.max(u) <= np.max(d) + 1e-12
        assert np.min(u) >= np.min(d) - 1e-12


def test_idempotent_limit_uniform_kappa():
    w = smoothing_matrix(np.full(10, 0.5))
    d = np.random.default_rng(14).random(10)
    u64 = apply_smoothing(w, d, 64)
    u65 = apply_smoothing(w, d, 65)
    assert np.max(np.abs(u64 - u65)) <= 1e-9


# --- smoothed loss ------------------------------------------------------------

def test_loss_zero_kappa_is_plain_squared_error():
    rng = np.random.default_rng(15)
    d = rng.random(10)
    assert smoothed_loss(d, smoothing_matrix(np.zeros(10))) == float(d @ d)


def test_loss_zero_residual():
    assert smoothed_loss(np.zeros(5), smoothing_matrix(np.full(5, 0.3))) == 0.0


def test_loss_two_by_two_hand_case():
    d = np.array([0.2, 0.1])
    w = smoothing_matrix(np.array([0.4, 0.0]))
    # hand multiply: u = [0.6*0.2 + 0.4*0.1, 0.1] = [0.16, 0.1]
    u = np.array([0.6 * 0.2 + 0.4 * 0.1, 0.1])
    assert smoothed_loss(d, w) == pytest.approx(float(u @ u), abs=1e-15)
    assert smoothed_loss(d, w) == pytest.approx(0.0356, abs=1e-12)


# --- loss gradient ------------------------------------------------------------

def test_backward_zero_at_perfect_fit():
    p = np.array([0.25, 0.75])
    w = smoothing_matrix(np.array([0.2, 0.1]))
    assert smoothed_loss_backward(p, p, w).tolist() == [0.0, 0.0]


def test_backward_zero_kappa_reduces_to_mse():
    rng = np.random.default_rng(16)
    p = rng.random(8)
    y = rng.random(8)
    got = smoothed_loss_backward(p, y, smoothing_matrix(np.zeros(8)))
    assert np.array_equal(got, 2.0 * (p - y))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(17)
    for n_steps in (1, 2):
        p = rng.uniform(0.1, 0.9, size=6)
        y = np.eye(6)[2]  # keeps |p - y| away from the abs kink
        w = smoothing_matrix(rng.uniform(0.0, 0.8, size=6))
        analytic = smoothed_loss_backward(p, y, w, n_steps)
        h = 1e-6
        fd = np.zeros(6)
        for j in range(6):
            bumped = p.copy()
            bumped[j] = p[j] + h
            f_plus = smoothed_loss(np.abs(bumped - y), w, n_steps)
            bumped[j] = p[j] - h
            f_minus = smoothed_loss(np.abs(bumped - y), w, n_steps)
            fd[j] = (f_plus - f_minus) / (2.0 * h)
        assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-10)


# --- config -------------------------------------------------------------------

def test_smoothing_config_validation():
    with pytest.raises(ConfigError):
        SmoothingConfig(mode="diagonal")
    with pytest.raises(ConfigError):
        SmoothingConfig(alpha=-1.0)
    with pytest.raises(ConfigError):
        SmoothingConfig(n_steps=0)
    with pytest.raises(ConfigError):
        SmoothingConfig(local_scale=1.5)


# --- batch helpers vs per-sample ops -------------------------------------------

def per_sample_oracle(pred, target, s_t, cfg):
    """Dense per-sample kappa, smoothed loss and gradient for one row."""
    d = residual(pred, target)
    feed = d if cfg.mode == "global" else normalize_residual(d).d_tilde
    kappa = diffusivity(feed, s_t, cfg.alpha, cfg.mode, cfg.local_scale)
    w = smoothing_matrix(kappa)
    return (kappa, smoothed_loss(d, w, cfg.n_steps),
            smoothed_loss_backward(pred, target, w, cfg.n_steps))


@pytest.mark.parametrize("mode", ["global", "local", "global_local"])
def test_batch_path_matches_per_sample_ops(mode):
    rng = np.random.default_rng(18)
    cfg = SmoothingConfig(mode=mode, alpha=1.3, n_steps=2, local_scale=0.9)
    s_t = 0.7
    for m in (10, 100):
        preds = rng.uniform(0.05, 0.95, size=(16, m))
        targets = np.eye(m)[rng.integers(0, m, size=16)]
        loss, grad, kappa = batch_smoothed_loss_grad(preds, targets, s_t, cfg)
        for i in range(16):
            k_i, loss_i, grad_i = per_sample_oracle(preds[i], targets[i], s_t, cfg)
            assert np.allclose(kappa[i], k_i, rtol=1e-13, atol=1e-15)
            assert loss[i] == pytest.approx(loss_i, rel=1e-12)
            assert np.allclose(grad[i], grad_i, rtol=1e-12, atol=1e-15)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(b=st.integers(1, 16), m=st.integers(2, 128), n_steps=st.integers(1, 4),
       mode=st.sampled_from(["global", "local", "global_local"]),
       s_t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_batch_closed_form_matches_dense_oracle(b, m, n_steps, mode, s_t, seed):
    rng = np.random.default_rng(seed)
    cfg = SmoothingConfig(mode=mode, alpha=1.3, n_steps=n_steps, local_scale=0.9)
    preds = rng.uniform(0.0, 1.0, size=(b, m))
    targets = np.eye(m)[rng.integers(0, m, size=b)]
    loss, grad, kappa = batch_smoothed_loss_grad(preds, targets, s_t, cfg)
    for i in range(b):
        k_i, loss_i, grad_i = per_sample_oracle(preds[i], targets[i], s_t, cfg)
        assert kappa[i].tobytes() == k_i.tobytes()
        assert np.allclose(loss[i], loss_i, rtol=1e-12, atol=0.0)
        assert np.allclose(grad[i], grad_i, rtol=1e-12, atol=0.0)


def test_batch_zero_scale_is_bitwise_plain_mse():
    rng = np.random.default_rng(19)
    cfg = SmoothingConfig(mode="global_local", alpha=1.0)
    preds = rng.uniform(0.0, 1.0, size=(8, 10))
    targets = np.eye(10)[rng.integers(0, 10, size=8)]
    loss, grad, kappa = batch_smoothed_loss_grad(preds, targets, 0.0, cfg)
    r = preds - targets
    assert np.array_equal(kappa, np.zeros_like(preds))
    assert np.array_equal(loss, np.einsum("bj,bj->b", r, r))
    assert np.array_equal(grad, 2.0 * r)


def test_batch_diffusivity_global_matches_elementwise():
    rng = np.random.default_rng(20)
    cfg = SmoothingConfig(mode="global")
    d_rows = rng.random((4, 6))
    got = batch_diffusivity(d_rows, 0.5, cfg)
    assert np.array_equal(got, sigmoid_scale(d_rows, 0.5, 0.0))


@pytest.mark.parametrize("s_t", [0.0, 1.0])
@pytest.mark.parametrize("n_steps", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 10, 100])
@pytest.mark.parametrize("mode", ["off", "global", "local", "global_local"])
def test_batch_kernel_bitwise_matches_fresh_array_form(mode, m, n_steps, s_t):
    """The in-place kernel against the same expressions with a fresh array
    each (`oracles.fresh_batch_smoothed_loss_grad`): loss, gradient and kappa
    bitwise, with whole rows and single entries of zero residual. No `Dataset`
    has M = 1; there both divide by M - 1 = 0 alike, to the same non-finite bits."""
    rng = np.random.default_rng(1000 * m + 10 * n_steps + int(s_t))
    cfg = SmoothingConfig(mode=mode, alpha=1.3, n_steps=n_steps, local_scale=0.9)
    logits = rng.normal(0.0, 2.0, size=(12, m))
    preds = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    targets = np.eye(m)[rng.integers(0, m, size=12)]
    preds[0] = targets[0]  # a row of zero residual
    preds[1, 0] = targets[1, 0]  # one zero entry in an otherwise nonzero row
    preds[2] = 0.5  # a row of equal residuals: normalized std clamped to EPS_STD
    with np.errstate(divide="ignore", invalid="ignore"):
        got = batch_smoothed_loss_grad(preds.copy(), targets.copy(), s_t, cfg)
        want = fresh_batch_smoothed_loss_grad(preds, targets, s_t, cfg)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()

