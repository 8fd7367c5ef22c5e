"""Residual diffusion: the core regularizer.

The per-sample residual |prediction - target| is passed through a
row-stochastic smoothing matrix whose row weights come from a scaled sigmoid
of the residual (raw or normalized, depending on mode), and the loss is the
squared norm of the smoothed residual. The matrix is a constant during
backpropagation: gradients flow through the residual inside the smoothed
norm, never through the diffusivity that shaped the matrix.

Modes:
  off          no diffusion; callers should take the plain squared-error path
  global       kappa = sigmoid(raw residual; s_t, alpha=0), i.e. uniform s_t/2
  local        kappa = sigmoid(normalized residual; local_scale, alpha)
  global_local kappa = sigmoid(normalized residual; s_t, alpha)

Row j of the smoothing matrix keeps 1 - kappa_j and spreads kappa_j / (M - 1)
onto every other element, so W = diag(a) + c 1^T with c = kappa / (M - 1) and
a = 1 - kappa - c. The `batch_*` helpers, which the training loop calls, apply
W in that closed form at O(BM) per step. The dense per-sample ops
(`smoothing_matrix`, `apply_smoothing`, `smoothed_loss`,
`smoothed_loss_backward`) are the reference path the tests check them against.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, ShapeError

MODES = ("off", "global", "local", "global_local")


@dataclass(frozen=True)
class SmoothingConfig:
    mode: str = "off"
    alpha: float = 0.0
    n_steps: int = 1
    eps_std: float = 1e-8
    local_scale: float = 1.0  # fixed scale for mode == "local"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown smoothing mode {self.mode!r}")
        if self.alpha < 0.0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.eps_std <= 0.0:
            raise ConfigError(f"eps_std must be > 0, got {self.eps_std}")
        if not 0.0 <= self.local_scale <= 1.0:
            raise ConfigError(f"local_scale must be in [0, 1], got {self.local_scale}")


class NormalizedResidual(NamedTuple):
    d_tilde: np.ndarray
    mu: float
    sigma: float  # population std before clamping


def residual(prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise magnitude of the prediction/target discrepancy."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise ShapeError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    return np.abs(prediction - target)


def normalize_residual(d: np.ndarray, eps_std: float = 1e-8) -> NormalizedResidual:
    """Shift/scale to mean 0 and population std 1; std clamped below by eps_std."""
    d = np.asarray(d, dtype=np.float64)
    mu = float(np.mean(d))
    centered = d - mu
    sigma = float(np.sqrt(np.mean(centered * centered)))
    return NormalizedResidual(centered / max(sigma, eps_std), mu, sigma)


def sigmoid_scale(x, s: float, alpha: float) -> np.ndarray:
    """s / (1 + exp(-alpha * x)), elementwise and overflow-safe."""
    if not 0.0 <= s <= 1.0:
        raise ConfigError(f"scale s must be in [0, 1], got {s}")
    if alpha < 0.0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    z = alpha * np.asarray(x, dtype=np.float64)
    # exp(min(z, 0)) is exp(-|z|) where z < 0 and 1 elsewhere; neither overflows
    return s * np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def diffusivity(values, s_t: float, alpha: float, mode: str,
                local_scale: float = 1.0) -> np.ndarray:
    """Per-element diffusivity in [0, 1).

    `values` is the raw residual for mode "global" and the normalized residual
    for "local"/"global_local"; it is ignored for "off".
    """
    if mode not in MODES:
        raise ConfigError(f"unknown smoothing mode {mode!r}")
    if not 0.0 <= s_t <= 1.0:
        raise ConfigError(f"s_t must be in [0, 1], got {s_t}")
    values = np.asarray(values, dtype=np.float64)
    if mode == "off":
        return np.zeros_like(values)
    if mode == "global":
        return sigmoid_scale(values, s_t, 0.0)
    if mode == "local":
        return sigmoid_scale(values, local_scale, alpha)
    return sigmoid_scale(values, s_t, alpha)


def smoothing_matrix(kappa: np.ndarray) -> np.ndarray:
    """Row-stochastic interpolation matrix: row j has 1 - kappa_j on the
    diagonal and kappa_j / (M - 1) everywhere else. M = 1 degenerates to the
    identity (nothing to interpolate with)."""
    kappa = np.asarray(kappa, dtype=np.float64)
    if kappa.ndim != 1:
        raise ShapeError(f"kappa must be 1-D, got shape {kappa.shape}")
    if np.any(kappa < 0.0) or np.any(kappa >= 1.0):
        raise InputError("kappa entries must lie in [0, 1)")
    m = kappa.shape[0]
    if m == 1:
        return np.ones((1, 1))
    w = np.repeat(kappa[:, None] / (m - 1.0), m, axis=1)
    np.fill_diagonal(w, 1.0 - kappa)
    return w


def apply_smoothing(w: np.ndarray, d: np.ndarray, n_steps: int = 1) -> np.ndarray:
    """n_steps successive applications of the smoothing matrix to the residual."""
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    d = np.asarray(d, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or d.ndim != 1 or w.shape[1] != d.shape[0]:
        raise ShapeError(f"cannot apply {w.shape} matrix to {d.shape} vector")
    u = d
    for _ in range(n_steps):
        u = w @ u
    return u


def smoothed_loss(d: np.ndarray, w: np.ndarray, n_steps: int = 1) -> float:
    """Squared norm of the smoothed residual."""
    u = apply_smoothing(w, d, n_steps)
    return float(u @ u)


def smoothed_loss_backward(prediction: np.ndarray, target: np.ndarray,
                           w: np.ndarray, n_steps: int = 1) -> np.ndarray:
    """Gradient of the smoothed squared loss w.r.t. the prediction, with the
    smoothing matrix held constant: 2 (W^n)^T (W^n d) .* sign(prediction - target).
    sign(0) is 0."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise ShapeError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    r = prediction - target
    u = apply_smoothing(w, np.abs(r), n_steps)
    v = u
    for _ in range(n_steps):
        v = w.T @ v
    return 2.0 * v * np.sign(r)


# --- batch helpers used by the training loop ---------------------------------


def batch_normalize(d_rows: np.ndarray, eps_std: float) -> np.ndarray:
    """Row-wise mean-0 / population-std-1 normalization with clamped std."""
    mu = d_rows.mean(axis=1, keepdims=True)
    centered = d_rows - mu
    sigma = np.sqrt((centered * centered).mean(axis=1, keepdims=True))
    return centered / np.maximum(sigma, eps_std)


def batch_diffusivity(d_rows: np.ndarray, s_t: float, cfg: SmoothingConfig) -> np.ndarray:
    """Diffusivity rows for a batch of raw residual rows, per the config mode."""
    if cfg.mode == "off":
        return np.zeros_like(d_rows)
    if cfg.mode == "global":
        return sigmoid_scale(d_rows, s_t, 0.0)
    d_tilde = batch_normalize(d_rows, cfg.eps_std)
    if cfg.mode == "local":
        return sigmoid_scale(d_tilde, cfg.local_scale, cfg.alpha)
    return sigmoid_scale(d_tilde, s_t, cfg.alpha)


def batch_smoothed_loss_grad(predictions: np.ndarray, targets: np.ndarray,
                             s_t: float, cfg: SmoothingConfig):
    """Per-sample smoothed losses, loss gradients w.r.t. the predictions, and
    the diffusivity rows, for a whole mini-batch.

    Each per-sample W = diag(a) + c 1^T is applied in closed form, O(BM) per
    step: Wu = a*u + c*sum(u) and W^T v = a*v + sum(c*v). M = 1 is the
    identity, and kappa = 0 gives a = 1, c = 0: plain squared error, bitwise.

    Returns (loss[B], grad[B, M], kappa[B, M]).
    """
    r = predictions - targets
    d = np.abs(r)
    kappa = batch_diffusivity(d, s_t, cfg)
    m = d.shape[1]
    if m > 1:
        c = kappa / (m - 1.0)
        a = 1.0 - kappa - c
    else:  # a single output has nothing to interpolate with: W = 1
        c = np.zeros_like(kappa)
        a = np.ones_like(kappa)
    u = d
    for _ in range(cfg.n_steps):
        u = a * u + c * u.sum(axis=1, keepdims=True)
    v = u
    for _ in range(cfg.n_steps):
        v = a * v + np.einsum("bj,bj->b", c, v)[:, None]
    loss = np.einsum("bj,bj->b", u, u)
    grad = 2.0 * v * np.sign(r)
    return loss, grad, kappa
