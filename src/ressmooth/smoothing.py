"""Residual diffusion: the core regularizer, computed for a whole mini-batch.

Each sample's residual |prediction - target| is passed through a
row-stochastic smoothing matrix whose row weights come from a scaled sigmoid
of the residual (raw or normalized, depending on mode), and the loss is the
squared norm of the smoothed residual. The matrix is a constant during
backpropagation: gradients flow through the residual inside the smoothed
norm, never through the diffusivity that shaped the matrix.

Modes:
  off          kappa = 0 through the same operator: plain squared error
  global       kappa = sigmoid(raw residual; s_t, alpha=0), i.e. uniform s_t/2
  local        kappa = sigmoid(normalized residual; local_scale, alpha)
  global_local kappa = sigmoid(normalized residual; s_t, alpha)

Row j of the smoothing matrix keeps 1 - kappa_j and spreads kappa_j / (M - 1)
onto every other element, so W = diag(a) + c 1^T with c = kappa / (M - 1) and
a = 1 - kappa - c. `batch_smoothed_loss_grad` applies W in that closed form
at O(BM) per step and never builds it. The dense per-sample reference it is
tested against lives in the tests (`oracles.py`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

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


def sigmoid_scale(x, s: float, alpha: float) -> np.ndarray:
    """s / (1 + exp(-alpha * x)), elementwise and overflow-safe."""
    if not 0.0 <= s <= 1.0:
        raise ConfigError(f"scale s must be in [0, 1], got {s}")
    if alpha < 0.0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    z = alpha * np.asarray(x, dtype=np.float64)
    # exp(min(z, 0)) is exp(-|z|) where z < 0 and 1 elsewhere; neither overflows
    return s * np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


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
