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
EPS_STD = 1e-8  # lower clamp on a residual row's std before normalizing by it


@dataclass(frozen=True)
class SmoothingConfig:
    mode: str = "off"
    alpha: float = 0.0
    n_steps: int = 1
    local_scale: float = 1.0  # fixed scale for mode == "local"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown smoothing mode {self.mode!r}")
        if not self.alpha >= 0.0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0.0 <= self.local_scale <= 1.0:
            raise ConfigError(f"local_scale must be in [0, 1], got {self.local_scale}")


def sigmoid_scale(x, s: float, alpha: float) -> np.ndarray:
    """s / (1 + exp(-alpha * x)), elementwise and overflow-safe."""
    if not 0.0 <= s <= 1.0:
        raise ConfigError(f"scale s must be in [0, 1], got {s}")
    if not alpha >= 0.0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    z = np.multiply(alpha, x, out=np.empty(np.shape(x)))  # an array even for a scalar x
    # s * exp(min(z, 0)) / (1 + exp(-|z|)) with one exp: exp(min(z, 0)) is
    # exp(-|z|) where z < 0 and 1 elsewhere, bitwise; neither overflows
    nonneg = z >= 0.0
    e = np.copysign(z, -1.0, out=z)  # -|z|
    np.exp(e, out=e)
    out = np.maximum(e, nonneg)
    out *= s
    e += 1.0
    out /= e
    return out


def batch_normalize(d_rows: np.ndarray) -> np.ndarray:
    """Row-wise mean-0 / population-std-1 normalization, the std clamped
    below by EPS_STD."""
    # a row mean is its sum divided by the count, bitwise, as np.mean computes it
    m = d_rows.shape[1]
    mu = d_rows.sum(axis=1, keepdims=True)
    mu /= m
    centered = d_rows - mu
    var = (centered * centered).sum(axis=1, keepdims=True)
    var /= m
    centered /= np.maximum(np.sqrt(var, out=var), EPS_STD)
    return centered


def batch_diffusivity(d_rows: np.ndarray, s_t: float, cfg: SmoothingConfig) -> np.ndarray:
    """Diffusivity rows for a batch of raw residual rows, per the config mode."""
    if not 0.0 <= s_t <= 1.0:
        raise ConfigError(f"s_t must be in [0, 1], got {s_t}")
    if cfg.mode == "off":
        return np.zeros_like(d_rows)
    if cfg.mode == "global":  # alpha = 0: the sigmoid of anything finite is s_t / 2
        return np.full_like(d_rows, s_t / 2.0)
    d_tilde = batch_normalize(d_rows)
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
        a = 1.0 - kappa
        a -= c
    else:  # a single output has nothing to interpolate with: W = 1
        c = np.zeros_like(kappa)
        a = np.ones_like(kappa)
    # in place, each expression in the order of u = a*u + c*sum(u) and
    # v = a*v + sum(c*v), so the bits are those of the fresh-array form
    u = d
    cs = np.empty_like(c)
    for _ in range(cfg.n_steps):
        np.multiply(c, u.sum(axis=1, keepdims=True), out=cs)
        u *= a
        u += cs
    loss = np.einsum("bj,bj->b", u, u)
    v = u
    for _ in range(cfg.n_steps):
        cv = np.einsum("bj,bj->b", c, v)[:, None]
        v *= a
        v += cv
    v *= 2.0
    v *= np.sign(r, out=r)
    return loss, v, kappa
