"""Residual diffusion: the core regularizer, computed for a whole mini-batch.

Each sample's residual |prediction - target| is passed through a
row-stochastic smoothing matrix whose row weights, the diffusivity kappa, are
scale * sigmoid(alpha * normalized residual); a mode only picks the (scale,
alpha), in `sigmoid_args`. The loss is the squared norm of the smoothed
residual. The matrix is a constant during backpropagation: gradients flow
through the residual inside the smoothed norm, never through the diffusivity.

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


def sigmoid_scale(x: np.ndarray, s: float, alpha: float) -> np.ndarray:
    """s / (1 + exp(-z)) at z = alpha * x, overflow-safe: s * exp(min(z, 0)) / (1 + exp(-|z|))."""
    z = alpha * x
    return s * np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def batch_normalize(d_rows: np.ndarray) -> np.ndarray:
    """Row-wise mean-0 / population-std-1 normalization, the std (numpy's row mean
    of the squared deviations, square-rooted) clamped below by EPS_STD."""
    centered = d_rows - d_rows.mean(axis=1, keepdims=True)
    centered /= np.maximum(np.sqrt((centered * centered).mean(axis=1, keepdims=True)), EPS_STD)
    return centered


def sigmoid_args(cfg: SmoothingConfig, s_t: float):
    """The sigmoid's (scale, alpha) that the config's mode picks at annealed scale s_t."""
    return {"off": (0.0, cfg.alpha),
            "global": (s_t, 0.0),
            "local": (cfg.local_scale, cfg.alpha),
            "global_local": (s_t, cfg.alpha)}[cfg.mode]


def batch_diffusivity(d_rows: np.ndarray, s_t: float, cfg: SmoothingConfig) -> np.ndarray:
    """Diffusivity rows for a batch of raw residual rows at the mode's (scale, alpha): at scale 0
    or alpha 0, the constant scale / 2, which is the sigmoid of anything finite at either."""
    scale, alpha = sigmoid_args(cfg, s_t)
    if scale == 0.0 or alpha == 0.0:
        return np.full_like(d_rows, scale / 2.0)
    return sigmoid_scale(batch_normalize(d_rows), scale, alpha)


def batch_smoothed_loss_grad(predictions: np.ndarray, targets: np.ndarray,
                             s_t: float, cfg: SmoothingConfig):
    """Per-sample smoothed losses, loss gradients w.r.t. the predictions, and
    the diffusivity rows, for a whole mini-batch.

    Each per-sample W = diag(a) + c 1^T is applied in closed form, O(BM) per
    step: Wu = a*u + c*sum(u) and W^T v = a*v + sum(c*v), for M >= 2 classes.
    kappa = 0 gives a = 1, c = 0: plain squared error, bitwise.

    Returns (loss[B], grad[B, M], kappa[B, M]).
    """
    r = predictions - targets
    d = np.abs(r)
    kappa = batch_diffusivity(d, s_t, cfg)
    c = kappa / (d.shape[1] - 1.0)
    a = 1.0 - kappa - c
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
