"""Per-sample reference implementations the tests check the production batch
path against.

`forward`/`backward` run the network on one sample, with the full softmax
Jacobian. The smoothing ops build the dense M x M smoothing matrix and apply
it by matrix products, one residual vector at a time. `pad_crop_flip`
augments one CIFAR image at given offsets. Training never calls any of this:
it goes through `nn.forward_batch`, `smoothing.batch_smoothed_loss_grad`,
`nn.backward_batch` and `data.augment_batch`.

The `fresh_*` functions are those batch functions written with a fresh array
per expression, in the same operation order as the in-place production code.
The production code must equal them bitwise. The forward references keep
every pre-activation, and both backward references mask relu by `z > 0`,
where production keeps only the activations and masks by `a > 0`. Both
backward passes return their gradient as one vector in the network's
[W..., b...] parameter layout.
"""

from typing import NamedTuple

import numpy as np

from ressmooth.errors import ConfigError, InputError, ShapeError
from ressmooth.nn import Network
from ressmooth.smoothing import EPS_STD, MODES, SmoothingConfig, sigmoid_scale

# --- network ---------------------------------------------------------------------


class ForwardCache(NamedTuple):
    """Pre-activations and activations of one reference forward pass.
    (`nn.forward_batch` keeps only the activations: `[x, *post]`.)"""
    x: np.ndarray
    pre: list
    post: list

    @property
    def prediction(self):
        return self.post[-1]


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z)  # stabilization, mandatory
    e = np.exp(shifted)
    return e / np.sum(e)


def forward(network: Network, x: np.ndarray) -> ForwardCache:
    """Single-sample forward pass; caches every pre-activation and activation."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != network.dims[0]:
        raise ShapeError(f"expected input of length {network.dims[0]}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("non-finite input")
    pre, post = [], []
    a = x
    for w, b, act in zip(network.weights, network.biases, network.activations):
        z = w @ a + b
        if act == "relu":
            a = np.maximum(z, 0.0)
        elif act == "identity":
            a = z
        else:
            a = _softmax(z)
        pre.append(z)
        post.append(a)
    return ForwardCache(x, pre, post)


def backward(network: Network, cache: ForwardCache, dl_dout: np.ndarray) -> np.ndarray:
    """Chain the output-gradient back through the cached forward pass; the
    gradient comes back as one vector in the parameter layout."""
    dl_dout = np.asarray(dl_dout, dtype=np.float64)
    if dl_dout.shape != (network.dims[-1],):
        raise ShapeError(f"expected output gradient of length {network.dims[-1]}")
    k = len(network.weights)
    grads_w = [None] * k
    grads_b = [None] * k
    delta = dl_dout
    for i in reversed(range(k)):
        z = cache.pre[i]
        act = network.activations[i]
        if act == "relu":
            dz = delta * (z > 0.0)  # subgradient 0 at z == 0
        elif act == "identity":
            dz = delta
        else:
            p = cache.post[i]
            jac = np.diag(p) - np.outer(p, p)  # full softmax Jacobian (symmetric)
            dz = jac @ delta
        a_in = cache.post[i - 1] if i > 0 else cache.x
        grads_w[i] = np.outer(dz, a_in)
        grads_b[i] = np.array(dz)
        if i > 0:
            delta = network.weights[i].T @ dz
    return np.concatenate([g.ravel() for g in grads_w + grads_b])


def fresh_softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def fresh_forward_batch(network: Network, xb: np.ndarray) -> ForwardCache:
    pre, post = [], []
    a = xb
    for w, b, act in zip(network.weights, network.biases, network.activations):
        z = a @ w.T + b
        if act == "relu":
            a = np.maximum(z, 0.0)
        elif act == "identity":
            a = z
        else:
            a = fresh_softmax_rows(z)
        pre.append(z)
        post.append(a)
    return ForwardCache(xb, pre, post)


def fresh_backward_batch(network: Network, cache: ForwardCache,
                         dl_dout: np.ndarray) -> np.ndarray:
    k = len(network.weights)
    grads_w = [None] * k
    grads_b = [None] * k
    delta = dl_dout
    for i in reversed(range(k)):
        z = cache.pre[i]
        act = network.activations[i]
        if act == "relu":
            dz = delta * (z > 0.0)
        elif act == "identity":
            dz = delta
        else:
            p = cache.post[i]
            dz = p * (delta - np.sum(p * delta, axis=1, keepdims=True))
        a_in = cache.post[i - 1] if i > 0 else cache.x
        grads_w[i] = dz.T @ a_in
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            delta = dz @ network.weights[i]
    return np.concatenate([g.ravel() for g in grads_w + grads_b])


# --- residual smoothing ------------------------------------------------------------


def fresh_sigmoid_scale(x, s: float, alpha: float) -> np.ndarray:
    z = alpha * np.asarray(x, dtype=np.float64)
    return s * np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def fresh_batch_diffusivity(d_rows: np.ndarray, s_t: float, cfg: SmoothingConfig) -> np.ndarray:
    if cfg.mode == "off":
        return np.zeros_like(d_rows)
    if cfg.mode == "global":
        return fresh_sigmoid_scale(d_rows, s_t, 0.0)
    mu = d_rows.mean(axis=1, keepdims=True)
    centered = d_rows - mu
    sigma = np.sqrt((centered * centered).mean(axis=1, keepdims=True))
    d_tilde = centered / np.maximum(sigma, EPS_STD)
    if cfg.mode == "local":
        return fresh_sigmoid_scale(d_tilde, cfg.local_scale, cfg.alpha)
    return fresh_sigmoid_scale(d_tilde, s_t, cfg.alpha)


def fresh_batch_smoothed_loss_grad(predictions: np.ndarray, targets: np.ndarray,
                                   s_t: float, cfg: SmoothingConfig):
    r = predictions - targets
    d = np.abs(r)
    kappa = fresh_batch_diffusivity(d, s_t, cfg)
    m = d.shape[1]
    if m > 1:
        c = kappa / (m - 1.0)
        a = 1.0 - kappa - c
    else:
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


def normalize_residual(d: np.ndarray) -> NormalizedResidual:
    """Shift/scale to mean 0 and population std 1; std clamped below by EPS_STD."""
    d = np.asarray(d, dtype=np.float64)
    mu = float(np.mean(d))
    centered = d - mu
    sigma = float(np.sqrt(np.mean(centered * centered)))
    return NormalizedResidual(centered / max(sigma, EPS_STD), mu, sigma)


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


# --- augmentation ------------------------------------------------------------------


def pad_crop_flip(image: np.ndarray, offset_y: int, offset_x: int, flip: bool) -> np.ndarray:
    """Deterministic core of the augmentation: zero-pad 4 px per side, crop a
    32x32 window at the given offset, optionally mirror horizontally.

    Images are channel-planes-first (3, 32, 32), matching the binary layout.
    Offsets (4, 4) without flip reproduce the input exactly."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (3, 32, 32):
        raise ShapeError(f"expected (3, 32, 32) image, got {image.shape}")
    if not (0 <= offset_y <= 8 and 0 <= offset_x <= 8):
        raise InputError(f"crop offsets must be in [0, 8], got ({offset_y}, {offset_x})")
    padded = np.zeros((3, 40, 40))
    padded[:, 4:36, 4:36] = image
    crop = padded[:, offset_y:offset_y + 32, offset_x:offset_x + 32]
    if flip:
        crop = crop[:, :, ::-1]
    return np.ascontiguousarray(crop)
