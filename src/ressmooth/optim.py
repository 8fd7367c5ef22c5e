"""Parameter update rules and comparison baselines.

SGD carries momentum, coupled weight decay (a lambda*w term added to the
gradient of weight matrices only, never biases) and a two-phase learning
rate. Adam and AdaGrad are the canonical rules. Label smoothing is the
target-side baseline.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import GradientSet, Network


@dataclass(frozen=True)
class SgdConfig:
    lr_high: float = 0.1
    lr_low: float = 0.001
    drop_at: float = 0.75
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if not self.lr_high > self.lr_low > 0.0:
            raise ConfigError(f"need lr_high > lr_low > 0, got {self.lr_high}, {self.lr_low}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.drop_at <= 1.0:
            raise ConfigError(f"drop_at must be in [0, 1], got {self.drop_at}")


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0.0 or self.eps <= 0.0:
            raise ConfigError("lr and eps must be > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must be in [0, 1)")


@dataclass(frozen=True)
class AdaGradConfig:
    # default sized for the summed squared-error loss: the first accumulator
    # steps approach lr * sign(g), so lr must stay well under the He-init
    # weight scale or the run never recovers
    lr: float = 0.005
    eps: float = 1e-10

    def __post_init__(self):
        if self.lr <= 0.0 or self.eps <= 0.0:
            raise ConfigError("lr and eps must be > 0")


def lr_at(config: SgdConfig, progress: float) -> float:
    """Two-phase schedule; the boundary belongs to the low phase."""
    return config.lr_high if progress < config.drop_at else config.lr_low


class Sgd:
    def __init__(self, network: Network, config: SgdConfig):
        self.config = config
        self.vel_w = [np.zeros_like(l.weights) for l in network.layers]
        self.vel_b = [np.zeros_like(l.bias) for l in network.layers]

    def step(self, network: Network, grads: GradientSet, progress: float):
        # in place, in the operation order of w -= lr * (m * v + (g + wd * w))
        cfg = self.config
        lr = lr_at(cfg, progress)
        for i, layer in enumerate(network.layers):
            v = self.vel_w[i]
            tmp = cfg.weight_decay * layer.weights
            tmp += grads.weights[i]
            v *= cfg.momentum
            v += tmp
            np.multiply(lr, v, out=tmp)
            layer.weights -= tmp
            v = self.vel_b[i]
            v *= cfg.momentum
            v += grads.biases[i]
            layer.bias -= lr * v


class Adam:
    def __init__(self, network: Network, config: AdamConfig):
        self.config = config
        self.t = 0
        params = _flat_params(network)
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, network: Network, grads: GradientSet, progress: float = 0.0):
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for i, (param, g) in enumerate(zip(_flat_params(network), _flat_grads(grads))):
            self.m[i] = cfg.beta1 * self.m[i] + (1.0 - cfg.beta1) * g
            self.v[i] = cfg.beta2 * self.v[i] + (1.0 - cfg.beta2) * g * g
            param -= cfg.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + cfg.eps)


class AdaGrad:
    def __init__(self, network: Network, config: AdaGradConfig):
        self.config = config
        self.acc = [np.zeros_like(p) for p in _flat_params(network)]

    def step(self, network: Network, grads: GradientSet, progress: float = 0.0):
        cfg = self.config
        for i, (param, g) in enumerate(zip(_flat_params(network), _flat_grads(grads))):
            self.acc[i] += g * g
            param -= cfg.lr * g / (np.sqrt(self.acc[i]) + cfg.eps)


def _flat_params(network: Network):
    out = []
    for layer in network.layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out


def _flat_grads(grads: GradientSet):
    out = []
    for gw, gb in zip(grads.weights, grads.biases):
        out.append(gw)
        out.append(gb)
    return out


# The optimizer set, written once: [optimizer] kind -> (config class, update
# rule). `config.parse_config_text` and `make_optimizer` both read it.
OPTIMIZERS = {"sgd": (SgdConfig, Sgd), "adam": (AdamConfig, Adam),
              "adagrad": (AdaGradConfig, AdaGrad)}


def make_optimizer(config, network: Network):
    """The update rule that OPTIMIZERS pairs with this config's class."""
    for config_class, rule in OPTIMIZERS.values():
        if isinstance(config, config_class):
            return rule(network, config)
    raise ConfigError(f"unknown optimizer config {type(config).__name__}")


def label_smooth(target_onehot: np.ndarray, epsilon: float) -> np.ndarray:
    """(1 - eps) * y + eps / M, rows keep summing to 1."""
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0, 1), got {epsilon}")
    target_onehot = np.asarray(target_onehot, dtype=np.float64)
    m = target_onehot.shape[-1]
    return (1.0 - epsilon) * target_onehot + epsilon / m
