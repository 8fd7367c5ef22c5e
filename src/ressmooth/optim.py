"""Parameter update rules and comparison baselines.

SGD carries momentum, coupled weight decay (a lambda*w term added to the
gradient of weight matrices only, never biases) and a two-phase learning
rate. Adam and AdaGrad are the canonical rules. Label smoothing is the
target-side baseline.

Every rule updates its state and the network's one parameter vector in
place, in the operation order of its textbook formula, so the bits are those
of the fresh-array form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import Network


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
        if not self.weight_decay >= 0.0:
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
        if not (self.lr > 0.0 and self.eps > 0.0):
            raise ConfigError(f"lr and eps must be > 0, got {self.lr}, {self.eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must be in [0, 1), got {self.beta1}, {self.beta2}")


@dataclass(frozen=True)
class AdaGradConfig:
    # default sized for the summed squared-error loss: the first accumulator
    # steps approach lr * sign(g), so lr must stay well under the He-init
    # weight scale or the run never recovers
    lr: float = 0.005
    eps: float = 1e-10

    def __post_init__(self):
        if not (self.lr > 0.0 and self.eps > 0.0):
            raise ConfigError(f"lr and eps must be > 0, got {self.lr}, {self.eps}")


def lr_at(config: SgdConfig, progress: float) -> float:
    """Two-phase schedule; the boundary belongs to the low phase."""
    return config.lr_high if progress < config.drop_at else config.lr_low


# Elements per SGD block: 256 KiB of float64, so the six in-place passes over a weight
# block (four over a bias block) of parameters, velocities and gradients run in L2.
_BLOCK = 1 << 15


class Sgd:
    def __init__(self, network: Network, config: SgdConfig):
        self.config = config
        self.vel = np.zeros_like(network.params)

    def step(self, network: Network, grads: np.ndarray, progress: float):
        # in place, in the operation order of w -= lr * (m * v + (g + wd * w))
        # for the weights and b -= lr * (m * v + g) for the biases, one block
        # at a time; the blocks split at the end of the weight prefix
        cfg = self.config
        lr = lr_at(cfg, progress)
        p, v, n_w = network.params, self.vel, network.n_weights
        tmp = np.empty(min(p.size, _BLOCK))
        for lo, hi, decay in ((0, n_w, True), (n_w, p.size, False)):
            for start in range(lo, hi, _BLOCK):
                end = min(start + _BLOCK, hi)
                pb, vb, gb, t = p[start:end], v[start:end], grads[start:end], tmp[:end - start]
                vb *= cfg.momentum
                if decay:
                    np.multiply(cfg.weight_decay, pb, out=t)
                    t += gb
                    vb += t
                else:
                    vb += gb
                np.multiply(lr, vb, out=t)
                pb -= t


class Adam:
    def __init__(self, network: Network, config: AdamConfig):
        self.config = config
        self.t = 0
        self.m = np.zeros_like(network.params)
        self.v = np.zeros_like(network.params)
        self.tmp = np.empty_like(network.params)

    def step(self, network: Network, grads: np.ndarray, progress: float = 0.0):
        # in place, in the operation order of m = b1 * m + (1 - b1) * g,
        # v = b2 * v + (1 - b2) * g * g and
        # param -= lr * (m / bc1) / (sqrt(v / bc2) + eps); the update is
        # built in the gradient vector
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        g, m, v, tmp = grads, self.m, self.v, self.tmp
        m *= cfg.beta1
        np.multiply(1.0 - cfg.beta1, g, out=tmp)
        m += tmp
        np.multiply(1.0 - cfg.beta2, g, out=tmp)
        tmp *= g
        v *= cfg.beta2
        v += tmp
        np.divide(m, bc1, out=g)
        g *= cfg.lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.eps
        g /= tmp
        network.params -= g


class AdaGrad:
    def __init__(self, network: Network, config: AdaGradConfig):
        self.config = config
        self.acc = np.zeros_like(network.params)
        self.tmp = np.empty_like(network.params)

    def step(self, network: Network, grads: np.ndarray, progress: float = 0.0):
        # in place, in the operation order of acc += g * g and
        # param -= lr * g / (sqrt(acc) + eps); the update is built in the
        # gradient vector
        cfg = self.config
        g, acc, tmp = grads, self.acc, self.tmp
        np.multiply(g, g, out=tmp)
        acc += tmp
        g *= cfg.lr
        np.sqrt(acc, out=tmp)
        tmp += cfg.eps
        g /= tmp
        network.params -= g


# The optimizer set, written once: [optimizer] kind -> (config class, update
# rule). `config` parses and checks against it, and `make_optimizer` reads it.
OPTIMIZERS = {"sgd": (SgdConfig, Sgd), "adam": (AdamConfig, Adam),
              "adagrad": (AdaGradConfig, AdaGrad)}


def make_optimizer(config, network: Network):
    """The update rule that OPTIMIZERS pairs with this config's class."""
    (rule,) = [rule for cls, rule in OPTIMIZERS.values() if isinstance(config, cls)]
    return rule(network, config)


def label_smooth(target_onehot: np.ndarray, epsilon: float) -> np.ndarray:
    """(1 - eps) * y + eps / M, rows keep summing to 1."""
    m = target_onehot.shape[-1]
    return (1.0 - epsilon) * target_onehot + epsilon / m
