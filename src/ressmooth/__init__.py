"""Adaptive regularization by residual smoothing, with a small dense-network
training stack and a reproducible experiment harness."""

from .annealing import AnnealSchedule
from .config import parse_config, parse_config_text

__version__ = "0.1.0"
