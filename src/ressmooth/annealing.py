"""Time-varying scale generation for the diffusivity sigmoid.

The scale follows a Laplace or Logistic probability density over normalized
training progress in [0, 1], rescaled so the peak value is exactly 1 at
progress `mu`. A `constant` kind returns a fixed scale and `off` returns 0.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, InputError

KINDS = ("laplace", "logistic", "constant", "off")


@dataclass(frozen=True)
class AnnealSchedule:
    kind: str = "off"
    mu: float = 0.75
    b: float = 0.5
    const_s: float = 1.0  # used by kind == "constant" only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not self.b > 0.0:
            raise ConfigError(f"schedule scale b must be > 0, got {self.b}")
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"schedule peak mu must be in [0, 1], got {self.mu}")
        if not 0.0 <= self.const_s <= 1.0:
            raise ConfigError(f"const_s must be in [0, 1], got {self.const_s}")


def logistic_pdf_scaled(t: float, mu: float, b: float) -> float:
    """Logistic density rescaled to peak value 1: sech^2((t - mu) / (2b))."""
    # sech^2 via exp(-|z|) so large |t - mu| cannot overflow
    z = abs(t - mu) / (2.0 * b)
    e = math.exp(-z)
    return (2.0 * e / (1.0 + e * e)) ** 2


def laplace_pdf_scaled(t: float, mu: float, b: float) -> float:
    """Laplace density rescaled to peak value 1: exp(-|t - mu| / b)."""
    return math.exp(-abs(t - mu) / b)


def scale_at(schedule: AnnealSchedule, progress: float) -> float:
    """Scale s at normalized training progress; always lands in [0, 1]."""
    if not 0.0 <= progress <= 1.0:
        raise InputError(f"progress must be in [0, 1], got {progress}")
    if schedule.kind == "off":
        return 0.0
    if schedule.kind == "constant":
        return schedule.const_s
    if schedule.kind == "laplace":
        return laplace_pdf_scaled(progress, schedule.mu, schedule.b)
    return logistic_pdf_scaled(progress, schedule.mu, schedule.b)
