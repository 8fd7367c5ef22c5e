"""Time-varying scale generation for the diffusivity sigmoid.

The scale follows a Laplace or Logistic probability density over normalized
training progress in [0, 1], rescaled so the peak value is exactly 1 at
progress `mu`; `off` returns 0. A fixed scale is `local_scale`, in mode `local`.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class AnnealSchedule:
    kind: str = "off"
    mu: float = 0.75
    b: float = 0.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not self.b > 0.0:
            raise ConfigError(f"schedule scale b must be > 0, got {self.b}")
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"schedule peak mu must be in [0, 1], got {self.mu}")


def logistic_pdf_scaled(t: float, mu: float, b: float) -> float:
    """Logistic density rescaled to peak value 1: sech^2((t - mu) / (2b))."""
    # sech^2 via exp(-|z|) so large |t - mu| cannot overflow
    z = abs(t - mu) / (2.0 * b)
    e = math.exp(-z)
    return (2.0 * e / (1.0 + e * e)) ** 2


def laplace_pdf_scaled(t: float, mu: float, b: float) -> float:
    """Laplace density rescaled to peak value 1: exp(-|t - mu| / b)."""
    return math.exp(-abs(t - mu) / b)


# schedule kind -> its density, called by name so a wrapper set on this module (a tracer's) runs
DENSITIES = {"laplace": laplace_pdf_scaled, "logistic": logistic_pdf_scaled}
KINDS = (*DENSITIES, "off")


def scale_at(schedule: AnnealSchedule, progress: float) -> float:
    """Scale s at normalized training progress; always lands in [0, 1]."""
    density = DENSITIES.get(schedule.kind)
    return globals()[density.__name__](progress, schedule.mu, schedule.b) if density else 0.0
