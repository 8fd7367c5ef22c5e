import math

import numpy as np
import pytest

from ressmooth.annealing import AnnealSchedule, laplace_pdf_scaled, logistic_pdf_scaled, scale_at
from ressmooth.errors import ConfigError, InputError


def sech2(z):
    return 1.0 / math.cosh(z) ** 2


def test_logistic_peak_is_exactly_one():
    assert logistic_pdf_scaled(0.75, 0.75, 0.2) == 1.0


def test_logistic_at_two_scales_out():
    # independent closed form via math.cosh
    got = logistic_pdf_scaled(0.75 + 2 * 0.2, 0.75, 0.2)
    assert got == pytest.approx(sech2(1.0), abs=1e-12)
    assert got == pytest.approx(0.419974, abs=1e-6)


def test_logistic_symmetry():
    for delta in (0.01, 0.1, 0.3):
        left = logistic_pdf_scaled(0.5 - delta, 0.5, 0.17)
        right = logistic_pdf_scaled(0.5 + delta, 0.5, 0.17)
        assert left == pytest.approx(right, abs=1e-12)


def test_laplace_peak_and_one_scale_out():
    assert laplace_pdf_scaled(0.3, 0.3, 0.4) == 1.0
    assert laplace_pdf_scaled(0.3 + 0.4, 0.3, 0.4) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_laplace_monotone_decay():
    values = [laplace_pdf_scaled(0.75 + d, 0.75, 0.2) for d in np.linspace(0.0, 0.25, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_scale_at_kinds():
    assert scale_at(AnnealSchedule(kind="off"), 0.3) == 0.0
    assert scale_at(AnnealSchedule(kind="constant", const_s=0.4), 0.9) == 0.4
    assert scale_at(AnnealSchedule(kind="laplace", mu=0.75, b=0.2), 0.75) == 1.0
    got = scale_at(AnnealSchedule(kind="logistic", mu=0.75, b=0.25), 0.25)
    assert got == pytest.approx(sech2(1.0), abs=1e-9)


def test_scale_at_rejects_bad_progress():
    sched = AnnealSchedule(kind="laplace")
    with pytest.raises(InputError):
        scale_at(sched, -0.01)
    with pytest.raises(InputError):
        scale_at(sched, 1.01)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        AnnealSchedule(kind="cosine")
    with pytest.raises(ConfigError):
        AnnealSchedule(kind="laplace", b=0.0)
    with pytest.raises(ConfigError):
        AnnealSchedule(kind="laplace", mu=1.5)
    with pytest.raises(ConfigError):
        AnnealSchedule(kind="constant", const_s=1.2)


def test_scale_stays_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(200):
        kind = rng.choice(["laplace", "logistic"])
        sched = AnnealSchedule(kind=str(kind), mu=float(rng.uniform(0, 1)),
                               b=float(rng.uniform(0.05, 2.0)))
        value = scale_at(sched, float(rng.uniform(0, 1)))
        assert 0.0 <= value <= 1.0


def test_peak_location_on_grid():
    grid = np.linspace(0.0, 1.0, 10000)
    step = grid[1] - grid[0]
    for kind in ("laplace", "logistic"):
        for mu in (0.25, 0.6, 0.75):
            sched = AnnealSchedule(kind=kind, mu=mu, b=0.3)
            values = [scale_at(sched, float(t)) for t in grid]
            assert abs(grid[int(np.argmax(values))] - mu) <= step + 1e-12


def test_laplace_tails_fall_below_logistic():
    for b in (0.1, 0.3, 0.5):
        for dist in np.linspace(4 * b, 1.0, 7):
            t = min(1.0, 0.0 + dist)
            lap = laplace_pdf_scaled(t, 0.0, b)
            log = logistic_pdf_scaled(t, 0.0, b)
            assert lap < log
