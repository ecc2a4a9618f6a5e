"""Critical-mass and parameter-exclusion bounds for spontaneous localization.

A time-domain interferometer scaled with the particle mass (pulse delay
tracking the Talbot time at fixed grating period) loses contrast once the
localization rate, growing quadratically with mass, suppresses the
first-order fringe coefficient. The smallest mass at which the reduction
factor crosses a threshold is the critical test mass for the given
localization parameters. Each entry point takes the time-domain
configuration that is scaled with the mass; it reads the grating period d
and the ratio T / T_T of pulse delay to Talbot time from it, and keeps both
fixed at every mass.
"""

from __future__ import annotations

import math

import numpy as np

from . import decoherence
from .constants import AMU
from .core import talbot_time
from .decoherence import GaussianEta, csl_channel
from .engine import InterferometerConfig, time_domain_visibility

MASS_BRACKET_AMU = (1e3, 1e12)
BISECTION_TOLERANCE = 0.01
MIN_QUANTUM_VISIBILITY = 0.1


class MassOutOfRangeError(ValueError):
    """No threshold crossing inside the mass bracket."""


def _scaling(cfg: InterferometerConfig) -> tuple[float, float]:
    """(d, T / T_T) of ``cfg``, the two numbers the mass scaling keeps."""
    if cfg.mode != "time_domain":
        raise ValueError("config must be in time_domain mode")
    d = cfg.period_d
    return d, cfg.pulse_delay_T / talbot_time(cfg.species.mass, d)


def _check_operating_point(cfg: InterferometerConfig):
    """Reject ``cfg`` if its unperturbed quantum visibility, which does not
    depend on the mass, is below ``MIN_QUANTUM_VISIBILITY``."""
    if time_domain_visibility(cfg, cfg.pulse_delay_T) < MIN_QUANTUM_VISIBILITY:
        raise ValueError("operating point has insufficient quantum visibility")


def csl_reduction_factor(cfg: InterferometerConfig, lambda0: float,
                         r_c: float, mass_amu: float) -> float:
    """Factor multiplying the first-order signal component of ``cfg``
    scaled to this mass; it reads only the mass, d and T / T_T."""
    d, delay = _scaling(cfg)
    mass = mass_amu * AMU
    tt = talbot_time(mass, d)
    channel = csl_channel(lambda0, r_c, mass)
    # looked up on the module, where a layer trace can wrap it
    return decoherence.decoherence_factor(
        channel, 2, period_d=d, half_span=delay * tt, talbot_scale=tt)


def critical_mass(cfg: InterferometerConfig, lambda0: float, r_c: float,
                  reduction_threshold: float = math.exp(-1.0)) -> float:
    """Smallest mass (kg) whose reduction factor falls below the threshold:
    the one-cell case of ``exclusion_map``. A crossing outside
    ``MASS_BRACKET_AMU`` raises ``MassOutOfRangeError``."""
    _check_operating_point(cfg)
    mass = _bisect_masses(cfg, np.array([lambda0]), np.array([r_c]),
                          reduction_threshold)
    if math.isnan(mass[0, 0]):
        raise MassOutOfRangeError(
            "no threshold crossing inside the mass bracket")
    return float(mass[0, 0])


def exclusion_map(cfg: InterferometerConfig, lambda0_grid, r_c_grid,
                  reduction_threshold: float = math.exp(-1.0)) -> np.ndarray:
    """Critical mass (kg) per (lambda0, r_c) grid cell, lambda0 on the
    rows; a cell whose crossing lies outside ``MASS_BRACKET_AMU`` is NaN."""
    _check_operating_point(cfg)
    lambda0_grid = np.asarray(lambda0_grid, dtype=float)
    r_c_grid = np.asarray(r_c_grid, dtype=float)
    if len(lambda0_grid) < 2 or len(r_c_grid) < 2:
        raise ValueError("grids need at least two points per axis")
    return _bisect_masses(cfg, lambda0_grid, r_c_grid, reduction_threshold)


def _bisect_masses(cfg: InterferometerConfig, lambda0, r_c,
                   reduction_threshold: float) -> np.ndarray:
    """Critical mass (kg) of every (lambda0[i], r_c[j]) cell, NaN outside
    the bracket, by bisection on the logarithm of the mass to 1% width.

    The reduction factor is monotone decreasing in mass: the event rate
    grows as m^2 and the transit time as m. Every cell starts from the same
    bracket and halves the same width, so all cells step in lock-step,
    one array evaluation of the factor per step.
    """
    if not 0.0 < reduction_threshold < 1.0:
        raise ValueError("reduction_threshold must lie in (0, 1)")
    if not all(np.all(np.isfinite(g) & (g > 0.0)) for g in (lambda0, r_c)):
        raise ValueError("lambda0 and r_c must be positive and finite")
    d, delay = _scaling(cfg)
    # x_max = d T / T_T does not depend on the mass: one eta loss per r_c
    loss = np.array([GaussianEta(rc).loss(d * delay) for rc in r_c])
    # the exponent 2 T R (1 - mean eta) with T = delay T_T and the CSL rate
    # R = lambda0 (m / amu)^2, as ``csl_reduction_factor`` takes it
    scale = 2.0 * delay * talbot_time(AMU, d) * lambda0[:, None] * loss

    def factor(log_mass):
        mass_amu = 10.0 ** log_mass
        with np.errstate(over="ignore"):   # an overflow is a factor of 0
            return np.exp(-(scale * mass_amu ** 3))

    lo, hi = (math.log10(m) for m in MASS_BRACKET_AMU)
    log_lo = np.full(scale.shape, lo)
    log_hi = np.full(scale.shape, hi)
    outside = ((factor(log_lo) < reduction_threshold)
               | (factor(log_hi) > reduction_threshold))
    # every cell halves the same width, so one test ends every search
    width = hi - lo
    while 10.0 ** width - 1.0 >= BISECTION_TOLERANCE:
        mid = 0.5 * (log_lo + log_hi)
        crossed = factor(mid) < reduction_threshold
        log_hi = np.where(crossed, mid, log_hi)
        log_lo = np.where(crossed, log_lo, mid)
        width *= 0.5
    # Python's pow per cell, as a scalar search takes it: numpy's may
    # round the last bit differently
    mid = (0.5 * (log_lo + log_hi)).flat
    masses = np.array([10.0 ** m for m in mid]).reshape(scale.shape) * AMU
    masses[outside] = math.nan
    return masses


__all__ = [
    "csl_reduction_factor", "critical_mass", "exclusion_map",
    "MassOutOfRangeError", "MIN_QUANTUM_VISIBILITY",
]
