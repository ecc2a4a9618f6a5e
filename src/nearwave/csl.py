"""Critical-mass and parameter-exclusion bounds for spontaneous localization.

A time-domain interferometer scaled with the particle mass (pulse delay
tracking the Talbot time at fixed grating period) loses contrast once the
localization rate, growing quadratically with mass, suppresses the
first-order fringe coefficient. The smallest mass at which the reduction
factor crosses a threshold is the critical test mass for the given
localization parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import decoherence
from .constants import AMU
from .core import BeamState, talbot_time
from .decoherence import GaussianEta, csl_channel
from .engine import InterferometerConfig, time_domain_visibility
from .gratings import IonizingGrating
from .species import gold_cluster

# F2 excimer standing wave: light wavelength 157 nm, grating period 78.5 nm
DEFAULT_OTIMA_PERIOD = 78.5e-9

MASS_BRACKET_AMU = (1e3, 1e12)
BISECTION_TOLERANCE = 0.01
MIN_QUANTUM_VISIBILITY = 0.1


class MassOutOfRangeError(ValueError):
    """No threshold crossing inside the mass bracket."""


@dataclass(frozen=True)
class CslParameters:
    lambda0: float   # single-nucleon localization rate, 1/s
    r_c: float       # localization length, m

    def __post_init__(self):
        if self.lambda0 <= 0.0 or self.r_c <= 0.0:
            raise ValueError("lambda0 and r_c must be positive")


@dataclass(frozen=True)
class OtimaTemplate:
    """Mass-parametric pulsed interferometer for collapse-model tests.

    The pulse delay tracks the Talbot time of the candidate mass; the
    grating period stays fixed. The unperturbed quantum visibility at the
    operating point does not depend on the mass; a template whose
    visibility falls below ``MIN_QUANTUM_VISIBILITY`` is rejected with
    ``ValueError``.
    """

    grating: IonizingGrating = field(
        default_factory=lambda: IonizingGrating(
            period_d=DEFAULT_OTIMA_PERIOD, mean_absorbed_photons_n0=6.0,
            phase_amplitude_phi0=0.0))
    delay_over_talbot_time: float = 1.0

    def __post_init__(self):
        if quantum_operating_visibility(self) < MIN_QUANTUM_VISIBILITY:
            raise ValueError(
                "operating point has insufficient quantum visibility")

    def config(self, mass_amu: float) -> InterferometerConfig:
        species = gold_cluster(mass_amu)
        tt = talbot_time(species.mass, self.grating.period_d)
        return InterferometerConfig(
            grating1=self.grating, grating2=self.grating,
            grating3=self.grating, species=species,
            beam=BeamState(mean_velocity=1.0),  # a pulsed signal ignores it
            pulse_delay_T=self.delay_over_talbot_time * tt,
            mode="time_domain")


@dataclass
class ExclusionMap:
    lambda0_grid: np.ndarray
    r_c_grid: np.ndarray
    critical_mass: np.ndarray    # kg; NaN where out of range


def csl_visibility(cfg: InterferometerConfig, params: CslParameters) -> float:
    """Time-domain visibility with the localization channel applied."""
    channel = csl_channel(params.lambda0, params.r_c, cfg.species.mass)
    return time_domain_visibility(cfg, cfg.pulse_delay_T, channels=[channel])


def csl_reduction_factor(params: CslParameters, template: OtimaTemplate,
                         mass_amu: float) -> float:
    """Factor multiplying the first-order signal component at this mass;
    it reads only the mass, the grating period and T / T_T."""
    mass = mass_amu * AMU
    d = template.grating.period_d
    tt = talbot_time(mass, d)
    channel = csl_channel(params.lambda0, params.r_c, mass)
    # looked up on the module, where a layer trace can wrap it
    return abs(decoherence.decoherence_factor(
        channel, 2, period_d=d,
        half_span=template.delay_over_talbot_time * tt, talbot_scale=tt))


def quantum_operating_visibility(template: OtimaTemplate) -> float:
    """Unperturbed visibility at the operating point (mass independent)."""
    cfg = template.config(1e6)
    return time_domain_visibility(cfg, cfg.pulse_delay_T)


def critical_mass(params: CslParameters, template: OtimaTemplate | None = None,
                  reduction_threshold: float = math.exp(-1.0)) -> float:
    """Smallest mass (kg) whose reduction factor falls below the threshold:
    the one-cell case of ``exclusion_map``. A crossing outside
    ``MASS_BRACKET_AMU`` raises ``MassOutOfRangeError``."""
    mass = _bisect_masses(np.array([params.lambda0]), np.array([params.r_c]),
                          template or OtimaTemplate(), reduction_threshold)
    if math.isnan(mass[0, 0]):
        raise MassOutOfRangeError(
            "no threshold crossing inside the mass bracket")
    return float(mass[0, 0])


def exclusion_map(lambda0_grid, r_c_grid, template: OtimaTemplate | None = None,
                  reduction_threshold: float = math.exp(-1.0)) -> ExclusionMap:
    """Critical mass per (lambda0, r_c) grid cell; a cell whose crossing
    lies outside ``MASS_BRACKET_AMU`` is NaN."""
    lambda0_grid = np.asarray(lambda0_grid, dtype=float)
    r_c_grid = np.asarray(r_c_grid, dtype=float)
    if len(lambda0_grid) < 2 or len(r_c_grid) < 2:
        raise ValueError("grids need at least two points per axis")
    masses = _bisect_masses(lambda0_grid, r_c_grid,
                            template or OtimaTemplate(), reduction_threshold)
    return ExclusionMap(lambda0_grid=lambda0_grid, r_c_grid=r_c_grid,
                        critical_mass=masses)


def _bisect_masses(lambda0, r_c, template: OtimaTemplate,
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
    delay = template.delay_over_talbot_time
    d = template.grating.period_d
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
    "CslParameters", "OtimaTemplate", "ExclusionMap", "csl_visibility",
    "csl_reduction_factor", "critical_mass", "exclusion_map",
    "quantum_operating_visibility",
    "MassOutOfRangeError", "DEFAULT_OTIMA_PERIOD", "MIN_QUANTUM_VISIBILITY",
]
