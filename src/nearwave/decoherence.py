"""Environmental decoherence channels and their fringe-coefficient reduction.

A channel is an event rate R plus a decoherence function eta(x) with
|eta| <= 1 and eta(0) = 1. Every shipped eta is real and even in x: the
collisional, emission and localization couplings are isotropic. Between
the outer gratings the path separation probed by the environment grows
linearly from zero to its maximum at the central grating; with t the time
relative to the central grating, t_f the flight time between gratings
(L / v_z, or the pulse delay T) and T_T the Talbot time, the order-m
fringe coefficient is multiplied by

    exp( -R int [1 - eta( (m d / 2) (|t| - t_f) / T_T )] dt )

over the transit. The integral is 2 t_f R (1 - mean eta), the mean taken
over [0, x_max] with x_max = |m| d t_f / (2 T_T): an eta that knows its
own mean (``TabulatedEta``, ``GaussianEta``) is reduced in closed form,
any other is integrated adaptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import AMU, BOLTZMANN_KB, HBAR
from .core import require_finite, talbot_time
from .species import Species

QUAD_RELTOL = 1e-6


class QuadratureError(RuntimeError):
    """Decoherence-factor quadrature failed to converge."""


@dataclass
class DecoherenceChannel:
    """One environmental coupling: event rate and coherence reduction.

    ``rate`` is a constant (events/s); ``eta`` maps a path separation in
    meters to a real factor with magnitude <= 1 (the imaginary part of an
    isotropic coupling vanishes). An ``eta`` with a ``mean(x_max)`` method
    gives its average over [0, x_max], which replaces quadrature.
    """

    rate: float
    eta: Callable[[float], float]


class TabulatedEta:
    """eta interpolated linearly between knots and constant past the last.

    ``mean`` is the exact integral of that interpolant, so the closed-form
    reduction agrees with quadrature of the same function.
    """

    def __init__(self, x_grid: np.ndarray, values: np.ndarray):
        self.x_grid = np.asarray(x_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._area = np.concatenate(([0.0], np.cumsum(
            0.5 * (self.values[1:] + self.values[:-1])
            * np.diff(self.x_grid))))

    def __call__(self, x: float) -> float:
        return float(np.interp(abs(x), self.x_grid, self.values))

    def mean(self, x_max: float) -> float:
        if x_max == 0.0:
            return float(self.values[0])
        x_end = self.x_grid[-1]
        if x_max >= x_end:
            area = self._area[-1] + self.values[-1] * (x_max - x_end)
        else:
            k = int(np.searchsorted(self.x_grid, x_max, side="right")) - 1
            area = self._area[k] + 0.5 * (self.values[k] + self(x_max)) * (
                x_max - self.x_grid[k])
        return float(area / x_max)


@dataclass(frozen=True)
class GaussianEta:
    """eta(x) = exp(-x^2 / (4 r_c^2)); its mean over [0, x_max] is an erf."""

    r_c: float

    def __call__(self, x: float) -> float:
        return math.exp(-x * x / (4.0 * self.r_c * self.r_c))

    def mean(self, x_max: float) -> float:
        if x_max == 0.0:
            return 1.0
        return (self.r_c * math.sqrt(math.pi)
                * math.erf(x_max / (2.0 * self.r_c)) / x_max)


@dataclass(frozen=True)
class GasEnvironment:
    """Residual gas parameters for collisional decoherence."""

    gas_mass: float        # kg
    temperature: float     # K
    pressure: float        # Pa
    scattering_model: str = "isotropic_constant_amplitude"
    scattering_table: tuple = ()   # (theta_rad, |f|^2) rows for "user_table"

    def __post_init__(self):
        require_finite(gas_mass=self.gas_mass, temperature=self.temperature,
                       pressure=self.pressure)
        if self.gas_mass <= 0.0 or self.temperature <= 0.0 or self.pressure < 0.0:
            raise ValueError("gas parameters must be positive")
        if self.scattering_model not in ("isotropic_constant_amplitude",
                                         "user_table"):
            raise ValueError(
                f"unknown scattering model {self.scattering_model!r}")


def decoherence_factor(channel: DecoherenceChannel, m: int, *, period_d: float,
                       half_span: float, talbot_scale: float) -> complex:
    """Exponential reduction factor of the order-m coefficient.

    ``half_span`` is the flight time t_f between gratings and
    ``talbot_scale`` the Talbot time T_T, so that the separation argument
    reads (m d / 2)(|t| - half_span) / talbot_scale with t the time
    relative to the central grating. eta is real, so the factor is real; it
    is returned as a complex number to multiply complex coefficients.
    """
    if m == 0:
        return 1.0 + 0.0j

    mean = getattr(channel.eta, "mean", None)
    if mean is not None:
        x_max = (abs(m) * period_d / 2.0) * half_span / talbot_scale
        exponent = 2.0 * half_span * float(channel.rate) * (1.0 - mean(x_max))
        return complex(math.exp(-exponent))

    from scipy import integrate

    def integrand(t):
        x = (m * period_d / 2.0) * (abs(t) - half_span) / talbot_scale
        return channel.rate * (1.0 - np.real(channel.eta(x)))

    value, err = integrate.quad(integrand, -half_span, half_span,
                                epsrel=QUAD_RELTOL, epsabs=1e-300, limit=400)
    if abs(value) > 1e-12 and err > 10.0 * QUAD_RELTOL * abs(value) + 1e-9:
        raise QuadratureError(
            f"decoherence quadrature residual {err:.2e} for value {value:.2e}")
    return complex(math.exp(-value))


def channel_factor(channel: DecoherenceChannel, cfg, m: int,
                   v_z: float) -> complex:
    """Reduction factor of the order-m coefficient for a full configuration.

    ``m`` is the Talbot-Lau index, twice the fringe order: S_1 takes m = 2.
    """
    d = cfg.period_d
    return decoherence_factor(channel, m, period_d=d,
                              half_span=cfg.flight_time(v_z),
                              talbot_scale=talbot_time(cfg.species.mass, d))


# ---------------------------------------------------------------------------
# collisional channel

def _maxwell_speed_nodes(gas_mass: float, temperature: float, n: int):
    """Gauss-Legendre nodes/weights under the Maxwell-Boltzmann speed pdf."""
    vp = math.sqrt(2.0 * BOLTZMANN_KB * temperature / gas_mass)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    v = 0.5 * (nodes + 1.0) * 5.0 * vp          # [0, 5 v_p]
    pdf = v ** 2 * np.exp(-(v / vp) ** 2)
    w = weights * pdf
    return v, w / w.sum()


def collisional_eta(env: GasEnvironment,
                    x: float | np.ndarray) -> float | np.ndarray:
    """Decoherence function of one gas collision at path separation x.

    Angular average of sinc(sin(theta/2) 2 v_g m_g x / hbar) over the
    normalized differential cross section, then a thermal average over the
    gas speed, on 64 and 32 Gauss-Legendre nodes. ``x`` may be a scalar (a
    float is returned) or an array of separations; the quadrature nodes
    are built once for all of them.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError("x must be nonnegative")
    theta_nodes, theta_weights = np.polynomial.legendre.leggauss(64)
    theta = 0.5 * (theta_nodes + 1.0) * math.pi
    solid = np.sin(theta) * theta_weights
    if env.scattering_model == "isotropic_constant_amplitude":
        f2 = np.ones_like(theta)
    else:
        table = np.asarray(env.scattering_table, dtype=float)
        if table.size == 0:
            raise ValueError("user_table model requires a scattering table")
        f2 = np.interp(theta, table[:, 0], table[:, 1])
    weight = solid * f2
    norm = weight.sum()
    if norm <= 0.0:
        raise QuadratureError("angular quadrature degenerate")
    weight = weight / norm

    v_nodes, v_weights = _maxwell_speed_nodes(env.gas_mass, env.temperature,
                                              32)
    kick = np.outer(v_nodes, np.sin(theta / 2.0)).ravel()
    weights = (v_weights[:, None] * weight[None, :]).ravel()
    # one separation at a time keeps the speed x angle operands in cache;
    # broadcasting all separations at once is slower and holds ~18 MB
    eta = np.array([np.sum(weights * np.sinc(kick * scale / math.pi))
                    for scale in (2.0 * env.gas_mass * x.ravel() / HBAR)])
    return float(eta[0]) if x.ndim == 0 else eta.reshape(x.shape)


def mean_gas_speed(env: GasEnvironment) -> float:
    """Mean Maxwell-Boltzmann speed of the gas particles."""
    return math.sqrt(8.0 * BOLTZMANN_KB * env.temperature
                     / (math.pi * env.gas_mass))


def collisional_rate(env: GasEnvironment, total_cross_section: float) -> float:
    """Collision rate n sigma v_rel with n = p / (kB T).

    The mean Maxwell-Boltzmann gas speed is the relative-speed convention
    (the beam is slow compared to a room-temperature gas).
    """
    require_finite(total_cross_section=total_cross_section)
    if total_cross_section <= 0.0:
        raise ValueError("cross section must be positive")
    n_density = env.pressure / (BOLTZMANN_KB * env.temperature)
    return n_density * total_cross_section * mean_gas_speed(env)


def collisional_channel(env: GasEnvironment, s: Species,
                        total_cross_section: float) -> DecoherenceChannel:
    """Channel for scattering of residual gas off the delocalized particle.

    The rate is ``collisional_rate``; eta is tabulated on a separation grid
    and interpolated. eta does not depend on the pressure, so a pressure
    sweep builds one channel and replaces only its rate.
    """
    rate = collisional_rate(env, total_cross_section)
    # eta decays on the momentum-exchange wavelength scale; tabulate out to
    # a few microns which covers every near-field separation of interest
    x_grid = np.linspace(0.0, 5e-6, 200)
    eta = TabulatedEta(x_grid, collisional_eta(env, x_grid))
    return DecoherenceChannel(rate=rate, eta=eta)


# ---------------------------------------------------------------------------
# thermal emission channel

def thermal_emission_channel(spectrum) -> DecoherenceChannel:
    """Channel for isotropic single-photon emission events.

    ``spectrum`` is a sequence of (wavelength_m, rate_hz) pairs. Each
    emitted photon of wavelength lambda reduces coherence over separation x
    by sinc(2 pi x / lambda).
    """
    spectrum = [(float(lam), float(r)) for lam, r in spectrum]
    if not spectrum:
        raise ValueError("emission spectrum is empty")
    for lam, r in spectrum:
        require_finite(wavelength=lam, rate=r)
        if lam <= 0.0 or r < 0.0:
            raise ValueError("wavelengths must be positive and rates nonnegative")
    total = sum(r for _, r in spectrum)
    lams = np.array([lam for lam, _ in spectrum])
    weights = np.array([r for _, r in spectrum])
    weights = weights / total if total > 0.0 else weights

    def eta(x):
        z = 2.0 * np.pi * abs(x) / lams
        return float(np.sum(weights * np.sinc(z / np.pi)))

    return DecoherenceChannel(rate=total, eta=eta)


def absorption_visibility_factor(mean_photons: float,
                                 fringe_shift_per_photon: float) -> float:
    """First-order visibility factor for Poissonian photon absorption.

    Each absorbed photon shifts the interferogram by a fixed fraction s of
    the period; the Poisson-weighted superposition multiplies S_1 by
    exp(n (exp(2 pi i s) - 1)), whose magnitude this returns.
    """
    if mean_photons < 0.0:
        raise ValueError("mean_photons must be nonnegative")
    return math.exp(mean_photons
                    * (math.cos(2.0 * math.pi * fringe_shift_per_photon) - 1.0))


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


# ---------------------------------------------------------------------------
# file interfaces

def load_two_column(path) -> list[tuple[float, float]]:
    """Read a two-column numeric text file (comma or whitespace separated)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 2:
                raise ValueError(f"malformed table line: {line!r}")
            rows.append((float(parts[0]), float(parts[1])))
    if not rows:
        raise ValueError(f"empty table file {path}")
    return rows


def load_emission_spectrum(path) -> DecoherenceChannel:
    """Thermal emission channel from a (wavelength_m, rate_hz) text file."""
    return thermal_emission_channel(load_two_column(path))


def load_scattering_table(path) -> tuple:
    """(theta_rad, |f|^2) rows for the user_table scattering model."""
    return tuple(load_two_column(path))


__all__ = [
    "DecoherenceChannel", "GasEnvironment", "decoherence_factor",
    "channel_factor", "TabulatedEta", "GaussianEta",
    "collisional_eta", "mean_gas_speed", "collisional_rate",
    "collisional_channel", "thermal_emission_channel",
    "absorption_visibility_factor", "csl_channel",
    "load_two_column", "load_emission_spectrum", "load_scattering_table",
    "QuadratureError",
]
