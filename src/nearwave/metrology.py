"""Interference-assisted measurement models.

Fringe shifts from static fields and inertial forces, the thermal
polarizability correction, and the contrast penalty of a distribution of
fringe shifts (dipole orientations, vibrations).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constants import BOLTZMANN_KB
from .core import require_finite


@dataclass(frozen=True)
class DeflectionField:
    """Electrode geometry factor and the field-gradient value at the beam."""

    geometry_constant_K: float
    grad_E_squared: float    # d(E^2)/dx in V^2/m^3

    def __post_init__(self):
        require_finite(geometry_constant_K=self.geometry_constant_K,
                       grad_E_squared=self.grad_E_squared)
        if self.geometry_constant_K <= 0.0:
            raise ValueError("geometry_constant_K must be positive")


@dataclass(frozen=True)
class ShiftDistribution:
    """Distribution of fringe shifts blurring the interferogram.

    ``model`` is one of ``delta`` (pure shift), ``gaussian`` (mean, sigma)
    or ``empirical`` (explicit sample list in meters).
    """

    model: str = "delta"
    mean: float = 0.0
    sigma: float = 0.0
    samples: Sequence[float] = field(default_factory=tuple)

    def __post_init__(self):
        if self.model not in ("delta", "gaussian", "empirical"):
            raise ValueError(f"unknown shift model {self.model!r}")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")


def stark_fringe_shift(fld: DeflectionField, alpha_stat: float, mass: float,
                       velocity):
    """Fringe displacement K alpha d(E^2)/dx / (2 m v^2).

    Identical to the classical beam displacement; ``alpha_stat`` is the SI
    polarizability (C m^2/V). An array of velocities gives an array of
    shifts.
    """
    if np.any(np.asarray(velocity) <= 0.0):
        raise ValueError("velocity must be positive")
    return (fld.geometry_constant_K * alpha_stat * fld.grad_E_squared
            / (2.0 * mass * velocity ** 2))


def total_polarizability(alpha_stat: float, dipole_rms: float,
                         temperature: float) -> float:
    """Static polarizability plus the thermal nuclear term <d^2>/(3 kB T)."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    return alpha_stat + dipole_rms ** 2 / (3.0 * BOLTZMANN_KB * temperature)


def inertial_fringe_shift(acceleration: float, T_free: float) -> float:
    """Fringe shift a T^2 from a constant acceleration over free time T."""
    if T_free < 0.0:
        raise ValueError("T_free must be nonnegative")
    return acceleration * T_free ** 2


def coriolis_acceleration(beam_velocity_vector, earth_rotation_vector):
    """Coriolis acceleration 2 v x Omega for a moving beam."""
    v = np.asarray(beam_velocity_vector, dtype=float)
    omega = np.asarray(earth_rotation_vector, dtype=float)
    return 2.0 * np.cross(v, omega)


def grating_shift_combination(dx1: float, dx2: float, dx3: float) -> float:
    """Effective fringe shift dx1 - 2 dx2 + dx3 of three displaced gratings."""
    return dx1 - 2.0 * dx2 + dx3


def shift_dephasing_factor(dist: ShiftDistribution, period_d: float) -> complex:
    """Characteristic function of the shift distribution at frequency 2 pi / d.

    Multiplies the first-order signal component; its magnitude is the
    contrast retained under the phase averaging.
    """
    if period_d <= 0.0:
        raise ValueError("period_d must be positive")
    k = 2.0 * math.pi / period_d
    if dist.model == "delta":
        return cmath.exp(1j * k * dist.mean)
    if dist.model == "gaussian":
        return cmath.exp(1j * k * dist.mean) * math.exp(-0.5 * (k * dist.sigma) ** 2)
    if not dist.samples:
        raise ValueError("empirical shift distribution has no samples")
    phases = np.exp(1j * k * np.asarray(dist.samples, dtype=float))
    return complex(phases.mean())


__all__ = [
    "DeflectionField", "ShiftDistribution", "stark_fringe_shift",
    "total_polarizability", "inertial_fringe_shift",
    "coriolis_acceleration", "grating_shift_combination",
    "shift_dephasing_factor",
]
