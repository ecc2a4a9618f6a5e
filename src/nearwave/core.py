"""Elementary matter-wave scales and beam velocity averaging.

All quantities are SI. The formulas are the textbook near-field optics
scales: de Broglie wavelength, Talbot length/time, van Cittert-Zernike
coherence width and the far-field crossover distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PLANCK_H

# Quadrature nodes below this fraction of the mean velocity are clipped:
# near-zero forward velocities are unphysical for a selected beam.
MIN_VELOCITY_FRACTION = 0.05


def require_finite(**values):
    """Raise ValueError naming the first value that is NaN or infinite.

    None values are skipped. Range checks written as ``x <= 0`` let NaN
    through, so input guards call this first.
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BeamState:
    """Forward velocity distribution of the particle beam.

    ``relative_spread`` is the standard deviation over the mean for the
    gaussian shape, and the half width over the mean for the top-hat shape.
    """

    mean_velocity: float
    relative_spread: float = 0.0
    distribution_shape: str = "gaussian"

    def __post_init__(self):
        # one comparison chain, also false for NaN: configs are built per
        # bisection step of a critical-mass search
        if not 0.0 < self.mean_velocity < math.inf:
            raise ValueError("mean_velocity must be positive and finite, "
                             f"got {self.mean_velocity!r}")
        if not 0.0 <= self.relative_spread < 1.0:
            raise ValueError("relative_spread must lie in [0, 1)")
        if self.distribution_shape not in ("gaussian", "top_hat"):
            raise ValueError(f"unknown distribution shape {self.distribution_shape!r}")


def de_broglie_wavelength(mass, velocity):
    """Matter wavelength h/(m v) of a particle of mass ``mass`` at speed ``velocity``."""
    if mass <= 0.0 or velocity <= 0.0:
        raise ValueError("mass and velocity must be positive")
    return PLANCK_H / (mass * velocity)


def talbot_length(period, wavelength):
    """Self-imaging distance d^2/lambda behind a grating of period ``period``."""
    if period <= 0.0 or wavelength <= 0.0:
        raise ValueError("period and wavelength must be positive")
    return period * period / wavelength


def talbot_time(mass, period):
    """Self-imaging time m d^2/h for pulsed (time-domain) gratings."""
    if mass <= 0.0 or period <= 0.0:
        raise ValueError("mass and period must be positive")
    return mass * period * period / PLANCK_H


def coherence_width(distance, wavelength, source_width):
    """Transverse coherence 2 L lambda / a behind an incoherent source of width ``source_width``."""
    if distance <= 0.0 or wavelength <= 0.0 or source_width <= 0.0:
        raise ValueError("all arguments must be positive")
    return 2.0 * distance * wavelength / source_width


def far_field_distance(aperture, wavelength):
    """Distance a^2/lambda beyond which the diffracted field is in the far-field regime."""
    if aperture <= 0.0 or wavelength <= 0.0:
        raise ValueError("aperture and wavelength must be positive")
    return aperture * aperture / wavelength


def velocity_weights(beam: BeamState, n_points: int):
    """Quadrature nodes and weights sampling the beam velocity distribution.

    Returns a list of ``(velocity, weight)`` pairs with nonnegative weights
    summing to one. ``n_points = 1`` collapses to the mean velocity. The
    result is deterministic for fixed inputs.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    v0 = beam.mean_velocity
    if n_points == 1 or beam.relative_spread == 0.0:
        return [(v0, 1.0)]

    if beam.distribution_shape == "gaussian":
        sigma = beam.relative_spread * v0
        nodes, weights = np.polynomial.hermite_e.hermegauss(n_points)
        velocities = v0 + sigma * nodes
        weights = weights / weights.sum()
    else:  # top_hat
        half = beam.relative_spread * v0
        nodes, weights = np.polynomial.legendre.leggauss(n_points)
        velocities = v0 + half * nodes
        weights = weights / weights.sum()

    velocities = np.maximum(velocities, MIN_VELOCITY_FRACTION * v0)
    return list(zip(velocities.tolist(), weights.tolist()))


__all__ = [
    "BeamState", "de_broglie_wavelength", "talbot_length", "talbot_time",
    "coherence_width", "far_field_distance", "velocity_weights",
    "MIN_VELOCITY_FRACTION", "require_finite",
]
