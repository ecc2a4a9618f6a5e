"""Interference-assisted measurement: the Stark fringe shift of a static
field gradient (``deflect``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


__all__ = ["DeflectionField", "stark_fringe_shift"]
