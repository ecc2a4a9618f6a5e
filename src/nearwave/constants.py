"""CODATA 2018 physical constants and unit conversion factors (SI throughout).

Safe to import from any layer: primitive values only.
"""

from __future__ import annotations

import math

PLANCK_H = 6.62607015e-34       # J s
HBAR = PLANCK_H / (2.0 * math.pi)
LIGHT_SPEED_C = 299792458.0     # m/s
VACUUM_PERMITTIVITY_EPS0 = 8.8541878128e-12  # F/m
BOLTZMANN_KB = 1.380649e-23     # J/K
AMU = 1.66053906660e-27         # kg
DEBYE = 3.33564095e-30          # C m

# 1 meV nm^3 in J m^3, handy for dispersion coefficients quoted in that unit.
MEV_NM3 = 1.602176634e-22 * 1e-27

__all__ = [
    "PLANCK_H", "HBAR", "LIGHT_SPEED_C", "VACUUM_PERMITTIVITY_EPS0",
    "BOLTZMANN_KB", "AMU", "DEBYE", "MEV_NM3",
]
