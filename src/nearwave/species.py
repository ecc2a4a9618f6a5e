"""Particle species and the built-in library of interferometry workhorses."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import AMU, DEBYE, MEV_NM3
from .core import require_finite


@dataclass(frozen=True)
class Species:
    """A diffracted particle.

    ``alpha_stat_vol`` and ``alpha_opt_vol`` are polarizability volumes,
    i.e. alpha / (4 pi eps0), in m^3. ``c3_coefficient`` is the wall
    dispersion constant C3 in J m^3 for the relevant grating material.
    """

    name: str
    mass: float                      # kg
    alpha_stat_vol: float = 0.0      # m^3
    alpha_opt_vol: float = 0.0       # m^3
    c3_coefficient: float = 0.0      # J m^3
    dipole_rms: float = 0.0          # C m

    def __post_init__(self):
        require_finite(**{k: v for k, v in vars(self).items() if k != "name"})
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        for field in ("alpha_stat_vol", "alpha_opt_vol", "dipole_rms"):
            if getattr(self, field) < 0.0:
                raise ValueError(f"{field} must be nonnegative")


# Gold-wall dispersion constant for fullerenes, 10 meV nm^3.
C3_FULLERENE_GOLD = 10.0 * MEV_NM3

LIBRARY = {
    "C60": Species(
        name="C60", mass=720.0 * AMU,
        alpha_stat_vol=88.0e-30, alpha_opt_vol=79.0e-30,
        c3_coefficient=C3_FULLERENE_GOLD,
    ),
    "C70": Species(
        name="C70", mass=840.0 * AMU,
        alpha_stat_vol=102.0e-30, alpha_opt_vol=118.0e-30,
        c3_coefficient=C3_FULLERENE_GOLD,
    ),
    "PFNS8": Species(
        name="PFNS8", mass=5672.0 * AMU,
        alpha_stat_vol=200.0e-30, alpha_opt_vol=200.0e-30,
        c3_coefficient=C3_FULLERENE_GOLD,
    ),
    # Perfluoroalkylated azobenzene: thermally fluctuating dipole,
    # 0.8 - 3.6 Debye at 500 K; 2.5 Debye is the representative r.m.s.
    "azobenzene_pf": Species(
        name="azobenzene_pf", mass=1034.0 * AMU,
        alpha_stat_vol=61.0e-30, alpha_opt_vol=61.0e-30,
        dipole_rms=2.5 * DEBYE,
    ),
}

# Bulk gold density, for the parametric cluster radius estimate.
_GOLD_DENSITY = 19300.0  # kg/m^3


def gold_cluster(mass_amu: float) -> Species:
    """Parametric gold cluster of the given mass.

    Polarizability volume is estimated as the cluster volume scale r^3 from
    the bulk density; it only matters for optional grating interactions.
    """
    require_finite(mass_amu=mass_amu)
    if mass_amu <= 0.0:
        raise ValueError("mass_amu must be positive")
    mass = mass_amu * AMU
    radius = (3.0 * mass / (4.0 * math.pi * _GOLD_DENSITY)) ** (1.0 / 3.0)
    return Species(
        name=f"Au_{mass_amu:g}amu", mass=mass,
        alpha_stat_vol=radius ** 3, alpha_opt_vol=radius ** 3,
    )


def get_species(name: str, mass_amu: float | None = None) -> Species:
    """Look up a library species; ``gold_cluster`` requires ``mass_amu``."""
    if name == "gold_cluster":
        if mass_amu is None:
            raise KeyError("gold_cluster requires a mass")
        return gold_cluster(mass_amu)
    try:
        entry = LIBRARY[name]
    except KeyError:
        raise KeyError(f"unknown species {name!r}") from None
    if mass_amu is not None:
        entry = replace(entry, mass=mass_amu * AMU)
    return entry


__all__ = ["Species", "LIBRARY", "gold_cluster", "get_species", "C3_FULLERENE_GOLD"]
