"""Complex periodic transmission functions of the three grating families.

A grating is reduced to one period of its complex transmission amplitude
t(x), sampled on a uniform power-of-two grid, from which
``fourier_coefficients`` extracts the Fourier coefficients b_j by one
batched FFT. These sampled profiles and their FFT serve the tests'
oracles and the benchmark's layer trace; ``engine`` builds every grating
table without them, as a cosine sum from |t| and the phase on half a
period or as the Bessel closed form of a laser. Material masks carry an eikonal
dispersion phase accumulated on straight trajectories through the slit;
laser gratings are pure phase masks; pulsed ionizing gratings combine a
periodic survival amplitude with a dipole phase.

The builders accept an array of speeds and return one row of samples per
speed (a node-stacked profile), computing the speed-free parts once.
Fourier tables keep the leading (node) axes of their profile. The grid is
exactly symmetric about the slit centre (``_slit_offsets``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, LIGHT_SPEED_C, VACUUM_PERMITTIVITY_EPS0
from .core import require_finite
from .species import Species

DEFAULT_GRID_SIZE = 4096
DEFAULT_J_MAX = 64
DEFAULT_WALL_CUTOFF = 1e-9  # molecules closer to a wall are counted as absorbed
MAX_ABSORBED_PHOTONS_N0 = 1000.0  # the Bessel sums overflow from n0 = 1,418


class SlitBlockedError(ValueError):
    """The wall cutoff swallows the whole slit; nothing is transmitted."""


class AliasingError(ValueError):
    """Requested Fourier order is not resolved by the sample grid."""


@dataclass(frozen=True)
class MaterialGrating:
    """Nanofabricated absorptive mask with an optional dispersion interaction.

    ``interaction`` selects the wall potential inside the slit:
    ``"none"``, ``"vdw_r3"`` (C3/r^3) or ``"casimir_polder_r4"``
    (retarded asymptote, C4/r^4 with C4 derived from the static
    polarizability).
    """

    period_d: float
    open_fraction_f: float
    thickness_b: float = 0.0
    interaction: str = "none"
    wall_cutoff: float = DEFAULT_WALL_CUTOFF

    def __post_init__(self):
        require_finite(period_d=self.period_d, thickness_b=self.thickness_b,
                       wall_cutoff=self.wall_cutoff)
        if self.period_d <= 0.0:
            raise ValueError("period_d must be positive")
        if not 0.0 < self.open_fraction_f < 1.0:
            raise ValueError("open_fraction_f must lie in (0, 1)")
        if self.thickness_b < 0.0:
            raise ValueError("thickness_b must be nonnegative")
        if self.wall_cutoff <= 0.0:
            raise ValueError("wall_cutoff must be positive")
        if self.interaction not in ("none", "vdw_r3", "casimir_polder_r4"):
            raise ValueError(f"unknown interaction {self.interaction!r}")
        if self.open_half_width <= 0.0:
            raise SlitBlockedError(
                "wall_cutoff >= half the slit width: slit fully blocked")

    @property
    def open_half_width(self) -> float:
        """Half-width of the transmitting slit: f d / 2, less ``wall_cutoff``
        if a wall interaction absorbs there (where its phase diverges)."""
        cutoff = self.wall_cutoff if self.interaction != "none" else 0.0
        return self.open_fraction_f * self.period_d / 2.0 - cutoff


@dataclass(frozen=True)
class LaserPhaseGrating:
    """Off-resonant retro-reflected standing light wave (pure phase mask)."""

    period_d: float
    power_P: float
    vertical_waist_wy: float
    laser_wavelength: float

    def __post_init__(self):
        require_finite(period_d=self.period_d, power_P=self.power_P,
                       vertical_waist_wy=self.vertical_waist_wy,
                       laser_wavelength=self.laser_wavelength)
        if self.period_d <= 0.0 or self.vertical_waist_wy <= 0.0 \
                or self.laser_wavelength <= 0.0:
            raise ValueError("geometry parameters must be positive")
        if self.power_P < 0.0:
            raise ValueError("power_P must be nonnegative")
        if abs(self.period_d - self.laser_wavelength / 2.0) > 1e-9 * self.period_d:
            raise ValueError("period_d must equal laser_wavelength / 2")


@dataclass(frozen=True)
class IonizingGrating:
    """Pulsed standing-wave single-photon-ionization grating."""

    period_d: float
    mean_absorbed_photons_n0: float
    phase_amplitude_phi0: float = 0.0

    def __post_init__(self):
        require_finite(period_d=self.period_d,
                       mean_absorbed_photons_n0=self.mean_absorbed_photons_n0,
                       phase_amplitude_phi0=self.phase_amplitude_phi0)
        if self.period_d <= 0.0:
            raise ValueError("period_d must be positive")
        if self.mean_absorbed_photons_n0 < 0.0:
            raise ValueError("mean_absorbed_photons_n0 must be nonnegative")
        if self.mean_absorbed_photons_n0 > MAX_ABSORBED_PHOTONS_N0:
            raise ValueError("mean_absorbed_photons_n0 must be at most "
                             f"{MAX_ABSORBED_PHOTONS_N0:g}")


def is_pure_phase(g) -> bool:
    """Whether |t(x)| = 1 with a varying phase: such a grating can neither
    prepare nor probe transverse coherence. ``None`` is not one."""
    if isinstance(g, LaserPhaseGrating):
        return g.power_P > 0.0
    if isinstance(g, IonizingGrating):
        return (g.mean_absorbed_photons_n0 == 0.0
                and g.phase_amplitude_phi0 != 0.0)
    return False


@dataclass(frozen=True)
class TransmissionProfile:
    """One period of t(x) on a uniform grid starting at the slit center.

    ``samples`` holds the grid on its last axis; leading axes, if any,
    stack the profiles of several speeds.
    """

    period_d: float
    samples: np.ndarray

    def __post_init__(self):
        n = self.grid_size
        if n < 256 or n & (n - 1):
            raise ValueError("grid_size must be a power of two >= 256")
        if np.max(np.abs(self.samples)) > 1.0 + 1e-12:
            raise ValueError("|t(x)| must not exceed 1")

    @property
    def grid_size(self) -> int:
        """Samples per period: the length of the last axis."""
        return self.samples.shape[-1]


def _wall_coefficient(g: MaterialGrating, s: Species):
    """(C, exponent) of the single-wall potential magnitude C / r^n."""
    if g.interaction == "vdw_r3":
        return s.c3_coefficient, 3
    if g.interaction == "casimir_polder_r4":
        alpha_si = 4.0 * math.pi * VACUUM_PERMITTIVITY_EPS0 * s.alpha_stat_vol
        c4 = 3.0 * HBAR * LIGHT_SPEED_C * alpha_si / (32.0 * math.pi ** 2
                                                      * VACUUM_PERMITTIVITY_EPS0)
        return c4, 4
    return 0.0, 3


def _wall_distances(g: MaterialGrating, x):
    """Distances (r-, r+) from offset ``x`` to the walls at -+a/2, a = f d.

    Both are clamped to ``wall_cutoff``, where the wall potential is cut.
    """
    a = g.open_fraction_f * g.period_d
    x = np.asarray(x, dtype=float)
    return (np.maximum(a / 2.0 + x, g.wall_cutoff),
            np.maximum(a / 2.0 - x, g.wall_cutoff))


def material_slit_phase(g: MaterialGrating, s: Species, v_z, x):
    """Eikonal phase at offset ``x`` from the slit center (walls at +-a/2).

    phi(x) = (b / hbar v_z) [C(r-) + C(r+)] with r+- the wall distances.
    ``v_z`` and ``x`` broadcast against each other; the wall-distance sum
    is computed once for all speeds.
    """
    coeff, power = _wall_coefficient(g, s)
    if coeff == 0.0 or g.thickness_b == 0.0:
        return np.zeros_like(np.asarray(x, dtype=float))
    r_minus, r_plus = _wall_distances(g, x)
    return g.thickness_b / (HBAR * v_z) * coeff * (r_minus ** -power
                                                   + r_plus ** -power)


def _cell_open_fraction(centers, half_width, open_half):
    """Fraction of each grid cell inside the open interval (-open_half, open_half).

    ``centers`` are signed offsets from the slit center, wrapped to one
    period. Fractional coverage keeps the binary Fourier coefficients
    accurate at moderate grid sizes.
    """
    lo = np.abs(centers) - half_width
    hi = np.abs(centers) + half_width
    overlap = np.clip(open_half - lo, 0.0, 2.0 * half_width)
    overlap[hi <= open_half] = 2.0 * half_width
    return overlap / (2.0 * half_width)


def _slit_offsets(d: float, grid_size: int) -> np.ndarray:
    """Grid points of one period as signed offsets from the nearest slit
    center: k d / N for k <= N/2 and -(N - k) d / N above, so that offset
    N - k is exactly minus offset k."""
    k = np.arange(grid_size)
    return np.where(k > grid_size // 2, k - grid_size, k) * d / grid_size


def material_amplitude(g: MaterialGrating,
                       grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """|t(x)| of a material mask over one period: the open fraction of each
    grid cell. No speed changes it; the eikonal phase only turns t."""
    d = g.period_d
    return _cell_open_fraction(_slit_offsets(d, grid_size),
                               d / (2.0 * grid_size), g.open_half_width)


def material_transmission(g: MaterialGrating, s: Species, v_z,
                          grid_size: int = DEFAULT_GRID_SIZE) -> TransmissionProfile:
    """Sample t(x) of a material mask over one period (slit centered at x=0).

    ``v_z`` is a speed or an array of speeds, giving samples of shape
    ``shape(v_z) + (grid_size,)``. A mask without an eikonal phase does not
    depend on the speed and gives a single row for any ``v_z``. The slit
    geometry (``material_amplitude``) and the wall-distance sum are
    computed once; each speed only scales the sum by b C / (hbar v_z).
    """
    v_z = np.asarray(v_z, dtype=float)
    if np.any(v_z <= 0.0):
        raise ValueError("v_z must be positive")
    phase = material_slit_phase(g, s, v_z[..., None],
                                _slit_offsets(g.period_d, grid_size))
    return TransmissionProfile(period_d=g.period_d,
                               samples=material_amplitude(g, grid_size)
                               * np.exp(1j * phase))


def laser_phase_amplitude(g: LaserPhaseGrating, s: Species, v_z) -> float:
    """Peak phase phi0 of the standing-wave dipole potential.

    Line-integrating the time-averaged dipole potential of a retro-reflected
    gaussian beam along the trajectory gives
    phi0 = 8 sqrt(2 pi) alpha_vol P / (hbar c w_y v_z); the longitudinal
    waist cancels in the integral. An array of speeds gives an array.
    """
    if np.any(np.asarray(v_z) <= 0.0):
        raise ValueError("v_z must be positive")
    return (8.0 * math.sqrt(2.0 * math.pi) * s.alpha_opt_vol * g.power_P
            / (HBAR * LIGHT_SPEED_C * g.vertical_waist_wy * v_z))


def laser_phase_transmission(g: LaserPhaseGrating, s: Species, v_z,
                             grid_size: int = DEFAULT_GRID_SIZE) -> TransmissionProfile:
    """Pure phase mask t(x) = exp(i phi0 cos^2(pi x / d)).

    ``v_z`` is a speed or an array of speeds, giving samples of shape
    ``shape(v_z) + (grid_size,)``.
    """
    phi0 = laser_phase_amplitude(g, s, np.asarray(v_z, dtype=float)[..., None])
    x = _slit_offsets(g.period_d, grid_size)
    return TransmissionProfile(period_d=g.period_d, samples=np.exp(
        1j * phi0 * np.cos(np.pi * x / g.period_d) ** 2))


def ionizing_transmission(g: IonizingGrating,
                          grid_size: int = DEFAULT_GRID_SIZE) -> TransmissionProfile:
    """Combined depletion/phase mask of a pulsed ionizing standing wave.

    Survival probability |t|^2 = exp(-n0 cos^2(pi x / d)); the antinodes at
    x = 0 mod d play the role of the grating bars.
    """
    x = np.arange(grid_size) * g.period_d / grid_size
    mod = np.cos(np.pi * x / g.period_d) ** 2
    samples = np.exp(-(g.mean_absorbed_photons_n0 / 2.0) * mod) \
        * np.exp(1j * g.phase_amplitude_phi0 * mod)
    return TransmissionProfile(period_d=g.period_d, samples=samples)


@dataclass(frozen=True)
class CoefficientTable:
    """Fourier coefficients c_j of a periodic function, |j| <= j_max.

    Index ``j`` maps to ``values[..., j + j_max]``, so the last axis has the
    odd length 2 j_max + 1; orders outside the table are treated as zero.
    Leading axes of ``values``, if any, stack the tables of several speeds;
    ``get`` and ``reconstruct`` read a single table.
    """

    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[-1] % 2 == 0:
            raise ValueError("values must have odd length 2 j_max + 1")

    @property
    def j_max(self) -> int:
        return self.values.shape[-1] // 2

    def get(self, j: int) -> complex:
        if abs(j) > self.j_max:
            return 0.0 + 0.0j
        return complex(self.values[j + self.j_max])

    def reconstruct(self, x) -> np.ndarray:
        """Real part of sum_j c_j exp(2 pi i j x), with x in periods."""
        j = np.arange(-self.j_max, self.j_max + 1)
        phases = np.exp(2j * np.pi * np.outer(np.asarray(x, dtype=float), j))
        return np.real(phases @ self.values)


def _check_orders(j_max: int, grid_size: int):
    """Raise unless 1 <= ``j_max`` <= ``grid_size`` / 2, the orders that
    ``grid_size`` samples resolve."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if j_max > grid_size // 2:
        raise AliasingError(
            f"j_max={j_max} exceeds grid_size/2={grid_size // 2}")


def fourier_coefficients(p: TransmissionProfile,
                         j_max: int = DEFAULT_J_MAX) -> CoefficientTable:
    """b_j of the sampled transmission, t(x) = sum_j b_j exp(2 pi i j x / d).

    A node-stacked profile gives one table per row, from one FFT over the
    last axis of the whole stack; each row is bit for bit the FFT of that
    row alone. Only the 2 j_max + 1 orders are kept.
    """
    _check_orders(j_max, p.grid_size)
    j = np.arange(-j_max, j_max + 1)
    columns = np.mod(j, p.grid_size)
    rows = p.samples.reshape(-1, p.grid_size)
    values = np.fft.fft(rows, axis=-1)[:, columns] / p.grid_size
    return CoefficientTable(values.reshape(p.samples.shape[:-1] + (len(j),)))


def transmission_probability_coefficients(p: TransmissionProfile,
                                          m_max: int) -> CoefficientTable:
    """Fourier coefficients of the transmission probability |t(x)|^2."""
    # squared in place and transformed as real samples (the FFT of the real
    # row equals that of its complex copy), so no complex node x grid copy
    probability = np.abs(p.samples)
    np.square(probability, out=probability)
    intensity = TransmissionProfile(p.period_d, probability)
    return fourier_coefficients(intensity, m_max)


__all__ = [
    "MaterialGrating", "LaserPhaseGrating", "IonizingGrating",
    "TransmissionProfile", "CoefficientTable",
    "material_amplitude", "material_transmission", "laser_phase_transmission",
    "ionizing_transmission", "fourier_coefficients",
    "transmission_probability_coefficients",
    "material_slit_phase", "laser_phase_amplitude", "is_pure_phase",
    "SlitBlockedError", "AliasingError",
    "DEFAULT_GRID_SIZE", "DEFAULT_J_MAX", "DEFAULT_WALL_CUTOFF",
]
