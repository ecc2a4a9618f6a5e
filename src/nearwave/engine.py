"""Quantum forward model of three-grating near-field interferometers.

The periodic particle density behind the interferometer is expanded in a
Fourier series whose components combine per-grating coefficient tables:
the mask coefficients of the outer gratings enter at zero argument and the
diffraction coefficients of the central grating at the Talbot argument
m L / L_T (or m T / T_T in the time domain). The sinusoidal visibility is
the ratio 2 |S_1 / S_0| of the transmitted signal components.

A velocity average builds each distinct grating's table once for all
velocity nodes: one node-stacked transmission and coefficient table per
grating, or a single row for a grating whose t(x) does not depend on the
speed, and one coefficient evaluation over node x order. A laser grating
is sampled at each node on the smallest power-of-two grid that resolves
its phase (``_laser_grid_size``); nodes that share a grid share one
node-stacked build and one batched FFT.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (BeamState, bessel_node_count, de_broglie_wavelength,
                   require_finite, talbot_length, talbot_time,
                   velocity_weights)
from .decoherence import channel_factor
from .gratings import (CoefficientTable, IonizingGrating, LaserPhaseGrating,
                       MaterialGrating, DEFAULT_GRID_SIZE, DEFAULT_J_MAX,
                       fourier_coefficients, ionizing_transmission,
                       is_pure_phase, laser_phase_amplitude,
                       laser_phase_transmission, material_transmission)
from .species import Species

DEFAULT_M_MAX = 8
XI_SANITY_BOUND = 1e6
TRUNCATION_WARN_LEVEL = 1e-8

GratingSpec = MaterialGrating | LaserPhaseGrating | IonizingGrating


class CoherencePreparationError(ValueError):
    """Outer grating is a pure phase mask: no coherence preparation/readout."""


class TruncationWarning(UserWarning):
    pass


class NonSinusoidalWarning(UserWarning):
    """Signal components imply 2 |S_1 / S_0| > 1: not a sinusoidal fringe."""


@dataclass(frozen=True)
class InterferometerConfig:
    """Full description of a three-grating experiment.

    ``grating3 = None`` selects surface-imaging mode: the fringe pattern at
    the third-grating plane is returned without the readout convolution.
    A pure phase grating1 or grating3 raises ``CoherencePreparationError``.
    """

    grating1: GratingSpec
    grating2: GratingSpec
    species: Species
    beam: BeamState
    grating3: Optional[GratingSpec] = None
    separation_L: Optional[float] = None
    pulse_delay_T: Optional[float] = None
    mode: str = "spatial"

    def __post_init__(self):
        if self.mode not in ("spatial", "time_domain"):
            raise ValueError(f"unknown mode {self.mode!r}")
        require_finite(separation_L=self.separation_L,
                       pulse_delay_T=self.pulse_delay_T)
        if self.mode == "spatial":
            if self.separation_L is None or self.separation_L <= 0.0:
                raise ValueError("spatial mode requires separation_L > 0")
        else:
            if self.pulse_delay_T is None or self.pulse_delay_T <= 0.0:
                raise ValueError("time domain mode requires pulse_delay_T > 0")
        g1, g3 = self.grating1, self.grating3
        d = g1.period_d
        for g in (self.grating2, g3):
            if g is not None and abs(g.period_d - d) > 1e-9 * d:
                raise ValueError("all grating periods must be equal")
        if is_pure_phase(g1) or is_pure_phase(g3):
            which = "grating1" if is_pure_phase(g1) else "grating3"
            raise CoherencePreparationError(
                f"{which} is a pure phase grating: no coherence "
                "preparation/readout")

    @property
    def period_d(self) -> float:
        return self.grating1.period_d


@dataclass
class FourierPattern:
    """Fourier components A_m of a real periodic density, |m| <= m_max."""

    period_d: float
    components: np.ndarray  # length 2 m_max + 1, index m + m_max

    @property
    def m_max(self) -> int:
        return (len(self.components) - 1) // 2

    def get(self, m: int) -> complex:
        if abs(m) > self.m_max:
            return 0.0 + 0.0j
        return complex(self.components[m + self.m_max])

    def reconstruct(self, x) -> np.ndarray:
        """Evaluate the density sum_m A_m exp(2 pi i m x / d) (real part)."""
        x = np.asarray(x, dtype=float)
        m = np.arange(-self.m_max, self.m_max + 1)
        phases = np.exp(2j * np.pi * np.outer(x / self.period_d, m))
        return np.real(phases @ self.components)


def grating_transmission(g: GratingSpec, s: Species, v_z):
    """Transmission profile of any grating family at longitudinal speed v_z,
    sampled on ``DEFAULT_GRID_SIZE`` points.

    An array of speeds gives samples of shape ``shape(v_z) + (grid,)``,
    or a single row if t(x) does not depend on the speed (ionizing
    gratings, material masks without an eikonal phase); both broadcast
    against each other.
    """
    if isinstance(g, MaterialGrating):
        return material_transmission(g, s, v_z)
    if isinstance(g, LaserPhaseGrating):
        return laser_phase_transmission(g, s, v_z)
    if isinstance(g, IonizingGrating):
        return ionizing_transmission(g)
    raise TypeError(f"unsupported grating type {type(g).__name__}")


def _laser_grid_size(phi0: float, j_max: int) -> int:
    """Smallest power-of-two grid >= 256 that resolves a laser table.

    t(x) = exp(i phi0 cos^2(pi x / d)) has b_j = e^(iz) i^j J_j(z) with
    z = phi0 / 2 (Jacobi-Anger). The N-point DFT returns b_j plus the
    aliased b_{j +- kN}, so N covers 2 j_max and the Bessel node count of
    order j_max at z; ``DEFAULT_GRID_SIZE`` caps it.
    """
    need = max(256, 2 * j_max, bessel_node_count(j_max, phi0 / 2.0))
    return min(1 << (need - 1).bit_length(), DEFAULT_GRID_SIZE)


def _grating_table(g: GratingSpec, s: Species, v_z,
                   j_max: int) -> CoefficientTable:
    """Fourier table of grating ``g`` at speed(s) ``v_z``, shaped like
    ``grating_transmission``'s samples with orders on the last axis.

    Material and ionizing gratings are sampled on ``DEFAULT_GRID_SIZE``
    points. A laser grating is sampled at each speed on
    ``_laser_grid_size`` points; the speeds that share a grid share one
    build, so each row is bit for bit the table of its speed alone.
    """
    if not isinstance(g, LaserPhaseGrating):
        return fourier_coefficients(grating_transmission(g, s, v_z), j_max)
    v_z = np.asarray(v_z, dtype=float)
    speeds = v_z.reshape(-1)
    sizes = np.array([_laser_grid_size(phi0, j_max)
                      for phi0 in laser_phase_amplitude(g, s, speeds)])
    values = np.empty((speeds.size, 2 * j_max + 1), dtype=complex)
    for size in np.unique(sizes):
        rows = sizes == size
        values[rows] = fourier_coefficients(laser_phase_transmission(
            g, s, speeds[rows], int(size)), j_max).values
    return CoefficientTable(j_max=j_max,
                            values=values.reshape(v_z.shape + (-1,)))


def grating_coefficients(g: GratingSpec, s: Species, v_z) -> CoefficientTable:
    """Fourier table (|j| <= ``DEFAULT_J_MAX``) of ``g`` at speed(s) ``v_z``."""
    return _grating_table(g, s, v_z, DEFAULT_J_MAX)


def talbot_lau_coefficient(b: CoefficientTable, m, xi):
    """B_m(xi) = sum_j b_j conj(b_{j-m}) exp(i pi (m - 2j) xi).

    ``m``, ``xi`` and the leading axes of a node-stacked table broadcast
    against each other; scalars and a single table give a complex scalar,
    arrays an array of coefficients of the broadcast shape.
    """
    m, xi = np.broadcast_arrays(m, xi)
    if np.any(np.abs(xi) >= XI_SANITY_BOUND):
        raise ValueError("xi outside sanity bound")
    m, xi = m[..., None], xi[..., None]
    j_max = b.j_max
    j = np.arange(-j_max, j_max + 1)
    pad = j_max + int(np.max(np.abs(m), initial=0))
    padded, index = b.padded(pad), j - m + pad
    lead = np.broadcast_shapes(padded.shape[:-1], index.shape[:-1])
    shifted = np.take_along_axis(
        np.broadcast_to(padded, lead + padded.shape[-1:]),
        np.broadcast_to(index, lead + index.shape[-1:]), axis=-1)
    phases = np.exp(1j * np.pi * (m - 2 * j) * xi)
    return np.sum(b.values * np.conj(shifted) * phases, axis=-1)


def _check_truncation(b: CoefficientTable):
    edge = max(abs(b.get(b.j_max)), abs(b.get(-b.j_max)))
    if edge ** 2 > TRUNCATION_WARN_LEVEL:
        warnings.warn("coefficient table truncated before decay: "
                      f"|b_jmax|^2 = {edge ** 2:.2e}", TruncationWarning,
                      stacklevel=3)


def talbot_pattern(b: CoefficientTable, L_over_LT: float,
                   m_max: int = DEFAULT_M_MAX) -> FourierPattern:
    """Coherent self-imaging pattern: component m is B_m(m L / L_T).

    The grating period is not known to a bare coefficient table, so the
    caller scales the x axis; period 1 is used here.
    """
    _check_truncation(b)
    m = np.arange(-m_max, m_max + 1)
    comps = talbot_lau_coefficient(b, m, m * L_over_LT)
    return FourierPattern(period_d=1.0, components=comps)


def detector_signal(cfg: InterferometerConfig, v_z: float,
                    m_max: int = DEFAULT_M_MAX,
                    channels: Sequence = ()) -> np.ndarray:
    """Fourier components S_m (m = 0 .. m_max) of the transmitted signal.

    S_m = conj(B1_m(0)) * B2_{2m}(m L / L_T) * conj(B3_m(0)); the last
    factor is dropped in surface-imaging mode. Decoherence channels
    multiply the central-grating coefficient by its exponential reduction
    factor.
    """
    if v_z <= 0.0:
        raise ValueError("v_z must be positive")
    return _node_signals(cfg, [v_z], m_max, DEFAULT_J_MAX, channels)[0]


def _node_signals(cfg: InterferometerConfig, velocities, m_max: int,
                  j_max: int, channels: Sequence) -> np.ndarray:
    """``detector_signal`` for each of ``velocities``, one row per node.

    Each distinct grating (the three masks of a symmetric TLI are one) gets
    one table covering all nodes; row i is bit for bit the signal of node i
    alone.
    """
    s = cfg.species
    velocities = [float(v) for v in velocities]
    nodes = np.array(velocities)[:, None]
    tables = {}

    def table(g):
        if g not in tables:
            tables[g] = _grating_table(g, s, nodes, j_max)
        return tables[g]

    b1, b2 = table(cfg.grating1), table(cfg.grating2)
    m = np.arange(m_max + 1)
    xi_unit = np.array([[_xi_per_order(cfg, v)] for v in velocities])
    signal = _product(np.conj(talbot_lau_coefficient(b1, m, 0.0)),
                      talbot_lau_coefficient(b2, 2 * m, m * xi_unit))
    if cfg.grating3 is not None:
        signal = _product(signal, np.conj(talbot_lau_coefficient(
            table(cfg.grating3), m, 0.0)))
    if channels:
        factor = np.ones(signal.shape, dtype=complex)
        for channel in channels:
            factor = _product(factor, [[channel_factor(channel, cfg, 2 * k, v)
                                        for k in range(m_max + 1)]
                                       for v in velocities])
        signal = _product(signal, factor)
    return signal


def _product(a, b) -> np.ndarray:
    """Elementwise complex product, rounded like the scalar product.

    numpy's array loop for complex multiplication may fuse a multiply and
    an add, which changes the last bit; rounding each real product and
    sum separately gives the same numbers as multiplying order by order.
    """
    a, b = np.asarray(a), np.asarray(b)
    return (a.real * b.real - a.imag * b.imag) \
        + 1j * (a.real * b.imag + a.imag * b.real)


def _xi_per_order(cfg: InterferometerConfig, v_z: float) -> float:
    """Talbot argument per fringe order: L / L_T or T / T_T."""
    if cfg.mode == "spatial":
        lam = de_broglie_wavelength(cfg.species.mass, v_z)
        return cfg.separation_L / talbot_length(cfg.period_d, lam)
    return cfg.pulse_delay_T / talbot_time(cfg.species.mass, cfg.period_d)


def sinusoidal_visibility(signal: np.ndarray) -> float:
    """Amplitude-over-offset visibility 2 |S_1 / S_0| of the fringe signal."""
    s0 = signal[0]
    if s0 == 0:
        raise ZeroDivisionError("zeroth signal component vanishes")
    value = 2.0 * abs(signal[1] / s0)
    if value > 1.0:
        warnings.warn(f"visibility {value:.3f} > 1: non-sinusoidal regime",
                      NonSinusoidalWarning, stacklevel=2)
    return value


def velocity_averaged_signal(cfg: InterferometerConfig,
                             n_velocities: int = 16,
                             m_max: int = DEFAULT_M_MAX,
                             j_max: int = DEFAULT_J_MAX,
                             channels: Sequence = ()) -> np.ndarray:
    """Signal components averaged over the beam velocity distribution.

    All nodes are evaluated together (``_node_signals``); the weighted sum
    runs node by node, in the order of a per-node loop.
    """
    pairs = velocity_weights(cfg.beam, n_velocities)
    signals = _node_signals(cfg, [v for v, _ in pairs], m_max, j_max,
                            channels)
    total = np.zeros(m_max + 1, dtype=complex)
    for (_, w), signal in zip(pairs, signals):
        total += w * signal
    return total


def velocity_averaged_pattern(cfg: InterferometerConfig,
                              n_velocities: int = 16,
                              m_max: int = DEFAULT_M_MAX,
                              channels: Sequence = ()):
    """(FourierPattern, visibility) after velocity averaging."""
    signal = velocity_averaged_signal(cfg, n_velocities, m_max,
                                      channels=channels)
    comps = np.concatenate([np.conj(signal[:0:-1]), signal])
    pattern = FourierPattern(period_d=cfg.period_d, components=comps)
    return pattern, sinusoidal_visibility(signal)


def time_domain_visibility(cfg: InterferometerConfig, T: float,
                           channels: Sequence = ()) -> float:
    """Visibility of a pulsed (time-domain) configuration at delay T.

    The formula is velocity independent: the Talbot argument is T / T_T and
    ionizing-grating coefficients do not involve v_z.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    if cfg.mode != "time_domain":
        raise ValueError("config must be in time_domain mode")
    # v_z is a dummy for ionizing gratings
    signal = detector_signal(replace(cfg, pulse_delay_T=T), 1.0, 1, channels)
    if signal[0] == 0:
        return 0.0
    return sinusoidal_visibility(signal)


__all__ = [
    "InterferometerConfig", "FourierPattern", "GratingSpec",
    "grating_transmission", "grating_coefficients",
    "talbot_lau_coefficient", "talbot_pattern",
    "detector_signal", "sinusoidal_visibility",
    "velocity_averaged_signal", "velocity_averaged_pattern",
    "time_domain_visibility",
    "CoherencePreparationError", "TruncationWarning", "NonSinusoidalWarning",
    "DEFAULT_M_MAX",
]
