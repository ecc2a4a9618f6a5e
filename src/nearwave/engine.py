"""Quantum forward model of three-grating near-field interferometers.

The periodic particle density behind the interferometer is expanded in a
Fourier series whose components combine per-grating coefficient tables:
the mask coefficients of the outer gratings enter at zero argument and the
diffraction coefficients of the central grating at the Talbot argument
m t / T_T. The time t between gratings (``InterferometerConfig.flight_time``)
is L / v_z in spatial mode and the pulse delay T in the time domain; it is
the only quantity that depends on the mode. The sinusoidal visibility is
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

from .core import (BeamState, bessel_node_count, require_finite, talbot_time,
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

    def flight_time(self, v_z):
        """Time between adjacent gratings: L / v_z in spatial mode, the
        pulse delay T in the time domain. Broadcasts over an array of
        speeds."""
        if self.mode == "spatial":
            return self.separation_L / v_z
        return np.full(np.shape(v_z), self.pulse_delay_T)[()]


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


def grating_coefficients(g: GratingSpec, s: Species, v_z,
                         j_max: int = DEFAULT_J_MAX) -> CoefficientTable:
    """Fourier table (|j| <= ``j_max``) of grating ``g`` at speed(s) ``v_z``,
    shaped like ``grating_transmission``'s samples with orders on the last
    axis.

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
    return CoefficientTable(values.reshape(v_z.shape + (-1,)))


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
    # b_{j-m} from the table padded with max |m| zeros on either side
    pad = int(np.max(np.abs(m), initial=0))
    padded = np.zeros(b.values.shape[:-1] + (2 * (j_max + pad) + 1,),
                      dtype=complex)
    padded[..., pad:pad + 2 * j_max + 1] = b.values
    index = j - m + j_max + pad
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
                   m_max: int = DEFAULT_M_MAX) -> CoefficientTable:
    """Coherent self-imaging pattern: component m is B_m(m L / L_T)."""
    _check_truncation(b)
    m = np.arange(-m_max, m_max + 1)
    return CoefficientTable(talbot_lau_coefficient(b, m, m * L_over_LT))


def detector_signal(cfg: InterferometerConfig, v_z: float,
                    m_max: int = DEFAULT_M_MAX,
                    channels: Sequence = ()) -> np.ndarray:
    """Fourier components S_m (m = 0 .. m_max) of the transmitted signal.

    S_m = conj(B1_m(0)) * B2_{2m}(m t / T_T) * conj(B3_m(0)); the last
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
    one table covering all nodes; row i is bit for bit the table of node i
    alone.
    """
    s = cfg.species
    nodes = np.asarray(velocities, dtype=float)[:, None]
    tables = {}

    def table(g):
        if g not in tables:
            tables[g] = grating_coefficients(g, s, nodes, j_max)
        return tables[g]

    m = np.arange(m_max + 1)
    xi_unit = cfg.flight_time(nodes) / talbot_time(s.mass, cfg.period_d)
    signal = np.conj(talbot_lau_coefficient(table(cfg.grating1), m, 0.0)) \
        * talbot_lau_coefficient(table(cfg.grating2), 2 * m, m * xi_unit)
    if cfg.grating3 is not None:
        signal *= np.conj(talbot_lau_coefficient(table(cfg.grating3), m, 0.0))
    for channel in channels:
        signal *= [[channel_factor(channel, cfg, 2 * k, v) for k in m]
                   for v in nodes[:, 0]]
    return signal


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
    """Signal components averaged over the beam velocity distribution:
    the weighted sum of the node signals (``_node_signals``)."""
    nodes, weights = np.array(velocity_weights(cfg.beam, n_velocities)).T
    return weights @ _node_signals(cfg, nodes, m_max, j_max, channels)


def velocity_averaged_pattern(cfg: InterferometerConfig,
                              n_velocities: int = 16,
                              m_max: int = DEFAULT_M_MAX,
                              channels: Sequence = ()):
    """(density CoefficientTable over x in periods, visibility) after
    velocity averaging."""
    signal = velocity_averaged_signal(cfg, n_velocities, m_max,
                                      channels=channels)
    pattern = CoefficientTable(np.concatenate([np.conj(signal[:0:-1]),
                                               signal]))
    return pattern, sinusoidal_visibility(signal)


def time_domain_visibility(cfg: InterferometerConfig, T: float,
                           channels: Sequence = ()) -> float:
    """Visibility of a pulsed (time-domain) configuration at delay T.

    The formula is velocity independent: the flight time is T and
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
    "InterferometerConfig", "GratingSpec",
    "grating_transmission", "grating_coefficients",
    "talbot_lau_coefficient", "talbot_pattern",
    "detector_signal", "sinusoidal_visibility",
    "velocity_averaged_signal", "velocity_averaged_pattern",
    "time_domain_visibility",
    "CoherencePreparationError", "TruncationWarning", "NonSinusoidalWarning",
    "DEFAULT_M_MAX",
]
