"""Classical moire prediction: straight rays with thin-grating force impulses.

This is the null hypothesis against quantum interference. Rays pass the
masks ballistically, receive a transverse velocity kick from the
line-integrated grating potential (impulse approximation), and build a
shadow histogram at the third grating. The same first-Fourier-component
extraction as the quantum path keeps the visibility comparison fair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import HBAR
from .core import bessel_j, velocity_weights
from .engine import InterferometerConfig
from .gratings import (DEFAULT_GRID_SIZE, IonizingGrating, LaserPhaseGrating,
                       MaterialGrating, TransmissionProfile,
                       _wall_coefficient, _wall_distances,
                       ionizing_transmission, laser_phase_amplitude,
                       material_amplitude,
                       transmission_probability_coefficients)
from .species import Species

MIN_SURVIVORS = 1000
HISTOGRAM_BINS = 256
PARTITIONS = 16
BOOTSTRAP_RESAMPLES = 64
# sample points of a material or ionizing central grating in the twin
QUADRATURE_GRID = 1 << 14


class AbsorbedRayError(ValueError):
    """The queried position lies on a grating bar (or inside the cutoff)."""


class DegenerateEnsembleError(ValueError):
    """Illumination is not incoherent: divergence window too narrow."""


class StatisticsError(RuntimeError):
    """Too few surviving rays for a meaningful fringe fit."""


@dataclass(frozen=True)
class RayEnsemble:
    """Monte Carlo ensemble description.

    ``divergence_window`` is the uniform transverse-velocity half width;
    ``None`` selects the default of 20 grating periods of transverse travel
    over one grating separation.
    """

    count: int = 1_000_000
    seed: int = 0
    divergence_window: Optional[float] = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")


@dataclass
class ClassicalResult:
    visibility: float
    stat_error: float
    histogram: np.ndarray
    bin_centers: np.ndarray
    n_survivors: int
    fringe_phase: float


def _survival_probability(g, x: np.ndarray) -> np.ndarray:
    """|t(x)|^2 for rays at transverse positions x (any real values)."""
    d = g.period_d
    if isinstance(g, MaterialGrating):
        offset = np.mod(x + d / 2.0, d) - d / 2.0
        return (np.abs(offset) < g.open_half_width).astype(float)
    if isinstance(g, LaserPhaseGrating):
        return np.ones_like(np.asarray(x, dtype=float))
    if isinstance(g, IonizingGrating):
        return np.exp(-g.mean_absorbed_photons_n0
                      * np.cos(np.pi * np.asarray(x) / d) ** 2)
    raise TypeError(f"unsupported grating type {type(g).__name__}")


def _kick(g, s: Species, x: np.ndarray):
    """Transverse velocity change at positions x, as a function of v_z.

    The position dependence is evaluated once (vectorized, no absorption
    check); the returned function scales it by the v_z-dependent strength.
    """
    d = g.period_d
    if isinstance(g, MaterialGrating):
        coeff, power = _wall_coefficient(g, s)
        if coeff == 0.0 or g.thickness_b == 0.0:
            zeros = np.zeros_like(np.asarray(x, dtype=float))
            return lambda v_z: zeros
        offset = np.mod(np.asarray(x, dtype=float) + d / 2.0, d) - d / 2.0
        r_minus, r_plus = _wall_distances(g, offset)
        shape = r_plus ** -(power + 1) - r_minus ** -(power + 1)
        return lambda v_z: (g.thickness_b * coeff * power / (s.mass * v_z)
                            * shape)
    if isinstance(g, LaserPhaseGrating):
        # divides by v_z once more than (hbar / m) dphi/dx, although phi0
        # already carries 1 / v_z (ROADMAP item 2)
        shape = np.sin(2.0 * np.pi * np.asarray(x) / d)
        return lambda v_z: (-(HBAR / (s.mass * v_z))
                            * laser_phase_amplitude(g, s, v_z)
                            * (np.pi / d) * shape)
    if isinstance(g, IonizingGrating):
        # phi = phi0 cos^2(pi x / d): dphi/dx = -phi0 (pi / d) sin(2 pi x / d)
        kick = (-(HBAR / s.mass) * g.phase_amplitude_phi0 * (np.pi / d)
                * np.sin(2.0 * np.pi * np.asarray(x) / d))
        return lambda v_z: kick
    raise TypeError(f"unsupported grating type {type(g).__name__}")


def deflection_kick(g, s: Species, v_z: float, x: float) -> float:
    """Impulse-approximation velocity change for a single ray at position x.

    Material masks use the gradient of the two-wall line-integrated
    potential, Delta v = -(1 / m v_z) d/dx integral V dz, and ionizing
    gratings the gradient of their phase; both are Delta v = (hbar / m)
    dphi/dx. A laser grating's kick carries an extra 1 / v_z.
    Raises :class:`AbsorbedRayError` if x sits on a bar of a material mask.
    """
    if isinstance(g, MaterialGrating):
        if _survival_probability(g, np.array([x]))[0] == 0.0:
            raise AbsorbedRayError("ray absorbed on a grating bar")
    return float(_kick(g, s, np.array([x]))(v_z)[0])


def _mask_window(g):
    """Coefficients 0 and 1 of the mask's |t(x)|^2, the same at every speed:
    a phase never changes |t|. |t| of a material mask is its open cell
    fractions, a laser grating transmits everything, and without a mask
    (``g`` None) the window is (1, 1).
    """
    if g is None:
        return 1.0, 1.0 + 0.0j
    if isinstance(g, MaterialGrating):
        profile = TransmissionProfile(g.period_d, material_amplitude(g))
    elif isinstance(g, IonizingGrating):
        profile = ionizing_transmission(g)
    else:
        profile = TransmissionProfile(g.period_d, np.ones(DEFAULT_GRID_SIZE))
    values = transmission_probability_coefficients(profile, 1).values
    return complex(values[1]).real, complex(values[2])


def classical_visibility(cfg: InterferometerConfig, ensemble: RayEnsemble,
                         transverse_acceleration: float = 0.0) -> ClassicalResult:
    """Monte Carlo moire visibility of a spatial-mode configuration.

    Rays are traced G1 -> G2 -> G3 with Bernoulli survival at the masks and
    a force impulse at G2; the arrival histogram (modulo one period) is
    convolved with the third mask and fitted by its first Fourier
    component. Rays fly at the beam's mean velocity. Identical seeds give
    bit-identical results; ``stat_error`` is the bootstrap spread over the
    independently seeded partitions.
    """
    if cfg.mode != "spatial":
        raise ValueError("classical model requires spatial mode")
    s = cfg.species
    v = cfg.beam.mean_velocity
    d = cfg.period_d
    t_flight = cfg.flight_time(v)

    window = ensemble.divergence_window
    if window is None:
        window = 20.0 * d / t_flight
    if window * t_flight < 10.0 * d:
        raise DegenerateEnsembleError(
            "divergence_window * (L / v_z) must cover >= 10 grating periods "
            "for incoherent illumination")
    if ensemble.count < 10_000:
        warnings.warn("fewer than 1e4 rays: statistics will be poor",
                      stacklevel=2)

    seeds = np.random.SeedSequence(ensemble.seed).spawn(PARTITIONS)
    counts = np.full(PARTITIONS, ensemble.count // PARTITIONS)
    counts[:ensemble.count % PARTITIONS] += 1

    part_hist = np.zeros((PARTITIONS, HISTOGRAM_BINS))
    survivors = 0
    a_ext = transverse_acceleration
    for p in range(PARTITIONS):
        rng = np.random.default_rng(seeds[p])
        n = int(counts[p])
        if n == 0:
            continue
        x1 = rng.uniform(0.0, d, n)
        vx = rng.uniform(-window, window, n)
        alive = rng.uniform(size=n) < _survival_probability(cfg.grating1, x1)
        x1, vx = x1[alive], vx[alive]

        x2 = x1 + vx * t_flight + 0.5 * a_ext * t_flight ** 2
        alive = rng.uniform(size=len(x2)) < _survival_probability(
            cfg.grating2, x2)
        x1, vx, x2 = x1[alive], vx[alive], x2[alive]

        vx2 = vx + a_ext * t_flight + _kick(cfg.grating2, s, x2)(v)
        x3 = x2 + vx2 * t_flight + 0.5 * a_ext * t_flight ** 2

        hist, _ = np.histogram(np.mod(x3, d), bins=HISTOGRAM_BINS,
                               range=(0.0, d))
        part_hist[p] = hist
        survivors += len(x3)

    if survivors < MIN_SURVIVORS:
        raise StatisticsError(
            f"only {survivors} rays survive (< {MIN_SURVIVORS})")

    centers = (np.arange(HISTOGRAM_BINS) + 0.5) * d / HISTOGRAM_BINS
    t3_0, t3_1 = _mask_window(cfg.grating3)

    def fringe(hist):
        s0 = hist.sum() * t3_0
        s1 = np.sum(hist * np.exp(-2j * np.pi * centers / d)) * np.conj(t3_1)
        return 2.0 * abs(s1 / s0), np.angle(s1)

    total = part_hist.sum(axis=0)
    visibility, phase = fringe(total)

    boot_rng = np.random.default_rng(np.random.SeedSequence([ensemble.seed, 0xB007]))
    boot = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        pick = boot_rng.integers(0, PARTITIONS, PARTITIONS)
        boot[b] = fringe(part_hist[pick].sum(axis=0))[0]
    stat_error = float(boot.std(ddof=1))

    return ClassicalResult(visibility=float(visibility),
                           stat_error=stat_error, histogram=total,
                           bin_centers=centers, n_survivors=survivors,
                           fringe_phase=float(phase))


def classical_visibility_quadrature(cfg: InterferometerConfig,
                                    n_velocities: int = 1) -> float:
    """Deterministic twin of the Monte Carlo moire visibility.

    Valid for an exactly incoherent divergence window (an integer number of
    shadow periods): the arrival phase factorizes into independent
    single-grating integrals, with the force impulse entering the central
    one. The fringe components are averaged over ``n_velocities`` nodes of
    the beam's longitudinal velocity distribution before taking the ratio;
    one node is the mean velocity.

    A laser phase grating in the centre transmits everything and kicks by
    K(v) sin(2 pi x / d), so by Jacobi-Anger its central integral is the
    Bessel value J_2(-2 pi K(v) t_f / d), with t_f = L / v the flight time
    and K(v) read from the same kick as the ray tracer. Material and
    ionizing central gratings are sampled on ``QUADRATURE_GRID`` points: the
    survival mask and kick shape are computed once, and each velocity node
    only scales the kick. The outer masks' windows do not depend on the
    speed: one per distinct mask.
    """
    if cfg.mode != "spatial":
        raise ValueError("classical model requires spatial mode")
    s = cfg.species
    d = cfg.period_d
    g2 = cfg.grating2

    nodes, weights = np.array(velocity_weights(cfg.beam, n_velocities)).T

    if isinstance(g2, LaserPhaseGrating):
        peak_kick = _kick(g2, s, np.array([d / 4.0]))(nodes)  # K(v), sin = 1
        q0 = 1.0
        q1s = bessel_j(2, -2.0 * np.pi * peak_kick * cfg.flight_time(nodes)
                       / d)
    else:
        x = (np.arange(QUADRATURE_GRID) + 0.5) * d / QUADRATURE_GRID
        t2 = _survival_probability(g2, x)
        q0 = t2.mean()
        # blocked cells add exact zeros to q1, so only open ones are evaluated
        is_open = t2 != 0.0
        t2_open, two_x = t2[is_open], 2.0 * x[is_open]
        kick = _kick(g2, s, x[is_open])
        terms = np.zeros(QUADRATURE_GRID, dtype=complex)
        q1s = np.empty(len(nodes), dtype=complex)
        for i, v in enumerate(nodes):
            terms[is_open] = t2_open * np.exp(
                -2j * np.pi * (two_x + kick(v) * cfg.flight_time(v)) / d)
            q1s[i] = np.mean(terms)
    t1_0, t1_1 = _mask_window(cfg.grating1)
    t3_0, t3_1 = (_mask_window(cfg.grating3)
                  if cfg.grating3 != cfg.grating1 else (t1_0, t1_1))

    # the weights sum to one and q0 is the same at every node
    q1 = weights @ q1s
    return float(2.0 * abs(t1_1 * q1 * np.conj(t3_1)) / (t1_0 * q0 * t3_0))


__all__ = [
    "RayEnsemble", "ClassicalResult", "deflection_kick",
    "classical_visibility", "classical_visibility_quadrature",
    "AbsorbedRayError", "DegenerateEnsembleError", "StatisticsError",
]
