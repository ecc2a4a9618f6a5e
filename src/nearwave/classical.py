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
from functools import lru_cache
from typing import Optional

import numpy as np

from .constants import HBAR
from .core import bessel_j, velocity_weights
from .engine import (MEMO_SIZE, InterferometerConfig, _even_table,
                     _half_amplitude)
from .gratings import (DEFAULT_GRID_SIZE, IonizingGrating, LaserPhaseGrating,
                       MaterialGrating, _wall_coefficient, _wall_distances,
                       laser_phase_amplitude)
from .species import Species
# not called: the lookup site of the trace layer "gratings.fourier" in
# perfbench/spans.py, kept until that layer is dropped
from .gratings import transmission_probability_coefficients  # noqa: F401

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
    a phase never changes |t|. A material mask or an ionizing grating sums
    |t|^2 over half a period in the engine's even cosine sum, a laser
    grating transmits everything, (1, 0), and without a mask (``g`` None)
    the window is (1, 1).
    """
    if g is None:
        return 1.0, 1.0 + 0.0j
    if isinstance(g, LaserPhaseGrating):
        return 1.0, 0.0j
    probability = np.square(_half_amplitude(g))
    c0, c1 = _even_table(probability, np.zeros_like(probability),
                         DEFAULT_GRID_SIZE, 1)
    return c0.real, c1


@lru_cache(maxsize=MEMO_SIZE)
def _central_grid(g, s: Species):
    """Speed-free part of the twin's central integral over a material or
    ionizing grating, built once per process, grating and species: (q0, the
    weights 2 |t(x)|^2 / N and 2 x at the open cells of the half period
    0 < x < d/2, the kick there as a function of v_z). The cells are the
    first N/2 of the ``QUADRATURE_GRID`` = N cell centres x. |t|^2 is even
    about the slit centre and the kick is odd, so cell N-1-k adds the
    complex conjugate of cell k and each weight counts both. q0, the mean
    of |t|^2, is the same over the half period; blocked cells add nothing
    to q1, so only open ones are kept.
    """
    d = g.period_d
    x = (np.arange(QUADRATURE_GRID // 2) + 0.5) * d / QUADRATURE_GRID
    t2 = _survival_probability(g, x)
    is_open = t2 != 0.0
    weight, two_x = (2.0 / QUADRATURE_GRID) * t2[is_open], 2.0 * x[is_open]
    for array in (weight, two_x):
        array.flags.writeable = False
    return t2.mean(), weight, two_x, _kick(g, s, x[is_open])


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


def classical_visibility_quadrature(cfg, n_velocities: int = 1):
    """Deterministic twin of the Monte Carlo moire visibility.

    Valid for an exactly incoherent divergence window (an integer number of
    shadow periods): the arrival phase factorizes into independent
    single-grating integrals, with the force impulse entering the central
    one. The fringe components are averaged over ``n_velocities`` nodes of
    the beam's longitudinal velocity distribution before taking the ratio;
    one node is the mean velocity. ``cfg`` is one config, which gives a
    float, or a sequence of them (a block of sweep points), which gives an
    array of one visibility per config.

    A laser phase grating in the centre transmits everything and kicks by
    K(v) sin(2 pi x / d), so by Jacobi-Anger its central integral is the
    Bessel value J_2(-2 pi K(v) t_f / d), with t_f = L / v the flight time
    and K(v) read from the same kick as the ray tracer; one ``bessel_j``
    call covers every node of every laser config of a block. Material and
    ionizing central gratings are sampled on ``QUADRATURE_GRID`` cells: the
    survival mask and kick shape are computed once per process
    (``_central_grid``) and each velocity node only scales the kick. Their
    |t|^2 is even and their kick odd about the slit centre, so the sum runs
    over the open cells of half a period as the real sum_k weight_k
    cos(phase_k), with no complex exponential, one node at a time. The
    outer masks' windows do not depend on the speed: one per distinct
    outer mask of the block (``_mask_window``).
    """
    block = not isinstance(cfg, InterferometerConfig)
    cfgs = list(cfg) if block else [cfg]
    if any(c.mode != "spatial" for c in cfgs):
        raise ValueError("classical model requires spatial mode")
    rules = [np.array(velocity_weights(c.beam, n_velocities)).T for c in cfgs]
    q1s = [None] * len(cfgs)
    lasers = [p for p, c in enumerate(cfgs)
              if isinstance(c.grating2, LaserPhaseGrating)]
    if lasers:
        arguments = []
        for p in lasers:
            c, nodes = cfgs[p], rules[p][0]
            d = c.period_d
            peak_kick = _kick(c.grating2, c.species,
                              np.array([d / 4.0]))(nodes)  # K(v), sin = 1
            arguments.append(-2.0 * np.pi * peak_kick * c.flight_time(nodes)
                             / d)
        values = bessel_j(2, np.concatenate(arguments))
        ends = np.cumsum([len(a) for a in arguments])
        for p, q1 in zip(lasers, np.split(values, ends[:-1])):
            q1s[p] = q1
    outer = {g for c in cfgs for g in (c.grating1, c.grating3)}
    windows = {g: _mask_window(g) for g in outer}
    result = np.empty(len(cfgs))
    for p, (c, (nodes, weights)) in enumerate(zip(cfgs, rules)):
        d = c.period_d
        q0 = 1.0
        if q1s[p] is None:
            q0, weight, two_x, kick = _central_grid(c.grating2, c.species)
            q1s[p] = np.empty(len(nodes))
            for i, v in enumerate(nodes):
                phase = (2.0 * np.pi / d) * (two_x
                                             + kick(v) * c.flight_time(v))
                q1s[p][i] = weight @ np.cos(phase)
        t1_0, t1_1 = windows[c.grating1]
        t3_0, t3_1 = windows[c.grating3]
        # the weights sum to one and q0 is the same at every node
        q1 = weights @ q1s[p]
        result[p] = 2.0 * abs(t1_1 * q1 * np.conj(t3_1)) / (t1_0 * q0 * t3_0)
    return result if block else float(result[0])


__all__ = [
    "RayEnsemble", "ClassicalResult", "deflection_kick",
    "classical_visibility", "classical_visibility_quadrature",
    "AbsorbedRayError", "DegenerateEnsembleError", "StatisticsError",
]
