"""Classical moire prediction: straight rays with thin-grating force impulses.

This is the null hypothesis against quantum interference. Rays pass the
masks ballistically and receive a transverse velocity kick from the
line-integrated grating potential (impulse approximation) at the central
grating. For an incoherent divergence window the shadow pattern at the
third grating factorizes into single-grating integrals, which the
deterministic twin ``classical_visibility_quadrature`` sums; its first
Fourier component, as on the quantum path, keeps the visibility
comparison fair.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .constants import HBAR
from .core import bessel_j, velocity_weights
from .engine import (MEMO_SIZE, InterferometerConfig, _even_table,
                     _laser_table, _open_amplitude)
from .gratings import (DEFAULT_GRID_SIZE, IonizingGrating, LaserPhaseGrating,
                       MaterialGrating, _wall_coefficient, _wall_distances,
                       laser_phase_amplitude)
from .species import Species
# not called: the lookup site of the trace layer "gratings.fourier" in
# perfbench/spans.py, kept until that layer is dropped
from .gratings import transmission_probability_coefficients  # noqa: F401

# sample points of a material or ionizing central grating in the twin
QUADRATURE_GRID = 1 << 14


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


def _kick_shape(g, s: Species, x) -> np.ndarray:
    """Position dependence of a ray's transverse velocity change at x
    (vectorized, no absorption check); ``_kick_strength`` scales it."""
    d = g.period_d
    x = np.asarray(x, dtype=float)
    if isinstance(g, MaterialGrating):
        power = _wall_coefficient(g, s)[1]
        r_minus, r_plus = _wall_distances(g, np.mod(x + d / 2.0, d) - d / 2.0)
        return r_plus ** -(power + 1) - r_minus ** -(power + 1)
    if isinstance(g, (LaserPhaseGrating, IonizingGrating)):
        # phi = phi0 cos^2(pi x / d): dphi/dx = -phi0 (pi / d) sin(2 pi x / d)
        return np.sin(2.0 * np.pi * x / d)
    raise TypeError(f"unsupported grating type {type(g).__name__}")


def _kick_strength(g, s: Species, v_z):
    """K(v_z) of the kick K(v_z) ``_kick_shape(x)``, one per speed of
    ``v_z``; zero for a mask without a wall interaction or thickness."""
    d = g.period_d
    if isinstance(g, MaterialGrating):
        coeff, power = _wall_coefficient(g, s)
        return g.thickness_b * coeff * power / (s.mass * v_z)
    if isinstance(g, LaserPhaseGrating):
        # divides by v_z once more than (hbar / m) dphi/dx, although phi0
        # already carries 1 / v_z (ROADMAP item 2)
        return (-(HBAR / (s.mass * v_z)) * laser_phase_amplitude(g, s, v_z)
                * (np.pi / d))
    if isinstance(g, IonizingGrating):
        return np.full(np.shape(v_z), -(HBAR / s.mass)
                       * g.phase_amplitude_phi0 * (np.pi / d))[()]
    raise TypeError(f"unsupported grating type {type(g).__name__}")


def _mask_window(g):
    """Coefficients 0 and 1 of the mask's |t(x)|^2, the same at every speed:
    a phase never changes |t|. A material mask sums |t|^2 over half a
    period in the engine's even cosine sum; an ionizing grating's
    exp(-n0 cos^2(pi x / d)) is the laser's closed form at the phase i n0
    (``_laser_table``). A laser grating transmits everything, (1, 0), and
    without a mask (``g`` None) the window is (1, 1).
    """
    if g is None:
        return 1.0, 1.0 + 0.0j
    if isinstance(g, LaserPhaseGrating):
        return 1.0, 0.0j
    if isinstance(g, IonizingGrating):
        c0, c1 = _laser_table(1j * g.mean_absorbed_photons_n0, 1).values[1:]
    elif isinstance(g, MaterialGrating):
        t2 = np.square(_open_amplitude(g.period_d, g.open_half_width))
        c0, c1 = _even_table(t2, np.zeros_like(t2), DEFAULT_GRID_SIZE, 1)
    else:
        raise TypeError(f"unsupported grating type {type(g).__name__}")
    return c0.real, c1


@lru_cache(maxsize=MEMO_SIZE)
def _central_grid(g, s: Species):
    """Speed-free part of the twin's central integral over a material or
    ionizing grating, built once per process, grating and species: (q0, the
    weights 2 |t(x)|^2 / N and 2 x at the open cells of the half period
    0 < x < d/2, and ``_kick_shape`` there). The cells are the
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
    shape = _kick_shape(g, s, x[is_open])
    for array in (weight, two_x, shape):
        array.flags.writeable = False
    return t2.mean(), weight, two_x, shape


def classical_visibility_quadrature(cfg, n_velocities: int = 1):
    """Deterministic twin of the Monte Carlo moire visibility (the ray
    tracer of the tests' oracles).

    Valid for an exactly incoherent divergence window (an integer number of
    shadow periods): the arrival phase factorizes into independent
    single-grating integrals, with the force impulse entering the central
    one. The fringe components are averaged over ``n_velocities`` nodes of
    the beam's longitudinal velocity distribution before taking the ratio;
    one node is the mean velocity. ``cfg`` is one config, which gives a
    float, or a sequence of them (a block of sweep points), which gives an
    array of one visibility per config. A time-domain config, or one that
    carries decoherence channels, is a ValueError: the twin models
    neither.

    A laser phase grating in the centre transmits everything and kicks by
    K(v) sin(2 pi x / d), so by Jacobi-Anger its central integral is the
    Bessel value J_2(-2 pi K(v) t_f / d), with t_f = L / v the flight time
    and K(v) the kick strength ``_kick_strength``; one ``bessel_j`` call
    covers every node of every laser config of a block. Material and
    ionizing central gratings are sampled on ``QUADRATURE_GRID`` cells: the
    survival mask and ``_kick_shape`` are computed once per process
    (``_central_grid``), the strengths once per config, and each velocity
    node only scales the shape. Their |t|^2 is even and their kick odd
    about the slit centre, so the sum runs over the open cells of half a
    period as the real sum_k weight_k cos(phase_k), with no complex
    exponential, one node at a time. The
    outer masks' windows do not depend on the speed: one per distinct
    outer mask of the block (``_mask_window``).
    """
    block = not isinstance(cfg, InterferometerConfig)
    cfgs = list(cfg) if block else [cfg]
    if any(c.mode != "spatial" for c in cfgs):
        raise ValueError("classical model requires spatial mode")
    if any(c.channels for c in cfgs):
        raise ValueError("classical model has no decoherence channels")
    rules = [np.array(velocity_weights(c.beam, n_velocities)).T for c in cfgs]
    q1s = [None] * len(cfgs)
    lasers = [p for p, c in enumerate(cfgs)
              if isinstance(c.grating2, LaserPhaseGrating)]
    if lasers:
        arguments = []
        for p in lasers:
            c, nodes = cfgs[p], rules[p][0]
            arguments.append(-2.0 * np.pi
                             * _kick_strength(c.grating2, c.species, nodes)
                             * c.flight_time(nodes) / c.period_d)
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
            q0, weight, two_x, shape = _central_grid(c.grating2, c.species)
            strengths = _kick_strength(c.grating2, c.species, nodes)
            q1s[p] = np.empty(len(nodes))
            for i, (v, strength) in enumerate(zip(nodes, strengths)):
                phase = (2.0 * np.pi / d) * (
                    two_x + strength * shape * c.flight_time(v))
                q1s[p][i] = weight @ np.cos(phase)
        t1_0, t1_1 = windows[c.grating1]
        t3_0, t3_1 = windows[c.grating3]
        # the weights sum to one and q0 is the same at every node
        q1 = weights @ q1s[p]
        result[p] = 2.0 * abs(t1_1 * q1 * np.conj(t3_1)) / (t1_0 * q0 * t3_0)
    return result if block else float(result[0])


__all__ = ["classical_visibility_quadrature"]
