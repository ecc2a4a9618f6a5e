"""Quantum forward model of three-grating near-field interferometers.

The periodic particle density behind the interferometer is expanded in a
Fourier series whose components combine per-grating coefficient tables:
the mask coefficients of the outer gratings enter at zero argument and the
diffraction coefficients of the central grating at the Talbot argument
m t / T_T. The time t between gratings (``InterferometerConfig.flight_time``)
is L / v_z in spatial mode and the pulse delay T in the time domain; it is
the only quantity that depends on the mode. The sinusoidal visibility is
the ratio 2 |S_1 / S_0| of the transmitted signal components, formed in
one place (``sinusoidal_visibility``) for a signal or a block of them.

A config is the engine's whole input. One evaluation
(``velocity_averaged_signal``) covers a block of configs (the points of a
sweep) and the velocity nodes of each config's beam: one row per node of
every point; ``detector_signal`` is a config whose beam is one speed.
Each distinct grating gets one table over all rows, and one coefficient
evaluation runs over row x order. Every grating family has one table
path (``grating_coefficients``): a laser's or an ionizing grating's
table is the Bessel closed form at a real or a complex phase, one
``bessel_j`` call for all rows even where the points differ in power; a
material mask's is a cosine sum over |t| and the phase on half a period.
A grating whose phase does not depend on the speed (``is_speed_free``: an
ionizing grating, a mask without an eikonal phase) gives a single row for
all nodes, and its table and outer factor conj B_m(0) are built once per
process (``_speed_free_factors``). Any other outer grating's factor is
evaluated once per block, so grating3 == grating1 reuses it, and a block
builds one velocity rule per distinct beam.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (BeamState, bessel_j, require_finite, talbot_time,
                   velocity_weights)
from . import decoherence
from .gratings import (CoefficientTable, IonizingGrating, LaserPhaseGrating,
                       MaterialGrating, DEFAULT_GRID_SIZE, DEFAULT_J_MAX,
                       _cell_open_fraction, _check_orders, _slit_offsets,
                       is_pure_phase, is_speed_free, laser_phase_amplitude,
                       material_slit_phase)
from .species import Species
# not called: the lookup site of the trace layer "gratings.fourier" in
# perfbench/spans.py, kept until that layer is dropped
from .gratings import fourier_coefficients  # noqa: F401
# not called: the lookup sites of the trace layer "gratings.transmission"
# in perfbench/spans.py, kept until that layer is dropped
from .gratings import (ionizing_transmission,  # noqa: F401
                       laser_phase_transmission, material_transmission)

DEFAULT_M_MAX = 8
XI_SANITY_BOUND = 1e6
TRUNCATION_WARN_LEVEL = 1e-8
# entries kept by each per-process memo of mask amplitudes and weights
MEMO_SIZE = 64
# one evaluation takes at most this many rows (velocity nodes of a block
# of sweep points, or delays of a time-domain block)
BLOCK_ROWS = 48

GratingSpec = MaterialGrating | LaserPhaseGrating | IonizingGrating


class CoherencePreparationError(ValueError):
    """Outer grating is a pure phase mask: no coherence preparation/readout."""


class TruncationWarning(UserWarning):
    pass


class NonSinusoidalWarning(UserWarning):
    """Signal components imply 2 |S_1 / S_0| > 1: not a sinusoidal fringe."""


@dataclass(frozen=True)
class InterferometerConfig:
    """Full description of a three-grating experiment, its environment
    included: the one value that the engine evaluates.

    Exactly one of ``separation_L`` (the distance between adjacent
    gratings, spatial mode) and ``pulse_delay_T`` (the time between pulses,
    time domain) is given, and it is positive; ``mode`` follows from which.
    ``grating3 = None`` selects surface-imaging mode: the fringe pattern at
    the third-grating plane is returned without the readout convolution.
    A pure phase grating1 or grating3 raises ``CoherencePreparationError``.
    ``channels`` are the decoherence channels that act between the
    gratings: each multiplies the central-grating coefficient by its
    reduction factor (``decoherence_factor``). Any sequence of channels is
    stored as a tuple, so that the config stays hashable.
    """

    grating1: GratingSpec
    grating2: GratingSpec
    species: Species
    beam: BeamState
    grating3: Optional[GratingSpec] = None
    separation_L: Optional[float] = None
    pulse_delay_T: Optional[float] = None
    channels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        require_finite(separation_L=self.separation_L,
                       pulse_delay_T=self.pulse_delay_T)
        flights = [t for t in (self.separation_L, self.pulse_delay_T)
                   if t is not None]
        if len(flights) != 1 or flights[0] <= 0.0:
            raise ValueError("exactly one of separation_L and pulse_delay_T "
                             "must be given, and be positive")
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
    def mode(self) -> str:
        """The mode of the flight held: "spatial" (L) or "time_domain" (T)."""
        return "spatial" if self.separation_L is not None else "time_domain"

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


def grating_coefficients(g: GratingSpec, s: Species, v_z,
                         j_max: int = DEFAULT_J_MAX) -> CoefficientTable:
    """Fourier table (|j| <= ``j_max``) of grating ``g`` at speed(s) ``v_z``:
    one row per speed, or a single row if t(x) does not depend on the
    speed, with orders on the last axis.

    A laser's table is the Bessel closed form (``_laser_table``), and an
    ionizing grating's t = exp(c cos^2(pi x / d)), c = -n0/2 + i phi0, is
    that form at the phase phi0 + i n0/2: b_j = e^(c/2) I_j(c/2)
    (Nimmrichter et al., NJP 13, 075002 (2011)). A material mask's is one
    cosine sum (``_even_table``) of |t| and the phase at the grid points
    k = 0 .. N/2 of ``DEFAULT_GRID_SIZE`` = N where it transmits
    (``_open_amplitude``), for all speeds at once. A grating that
    ``is_speed_free`` gives a single row, a laser or a mask with an eikonal
    phase one row per speed. Stacked rows round differently from single
    speeds, by about 1e-15.
    """
    v_z = np.asarray(v_z, dtype=float)
    if not np.all((v_z > 0.0) & (v_z < np.inf)):
        raise ValueError("v_z must be positive")
    if isinstance(g, LaserPhaseGrating):
        return _laser_table(laser_phase_amplitude(g, s, v_z), j_max)
    if not isinstance(g, (IonizingGrating, MaterialGrating)):
        raise TypeError(f"unsupported grating type {type(g).__name__}")
    if is_speed_free(g, s):
        return _single_row_table(g, j_max)
    n = DEFAULT_GRID_SIZE
    amp = _open_amplitude(g.period_d, g.open_half_width)
    # one row per speed, so that each product is a single matrix product
    phase = material_slit_phase(g, s, v_z.reshape(-1, 1),
                                np.arange(amp.size) * g.period_d / n)
    half = _even_table(amp, phase, n, j_max).reshape(v_z.shape + (-1,))
    return CoefficientTable(np.concatenate([half[..., :0:-1], half], axis=-1))


def _single_row_table(g, j_max: int) -> CoefficientTable:
    """The one table of a grating that ``is_speed_free``: the closed form
    of an ionizing grating, or the cosine sum of a mask's |t| alone."""
    if isinstance(g, IonizingGrating):
        return _laser_table(g.phase_amplitude_phi0
                            + 0.5j * g.mean_absorbed_photons_n0, j_max)
    amp = _open_amplitude(g.period_d, g.open_half_width)
    half = _even_table(amp, np.zeros(amp.size), DEFAULT_GRID_SIZE, j_max)
    return CoefficientTable(np.concatenate([half[:0:-1], half]))


@lru_cache(maxsize=MEMO_SIZE)
def _speed_free_factors(g, m_max: int, j_max: int):
    """(table, outer factor conj B_m(0), m = 0 .. ``m_max``) of a grating
    that ``is_speed_free`` for the species it is used with (the caller
    checks): built once per process, grating and order counts; read-only."""
    table = _single_row_table(g, j_max)
    outer = np.conj(talbot_lau_coefficient(table, np.arange(m_max + 1), 0.0))
    table.values.flags.writeable = False
    outer.flags.writeable = False
    return table, outer


def _laser_table(phi0, j_max: int) -> CoefficientTable:
    """Table of t(x) = exp(i phi0 cos^2(pi x / d)) for each entry of
    ``phi0``, orders on a new last axis, in closed form (Jacobi-Anger):
    b_j = e^(iz) i^|j| J_|j|(z) with z = phi0 / 2, from one ``bessel_j``
    call (Hornberger et al., NJP 11, 043032 (2009)). A phase phi0 + i a
    absorbs, |t| = exp(-a cos^2); from a = 1,418 on ``bessel_j``
    overflows and raises ``FloatingPointError``. A zero
    phase gives b_j = delta_j0 exactly (``bessel_j`` is exact at 0): a
    laser without power, or a species without polarizability, no fringe."""
    _check_orders(j_max, DEFAULT_GRID_SIZE)
    z = np.asarray(phi0) / 2.0
    j = np.arange(j_max + 1)
    half = (np.exp(1j * z)[..., None] * np.array([1, 1j, -1, -1j])[j % 4]
            * bessel_j(j, z))
    return CoefficientTable(np.concatenate([half[..., :0:-1], half], axis=-1))


@lru_cache(maxsize=MEMO_SIZE)
def _open_amplitude(d: float, open_half: float) -> np.ndarray:
    """|t| of a material mask of period ``d`` at the grid points k = 0 ..
    K-1 <= N/2 of ``DEFAULT_GRID_SIZE`` = N that its slit of half width
    ``open_half`` opens: the open fraction of each cell, which neither the
    speed nor the wall interaction changes. Built and checked once per slit
    geometry; read-only."""
    n = DEFAULT_GRID_SIZE
    amp = _cell_open_fraction(_slit_offsets(d, n)[:n // 2 + 1],
                              d / (2.0 * n), open_half)
    if np.max(amp) > 1.0 + 1e-12:
        raise ValueError("|t(x)| must not exceed 1")
    # the open cells are the first points: |offset| grows with k
    amp = amp[amp > 0.0]
    amp.flags.writeable = False
    return amp


def _even_table(amp, phase, n: int, j_max: int) -> np.ndarray:
    """b_0 .. b_jmax (= b_-j) of an even mask t(x) on N = ``n`` points from
    t_k = amp_k e^(i phase_k) at grid points k = 0 .. K-1 <= N/2 (zero
    beyond), one row per speed: the DFT sum_k C[k, j] t_k as two real
    matrix products (a complex one would copy C to complex per call),
    through one buffer the size of ``phase``."""
    weights = _cosine_weights(n, j_max, phase.shape[-1])
    part = np.cos(phase)
    part *= amp
    real = part @ weights
    np.sin(phase, out=part)
    part *= amp
    return real + 1j * (part @ weights)


@lru_cache(maxsize=MEMO_SIZE)
def _cosine_weights(n: int, j_max: int, rows: int) -> np.ndarray:
    """C[k, j] = w_k cos(2 pi j k / N) / N, k = 0 .. rows - 1 <= N/2,
    j = 0 .. j_max, w_k = 1 at k = 0 and N/2 (their own mirror images), 2
    elsewhere; once per (N, j_max, rows), read-only: a mask reads only its
    open cells. j k reduced modulo N picks each cosine from the N values
    cos(2 pi m / N), so only N cosines are evaluated."""
    _check_orders(j_max, n)
    k = np.arange(rows)
    index = np.outer(k, np.arange(j_max + 1))
    index %= n
    ring = np.arange(n, dtype=float)
    ring *= 2.0 * np.pi
    ring /= n
    weights = np.cos(ring)[index]
    weights *= np.where((k == 0) | (k == n // 2), 1.0, 2.0)[:, None] / n
    weights.flags.writeable = False
    return weights


def talbot_lau_coefficient(b: CoefficientTable, m, xi):
    """B_m(xi) = sum_j b_j conj(b_{j-m}) exp(i pi (m - 2j) xi).

    ``m``, ``xi`` and the leading axes of a node-stacked table broadcast
    against each other; scalars and a single table give a complex scalar,
    arrays an array of coefficients of the broadcast shape. For each
    distinct order m the sum runs over the slice of j where both b_j and
    b_{j-m} lie in the table; an order with |m| > 2 j_max gives zero. An
    order whose every xi is 0 (the outer factors B_m(0), the central B_0)
    sums the products alone: exp(0j) = 1 exactly, so skipping it changes
    no bit.
    """
    m, xi = np.broadcast_arrays(m, xi)
    if np.any(np.abs(xi) >= XI_SANITY_BOUND):
        raise ValueError("xi outside sanity bound")
    j_max = b.j_max
    shape = np.broadcast_shapes(b.values.shape[:-1], m.shape)
    tables = np.broadcast_to(b.values, shape + b.values.shape[-1:])
    m, xi = np.broadcast_to(m, shape), np.broadcast_to(xi, shape)
    result = np.zeros(shape, dtype=complex)
    for order in sorted(set(m.ravel().tolist())):
        lo, hi = max(-j_max, order - j_max), min(j_max, order + j_max)
        if lo > hi:
            continue
        at = m == order
        rows = tables[at]
        j = np.arange(lo, hi + 1)
        products = rows[:, lo + j_max:hi + j_max + 1] \
            * np.conj(rows[:, lo - order + j_max:hi - order + j_max + 1])
        xi_at = xi[at]
        if np.any(xi_at):
            # k = order - 2 j runs over -K, -K + 2 .. K with K = hi - lo:
            # one exponential per |k|, and e^(-i pi k xi) is its conjugate
            top = hi - lo
            half = np.exp(1j * np.pi * np.arange(top % 2, top + 1, 2)
                          * xi_at[:, None])
            products = products * np.concatenate(
                [half[:, ::-1], np.conj(half[:, 1 - top % 2:])], axis=1)
        result[at] = np.sum(products, axis=-1)
    return result[()]


def _check_truncation(b: CoefficientTable):
    edge = max(abs(b.get(b.j_max)), abs(b.get(-b.j_max)))
    if edge ** 2 > TRUNCATION_WARN_LEVEL:
        warnings.warn("coefficient table truncated before decay: "
                      f"|b_jmax|^2 = {edge ** 2:.2e}", TruncationWarning)


def talbot_pattern(b: CoefficientTable, L_over_LT: float,
                   m_max: int = DEFAULT_M_MAX) -> CoefficientTable:
    """Coherent self-imaging pattern: component m is B_m(m L / L_T)."""
    _check_truncation(b)
    m = np.arange(-m_max, m_max + 1)
    return CoefficientTable(talbot_lau_coefficient(b, m, m * L_over_LT))


def detector_signal(cfg: InterferometerConfig, v_z: float,
                    m_max: int = DEFAULT_M_MAX) -> np.ndarray:
    """Fourier components S_m (m = 0 .. m_max) of the signal at one speed:
    ``velocity_averaged_signal`` of ``cfg`` with its beam at ``v_z``, at
    one node."""
    if not 0.0 < v_z < np.inf:
        raise ValueError("v_z must be positive")
    one_speed = replace(cfg, beam=replace(cfg.beam, mean_velocity=v_z))
    return velocity_averaged_signal(one_speed, 1, m_max)


def sinusoidal_visibility(signal: np.ndarray) -> float | np.ndarray:
    """Visibility 2 |S_1 / S_0| of a fringe signal (components on the last
    axis): a float for one signal, an array for a block of them. A zero
    S_0 raises ``FloatingPointError`` (S_0 is a product of sums of |b_j|^2,
    so a transmitting interferometer cannot give one); a value above 1
    warns (``NonSinusoidalWarning``)."""
    if np.any(signal[..., 0] == 0):
        raise FloatingPointError("zeroth signal component S_0 vanishes")
    ratio = signal[..., 1] / signal[..., 0]
    # hypot, not np.abs: numpy's vectorised complex abs rounds differently
    # from its scalar one, and hypot agrees with the scalar bit for bit
    value = 2.0 * np.hypot(ratio.real, ratio.imag)
    if np.any(value > 1.0):
        warnings.warn(f"visibility {np.max(value):.3f} > 1: non-sinusoidal "
                      "regime", NonSinusoidalWarning)
    return value[()]


def velocity_averaged_signal(cfg, n_velocities: int = 16,
                             m_max: int = DEFAULT_M_MAX,
                             j_max: int = DEFAULT_J_MAX) -> np.ndarray:
    """Fourier components S_m (m = 0 .. m_max) of the transmitted signal,
    averaged over the ``n_velocities`` nodes of the beam's
    ``velocity_weights``: at each, S_m = conj(B1_m(0)) * B2_{2m}(m t / T_T)
    * conj(B3_m(0)), without the last factor in surface-imaging mode, the
    central factor reduced by each channel's ``decoherence_factor``.

    ``cfg`` is one config, or a sequence of them (a block of sweep points,
    all surface-imaging or all not) that gives one row per config. Each
    distinct grating role gets one table over all nodes of the block
    (``_block_table``), or, where the block shares one grating that
    ``is_speed_free``, its table and outer factor of the process
    (``_speed_free_factors``); each row equals its config alone up to
    rounding.
    """
    block = not isinstance(cfg, InterferometerConfig)
    cfgs = list(cfg) if block else [cfg]
    if len({c.grating3 is None for c in cfgs}) > 1:
        raise ValueError("a block mixes surface-imaging and three-grating "
                         "configs")
    rules = _velocity_rules(cfgs, n_velocities)
    nodes = np.concatenate([rule[0] for rule in rules])[:, None]
    ends = np.cumsum([len(rule[0]) for rule in rules])
    tables, outer_factors = {}, {}
    m = np.arange(m_max + 1)

    def role(name):
        return tuple((getattr(c, name), c.species) for c in cfgs)

    for key in map(role, ("grating1", "grating2", "grating3")):
        if len(set(key)) == 1 and is_speed_free(*key[0]):
            tables[key], outer_factors[key] = _speed_free_factors(
                key[0][0], m_max, j_max)

    def table(key):
        if key not in tables:
            tables[key] = _block_table(key, nodes, ends, j_max)
        return tables[key]

    def outer(key):
        if key not in outer_factors:
            outer_factors[key] = np.conj(
                talbot_lau_coefficient(table(key), m, 0.0))
        return outer_factors[key]

    xi_unit = np.concatenate([
        c.flight_time(rule[0]) / talbot_time(c.species.mass, c.period_d)
        for c, rule in zip(cfgs, rules)])[:, None]
    signal = outer(role("grating1")) \
        * talbot_lau_coefficient(table(role("grating2")), 2 * m, m * xi_unit)
    if cfgs[0].grating3 is not None:
        signal *= outer(role("grating3"))
    averaged = np.empty((len(cfgs), m_max + 1), dtype=complex)
    for p, (c, (speeds, weights), rows) in enumerate(
            zip(cfgs, rules, np.split(signal, ends[:-1]))):
        for channel in c.channels:
            # looked up on the module, where a layer trace can wrap it
            rows *= decoherence.decoherence_factor(
                channel, 2 * m, period_d=c.period_d,
                half_span=c.flight_time(speeds)[:, None],
                talbot_scale=talbot_time(c.species.mass, c.period_d))
        averaged[p] = weights @ rows
    return averaged if block else averaged[0]


def _velocity_rules(cfgs, n_velocities: int) -> list:
    """(nodes, weights) of each config's beam, built once per distinct
    beam as ``np.array(velocity_weights(beam, n_velocities)).T``."""
    rules = {beam: np.array(velocity_weights(beam, n_velocities)).T
             for beam in {c.beam for c in cfgs}}
    return [rules[c.beam] for c in cfgs]


def _block_table(key, nodes, ends, j_max: int) -> CoefficientTable:
    """One table, a row per node, for the (grating, species) pair of each
    config of a block (``key``): ``grating_coefficients`` over all nodes
    where the configs share one, one closed form over each config's own
    laser phase where all are lasers (a power sweep), and else each
    config's own table."""
    if len(set(key)) == 1:
        g, s = key[0]
        return grating_coefficients(g, s, nodes, j_max)
    per_config = np.split(nodes, ends[:-1])
    if all(isinstance(g, LaserPhaseGrating) for g, _ in key):
        return _laser_table(np.concatenate([
            laser_phase_amplitude(g, s, v)
            for (g, s), v in zip(key, per_config)]), j_max)
    return CoefficientTable(np.concatenate([
        np.broadcast_to(grating_coefficients(g, s, v, j_max).values,
                        v.shape + (2 * j_max + 1,))
        for (g, s), v in zip(key, per_config)]))


def time_domain_visibility(cfg: InterferometerConfig, T):
    """Visibility of a pulsed (time-domain) configuration at delay T; an
    array of delays gives an array of visibilities. Each delay is one
    config, evaluated at the beam's mean speed (``velocity_averaged_signal``
    with one node) in blocks of at most ``BLOCK_ROWS`` configs: the flight
    time is T at every speed."""
    delays = np.asarray(T, dtype=float)
    if np.any(delays <= 0.0):
        raise ValueError("T must be positive")
    if cfg.mode != "time_domain":
        raise ValueError("config must be in time_domain mode")
    values = np.empty(delays.shape)
    for start in range(0, delays.size, BLOCK_ROWS):
        block = [replace(cfg, pulse_delay_T=float(t))
                 for t in delays.flat[start:start + BLOCK_ROWS]]
        values.flat[start:start + len(block)] = sinusoidal_visibility(
            velocity_averaged_signal(block, 1, m_max=1))
    return values[()]


__all__ = [
    "InterferometerConfig", "GratingSpec", "grating_coefficients",
    "talbot_lau_coefficient", "talbot_pattern",
    "detector_signal", "sinusoidal_visibility",
    "velocity_averaged_signal", "time_domain_visibility",
    "CoherencePreparationError", "TruncationWarning", "NonSinusoidalWarning",
    "DEFAULT_M_MAX",
]
