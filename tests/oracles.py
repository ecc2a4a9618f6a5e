"""Independent models the tests check the package against; no command runs
them.

- The paraxial Fresnel propagator (``fresnel_propagate``,
  ``tile_profile``, ``incoherent_source_pattern``) diffracts sampled
  grating profiles by direct quadrature. It checks the Talbot-Lau
  coefficient expansion of the engine (acceptance 03) and is itself
  checked on slits and the Talbot revival (``test_fresnel.py``).
- The Monte Carlo ray tracer (``classical_visibility``) traces seeded
  straight rays with a force impulse at the central grating. It checks
  the deterministic quadrature twin that ``nearwave.classical`` ships
  (``test_classical.py``, acceptance 10), and shares the twin's survival
  mask, kick and readout window.
- ``grating_transmission`` samples t(x) of any grating family with the
  ``nearwave.gratings`` builders. Their FFT is the oracle of the engine's
  cosine-sum and closed-form tables (``test_engine.py``) and of the
  twin's speed-free windows.
- ``velocity_averaged_pattern`` turns the engine's averaged signal into a
  density table over x, the form the Fresnel propagator is compared in
  (acceptance 03).
- ``talbot_lau_reference`` is the Talbot-Lau sum as the package computed
  it before its order-major kernel: it gathers each order's rows of the
  broadcast table. The kernel must equal it bit for bit
  (``test_engine.py``).
- ``de_broglie_wavelength`` and ``talbot_length`` are the spatial
  near-field scales; the package reads only the Talbot time.
- ``thermal_emission_channel`` (eta ``SincEta``) is the thermal-emission
  decoherence channel, checked against the sine-integral closed form
  (acceptance 06).
- ``total_polarizability`` adds the thermal dipole term to the static
  polarizability (acceptance 09), and ``shift_dephasing_factor`` gives the
  contrast a distribution of fringe shifts (``ShiftDistribution``) keeps.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from nearwave.classical import (_kick_shape, _kick_strength, _mask_window,
                                _survival_probability)
from nearwave.constants import BOLTZMANN_KB, PLANCK_H
from nearwave.core import _unit_rule, require_finite
from nearwave.decoherence import DecoherenceChannel
from nearwave.engine import (DEFAULT_M_MAX, XI_SANITY_BOUND, GratingSpec,
                             InterferometerConfig,
                             sinusoidal_visibility, velocity_averaged_signal)
from nearwave.gratings import (CoefficientTable, IonizingGrating,
                               LaserPhaseGrating, MaterialGrating,
                               TransmissionProfile,
                               ionizing_transmission,
                               laser_phase_transmission,
                               material_transmission)
from nearwave.species import Species


# ---------------------------------------------------------------------------
# direct paraxial Fresnel propagation
#
# The propagator is a plain quadrature over the aperture samples with the
# paraxial phase pi (x_a - x_s)^2 / (lambda L); no fast transform is used,
# so its correctness is transparent at desk scale.

class UndersamplingError(ValueError):
    """Aperture grid does not resolve the finest Fresnel zone."""

    def __init__(self, required: int, actual: int):
        super().__init__(
            f"aperture grid undersampled: need >= {required} points, "
            f"got {actual}")
        self.required = required
        self.actual = actual


def _check_sampling(aperture_x, wavelength, distance, screen_x):
    dx = np.min(np.diff(aperture_x))
    span = max(abs(aperture_x[0] - screen_x[-1]),
               abs(aperture_x[-1] - screen_x[0]))
    limit = wavelength * distance / (2.0 * span)
    if dx > limit:
        total = aperture_x[-1] - aperture_x[0]
        raise UndersamplingError(required=int(np.ceil(total / limit)) + 1,
                                 actual=len(aperture_x))


def fresnel_propagate(aperture_x, aperture_t, wavelength, distance,
                      screen_x) -> np.ndarray:
    """Intensity on ``screen_x`` a distance ``distance`` behind the aperture.

    ``aperture_t`` is the complex amplitude sampled at ``aperture_x``. The
    result is normalized to unit mean over the screen window.
    """
    if distance <= 0.0:
        raise ValueError("distance must be positive")
    aperture_x = np.asarray(aperture_x, dtype=float)
    aperture_t = np.asarray(aperture_t, dtype=complex)
    screen_x = np.asarray(screen_x, dtype=float)
    _check_sampling(aperture_x, wavelength, distance, screen_x)

    intensity = np.empty(len(screen_x))
    # chunk the screen axis so the phase matrix stays modest in memory
    chunk = max(1, int(4e6 / len(aperture_x)))
    for start in range(0, len(screen_x), chunk):
        xs = screen_x[start:start + chunk, None]
        phase = np.pi * (aperture_x[None, :] - xs) ** 2 / (wavelength * distance)
        field = np.exp(1j * phase) @ aperture_t
        intensity[start:start + chunk] = np.abs(field) ** 2
    mean = intensity.mean()
    if mean == 0.0:
        return intensity
    return intensity / mean


def tile_profile(profile: TransmissionProfile, n_periods: int,
                 samples_per_period: int | None = None):
    """Aperture (x, t) covering ``n_periods`` repeats of a grating profile.

    Optionally resamples each period down to ``samples_per_period`` points
    (must divide the native grid) to keep the quadrature affordable.
    """
    t = profile.samples
    if samples_per_period is not None and samples_per_period != profile.grid_size:
        step = profile.grid_size // samples_per_period
        if step * samples_per_period != profile.grid_size:
            raise ValueError("samples_per_period must divide the grid size")
        t = t[::step]
    n = len(t)
    tiled = np.tile(t, n_periods)
    d = profile.period_d
    x = (np.arange(n_periods * n) + 0.5) * d / n - n_periods * d / 2.0
    return x, tiled


def incoherent_source_pattern(profile1: TransmissionProfile,
                              profile2: TransmissionProfile,
                              wavelength: float, distance: float,
                              n_periods: int, screen_x,
                              n_source: int = 32,
                              samples_per_period: int | None = None):
    """Fresnel twin of the two-grating fringe formula (surface imaging).

    Spherical waves from incoherent source points spanning one period of
    the first mask (weighted by its transmission probability) are diffracted
    at a wide second grating and summed in intensity at the screen. The
    screen window should stay near the center of the grating.
    """
    d = profile1.period_d
    x2, t2 = tile_profile(profile2, n_periods, samples_per_period)
    screen_x = np.asarray(screen_x, dtype=float)

    # source points across one period of G1, weighted by |t1|^2
    xs = (np.arange(n_source) + 0.5) * d / n_source - d / 2.0
    idx = np.round((xs % d) / d * profile1.grid_size).astype(int) % profile1.grid_size
    weights = np.abs(profile1.samples[idx]) ** 2
    if weights.sum() == 0.0:
        raise ValueError("first mask transmits nothing")
    weights = weights / weights.sum()

    total = np.zeros(len(screen_x))
    inv = 1.0 / (wavelength * distance)
    for x1, w in zip(xs, weights):
        if w == 0.0:
            continue
        amp = t2 * np.exp(1j * np.pi * (x2 - x1) ** 2 * inv)
        phase = np.pi * (x2[None, :] - screen_x[:, None]) ** 2 * inv
        field = np.exp(1j * phase) @ amp
        total += w * np.abs(field) ** 2
    mean = total.mean()
    return total / mean if mean else total


# ---------------------------------------------------------------------------
# Monte Carlo ray tracer of the classical moire prediction
#
# Rays pass the masks ballistically, receive a transverse velocity kick
# from the line-integrated grating potential (impulse approximation), and
# build a shadow histogram at the third grating. The same
# first-Fourier-component extraction as the quantum path keeps the
# visibility comparison fair.

MIN_SURVIVORS = 1000
HISTOGRAM_BINS = 256
PARTITIONS = 16
BOOTSTRAP_RESAMPLES = 64


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
    return float(_kick_strength(g, s, v_z) * _kick_shape(g, s, x))


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

        vx2 = vx + a_ext * t_flight + (_kick_strength(cfg.grating2, s, v)
                                       * _kick_shape(cfg.grating2, s, x2))
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


# ---------------------------------------------------------------------------
# sampled transmission of any grating family

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


# ---------------------------------------------------------------------------
# the averaged fringe pattern as a density table

def velocity_averaged_pattern(cfg: InterferometerConfig,
                              n_velocities: int = 16,
                              m_max: int = DEFAULT_M_MAX):
    """(density CoefficientTable over x in periods, visibility) after
    velocity averaging."""
    signal = velocity_averaged_signal(cfg, n_velocities, m_max)
    pattern = CoefficientTable(np.concatenate([np.conj(signal[:0:-1]),
                                               signal]))
    return pattern, sinusoidal_visibility(signal)


# ---------------------------------------------------------------------------
# the Talbot-Lau sum by gather and scatter

def talbot_lau_reference(b: CoefficientTable, m, xi):
    """B_m(xi) = sum_j b_j conj(b_{j-m}) exp(i pi (m - 2j) xi), with the
    broadcasting of ``nearwave.engine.talbot_lau_coefficient``: for each
    distinct order, the rows of the table broadcast to the result's shape
    where m has that order are gathered and their sums scattered back. An
    order whose every xi is 0 sums the products alone."""
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


# ---------------------------------------------------------------------------
# spatial near-field scales

def de_broglie_wavelength(mass, velocity):
    """Matter wavelength h/(m v) of a particle of mass ``mass`` at speed ``velocity``."""
    if mass <= 0.0 or velocity <= 0.0:
        raise ValueError("mass and velocity must be positive")
    return PLANCK_H / (mass * velocity)


def talbot_length(period, wavelength):
    """Self-imaging distance d^2/lambda behind a grating of period ``period``."""
    if period <= 0.0 or wavelength <= 0.0:
        raise ValueError("period and wavelength must be positive")
    return period * period / wavelength


# ---------------------------------------------------------------------------
# thermal emission channel

@dataclass(frozen=True)
class SincEta:
    """eta(x) = sum_i w_i sin(k_i x) / (k_i x), emission of photons of
    wavenumbers k_i in the proportions w_i. Its loss sum_i w_i (1 - Si(z_i)
    / z_i), z_i = k_i x_max, takes the power series below z = 1, 40-node
    Gauss-Legendre for Si(z) / z = int_0^1 sin(z u) / (z u) du up to 32,
    and the auxiliary-function asymptotics above (Abramowitz and Stegun
    5.2.14, 5.2.34-35): about 1e-15 relative, without scipy. An array of
    x_max takes each element on its own."""

    wavenumbers: tuple
    weights: tuple

    def __call__(self, x: float) -> float:
        z = np.multiply(self.wavenumbers, abs(x))
        return float(np.dot(self.weights, np.sinc(z / np.pi)))

    def loss(self, x_max):
        if np.ndim(x_max):
            return np.vectorize(self.loss, otypes=[float])(x_max)
        z = np.multiply(self.wavenumbers, x_max)
        loss = np.empty_like(z)
        small, mid, large = z < 1.0, (z >= 1.0) & (z <= 32.0), z > 32.0
        # sum_{n>=1} (-1)^(n+1) z^2n / ((2n+1) (2n+1)!)
        s = z[small] ** 2
        term, total = np.ones_like(s), np.zeros_like(s)
        for n in range(1, 11):
            term *= -s / (2 * n * (2 * n + 1))
            total -= term / (2 * n + 1)
        loss[small] = total
        nodes, weights = _unit_rule("top_hat", 40)   # normalised, [-1, 1]
        zu = np.outer(z[mid], 0.5 * (nodes + 1.0))
        loss[mid] = 1.0 - (np.sin(zu) / zu) @ weights
        y = z[large]
        r = (1.0 / y) ** 2
        f = g = term_f = term_g = np.ones_like(y)
        for n in range(1, 15):
            term_f = term_f * (-(2 * n - 1) * 2 * n * r)
            term_g = term_g * (-2 * n * (2 * n + 1) * r)
            f, g = f + term_f, g + term_g
        si = 0.5 * math.pi - f / y * np.cos(y) - g * r * np.sin(y)
        loss[large] = 1.0 - si / y
        return float(np.dot(self.weights, loss))


def thermal_emission_channel(spectrum) -> DecoherenceChannel:
    """Channel for isotropic single-photon emission events.

    ``spectrum`` is a sequence of (wavelength_m, rate_hz) pairs. Each
    emitted photon of wavelength lambda reduces coherence over separation x
    by sinc(2 pi x / lambda); eta is the ``SincEta`` of the spectrum.
    """
    spectrum = [(float(lam), float(r)) for lam, r in spectrum]
    if not spectrum:
        raise ValueError("emission spectrum is empty")
    for lam, r in spectrum:
        require_finite(wavelength=lam, rate=r)
        if lam <= 0.0 or r < 0.0:
            raise ValueError("wavelengths must be positive and rates nonnegative")
    total = sum(r for _, r in spectrum)
    eta = SincEta(wavenumbers=tuple(2.0 * math.pi / lam for lam, _ in spectrum),
                  weights=tuple(r / total if total > 0.0 else r
                                for _, r in spectrum))
    return DecoherenceChannel(rate=total, eta=eta)


# ---------------------------------------------------------------------------
# polarizability and fringe-shift distributions

def total_polarizability(alpha_stat: float, dipole_rms: float,
                         temperature: float) -> float:
    """Static polarizability plus the thermal nuclear term <d^2>/(3 kB T)."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    return alpha_stat + dipole_rms ** 2 / (3.0 * BOLTZMANN_KB * temperature)


@dataclass(frozen=True)
class ShiftDistribution:
    """Distribution of fringe shifts blurring the interferogram.

    ``model`` is one of ``delta`` (pure shift), ``gaussian`` (mean, sigma)
    or ``empirical`` (explicit sample list in meters).
    """

    model: str = "delta"
    mean: float = 0.0
    sigma: float = 0.0
    samples: Sequence[float] = field(default_factory=tuple)

    def __post_init__(self):
        if self.model not in ("delta", "gaussian", "empirical"):
            raise ValueError(f"unknown shift model {self.model!r}")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")


def shift_dephasing_factor(dist: ShiftDistribution, period_d: float) -> complex:
    """Characteristic function of the shift distribution at frequency 2 pi / d.

    Multiplies the first-order signal component; its magnitude is the
    contrast retained under the phase averaging.
    """
    if period_d <= 0.0:
        raise ValueError("period_d must be positive")
    k = 2.0 * math.pi / period_d
    if dist.model == "delta":
        return cmath.exp(1j * k * dist.mean)
    if dist.model == "gaussian":
        return cmath.exp(1j * k * dist.mean) * math.exp(-0.5 * (k * dist.sigma) ** 2)
    if not dist.samples:
        raise ValueError("empirical shift distribution has no samples")
    phases = np.exp(1j * k * np.asarray(dist.samples, dtype=float))
    return complex(phases.mean())
