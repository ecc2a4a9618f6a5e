import math
from dataclasses import dataclass, replace
from typing import Callable

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st
from scipy import integrate
from scipy.special import sici

from nearwave import cli
from nearwave.constants import AMU, BOLTZMANN_KB, HBAR
from nearwave.core import BeamState, talbot_time
from nearwave.decoherence import (DecoherenceChannel, GasEnvironment,
                                  GaussianEta, TabulatedEta,
                                  collisional_channel,
                                  collisional_eta, collisional_rate,
                                  csl_channel,
                                  decoherence_factor,
                                  mean_gas_speed)
from nearwave.engine import InterferometerConfig, detector_signal
from nearwave.gratings import IonizingGrating, MaterialGrating
from nearwave.species import get_species
from oracles import (SincEta, de_broglie_wavelength, talbot_length,
                     thermal_emission_channel)

C70 = get_species("C70")

# relative tolerance of the adaptive-quadrature oracle
QUAD_RELTOL = 1e-6


@dataclass(frozen=True)
class ClosedFormEta:
    """A test eta: the function and the closed form of its loss."""

    eta: Callable[[float], float]
    loss: Callable[[float], float]

    def __call__(self, x):
        return self.eta(x)


def vdw_config():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    return InterferometerConfig(grating1=g, grating2=g, grating3=g,
                                species=C70, beam=BeamState(100.0, 0.0),
                                separation_L=0.22)


def test_blind_environment_leaves_coherence():
    channel = DecoherenceChannel(
        rate=1e4, eta=ClosedFormEta(lambda x: 1.0, lambda x_max: 0.0))
    f = decoherence_factor(channel, 2, period_d=991e-9, half_span=2.2e-3,
                           talbot_scale=2.07e-3)
    assert f == pytest.approx(1.0 + 0.0j, abs=1e-9)


def test_resolving_environment_gives_event_statistics():
    # eta = 0 everywhere except a point: every event destroys coherence,
    # so the factor is the no-event probability exp(-2 R T)
    rate, half_span = 137.0, 2.2e-3
    channel = DecoherenceChannel(rate=rate, eta=ClosedFormEta(
        lambda x: 1.0 if x == 0.0 else 0.0, lambda x_max: 1.0))
    f = decoherence_factor(channel, 2, period_d=991e-9, half_span=half_span,
                           talbot_scale=2.07e-3)
    assert f.real == pytest.approx(math.exp(-2.0 * rate * half_span), rel=1e-5)
    assert f.imag == pytest.approx(0.0, abs=1e-12)


def test_zeroth_order_untouched():
    channel = DecoherenceChannel(
        rate=1e6, eta=ClosedFormEta(lambda x: 0.0, lambda x_max: 1.0))
    f = decoherence_factor(channel, 0, period_d=991e-9, half_span=2.2e-3,
                           talbot_scale=2.07e-3)
    assert f == 1.0 + 0.0j


def test_separation_ramp_quadratic_eta():
    # with eta = 1 - (x / x0)^2 the exponent integrates in closed form:
    # x(t) = c (|t| - T) with c = m d / (2 x0 scale), giving 2 R c^2 T^3 / 3
    m, d, half_span, scale, x0 = 2, 991e-9, 2.2e-3, 2.07e-3, 1e-6
    rate = 50.0
    channel = DecoherenceChannel(rate=rate, eta=ClosedFormEta(
        lambda x: 1.0 - (x / x0) ** 2,
        lambda x_max: x_max ** 2 / (3.0 * x0 ** 2)))
    c = m * d / (2.0 * x0 * scale)
    expected = math.exp(-2.0 * rate * c ** 2 * half_span ** 3 / 3.0)
    f = decoherence_factor(channel, m, period_d=d, half_span=half_span,
                           talbot_scale=scale)
    assert f.real == pytest.approx(expected, rel=1e-6)


def test_eta_without_loss_rejected():
    with pytest.raises(TypeError):
        DecoherenceChannel(rate=1.0, eta=lambda x: 1.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -5.0])
def test_channel_rate_finite_and_nonnegative(rate):
    # a negative rate would raise the coefficient it is meant to reduce
    with pytest.raises(ValueError, match="^rate must be"):
        DecoherenceChannel(rate=rate, eta=GaussianEta(1e-7))
    channel = csl_channel(1e-10, 1e-7, C70.mass)
    with pytest.raises(ValueError, match="^rate must be"):
        replace(channel, rate=rate)
    assert replace(channel, rate=0.0).rate == 0.0


def test_collisional_eta_normalization_and_decay():
    env = GasEnvironment(gas_mass=16.04 * AMU, temperature=300.0,
                         pressure=1e-6, cross_section=1e-17)
    assert collisional_eta(env, 0.0).real == pytest.approx(1.0, rel=1e-12)
    # room-temperature methane resolves path separations of a few pm
    xs = [0.0, 5e-13, 1e-12, 2e-12]
    etas = [abs(collisional_eta(env, x)) for x in xs]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert abs(collisional_eta(env, 1e-9)) < 1e-3
    assert abs(collisional_eta(env, 1e-7)) < 1e-4


def test_collisional_eta_frozen_value():
    # the closed form for methane at 1 nm, y^2 = 19,840
    env = GasEnvironment(gas_mass=16.04 * AMU, temperature=300.0,
                         pressure=1e-6, cross_section=1e-17)
    assert collisional_eta(env, 1e-9) == pytest.approx(
        5.0403921634387404e-05, rel=1e-12)


def separation_at(env, y):
    """The path separation x at which y = m_g v_p x / hbar."""
    return y * HBAR / math.sqrt(2.0 * env.gas_mass * BOLTZMANN_KB
                                * env.temperature)


def collisional_eta_oracle(env, x):
    """mpmath double integral of sinc(q x / hbar), q = 2 m_g v sin(theta/2),
    over the isotropic solid angle and the Maxwell-Boltzmann speed pdf."""
    m = mpmath.mpf(env.gas_mass)
    vp = mpmath.sqrt(2 * BOLTZMANN_KB * env.temperature / m)

    def integrand(theta, v):
        pdf = (4 / mpmath.sqrt(mpmath.pi) * v ** 2 / vp ** 3
               * mpmath.exp(-(v / vp) ** 2))
        q = 2 * m * v * mpmath.sin(theta / 2)
        return mpmath.sinc(q * x / HBAR) * mpmath.sin(theta) / 2 * pdf

    # the speed pdf is below e^-49 past 7 v_p
    with mpmath.workdps(15):
        return float(mpmath.quad(integrand, [0, mpmath.pi],
                                 [0, 3 * vp, 7 * vp],
                                 method="gauss-legendre", maxdegree=4))


@pytest.mark.parametrize("y", [0.3, 3.0])
def test_collisional_eta_matches_double_integral(y):
    env = GasEnvironment(gas_mass=16.04 * AMU, temperature=300.0,
                         pressure=1e-6, cross_section=1e-17)
    x = separation_at(env, y)
    assert collisional_eta(env, x) == pytest.approx(
        collisional_eta_oracle(env, x), rel=1e-13)


def test_collisional_eta_limits():
    env = GasEnvironment(gas_mass=28.0 * AMU, temperature=300.0,
                         pressure=1e-6, cross_section=1e-17)
    # small y: the series to rounding, so 1 - exp(-y^2) does not cancel
    y = 1e-4
    assert collisional_eta(env, separation_at(env, y)) == pytest.approx(
        1.0 - y ** 2 / 2.0 + y ** 4 / 6.0, rel=2e-16)
    # large y: eta y^2 -> 1
    for y in (10.0, 1e3, 1e6):
        assert collisional_eta(env, separation_at(env, y)) * y ** 2 \
            == pytest.approx(1.0, rel=1e-12)


@given(mass_amu=st.floats(1.0, 300.0), temperature=st.floats(1.0, 1000.0),
       x=st.floats(0.0, 1e-6), ratio=st.floats(1.0, 100.0))
def test_collisional_eta_bounded_and_decreasing(mass_amu, temperature, x,
                                                ratio):
    env = GasEnvironment(gas_mass=mass_amu * AMU, temperature=temperature,
                         pressure=1e-6, cross_section=1e-17)
    near, far = collisional_eta(env, np.array([x, ratio * x]))
    assert collisional_eta(env, 0.0) == 1.0
    assert 0.0 < far and near <= 1.0
    # does not increase with x, up to rounding: the float closed form can
    # rise by an ulp between neighbouring y
    assert far <= near * (1.0 + 2.0 * np.finfo(float).eps)


def test_collisional_channel_rate():
    env = GasEnvironment(gas_mass=16.04 * AMU, temperature=300.0,
                         pressure=1e-6, cross_section=1e-17)
    assert mean_gas_speed(env) == pytest.approx(629.2824140995945, rel=1e-9)
    channel = collisional_channel(env)
    assert channel.rate == pytest.approx(1.519291323861929, rel=1e-9)
    assert channel.eta(0.0).real == pytest.approx(1.0, rel=1e-3)


def test_visibility_decays_with_pressure():
    cfg = vdw_config()
    vis = []
    for pressure in (0.0, 5e-8, 2e-7):
        if pressure == 0.0:
            channels = ()
        else:
            env = GasEnvironment(gas_mass=28.0 * AMU, temperature=300.0,
                                 pressure=pressure, cross_section=1e-17)
            channels = (collisional_channel(env),)
        signal = detector_signal(replace(cfg, channels=channels), 100.0)
        vis.append(2.0 * abs(signal[1] / signal[0]))
    assert vis[0] > vis[1] > vis[2] > 0.0


def test_channels_compose_multiplicatively():
    cfg = vdw_config()
    c1 = csl_channel(1e-10, 1e-7, C70.mass)
    env = GasEnvironment(gas_mass=28.0 * AMU, temperature=300.0,
                         pressure=1e-7, cross_section=1e-17)
    c2 = collisional_channel(env)
    decohered = replace(cfg, channels=(c1, c2))
    # frozen channels: a config that carries them stays hashable
    assert hash(decohered) == hash(replace(cfg, channels=(c1, c2)))
    both = detector_signal(decohered, 100.0)
    bare = detector_signal(cfg, 100.0)
    flight = dict(period_d=cfg.period_d, half_span=cfg.flight_time(100.0),
                  talbot_scale=talbot_time(C70.mass, cfg.period_d))
    for m in range(1, 3):
        expected = (bare[m] * decoherence_factor(c1, 2 * m, **flight)
                    * decoherence_factor(c2, 2 * m, **flight))
        assert both[m] == pytest.approx(expected, rel=1e-9)


def test_channels_of_any_sequence_are_a_tuple():
    # a list or a generator of channels is stored as a tuple: the config
    # stays hashable and equals the one built from the tuple
    cfg = vdw_config()
    channel = csl_channel(1e-10, 1e-7, C70.mass)
    as_tuple = replace(cfg, channels=(channel,))
    for spelled in ([channel], (c for c in [channel])):
        decohered = replace(cfg, channels=spelled)
        assert decohered.channels == (channel,)
        assert decohered == as_tuple
        assert hash(decohered) == hash(as_tuple)
    assert replace(cfg, channels=[]).channels == ()


def test_thermal_emission_eta():
    channel = thermal_emission_channel([(5e-6, 100.0)])
    assert channel.rate == 100.0
    x = 1.3e-6
    z = 2.0 * math.pi * x / 5e-6
    assert channel.eta(x).real == pytest.approx(math.sin(z) / z, rel=1e-12)
    two = thermal_emission_channel([(5e-6, 75.0), (10e-6, 25.0)])
    za, zb = 2 * math.pi * x / 5e-6, 2 * math.pi * x / 10e-6
    assert two.eta(x).real == pytest.approx(
        0.75 * math.sin(za) / za + 0.25 * math.sin(zb) / zb, rel=1e-12)
    with pytest.raises(ValueError):
        thermal_emission_channel([])
    with pytest.raises(ValueError):
        thermal_emission_channel([(-1e-6, 10.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            thermal_emission_channel([(bad, 10.0)])
        with pytest.raises(ValueError):
            thermal_emission_channel([(5e-6, bad)])


def sine_integral_exponent(n_photons, wavelength, x_max):
    """n (1 - Si(k x_max) / (k x_max)): the ramp average of 1 - sinc(k x)."""
    kx = 2.0 * math.pi / wavelength * x_max
    return n_photons * (1.0 - sici(kx)[0] / kx)


@pytest.mark.parametrize("wavelength", [0.4e-6, 1e-6, 5e-6, 20e-6])
def test_thermal_emission_sine_integral_spatial(wavelength):
    # constant-rate monochromatic emission over the transit 2 L / v; the
    # order-2 separation peaks at x_max = d L / L_T (about 1.05 um here)
    cfg = vdw_config()
    v, rate = 100.0, 300.0
    lt = talbot_length(cfg.period_d, de_broglie_wavelength(C70.mass, v))
    x_max = cfg.period_d * cfg.separation_L / lt
    n_photons = rate * 2.0 * cfg.separation_L / v
    expected = sine_integral_exponent(n_photons, wavelength, x_max)
    channel = thermal_emission_channel([(wavelength, rate)])
    f = decoherence_factor(channel, 2, period_d=cfg.period_d,
                           half_span=cfg.flight_time(v),
                           talbot_scale=talbot_time(C70.mass, cfg.period_d))
    assert -math.log(f.real) == pytest.approx(expected, rel=1e-12)
    assert f.imag == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("wavelength", [10e-9, 50e-9, 200e-9])
def test_thermal_emission_sine_integral_time_domain(wavelength):
    # pulsed gratings at T = 0.9 T_T: x_max = d T / T_T (about 71 nm) and
    # the transit lasts 2 T
    heavy = get_species("gold_cluster", mass_amu=1e6)
    d = 78.5e-9
    tt = talbot_time(heavy.mass, d)
    g = IonizingGrating(period_d=d, mean_absorbed_photons_n0=2.0)
    cfg = InterferometerConfig(grating1=g, grating2=g, grating3=g,
                               species=heavy, beam=BeamState(1.0),
                               pulse_delay_T=0.9 * tt)
    rate = 0.4 / cfg.pulse_delay_T
    x_max = d * cfg.pulse_delay_T / tt
    expected = sine_integral_exponent(rate * 2.0 * cfg.pulse_delay_T,
                                      wavelength, x_max)
    f = decoherence_factor(thermal_emission_channel([(wavelength, rate)]),
                           2, period_d=d, half_span=cfg.flight_time(1.0),
                           talbot_scale=tt)
    assert -math.log(f.real) == pytest.approx(expected, rel=1e-12)
    assert f.imag == pytest.approx(0.0, abs=1e-12)


def mp_sine_integral_loss(z):
    """1 - Si(z) / z at 50 digits."""
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        return float(1 - mpmath.si(z) / z)


@pytest.mark.parametrize("z", np.concatenate(
    (np.logspace(-9.0, 7.0, 49),
     [np.nextafter(1.0, 0.0), 1.0, 32.0, np.nextafter(32.0, 64.0)])))
def test_sinc_eta_loss_matches_mpmath(z):
    # power series below 1, Gauss-Legendre to 32, asymptotics above
    loss = SincEta(wavenumbers=(1.0,), weights=(1.0,)).loss(z)
    assert loss == pytest.approx(mp_sine_integral_loss(z), rel=1e-13)


def test_gaussian_eta_loss_without_cancellation():
    # r_c >> x_max: 1 - mean eta is 2.946e-21, far below the rounding of
    # 1.0, which 1 - sqrt(pi) erf(z) / (2 z) would leave
    with mpmath.workdps(50):
        z = mpmath.mpf(7.85e-8) / (2 * mpmath.mpf(417.5))
        exact = float(1 - mpmath.sqrt(mpmath.pi) * mpmath.erf(z) / (2 * z))
    assert GaussianEta(417.5).loss(7.85e-8) == pytest.approx(exact, rel=1e-14)


def test_csl_channel_scalings():
    c = csl_channel(1e-10, 1e-7, 1e6 * AMU)
    assert c.rate == pytest.approx(1e-10 * 1e12, rel=1e-12)
    assert c.eta(0.0) == 1.0
    assert c.eta(2e-7) == pytest.approx(math.exp(-1.0), rel=1e-12)
    heavier = csl_channel(1e-10, 1e-7, 2e6 * AMU)
    assert heavier.rate == pytest.approx(4.0 * c.rate, rel=1e-12)
    with pytest.raises(ValueError):
        csl_channel(-1.0, 1e-7, 1e6 * AMU)
    for bad in (math.nan, math.inf):
        for args in ((bad, 1e-7, 1e6 * AMU), (1e-10, bad, 1e6 * AMU),
                     (1e-10, 1e-7, bad)):
            with pytest.raises(ValueError):
                csl_channel(*args)


# a decohere run: C70 through three 991 nm material masks, 4 pressures
DECOHERE = """\
name = gas_sweep
species = C70
mode = spatial
separation = 0.22 m
grating1.type = material
grating1.period = 991 nm
grating1.open_fraction = 0.475
grating2.type = material
grating2.period = 991 nm
grating2.open_fraction = 0.475
grating3.type = material
grating3.period = 991 nm
grating3.open_fraction = 0.475
beam.velocity = 100 m/s
gas.mass = 28 amu
gas.temperature = 300 K
gas.cross_section = 1e-17 m^2
sweep.parameter = gas.pressure
sweep.start = 1e-9 mbar
sweep.stop = 2e-7 mbar
sweep.points = 4
"""


def test_gas_environment_guards(tmp_path):
    with pytest.raises(ValueError):
        GasEnvironment(gas_mass=0.0, temperature=300.0, pressure=1e-6,
                       cross_section=1e-17)
    with pytest.raises(ValueError):
        collisional_eta(GasEnvironment(gas_mass=28.0 * AMU, temperature=300.0,
                                       pressure=1e-6, cross_section=1e-17),
                        -1e-9)
    # a decohere run whose channel cannot be built exits with a config error
    path = tmp_path / "gas.cfg"
    path.write_text(DECOHERE.replace("gas.cross_section = 1e-17 m^2",
                                     "gas.cross_section = -1e-17 m^2"))
    result = CliRunner().invoke(cli.main, ["decohere", str(path)])
    assert result.exit_code == cli.EXIT_CONFIG
    assert result.output == "config error: cross section must be positive\n"
    env = GasEnvironment(gas_mass=28.0 * AMU, temperature=300.0,
                         pressure=1e-6, cross_section=1e-17)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("gas_mass", "temperature", "pressure",
                      "cross_section"):
            with pytest.raises(ValueError):
                replace(env, **{field: bad})


# ---------------------------------------------------------------------------
# closed-form ramp averages against adaptive quadrature of the same eta

def ramp_exponents(channel, x_max, m=2, d=991e-9, half_span=2.2e-3):
    """-log of the factor from the eta's loss, and the exponent
    int R (1 - eta(x(t))) dt over the transit by adaptive quadrature."""
    scale = (m * d / 2.0) * half_span / x_max
    f = decoherence_factor(channel, m, period_d=d, half_span=half_span,
                           talbot_scale=scale)
    assert f.imag == 0.0

    def integrand(t):
        x = (m * d / 2.0) * (abs(t) - half_span) / scale
        return channel.rate * (1.0 - channel.eta(x))

    value, _ = integrate.quad(integrand, -half_span, half_span,
                              epsrel=QUAD_RELTOL, epsabs=1e-300, limit=400)
    return -math.log(f.real), value


def knot_position(where, grid):
    """x_max between two knots, on a knot, or past the table end."""
    return {"between_knots": 0.5 * (grid[7] + grid[8]),
            "on_knot": grid[12],
            "past_table_end": 1.2 * grid[-1]}[where]


@pytest.mark.parametrize("where", ["between_knots", "on_knot",
                                   "past_table_end"])
def test_tabulated_eta_mean_matches_quadrature(where):
    env = GasEnvironment(gas_mass=28.0 * AMU, temperature=300.0,
                         pressure=1e-6, cross_section=1e-17)
    gas = collisional_channel(env)
    assert isinstance(gas.eta, TabulatedEta)
    # a slowly varying table on coarse knots, so the mean weighs every
    # segment and the quadrature reference converges across the kinks
    x = np.linspace(0.0, 5e-6, 21)
    smooth = DecoherenceChannel(
        rate=300.0, eta=TabulatedEta(x, np.exp(-x / 2e-6) * np.cos(x / 1e-6)))
    for channel in (gas, smooth):
        x_max = knot_position(where, channel.eta.x_grid)
        closed, adaptive = ramp_exponents(channel, x_max)
        assert closed == pytest.approx(adaptive, rel=QUAD_RELTOL)


@pytest.mark.parametrize("r_c", [1e-9, 1e-4], ids=["r_c_small", "r_c_large"])
def test_gaussian_eta_mean_matches_quadrature(r_c):
    # x_max = 1 um; the rate is chosen so the exponent is of order one
    x_max = 1e-6
    channel = csl_channel(1e-10, r_c, 1e6 * AMU)
    rate = 1.0 / (2.0 * 2.2e-3 * channel.eta.loss(x_max))
    channel = replace(channel, rate=rate)
    closed, adaptive = ramp_exponents(channel, x_max)
    assert closed == pytest.approx(adaptive, rel=QUAD_RELTOL)
    assert closed == pytest.approx(1.0, rel=1e-12)


def test_pressure_rescale_matches_fresh_channel():
    gas = GasEnvironment(gas_mass=28.0 * AMU, temperature=300.0,
                         pressure=1e-7, cross_section=1e-17)
    table = collisional_channel(gas)
    for pressure in (0.0, 3e-8, 2e-5):
        env = replace(gas, pressure=pressure)
        fresh = collisional_channel(env)
        rescaled = replace(table, rate=collisional_rate(env))
        assert rescaled.rate == fresh.rate
        assert np.array_equal(rescaled.eta.x_grid, fresh.eta.x_grid)
        assert np.array_equal(rescaled.eta.values, fresh.eta.values)


def test_collisional_eta_vectorised_matches_scalar():
    env = GasEnvironment(gas_mass=16.04 * AMU, temperature=300.0,
                         pressure=1e-6, cross_section=1e-17)
    xs = np.array([0.0, 5e-13, 1e-12, 1e-9, 1e-7])
    table = collisional_eta(env, xs)
    assert table.shape == xs.shape
    np.testing.assert_allclose(table, [collisional_eta(env, x) for x in xs],
                               rtol=1e-14, atol=0.0)
