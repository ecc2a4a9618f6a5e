"""Identities that follow from the model alone, whatever the integrator.

A rewrite that breaks one has a sign, convention or bookkeeping error that
a fixed operating point might miss: the Talbot-Lau symmetries of real
grating tables, the environment factor, the blocks of configs that one
evaluation covers, and the two flight modes.
"""

from dataclasses import replace
from importlib.resources import files

import numpy as np
from hypothesis import given, settings, strategies as st

from nearwave.constants import AMU
from nearwave.core import BeamState, talbot_time, velocity_weights
from nearwave.decoherence import (GasEnvironment, collisional_channel,
                                  csl_channel, decoherence_factor)
from nearwave.engine import (InterferometerConfig, detector_signal,
                             grating_coefficients, talbot_lau_coefficient,
                             velocity_averaged_signal)
from nearwave.gratings import (CoefficientTable, IonizingGrating,
                               LaserPhaseGrating, MaterialGrating)
from nearwave.scenario import load_scenario
from nearwave.species import get_species

C70 = get_species("C70")
PFNS8 = get_species("PFNS8")
GAS = GasEnvironment(gas_mass=28.0 * AMU, temperature=300.0, pressure=1e-6,
                     cross_section=1e-17)
# absolute tolerance of a row, on the scale sum_j |b_j b_{j-m}|
ROW_TOL = 1e-12
# and on the order-0 scale sum_j |b_j|^2: a coefficient below its table's
# rounding floor (b_2 of a laser at 1e-137 W is 1e-15 of b_0, not J_2 of
# its phase) is noise on either path
ROUNDING_FLOOR = 1e-15


def _tli(interaction, v, spread):
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction=interaction)
    return InterferometerConfig(grating1=g, grating2=g, grating3=g,
                                species=C70, beam=BeamState(v, spread),
                                separation_L=0.22)


def _kdtli(power, v, spread):
    outer = MaterialGrating(period_d=266e-9, open_fraction_f=0.42)
    laser = LaserPhaseGrating(period_d=266e-9, power_P=power,
                              vertical_waist_wy=20e-6,
                              laser_wavelength=532e-9)
    return InterferometerConfig(grating1=outer, grating2=laser,
                                grating3=outer, species=PFNS8,
                                beam=BeamState(v, spread), separation_L=0.105)


def _otima(n0, delay):
    heavy = get_species("gold_cluster", mass_amu=1e6)
    g = IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=n0)
    return InterferometerConfig(
        grating1=g, grating2=g, grating3=g, species=heavy,
        beam=BeamState(1.0), pulse_delay_T=delay * talbot_time(heavy.mass,
                                                               78.5e-9))


speeds = st.floats(min_value=60.0, max_value=250.0)
spreads = st.sampled_from([0.0, 0.1, 0.3])
configs = st.one_of(
    st.builds(_tli, st.sampled_from(["vdw_r3", "casimir_polder_r4", "none"]),
              speeds, spreads),
    st.builds(_kdtli, st.floats(min_value=0.0, max_value=12.0), speeds,
              spreads),
    st.builds(_otima, st.floats(min_value=1.0, max_value=8.0),
              st.floats(min_value=0.3, max_value=1.5)))


def _mask_table(interaction, v):
    return grating_coefficients(_tli(interaction, v, 0.0).grating1, C70, v)


def _laser_table(power, v):
    return grating_coefficients(_kdtli(power, v, 0.0).grating2, PFNS8, v)


def _ionizing_table(n0, phi0):
    g = IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=n0,
                        phase_amplitude_phi0=phi0)
    return grating_coefficients(g, C70, 100.0)


# the tables of real gratings: TLI masks of each wall interaction, KDTLI
# lasers from 0 to 18 W, OTIMA ionizing gratings
tables = st.one_of(
    st.builds(_mask_table,
              st.sampled_from(["vdw_r3", "casimir_polder_r4", "none"]), speeds),
    st.builds(_laser_table, st.floats(min_value=0.0, max_value=18.0), speeds),
    st.builds(_ionizing_table, st.floats(min_value=0.0, max_value=8.0),
              st.floats(min_value=0.0, max_value=3.0)))
orders = st.integers(min_value=-8, max_value=8)
xis = st.floats(min_value=-3.0, max_value=3.0)


def _term_scale(b, m):
    """sum_j |b_j b_{j-m}|: the size of B_m before its phases cancel."""
    return talbot_lau_coefficient(CoefficientTable(np.abs(b.values)), m,
                                  0.0).real


@settings(max_examples=40, deadline=None)
@given(b=tables, m=orders, xi=xis)
def test_talbot_lau_shift_by_one(b, m, xi):
    # B_m(xi + 1) = (-1)^m B_m(xi)
    assert (abs(talbot_lau_coefficient(b, m, xi + 1.0)
                - (-1) ** m * talbot_lau_coefficient(b, m, xi))
            <= ROW_TOL * _term_scale(b, m))


@settings(max_examples=40, deadline=None)
@given(b=tables, m=orders, xi=xis)
def test_talbot_lau_conjugation(b, m, xi):
    # B_{-m}(xi) = conj B_m(-xi)
    assert (abs(talbot_lau_coefficient(b, -m, xi)
                - np.conj(talbot_lau_coefficient(b, m, -xi)))
            <= ROW_TOL * _term_scale(b, m))


@st.composite
def channels(draw, cfg):
    """A collisional or a CSL channel for ``cfg``'s species, at a rate
    that leaves the first order between about e^-3 and 1."""
    if draw(st.booleans()):
        channel = collisional_channel(GAS)
    else:
        channel = csl_channel(1e-10, draw(st.sampled_from([1e-8, 1e-7])),
                              cfg.species.mass)
    span = 2.0 * cfg.flight_time(cfg.beam.mean_velocity)
    return replace(channel,
                   rate=draw(st.floats(min_value=0.0, max_value=3.0)) / span)


def _coefficient_scale(cfg, n_velocities, m_max):
    """sum_v w_v prod_g sum_j |b_j b_{j-m}| at each grating's order: the
    size of each component before the cancellations of its phases."""
    nodes, weights = np.array(velocity_weights(cfg.beam, n_velocities)).T
    m = np.arange(m_max + 1)
    scale = np.ones((len(nodes), m_max + 1))
    for g, orders in ((cfg.grating1, m), (cfg.grating2, 2 * m),
                      (cfg.grating3, m)):
        table = grating_coefficients(g, cfg.species, nodes[:, None])
        scale = scale * talbot_lau_coefficient(
            CoefficientTable(np.abs(table.values)), orders, 0.0).real
    return weights @ scale


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=configs, m_max=st.integers(1, 3))
def test_zero_rate_channel_is_identity(data, cfg, m_max):
    channel = replace(data.draw(channels(cfg)), rate=0.0)
    bare = velocity_averaged_signal(cfg, 4, m_max)
    with_channel = velocity_averaged_signal(
        replace(cfg, channels=(channel,)), 4, m_max)
    assert with_channel.tobytes() == bare.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=configs, m_max=st.integers(1, 3))
def test_two_channels_multiply(data, cfg, m_max):
    # at one speed each channel multiplies order m by its factor, the array
    # over all orders equal to the scalar call at each order
    c1, c2 = data.draw(channels(cfg)), data.draw(channels(cfg))
    v = cfg.beam.mean_velocity
    flight = dict(period_d=cfg.period_d, half_span=cfg.flight_time(v),
                  talbot_scale=talbot_time(cfg.species.mass, cfg.period_d))
    orders = 2 * np.arange(m_max + 1)
    factors = [decoherence_factor(c, orders, **flight) for c in (c1, c2)]
    for c, factor in zip((c1, c2), factors):
        assert factor.tolist() == [decoherence_factor(c, int(m), **flight)
                                   for m in orders]
    bare = detector_signal(cfg, v, m_max)
    both = detector_signal(replace(cfg, channels=(c1, c2)), v, m_max)
    np.testing.assert_allclose(both, bare * factors[0] * factors[1],
                               rtol=1e-14, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=configs, m_max=st.integers(1, 3))
def test_order_zero_untouched(data, cfg, m_max):
    decohered = replace(cfg, channels=(data.draw(channels(cfg)),
                                       data.draw(channels(cfg))))
    assert (velocity_averaged_signal(decohered, 4, m_max)[0]
            == velocity_averaged_signal(cfg, 4, m_max)[0])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), block=st.lists(configs, min_size=1, max_size=4),
       m_max=st.integers(1, 3))
def test_row_same_alone_and_in_any_block(data, block, m_max):
    block = [replace(cfg, channels=(data.draw(channels(cfg)),))
             if data.draw(st.booleans()) else cfg for cfg in block]
    rows = velocity_averaged_signal(block, 4, m_max)
    for row, cfg in zip(rows, block):
        alone = velocity_averaged_signal(cfg, 4, m_max)
        scale = _coefficient_scale(cfg, 4, m_max)
        assert np.all(np.abs(row - alone)
                      <= ROW_TOL * scale + ROUNDING_FLOOR * scale[0])


@settings(max_examples=10, deadline=None)
@given(k=st.integers(min_value=-3, max_value=10))
def test_time_domain_equals_spatial_at_one_node(k):
    # every ionizing grating is speed-free, so the bundled OTIMA config at
    # delay T is a spatial one at L = T v; at v = 2^k, L / v is T exactly
    cfg = load_scenario(
        files("nearwave") / "data" / "otima_gold_clusters.cfg").config
    v = 2.0 ** k
    spatial = replace(cfg, beam=BeamState(v), pulse_delay_T=None,
                      separation_L=cfg.pulse_delay_T * v)
    assert (velocity_averaged_signal(spatial, 1).tobytes()
            == velocity_averaged_signal(cfg, 1).tobytes())
