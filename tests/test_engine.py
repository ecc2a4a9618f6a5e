import math
from dataclasses import replace
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from nearwave.core import BeamState, bessel_j, velocity_weights
from nearwave.decoherence import (GasEnvironment, collisional_channel,
                                  decoherence_factor)
from nearwave import engine
from nearwave.engine import (CoherencePreparationError, InterferometerConfig,
                             NonSinusoidalWarning, TruncationWarning,
                             detector_signal, grating_coefficients,
                             sinusoidal_visibility, talbot_lau_coefficient,
                             talbot_pattern,
                             time_domain_visibility,
                             velocity_averaged_signal)
from nearwave.core import talbot_time
from nearwave.constants import AMU
from nearwave.gratings import (DEFAULT_GRID_SIZE, DEFAULT_J_MAX,
                               AliasingError, CoefficientTable, IonizingGrating,
                               LaserPhaseGrating, MaterialGrating,
                               _cell_open_fraction,
                               fourier_coefficients, ionizing_transmission,
                               is_pure_phase, is_speed_free,
                               laser_phase_amplitude, laser_phase_transmission,
                               material_amplitude, material_transmission,
                               transmission_probability_coefficients)
from nearwave.scenario import apply_sweep_value, load_scenario
from nearwave.metrology import DeflectionField
from nearwave.species import get_species, gold_cluster
from oracles import (de_broglie_wavelength, grating_transmission,
                     talbot_lau_reference, talbot_length,
                     velocity_averaged_pattern)

C70 = get_species("C70")


def binary(f, d=991e-9):
    return MaterialGrating(period_d=d, open_fraction_f=f, interaction="none")


def _complex_arrays(shape):
    floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    n = math.prod(shape)
    return st.tuples(
        st.lists(floats, min_size=n, max_size=n),
        st.lists(floats, min_size=n, max_size=n),
    ).map(lambda re_im: (np.array(re_im[0])
                         + 1j * np.array(re_im[1])).reshape(shape))


def coefficient_tables(j_max=6):
    return _complex_arrays((2 * j_max + 1,)).map(CoefficientTable)


def stacked_tables(j_max=6):
    """Tables of one to four nodes stacked on a leading axis."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda k: _complex_arrays((k, 2 * j_max + 1))).map(CoefficientTable)


def symmetric_tables(j_max=6):
    """Tables with b_-j = b_j, those of a mask with t(-x) = t(x), single
    or stacked."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda k: _complex_arrays((k, j_max + 1))).map(
        lambda half: CoefficientTable(np.concatenate(
            [half[:, :0:-1], half], axis=-1)))


@settings(max_examples=50, deadline=None)
@given(b=coefficient_tables(), m=st.integers(min_value=-4, max_value=4),
       xi=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       shift=st.sampled_from([1, 2]))
def test_coefficient_periodic_in_xi(b, m, xi, shift):
    # B_m(xi + 1) = (-1)^m B_m(xi), so B_m(xi + 2) = B_m(xi)
    assert talbot_lau_coefficient(b, m, xi + shift) == pytest.approx(
        (-1) ** (m * shift) * talbot_lau_coefficient(b, m, xi),
        rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(b=coefficient_tables(), m=st.integers(min_value=-4, max_value=4),
       xi=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_coefficient_conjugation_symmetry(b, m, xi):
    # B_{-m}(-xi) is the conjugate of B_m(xi)
    assert talbot_lau_coefficient(b, -m, -xi) == pytest.approx(
        np.conj(talbot_lau_coefficient(b, m, xi)), rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(b=st.one_of(coefficient_tables(), stacked_tables()),
       m=st.integers(min_value=-14, max_value=14),
       xi=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_coefficient_bounded_by_total_power(b, m, xi):
    # Cauchy-Schwarz: |B_m(xi)| <= sum_j |b_j|^2 = B_0(0) for any table,
    # row by row; |m| > 2 j_max reads only the zero padding
    total = np.real(talbot_lau_coefficient(b, 0, 0.0))
    assert np.all(np.abs(talbot_lau_coefficient(b, m, xi))
                  <= total * (1.0 + 1e-12) + 1e-300)


@settings(max_examples=100, deadline=None)
@given(b=symmetric_tables(), m=st.integers(min_value=-14, max_value=14))
def test_coefficient_at_zero_real_for_symmetric_table(b, m):
    # b_-j = b_j makes B_m(0) equal to its own conjugate
    total = np.real(talbot_lau_coefficient(b, 0, 0.0))
    assert np.all(np.abs(np.imag(talbot_lau_coefficient(b, m, 0.0)))
                  <= 1e-15 * total)


def test_integer_argument_reduces_to_classical_window():
    # at xi = n the coefficient collapses onto the Fourier components of
    # the transmission probability, up to the sign (-1)^(m n); use a
    # smooth profile so the coefficient tail is negligible at j_max
    g = IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=1.8,
                        phase_amplitude_phi0=1.2)
    p = ionizing_transmission(g)
    b = fourier_coefficients(p, 32)
    window = transmission_probability_coefficients(p, 6)
    for n in (0, 1, 2, 3):
        for m in range(-4, 5):
            expected = (-1.0) ** (m * n) * window.get(m)
            assert talbot_lau_coefficient(b, m, float(n)) == pytest.approx(
                expected, abs=1e-10)


def test_phase_grating_coefficient_closed_form():
    # a sinusoidal phase mask gives |B_m(xi)| = |J_m(phi0 sin(pi xi))|
    g = LaserPhaseGrating(period_d=266e-9, power_P=0.02,
                          vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    phi0 = laser_phase_amplitude(g, C70, 100.0)
    b = fourier_coefficients(laser_phase_transmission(g, C70, 100.0), 48)
    for xi in (0.1, 0.33, 0.5, 0.77, 1.4):
        for m in range(0, 4):
            expected = abs(jv(m, phi0 * math.sin(math.pi * xi)))
            assert abs(talbot_lau_coefficient(b, m, xi)) == pytest.approx(
                expected, abs=1e-9)


def test_coefficient_array_form_equals_scalar_form():
    # one broadcast call gives exactly the numbers of a loop over (m, xi)
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    b = fourier_coefficients(material_transmission(g, C70, 100.0))
    m = np.arange(-8, 9)[:, None]
    xi = np.array([0.0, 0.25, 0.5, 1.0 / 3.0, 1.7, -2.2])
    table = talbot_lau_coefficient(b, m, m * xi)
    assert table.shape == (17, 6)
    for i, mi in enumerate(range(-8, 9)):
        for k, x in enumerate(xi):
            assert table[i, k] == talbot_lau_coefficient(b, mi, mi * x)
    with pytest.raises(ValueError):
        talbot_lau_coefficient(b, m, np.full(17, 2e6))


def _literal_coefficient(values, m, xi):
    """sum_j b_j conj(b_{j-m}) exp(i pi (m - 2j) xi) as a double loop over
    j and the order j - m, for one table and one (m, xi)."""
    j_max = len(values) // 2
    total = 0.0 + 0.0j
    for j in range(-j_max, j_max + 1):
        for k in range(-j_max, j_max + 1):
            if k == j - m:
                total += (values[j + j_max] * np.conj(values[k + j_max])
                          * np.exp(1j * np.pi * (m - 2 * j) * xi))
    return total


def test_coefficient_equals_literal_double_loop():
    # the sum over the slice of j for each distinct m against the literal
    # sum: negative orders, orders beyond 2 j_max (zero), scalars, and
    # node-stacked (nodes, 1) tables against (m,) and (nodes, m) xi
    rng = np.random.default_rng(12)
    j_max, nodes = 6, 4
    values = (rng.uniform(-1.0, 1.0, (nodes, 1, 2 * j_max + 1))
              + 1j * rng.uniform(-1.0, 1.0, (nodes, 1, 2 * j_max + 1)))
    m = np.array([-14, -13, -12, -5, -1, 0, 1, 2, 7, 12, 13, 20])
    xi_row = rng.uniform(-3.0, 3.0, m.size)
    xi_nodes = rng.uniform(-3.0, 3.0, (nodes, m.size))
    stacked = CoefficientTable(values)
    for xi in (xi_row, xi_nodes):
        result = talbot_lau_coefficient(stacked, m, xi)
        assert result.shape == (nodes, m.size)
        xi = np.broadcast_to(xi, result.shape)
        for node in range(nodes):
            for i, order in enumerate(m):
                expected = _literal_coefficient(values[node, 0], order,
                                                xi[node, i])
                assert abs(result[node, i] - expected) <= 1e-13
                if abs(order) > 2 * j_max:
                    assert result[node, i] == 0.0
    single = CoefficientTable(values[0, 0])
    for order, xi in ((-3, 0.7), (0, 0.0), (5, -1.25), (13, 0.4)):
        value = talbot_lau_coefficient(single, order, xi)
        assert np.ndim(value) == 0 and isinstance(value, complex)
        assert abs(value - _literal_coefficient(values[0, 0], order,
                                                xi)) <= 1e-13


@st.composite
def talbot_lau_arguments(draw):
    """(table values, m, xi) in each layout the kernel broadcasts: a single
    table against an order set and a scalar or row xi, a node-stacked
    (rows, 1, width) table against an order set and (rows, orders) xi (the
    engine's layout), a column of orders against a row of xi, and scalar m
    and xi. Orders run past 2 j_max, and xi mixes exact zeros in."""
    j_max = draw(st.integers(min_value=1, max_value=6))
    width, rows = 2 * j_max + 1, draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=1, max_value=5))
    m = np.array(draw(st.lists(
        st.integers(min_value=-2 * j_max - 2, max_value=2 * j_max + 2),
        min_size=size, max_size=size)))

    def xi(shape):
        values = st.one_of(st.just(0.0),
                           st.floats(min_value=-3.0, max_value=3.0))
        n = math.prod(shape)
        return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                        dtype=float).reshape(shape)

    layout = draw(st.sampled_from(["single", "stacked", "column", "scalar"]))
    if layout == "single":
        return (draw(_complex_arrays((width,))), m,
                xi(draw(st.sampled_from([(), (size,)]))))
    if layout == "stacked":
        return (draw(_complex_arrays((rows, 1, width))), m,
                xi(draw(st.sampled_from([(), (size,), (rows, size)]))))
    if layout == "column":
        return (draw(_complex_arrays((width,))), m[:, None],
                xi(draw(st.sampled_from([(1, rows), (size, rows)]))))
    table = draw(st.sampled_from([(width,), (rows, 1, width)]))
    return draw(_complex_arrays(table)), int(m[0]), float(xi(()))


@settings(max_examples=200, deadline=None)
@given(args=talbot_lau_arguments())
def test_coefficient_equals_gather_scatter_reference_bit_for_bit(args):
    # the order-major kernel sums the same products in the same order as
    # the sum that gathers each order's rows of the broadcast table
    values, m, xi = args
    b = CoefficientTable(values)
    got, want = talbot_lau_coefficient(b, m, xi), talbot_lau_reference(b, m, xi)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e6, -1e6])
def test_coefficient_rejects_nonfinite_or_huge_xi(bad):
    b = CoefficientTable(np.array([0.5, 1.0, 0.5], dtype=complex))
    for m, xi in ((1, bad), (np.arange(3), np.array([0.2, bad, 0.0]))):
        with pytest.raises(ValueError, match="xi outside sanity bound"):
            talbot_lau_coefficient(b, m, xi)


def test_signal_orders_do_not_depend_on_m_max():
    # S_0 and S_1 are the same numbers whether or not higher orders are
    # computed, so the visibility needs only m_max = 1
    laser = LaserPhaseGrating(period_d=266e-9, power_P=3.0,
                              vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    mask = MaterialGrating(period_d=266e-9, open_fraction_f=0.42)
    vdw = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                          thickness_b=500e-9, interaction="vdw_r3")
    tli = InterferometerConfig(grating1=vdw, grating2=vdw, grating3=vdw,
                               species=C70, beam=BeamState(100.0, 0.0),
                               separation_L=0.22)
    kdtli = InterferometerConfig(grating1=mask, grating2=laser,
                                 grating3=mask, species=get_species("PFNS8"),
                                 beam=BeamState(75.0, 0.0),
                                 separation_L=0.105)
    for cfg, v in ((tli, 100.0), (kdtli, 75.0), (_otima_config(), 1.0)):
        full = detector_signal(cfg, v, m_max=8)
        assert list(detector_signal(cfg, v, m_max=1)) == list(full[:2])


def test_talbot_pattern_revival_at_integer():
    # a full Talbot distance reproduces the window shifted by half a period;
    # the sharp-edged window converges only as 1/j_max, hence the tolerance
    # and the truncation warning
    b = fourier_coefficients(material_transmission(binary(0.3), C70, 100.0),
                             512)
    with pytest.warns(TruncationWarning):
        pattern = talbot_pattern(b, 1.0, m_max=6)
    for m in range(-6, 7):
        window = math.sin(math.pi * m * 0.3) / (math.pi * m) if m else 0.3
        assert pattern.get(m) == pytest.approx((-1.0) ** m * window, abs=1e-3)


def test_half_open_masks_null_at_full_talbot_separation():
    # with f = 1/2 the second-order window coefficient vanishes, so the
    # fringe dies exactly at L = L_T
    cfg = InterferometerConfig(
        grating1=binary(0.5), grating2=binary(0.5), grating3=binary(0.5),
        species=C70, beam=BeamState(100.0, 0.0),
        separation_L=0.20673769177271675)
    signal = detector_signal(cfg, 100.0)
    # the null is exact analytically; grid pixelation of the f = 1/2
    # edges leaves a small residual
    assert abs(signal[1]) / abs(signal[0]) < 5e-3
    detuned = InterferometerConfig(
        grating1=binary(0.5), grating2=binary(0.5), grating3=binary(0.5),
        species=C70, beam=BeamState(100.0, 0.0),
        separation_L=0.7 * 0.20673769177271675)
    strong = detector_signal(detuned, 100.0)
    assert abs(strong[1]) / abs(strong[0]) > 20.0 * abs(signal[1]) / abs(signal[0])


def test_pure_phase_outer_grating_rejected():
    laser = LaserPhaseGrating(period_d=266e-9, power_P=1.0,
                              vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    with pytest.raises(CoherencePreparationError):
        InterferometerConfig(
            grating1=laser, grating2=laser, grating3=None,
            species=C70, beam=BeamState(100.0, 0.0), separation_L=0.1)


def test_non_sinusoidal_warning_for_narrow_slits():
    # three narrow masks at vanishing separation transmit a spiky comb
    # whose first harmonic exceeds half the mean
    cfg = InterferometerConfig(
        grating1=binary(0.1), grating2=binary(0.1), grating3=binary(0.1),
        species=C70, beam=BeamState(100.0, 0.0), separation_L=1e-6)
    with pytest.warns(NonSinusoidalWarning):
        v = sinusoidal_visibility(detector_signal(cfg, 100.0))
    assert v > 1.0


def test_velocity_averaged_pattern_is_real_density():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    cfg = InterferometerConfig(
        grating1=g, grating2=g, grating3=g, species=C70,
        beam=BeamState(100.0, 0.15), separation_L=0.22)
    pattern, visibility = velocity_averaged_pattern(cfg, n_velocities=8)
    x = np.linspace(0.0, 991e-9, 64)
    density = pattern.reconstruct(x / 991e-9)
    assert 0.0 < visibility <= 1.0
    assert np.all(density > 0.0)
    for m in range(1, pattern.j_max + 1):
        assert pattern.get(-m) == pytest.approx(np.conj(pattern.get(m)),
                                                rel=1e-12)


def test_velocity_spread_washes_out_fringe():
    # centered on the visibility peak (v = 120 m/s for this geometry) a
    # broader velocity distribution can only lower the averaged contrast
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    cfg = dict(grating1=g, grating2=g, grating3=g, species=C70,
               separation_L=0.22)
    _, narrow = velocity_averaged_pattern(
        InterferometerConfig(beam=BeamState(120.0, 0.02), **cfg), 12)
    _, wide = velocity_averaged_pattern(
        InterferometerConfig(beam=BeamState(120.0, 0.35), **cfg), 12)
    assert wide < narrow


def test_velocity_average_bounded_by_best_node():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    beam = BeamState(100.0, 0.25)
    cfg = InterferometerConfig(grating1=g, grating2=g, grating3=g,
                               species=C70, beam=beam, separation_L=0.22)
    from nearwave.core import velocity_weights
    _, averaged = velocity_averaged_pattern(cfg, n_velocities=10)
    best = max(sinusoidal_visibility(detector_signal(cfg, v))
               for v, _ in velocity_weights(beam, 10))
    assert averaged <= best + 1e-12


def _otima_config(n0=6.0):
    g = IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=n0)
    return InterferometerConfig(
        grating1=g, grating2=g, grating3=g,
        species=get_species("gold_cluster", mass_amu=1e6),
        beam=BeamState(100.0, 0.0), pulse_delay_T=1e-3)


def test_time_domain_resonance_and_symmetry():
    cfg = _otima_config()
    t_t = talbot_time(1e6 * AMU, 78.5e-9)
    on = time_domain_visibility(cfg, t_t)
    off = time_domain_visibility(cfg, 0.62 * t_t)
    assert on > 0.3
    assert on > 5.0 * off
    # the resonance curve is symmetric about T = T_T
    lo = time_domain_visibility(cfg, 0.8 * t_t)
    hi = time_domain_visibility(cfg, 1.2 * t_t)
    assert lo == pytest.approx(hi, rel=1e-9)


def test_time_domain_guards():
    cfg = _otima_config()
    with pytest.raises(ValueError):
        time_domain_visibility(cfg, -1.0)
    g = binary(0.5)
    spatial = InterferometerConfig(
        grating1=g, grating2=g, grating3=g, species=C70,
        beam=BeamState(100.0, 0.0), separation_L=0.1)
    with pytest.raises(ValueError):
        time_domain_visibility(spatial, 1e-3)


def test_time_domain_delays_are_one_block(monkeypatch):
    # a delay is one config: its visibility is a float that the config's
    # own delay does not change, a delay whose S_0 vanishes is a numerical
    # error, a non-sinusoidal fringe still warns, and a delay <= 0 is
    # refused. A map's blocks of delays run through the cli
    # (test_otima_map_is_one_block_per_photon_number)
    cfg = _otima_config(n0=12.0)
    t_t = talbot_time(1e6 * AMU, 78.5e-9)
    value = time_domain_visibility(cfg, 0.6 * t_t)
    assert isinstance(value, float)
    assert time_domain_visibility(replace(cfg, pulse_delay_T=3.0 * t_t),
                                  0.6 * t_t) == value
    with pytest.warns(NonSinusoidalWarning):
        resonant = time_domain_visibility(cfg, t_t)
    assert resonant > 1.0
    signals = engine.velocity_averaged_signal

    def dark(*args, **options):
        result = signals(*args, **options)
        result[0] = 0.0
        return result
    monkeypatch.setattr(engine, "velocity_averaged_signal", dark)
    with pytest.raises(FloatingPointError, match="S_0 vanishes"):
        time_domain_visibility(cfg, 0.6 * t_t)
    for bad in (0.0, -t_t):
        with pytest.raises(ValueError, match="T must be positive"):
            time_domain_visibility(cfg, bad)


def test_config_invariants():
    g = binary(0.5)
    # neither a separation nor a pulse delay
    with pytest.raises(ValueError):
        InterferometerConfig(grating1=g, grating2=g, grating3=g, species=C70,
                             beam=BeamState(100.0, 0.0))
    with pytest.raises(ValueError):
        InterferometerConfig(grating1=g, grating2=binary(0.5, d=500e-9),
                             grating3=g, species=C70,
                             beam=BeamState(100.0, 0.0), separation_L=0.1)
    # a config holds one flight: a separation or a pulse delay, not both
    with pytest.raises(ValueError, match="exactly one of separation_L and "
                       "pulse_delay_T"):
        InterferometerConfig(grating1=g, grating2=g, grating3=g, species=C70,
                             beam=BeamState(100.0, 0.0), separation_L=0.1,
                             pulse_delay_T=1e-3)
    for flight in ({"separation_L": 0.1}, {"pulse_delay_T": 1e-3}):
        cfg = InterferometerConfig(grating1=g, grating2=g, grating3=g,
                                   species=C70, beam=BeamState(100.0, 0.0),
                                   **flight)
        assert cfg.mode == ("spatial" if "separation_L" in flight
                            else "time_domain")
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="be positive"):
                replace(cfg, **dict.fromkeys(flight, bad))


def _per_node_signal(cfg, v, m_max):
    """S_m at one speed, the way a per-node loop builds it: a fresh table
    for every grating, real-arithmetic products order by order."""
    def product(a, b):
        return (a.real * b.real - a.imag * b.imag) \
            + 1j * (a.real * b.imag + a.imag * b.real)

    def table(g):
        return grating_coefficients(g, cfg.species, v)

    m = np.arange(m_max + 1)
    xi_unit = (cfg.separation_L / v) / talbot_time(cfg.species.mass,
                                                   cfg.period_d)
    signal = product(np.conj(talbot_lau_coefficient(table(cfg.grating1), m, 0.0)),
                     talbot_lau_coefficient(table(cfg.grating2), 2 * m,
                                            m * xi_unit))
    if cfg.grating3 is not None:
        signal = product(signal, np.conj(
            talbot_lau_coefficient(table(cfg.grating3), m, 0.0)))
    if cfg.channels:
        factor = np.ones(m_max + 1, dtype=complex)
        for channel in cfg.channels:
            factor = product(factor, np.array(
                [decoherence_factor(channel, 2 * k, period_d=cfg.period_d,
                                    half_span=cfg.flight_time(v),
                                    talbot_scale=talbot_time(
                                        cfg.species.mass, cfg.period_d))
                 for k in range(m_max + 1)]))
        signal = product(signal, factor)
    return signal


def _oracle_case(name):
    mask = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                           thickness_b=500e-9, interaction="vdw_r3")
    tli = dict(grating1=mask, grating2=mask, grating3=mask, species=C70,
               beam=BeamState(100.0, 0.2), separation_L=0.22)
    if name in ("vdw_r3", "casimir_polder_r4", "none"):
        g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                            thickness_b=500e-9, interaction=name)
        return InterferometerConfig(**dict(tli, grating1=g, grating2=g,
                                           grating3=g))
    if name == "kdtli":
        outer = MaterialGrating(period_d=266e-9, open_fraction_f=0.42)
        laser = LaserPhaseGrating(period_d=266e-9, power_P=7.0,
                                  vertical_waist_wy=20e-6,
                                  laser_wavelength=532e-9)
        return InterferometerConfig(
            grating1=outer, grating2=laser, grating3=outer,
            species=get_species("PFNS8"), beam=BeamState(75.0, 0.1),
            separation_L=0.105)
    if name == "surface_imaging":
        return InterferometerConfig(**dict(tli, grating3=None))
    if name == "top_hat":
        return InterferometerConfig(
            **dict(tli, beam=BeamState(100.0, 0.3, "top_hat")))
    # distinct outer masks and a collisional channel
    thin = MaterialGrating(period_d=991e-9, open_fraction_f=0.4,
                           thickness_b=300e-9, interaction="casimir_polder_r4")
    gas = GasEnvironment(gas_mass=28 * AMU, temperature=300.0, pressure=1e-6,
                         cross_section=1e-17)
    return InterferometerConfig(**dict(tli, grating3=thin,
                                       channels=(collisional_channel(gas),)))


@pytest.mark.parametrize("name", ["vdw_r3", "casimir_polder_r4", "none",
                                  "kdtli", "surface_imaging", "top_hat",
                                  "collisional"])
def test_velocity_average_equals_per_node_loop(name):
    # one table per distinct grating for all nodes gives, to rounding, the
    # weighted per-node sum of detector_signal and of a per-node build
    cfg = _oracle_case(name)
    n, m_max = 12, 3
    averaged = velocity_averaged_signal(cfg, n, m_max=m_max)
    by_node = np.zeros(m_max + 1, dtype=complex)
    rebuilt = np.zeros(m_max + 1, dtype=complex)
    for v, w in velocity_weights(cfg.beam, n):
        single = detector_signal(cfg, v, m_max)
        np.testing.assert_allclose(single, _per_node_signal(cfg, v, m_max),
                                   rtol=1e-12, atol=0.0)
        by_node += w * single
        rebuilt += w * _per_node_signal(cfg, v, m_max)
    np.testing.assert_allclose(averaged, by_node, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(averaged, rebuilt, rtol=1e-12, atol=0.0)


def test_block_rows_equal_each_config_alone():
    # a block of configs that differ in every grating, species and beam,
    # each with its own channels, and a block of lasers that differ only in
    # power (one closed form over all rows, a 0 W point among them): row p
    # is config p alone to rounding
    cases = [_oracle_case(name) for name in (
        "vdw_r3", "casimir_polder_r4", "none", "kdtli", "top_hat",
        "collisional")]
    kdtli = _oracle_case("kdtli")
    cases += [replace(kdtli, grating2=replace(kdtli.grating2, power_P=p))
              for p in (0.0, 0.5, 18.0)]
    for block in (cases, cases[-4:]):
        signals = velocity_averaged_signal(block, 12, m_max=3)
        assert signals.shape == (len(block), 4)
        for row, cfg in zip(signals, block):
            alone = velocity_averaged_signal(cfg, 12, m_max=3)
            np.testing.assert_allclose(row, alone, rtol=1e-12, atol=0.0)
    # the 0 W laser of the last block: b_j = delta_j0, no fringe at all
    assert np.all(signals[1, 1:] == 0.0)
    surface = _oracle_case("surface_imaging")
    with pytest.raises(ValueError, match="mixes surface-imaging"):
        velocity_averaged_signal([surface, block[0]], 12)


def test_flight_time_over_talbot_time_equals_separation_over_talbot_length():
    # the engine's Talbot argument (L / v) / T_T against L / L_T with
    # L_T = d^2 / lambda, over the speeds of every oracle case
    for name in ("vdw_r3", "kdtli", "top_hat"):
        cfg = _oracle_case(name)
        t_t = talbot_time(cfg.species.mass, cfg.period_d)
        for v, _ in velocity_weights(cfg.beam, 12):
            lam = de_broglie_wavelength(cfg.species.mass, v)
            by_length = cfg.separation_L / talbot_length(cfg.period_d, lam)
            assert cfg.flight_time(v) / t_t == pytest.approx(
                by_length, rel=1e-14, abs=0.0)
    # in the time domain the flight time is the pulse delay at every speed
    speeds = np.array([[1.0], [50.0], [300.0]])
    assert np.array_equal(_otima_config().flight_time(speeds),
                          np.full((3, 1), 1e-3))


@pytest.mark.parametrize("name", ["vdw_r3", "kdtli", "collisional"])
def test_per_node_tables_match_fixed_grid_tables(name):
    # the per-node tables of the loop above against the FFT of t(x) sampled
    # on the fixed 4096-point grid: within rounding for lasers and for the
    # open-cell cosine sum of masks (3.9e-16 measured)
    cfg = _oracle_case(name)
    gratings = {cfg.grating1, cfg.grating2, cfg.grating3}
    for v, _ in velocity_weights(cfg.beam, 12):
        for g in gratings:
            sized = grating_coefficients(g, cfg.species, v).values
            fixed = fourier_coefficients(
                grating_transmission(g, cfg.species, v)).values
            bound = 1e-13 if isinstance(g, LaserPhaseGrating) else 1e-15
            assert np.max(np.abs(sized - fixed)) < bound


# open fraction and wall cutoff: a typical slit, one wide enough that the
# cell at k = N/2 is partly open, and a nearly closed one of three cells
MASK_SLITS = [(0.475, 1e-9), (0.9999, 1e-11), (0.003, 1e-9)]
EVEN_GRATINGS = [
    pytest.param(MaterialGrating(period_d=991e-9, open_fraction_f=f,
                                 thickness_b=500e-9, interaction=i,
                                 wall_cutoff=cutoff), id=f"{i}-{f}-{cutoff}")
    for i in ("vdw_r3", "casimir_polder_r4") for f, cutoff in MASK_SLITS] \
    + [pytest.param(LaserPhaseGrating(period_d=266e-9, power_P=p,
                                      vertical_waist_wy=20e-6,
                                      laser_wavelength=532e-9),
                    id=f"laser-{p}W") for p in (0.2, 18.0)] \
    + [pytest.param(IonizingGrating(period_d=78.5e-9,
                                    mean_absorbed_photons_n0=n0,
                                    phase_amplitude_phi0=phi0),
                    id=f"ionizing-{n0}-{phi0}rad")
       for n0, phi0 in ((6.0, 0.0), (2.0, 40.0))] \
    + [pytest.param(MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                                    thickness_b=b, interaction=i),
                    id=f"phase-free-{i}-{b}")
       for i, b in (("none", 500e-9), ("vdw_r3", 0.0))]


@pytest.mark.parametrize("g", EVEN_GRATINGS)
def test_mask_cosine_sum_equals_full_grid_fft(g):
    # each table against the FFT of the full 4096-point grid, for one
    # speed and 12, scalar and node-stacked. A mask sums its open cells of
    # that grid: the FFT within 8.9e-16, and single-speed rows within
    # 1.7e-15 (the products round differently for one row and for 12). A
    # laser's closed form: both within 1e-13. An ionizing grating's is the
    # laser's at the complex phase phi0 + i n0 / 2: the FFT within 5.9e-16.
    # A grating whose phase does not depend on the speed (an ionizing
    # grating, a mask without an eikonal phase) gives one row for every
    # speed, and every family refuses the same speeds
    species = C70 if isinstance(g, MaterialGrating) else get_species("PFNS8")
    bound = 1e-13 if isinstance(g, LaserPhaseGrating) else 4e-15
    if isinstance(g, MaterialGrating):
        amp = material_amplitude(g)
        assert amp[0] == 1.0
        assert (amp[DEFAULT_GRID_SIZE // 2] > 0.0) == (g.open_fraction_f > 0.99)
    assert not engine._cosine_weights(
        DEFAULT_GRID_SIZE, DEFAULT_J_MAX,
        DEFAULT_GRID_SIZE // 2 + 1).flags.writeable
    speeds = np.linspace(40.0, 400.0, 12)
    for v_z in (100.0, np.array([100.0]), speeds, speeds[:, None]):
        table = grating_coefficients(g, species, v_z).values
        oracle = fourier_coefficients(grating_transmission(g, species,
                                                           v_z)).values
        assert table.shape == oracle.shape
        assert np.max(np.abs(table - oracle)) < bound
    stacked = grating_coefficients(g, species, speeds[:, None]).values
    single_row = isinstance(g, IonizingGrating) or (
        isinstance(g, MaterialGrating)
        and (g.interaction == "none" or g.thickness_b == 0.0))
    assert stacked.ndim == (1 if single_row else 3)
    rows = np.broadcast_to(stacked, speeds.shape + (1, stacked.shape[-1]))
    for row, v in zip(rows, speeds):
        single = grating_coefficients(g, species, v).values
        assert np.max(np.abs(row[0] - single)) < bound
    for bad in (0.0, -100.0, math.nan, math.inf, np.array([100.0, -1.0]),
                np.array([100.0, math.nan])):
        with pytest.raises(ValueError, match="v_z must be positive"):
            grating_coefficients(g, species, bad)
    with pytest.raises(AliasingError):
        grating_coefficients(g, species, 100.0, DEFAULT_GRID_SIZE // 2 + 1)


@pytest.mark.parametrize("n0, phi0", [(6.0, 0.0), (2.0, 40.0), (0.5, 0.0),
                                      (1000.0, 0.0), (8.0, 1500.0)])
def test_ionizing_table_is_the_modified_bessel_closed_form(n0, phi0):
    # t = exp(c cos^2(pi x / d)) with c = -n0 / 2 + i phi0 has
    # b_j = e^(c/2) I_j(c/2) (Nimmrichter, Haslinger, Hornberger and Arndt,
    # NJP 13, 075002 (2011)): within 1e-14 of mpmath, finite at the largest
    # n0, one row for every speed
    import mpmath
    g = IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=n0,
                        phase_amplitude_phi0=phi0)
    table = grating_coefficients(g, gold_cluster(1e6),
                                 np.array([[40.0], [75.0]])).values
    c = mpmath.mpc(-n0 / 2.0, phi0)
    exact = [complex(mpmath.exp(c / 2) * mpmath.besseli(abs(j), c / 2))
             for j in range(-DEFAULT_J_MAX, DEFAULT_J_MAX + 1)]
    assert table.shape == (2 * DEFAULT_J_MAX + 1,)
    assert np.max(np.abs(table - exact)) < 1e-14


def test_table_of_an_unknown_grating_is_a_type_error():
    with pytest.raises(TypeError, match="unsupported grating type object"):
        grating_coefficients(object(), C70, 100.0)


def test_mask_cosine_sum_checks_the_amplitude(monkeypatch, fresh_memos):
    # |t| <= 1 is checked on the open cell fractions, when the amplitude of
    # a slit geometry is first built
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.47,
                        thickness_b=500e-9, interaction="vdw_r3")
    monkeypatch.setattr(engine, "_cell_open_fraction",
                        lambda *args: 1.5 * _cell_open_fraction(*args))
    with pytest.raises(ValueError, match="must not exceed 1"):
        grating_coefficients(g, C70, 100.0)


def _every_k(b, order, xi):
    """B_order(xi) of a single table with e^(i pi k xi) evaluated for every
    k = order - 2 j, no mirrored half: the engine's sum before each |k|
    shared one exponential."""
    j_max = b.j_max
    lo, hi = max(-j_max, order - j_max), min(j_max, order + j_max)
    j = np.arange(lo, hi + 1)
    products = b.values[j + j_max] * np.conj(b.values[j - order + j_max])
    return np.sum(products * np.exp(1j * np.pi * (order - 2 * j) * xi))


def test_mirrored_phases_equal_every_k_exponentiated():
    # the bundled KDTLI laser at 1 W and the C70 vdW mask, each at its
    # scenario's speed: for m = -3 .. 3 and the single-term orders
    # +-2 j_max, B_m(xi) with e^(-i pi k xi) taken as the conjugate of
    # e^(i pi k xi) equals bit for bit the sum that exponentiates every k
    data = files("nearwave") / "data"
    kdtli = load_scenario(str(data / "pfns8_kdtli_power_sweep.cfg")).config
    tli = load_scenario(str(data / "c70_tli_velocity_sweep.cfg")).config
    tables = [grating_coefficients(replace(kdtli.grating2, power_P=1.0),
                                   kdtli.species, 75.0),
              grating_coefficients(tli.grating1, tli.species, 100.0)]
    m = np.array([-2 * DEFAULT_J_MAX, -3, -2, -1, 0, 1, 2, 3,
                  2 * DEFAULT_J_MAX])
    rng = np.random.default_rng(30)
    for b in tables:
        for xi in (0.0183 * m + 0.011, rng.uniform(-2.5, 2.5, m.size)):
            assert np.all(xi != 0.0)
            got = talbot_lau_coefficient(b, m, xi)
            for order, x, value in zip(m, xi, got):
                assert value == _every_k(b, order, x)


def test_speed_free_memos_hold_read_only_factors(fresh_memos):
    # a phase-free mask's table, and the twin's window of a mask, are
    # built on the first call; a hit returns the same objects, the table at
    # every speed, and the arrays cannot be written
    from nearwave import classical
    mask = _material(period_d=266e-9, open_fraction_f=0.42)
    table = engine._single_row_table(mask, DEFAULT_J_MAX)
    assert engine._single_row_table(mask, DEFAULT_J_MAX) is table
    assert grating_coefficients(mask, C70, 100.0) is table
    assert grating_coefficients(mask, C70, [80.0, 120.0]) is table
    assert not table.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.values[0] = 0.0
    window = classical._mask_window(mask)
    assert classical._mask_window(mask) is window
    assert engine._single_row_table.cache_info().misses == 1
    assert classical._mask_window.cache_info().misses == 1


@pytest.mark.parametrize("name, entries", [
    ("vdw_r3", 0), ("casimir_polder_r4", 0), ("kdtli", 1), ("none", 1)])
def test_only_speed_free_gratings_enter_the_memo(fresh_memos, name, entries):
    # a mask with a wall phase and a laser build their tables at the nodes
    # of each block; the phase-free masks (the KDTLI's outer mask, the
    # ideal TLI mask in all three roles) enter the memo once
    cfg = _oracle_case(name)
    speed_free = [g for g in (cfg.grating1, cfg.grating2, cfg.grating3)
                  if is_speed_free(g, cfg.species)]
    assert len(set(speed_free)) == entries
    velocity_averaged_signal([cfg, cfg], 4, m_max=1)
    assert engine._single_row_table.cache_info().currsize == entries


def test_speed_free_rule():
    # an ionizing grating, and a mask without wall coefficient or without
    # thickness, have the same t(x) at every speed; a laser does not, even
    # switched off, nor a mask whose species feels its walls
    pfns8 = get_species("PFNS8")
    assert is_speed_free(_ionizing(), gold_cluster(1e6))
    assert is_speed_free(_material(), C70)
    assert is_speed_free(_material(interaction="vdw_r3"), C70)
    assert is_speed_free(_material(thickness_b=500e-9), C70)
    assert is_speed_free(_material(thickness_b=500e-9, interaction="vdw_r3"),
                         replace(C70, c3_coefficient=0.0))
    assert not is_speed_free(_material(thickness_b=500e-9,
                                       interaction="vdw_r3"), C70)
    assert not is_speed_free(_laser(), pfns8)
    assert not is_speed_free(_laser(power_P=0.0), pfns8)
    # a speed-free mask gives one row for stacked speeds, a phased one a row
    # per speed
    v = np.array([[40.0], [75.0]])
    assert grating_coefficients(_material(thickness_b=500e-9), C70,
                                v).values.shape == (2 * DEFAULT_J_MAX + 1,)
    assert grating_coefficients(
        _material(thickness_b=500e-9, interaction="vdw_r3"), C70,
        v).values.shape == (2, 1, 2 * DEFAULT_J_MAX + 1)


def test_detector_signal_rejects_non_finite_speed():
    cfg = _oracle_case("kdtli")
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="v_z must be positive"):
            detector_signal(cfg, bad)


def _laser_closed_form(z, j_max=DEFAULT_J_MAX):
    """b_j = e^(iz) i^j J_j(z), |j| <= j_max, of exp(i 2z cos^2(pi x / d)),
    with J_-j = (-1)^j J_j; orders on the last axis."""
    j = np.arange(-j_max, j_max + 1)
    bessel = np.stack([bessel_j(k, z) for k in range(j_max + 1)], axis=-1)
    signs = np.where(j < 0, (-1.0) ** np.abs(j), 1.0)
    return (np.exp(1j * np.asarray(z))[..., None] * 1j ** j * signs
            * bessel[..., np.abs(j)])


def _power_sweep():
    """(species, laser grating2 at each sweep point, the 12 velocity
    nodes) of the bundled power sweep."""
    scenario = load_scenario(str(files("nearwave") / "data"
                                 / "pfns8_kdtli_power_sweep.cfg"))
    nodes = np.array([v for v, _ in velocity_weights(scenario.config.beam,
                                                     12)])
    return (scenario.config.species,
            [apply_sweep_value(scenario, p).grating2
             for p in scenario.sweep.values()], nodes)


def test_sized_laser_tables_at_every_power_sweep_node():
    # b_j = e^(iz) i^j J_j(z), z = phi0 / 2, from the engine's closed form,
    # on the fixed 4096-point grid, and from the Bessel oracle
    species, lasers, v = _power_sweep()
    assert lasers[-1].power_P == 18.0
    sized, fixed, z = [], [], []
    for g in lasers:
        sized.append(grating_coefficients(g, species, v).values)
        fixed.append(fourier_coefficients(
            grating_transmission(g, species, v)).values)
        z.append(laser_phase_amplitude(g, species, v) / 2.0)
    sized, fixed, z = np.array(sized), np.array(fixed), np.array(z)
    # the slowest node at 18 W has the largest phase
    assert z.max() == z[-1].max() and z.max() > 1000.0
    assert np.max(np.abs(sized - _laser_closed_form(z))) < 1e-13
    assert np.max(np.abs(sized - fixed)) < 1e-13


def test_stack_over_phases_is_one_bessel_call(monkeypatch):
    # nodes whose phases span over three decades share one multi-order
    # Bessel call; each row matches the closed form and the table of its
    # speed alone
    g = _laser(power_P=18.0)
    species = get_species("PFNS8")
    speeds = np.array([40.0, 75.0, 150.0, 400.0, 2000.0, 1e5])
    phi0 = laser_phase_amplitude(g, species, speeds)
    assert phi0.max() / phi0.min() > 1e3
    calls = []

    def counted(n, x):
        calls.append(np.shape(x))
        return bessel(n, x)
    bessel = engine.bessel_j
    monkeypatch.setattr(engine, "bessel_j", counted)
    stacked = grating_coefficients(g, species, speeds[:, None]).values
    assert calls == [(len(speeds), 1)]
    assert stacked.shape == (len(speeds), 1, 2 * DEFAULT_J_MAX + 1)
    closed = _laser_closed_form(phi0 / 2.0)
    for row, v, exact in zip(stacked, speeds, closed):
        assert np.max(np.abs(row[0] - exact)) < 1e-13
        assert np.max(np.abs(row[0] - grating_coefficients(
            g, species, v).values)) < 1e-13


def test_laser_table_at_a_large_phase_is_the_closed_form():
    # PFNS8 at 60 W and 46 m/s: phi0 near 8,300 rad, which a 4,096-point
    # grid aliases; the table is e^(iz) i^|j| J_|j|(z) against scipy
    g, species, v = _laser(power_P=60.0), get_species("PFNS8"), 46.0
    z = laser_phase_amplitude(g, species, v) / 2.0
    assert 8000.0 < 2.0 * z < 8600.0
    j = np.abs(np.arange(-DEFAULT_J_MAX, DEFAULT_J_MAX + 1))
    exact = np.exp(1j * z) * 1j ** j * jv(j, z)
    table = grating_coefficients(g, species, v).values
    assert np.max(np.abs(table - exact)) < 1e-13


def test_laser_without_phase_is_speed_free():
    # t = 1 at every speed: the closed form gives exactly b_j = delta_j0 in
    # every row, so a KDTLI with its laser off shows no fringe at all
    species = get_species("PFNS8")
    delta = np.zeros(2 * DEFAULT_J_MAX + 1, dtype=complex)
    delta[DEFAULT_J_MAX] = 1.0
    for g, s in ((_laser(power_P=0.0), species),
                 (_laser(), replace(species, alpha_opt_vol=0.0))):
        table = grating_coefficients(g, s, np.array([[40.0], [75.0]]))
        assert table.values.shape == (2, 1, len(delta))
        for row in table.values:
            assert np.array_equal(row[0], delta)
    cfg = InterferometerConfig(
        grating1=_material(period_d=266e-9), grating2=_laser(power_P=0.0),
        grating3=_material(period_d=266e-9), species=species,
        beam=BeamState(75.0, 0.1), separation_L=0.105)
    assert velocity_averaged_signal(cfg, 12, m_max=1)[1] == 0.0


def test_laser_table_covers_wide_orders():
    # a faint laser's table holds 130 orders of the closed form
    g, species, v = _laser(power_P=1e-4), get_species("PFNS8"), 75.0
    table = grating_coefficients(g, species, v, 130)
    z = laser_phase_amplitude(g, species, v) / 2.0
    assert np.max(np.abs(table.values - _laser_closed_form(z, 130))) < 1e-13
    cfg = InterferometerConfig(
        grating1=_material(period_d=266e-9), grating2=g,
        grating3=_material(period_d=266e-9), species=species,
        beam=BeamState(v, 0.1), separation_L=0.105)
    assert velocity_averaged_signal(cfg, 4, m_max=1, j_max=130).shape == (2,)


def test_talbot_lau_at_zero_xi_is_the_explicit_sum():
    # orders whose every xi is 0 skip exp(0j) = 1: bit for bit the sum of
    # b_j conj(b_(j-m)) exp(i pi (m - 2j) xi) over the same slices, for
    # outer factors (all xi 0) and next to orders with xi != 0, across
    # node-stacked rows
    rng = np.random.default_rng(16)
    j_max = 9
    values = (rng.normal(size=(4, 1, 2 * j_max + 1))
              + 1j * rng.normal(size=(4, 1, 2 * j_max + 1)))
    m = np.arange(-4, 5)
    mixed = np.where(m % 2 == 0, 0.37 * m, 0.0) \
        * np.array([1.0, 2.0, 0.5, 3.0])[:, None]
    for xi in (np.zeros((4, len(m))), mixed):
        got = talbot_lau_coefficient(CoefficientTable(values), m, xi)
        assert got.shape == (4, len(m))
        for r in range(4):
            for k, order in enumerate(m):
                lo, hi = max(-j_max, order - j_max), min(j_max, order + j_max)
                j = np.arange(lo, hi + 1)
                products = values[r, 0, j + j_max] \
                    * np.conj(values[r, 0, j - order + j_max])
                phases = np.exp(1j * np.pi * (order - 2 * j) * xi[r, k])
                assert np.array_equal(got[r, k], np.sum(products * phases))


def _laser(**kw):
    return LaserPhaseGrating(**{**dict(period_d=266e-9, power_P=1.0,
                                       vertical_waist_wy=20e-6,
                                       laser_wavelength=532e-9), **kw})


def _material(**kw):
    return MaterialGrating(**{**dict(period_d=991e-9, open_fraction_f=0.475),
                              **kw})


def _ionizing(**kw):
    return IonizingGrating(**{**dict(period_d=78.5e-9,
                                     mean_absorbed_photons_n0=6.0), **kw})


# field -> (constructor of a valid object with that field set, a finite value)
GUARDS = {
    "material.period_d": (lambda x: _material(period_d=x), 991e-9),
    "material.thickness_b": (lambda x: _material(thickness_b=x), 500e-9),
    "material.wall_cutoff": (lambda x: _material(wall_cutoff=x), 1e-9),
    "laser.period_d": (lambda x: _laser(period_d=x), 266e-9),
    "laser.power_P": (lambda x: _laser(power_P=x), 3.0),
    "laser.vertical_waist_wy": (lambda x: _laser(vertical_waist_wy=x), 2e-5),
    "laser.laser_wavelength": (lambda x: _laser(laser_wavelength=x), 532e-9),
    "ionizing.period_d": (lambda x: _ionizing(period_d=x), 78.5e-9),
    "ionizing.mean_absorbed_photons_n0":
        (lambda x: _ionizing(mean_absorbed_photons_n0=x), 6.0),
    "ionizing.phase_amplitude_phi0":
        (lambda x: _ionizing(phase_amplitude_phi0=x), 0.5),
    "beam.mean_velocity": (lambda x: BeamState(x), 100.0),
    **{f"species.{name}": (lambda x, _name=name: replace(C70, **{_name: x}),
                           getattr(C70, name))
       for name in ("mass", "alpha_stat_vol", "alpha_opt_vol",
                    "c3_coefficient", "dipole_rms")},
    "gold_cluster.mass_amu": (gold_cluster, 1e5),
    "deflection.geometry_constant_K": (
        lambda x: DeflectionField(geometry_constant_K=x,
                                  grad_E_squared=1e13), 1.0),
    "deflection.grad_E_squared": (
        lambda x: DeflectionField(geometry_constant_K=1.0,
                                  grad_E_squared=x), 1e13),
    "config.separation_L": (lambda x: InterferometerConfig(
        grating1=_material(), grating2=_material(), species=C70,
        beam=BeamState(100.0), separation_L=x), 0.22),
    "config.pulse_delay_T": (lambda x: InterferometerConfig(
        grating1=_ionizing(), grating2=_ionizing(), species=C70,
        beam=BeamState(100.0), pulse_delay_T=x), 1e-3),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(GUARDS))
def test_guards_reject_non_finite(field, value):
    # NaN passes range checks such as x <= 0; equal gratings share a table,
    # and NaN would break that equality
    build, finite = GUARDS[field]
    build(finite)
    with pytest.raises(ValueError, match="finite"):
        build(value)


def _sampled_pure_phase(g, species, velocities=(50.0, 100.0, 200.0)):
    # the former sampled check: some node row has a flat |t| (to 1e-12)
    # and a varying arg t (by more than 1e-9 rad)
    samples = grating_transmission(g, species,
                                   np.array(velocities)[:, None]).samples
    amp = np.abs(samples)
    flat = np.max(amp, axis=-1) - np.min(amp, axis=-1) < 1e-12
    if not np.any(flat):
        return False
    phase = np.angle(samples[flat])
    return bool(np.any(np.max(phase, axis=-1) - np.min(phase, axis=-1) > 1e-9))


OUTER_CANDIDATES = (
    [_laser(power_P=p) for p in (0.0, 1e-3, 1.0, 18.0)]
    + [_ionizing(mean_absorbed_photons_n0=n0, phase_amplitude_phi0=phi0)
       for n0 in (0.0, 0.5, 6.0) for phi0 in (0.0, 1.0, 2.0 * math.pi)]
    + [_material(thickness_b=500e-9, interaction=i)
       for i in ("none", "vdw_r3", "casimir_polder_r4")])


@pytest.mark.parametrize("which", ["grating1", "grating3"])
@pytest.mark.parametrize("g", OUTER_CANDIDATES, ids=repr)
def test_config_rejects_what_the_sampled_check_rejected(g, which):
    # the config's exact rule agrees with the sampled |t| and arg t of the
    # grating on every case above both thresholds
    species = get_species("PFNS8") if isinstance(g, LaserPhaseGrating) else C70
    mask = _material(period_d=g.period_d)
    outer = dict(grating1=g, grating3=mask) if which == "grating1" \
        else dict(grating1=mask, grating3=g)

    def build():
        return InterferometerConfig(grating2=g, species=species,
                                    beam=BeamState(100.0), separation_L=0.1,
                                    **outer)
    if _sampled_pure_phase(g, species):
        with pytest.raises(CoherencePreparationError, match=which):
            build()
    else:
        build()


@pytest.mark.parametrize("g, pure", [
    (_laser(power_P=1e-12), True),
    (_ionizing(mean_absorbed_photons_n0=0.0, phase_amplitude_phi0=1e-9), True),
    (_ionizing(mean_absorbed_photons_n0=1e-13, phase_amplitude_phi0=1.0),
     False),
], ids=["laser_1e-12_W", "phi0_1e-9", "n0_1e-13"])
def test_pure_phase_rule_is_exact_below_sampling_thresholds(g, pure):
    # the sampled check misjudged these: its phase and amplitude thresholds
    # hide a faint laser, a faint phase and a faint depletion
    species = get_species("PFNS8") if isinstance(g, LaserPhaseGrating) else C70
    assert is_pure_phase(g) is pure
    assert _sampled_pure_phase(g, species) is not pure
