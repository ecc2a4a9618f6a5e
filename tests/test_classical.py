import importlib.resources

import numpy as np
import pytest

from nearwave.classical import (_central_grid, _kick_shape, _kick_strength,
                                _mask_window, classical_visibility_quadrature)
from nearwave.constants import HBAR
from nearwave.core import BeamState, velocity_weights
from nearwave.engine import InterferometerConfig
from nearwave.gratings import (IonizingGrating, LaserPhaseGrating,
                               MaterialGrating, _wall_coefficient,
                               ionizing_transmission, laser_phase_amplitude,
                               material_amplitude, material_slit_phase,
                               transmission_probability_coefficients)
from nearwave.scenario import apply_sweep_value, load_scenario
from nearwave.species import get_species
from oracles import (AbsorbedRayError, DegenerateEnsembleError, RayEnsemble,
                     StatisticsError, classical_visibility, deflection_kick,
                     grating_transmission)

C70 = get_species("C70")
PFNS8 = get_species("PFNS8")


def binary(f=0.475, d=991e-9):
    return MaterialGrating(period_d=d, open_fraction_f=f, interaction="none")


def vdw_mask():
    return MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                           thickness_b=500e-9, interaction="vdw_r3")


def tli_config(grating, v=100.0, spread=0.0):
    return InterferometerConfig(
        grating1=grating, grating2=grating, grating3=grating, species=C70,
        beam=BeamState(v, spread), separation_L=0.22)


def test_laser_kick_value():
    # hbar phi0 pi sin(2 pi x / d) / (m v d), frozen by hand for PFNS8
    # at 1 W, 75 m/s, x = d/8
    g = LaserPhaseGrating(period_d=266e-9, power_P=1.0,
                          vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    kick = deflection_kick(g, PFNS8, 75.0, 266e-9 / 8.0)
    assert kick == pytest.approx(-0.00010543980888040152, rel=1e-9)
    # nodes of the standing wave give no force
    assert deflection_kick(g, PFNS8, 75.0, 0.0) == 0.0
    assert deflection_kick(g, PFNS8, 75.0, 266e-9 / 2.0) == pytest.approx(
        0.0, abs=1e-18)


def test_material_kick_value_and_symmetry():
    g = vdw_mask()
    # dominated by the nearer wall, pulling the molecule toward it
    assert deflection_kick(g, C70, 100.0, 100e-9) == pytest.approx(
        4.9957071399378044e-05, rel=1e-9)
    assert deflection_kick(g, C70, 100.0, -100e-9) == pytest.approx(
        -4.9957071399378044e-05, rel=1e-9)
    assert deflection_kick(g, C70, 100.0, 0.0) == 0.0
    # both the potential and the impulse scale as 1/v
    assert deflection_kick(g, C70, 200.0, 100e-9) == pytest.approx(
        deflection_kick(g, C70, 100.0, 100e-9) / 2.0)


@pytest.mark.parametrize("g", [
    vdw_mask(),
    MaterialGrating(period_d=991e-9, open_fraction_f=0.4, thickness_b=300e-9,
                    interaction="casimir_polder_r4"),
    IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=6.0,
                    phase_amplitude_phi0=1.2),
    IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=0.0,
                    phase_amplitude_phi0=-0.4),
], ids=["vdw_r3", "casimir_polder_r4", "ionizing", "ionizing_no_depletion"])
def test_kick_is_phase_gradient(g):
    # dimensional oracle: m dv / hbar is the x derivative of the grating
    # phase, by central differences of material_slit_phase for a mask and
    # of the unwrapped arg t(x) of the sampled ionizing transmission
    d = g.period_d
    for v in (60.0, 100.0, 240.0):
        if isinstance(g, MaterialGrating):
            x = np.array([-150e-9, -40e-9, 5e-9, 90e-9, 170e-9])
            h = 1e-12
            gradient = (material_slit_phase(g, C70, v, x + h)
                        - material_slit_phase(g, C70, v, x - h)) / (2.0 * h)
        else:
            n = 1 << 16
            phase = np.unwrap(np.angle(ionizing_transmission(g, n).samples))
            k = np.array([1, 3000, 9000, 20000, 41000, 60000])
            x = k * d / n
            gradient = (phase[k + 1] - phase[k - 1]) / (2.0 * d / n)
        kick = np.array([deflection_kick(g, C70, v, xi) for xi in x])
        np.testing.assert_allclose(C70.mass * kick / HBAR, gradient,
                                   rtol=1e-6, atol=0.0)


def test_kick_on_bar_is_absorbed():
    with pytest.raises(AbsorbedRayError):
        deflection_kick(vdw_mask(), C70, 100.0, 991e-9 / 2.0)


def test_interaction_free_mask_gives_no_kick():
    assert deflection_kick(binary(), C70, 100.0, 100e-9) == 0.0


@pytest.mark.parametrize("g", [
    vdw_mask(), binary(),
    LaserPhaseGrating(period_d=266e-9, power_P=1.0, vertical_waist_wy=20e-6,
                      laser_wavelength=532e-9),
    IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=6.0,
                    phase_amplitude_phi0=1.2),
], ids=["vdw_r3", "none", "laser", "ionizing"])
def test_kick_strength_per_speed_scales_one_shape(g):
    # one strength per speed from one call, each the scalar one bit for
    # bit; the twin's cached shape is read-only, and the kick is their
    # product
    speeds = np.array([60.0, 100.0, 240.0])
    strengths = _kick_strength(g, C70, speeds)
    assert strengths.shape == speeds.shape
    assert [float(_kick_strength(g, C70, v)) for v in speeds] \
        == strengths.tolist()
    shape = _central_grid(g, C70)[3]
    assert not shape.flags.writeable
    x = 0.3 * g.period_d / 2.0
    assert deflection_kick(g, C70, 100.0, x) == float(
        _kick_strength(g, C70, 100.0) * _kick_shape(g, C70, x))


def test_monte_carlo_is_deterministic():
    cfg = tli_config(binary())
    ens = RayEnsemble(count=100_000, seed=42)
    a = classical_visibility(cfg, ens)
    b = classical_visibility(cfg, ens)
    assert a.visibility == b.visibility
    assert a.fringe_phase == b.fringe_phase
    assert np.array_equal(a.histogram, b.histogram)
    c = classical_visibility(cfg, RayEnsemble(count=100_000, seed=43))
    assert c.visibility != a.visibility


def test_monte_carlo_agrees_with_quadrature():
    cfg = tli_config(vdw_mask())
    quad = classical_visibility_quadrature(cfg)
    mc = classical_visibility(cfg, RayEnsemble(count=400_000, seed=7))
    assert mc.stat_error > 0.0
    assert abs(mc.visibility - quad) < 3.0 * mc.stat_error + 0.005


def test_moire_visibility_velocity_independent_without_forces():
    # straight shadow rays: the moire contrast cannot depend on speed
    v100 = classical_visibility_quadrature(tli_config(binary(), v=100.0))
    v200 = classical_visibility_quadrature(tli_config(binary(), v=200.0))
    assert v100 == pytest.approx(v200, rel=1e-9)


def test_forces_introduce_velocity_dependence():
    v100 = classical_visibility_quadrature(tli_config(vdw_mask(), v=100.0))
    v200 = classical_visibility_quadrature(tli_config(vdw_mask(), v=200.0))
    assert abs(v100 - v200) > 1e-3


def test_velocity_averaged_quadrature():
    cfg = tli_config(vdw_mask(), spread=0.2)
    averaged = classical_visibility_quadrature(cfg, n_velocities=16)
    single = classical_visibility_quadrature(cfg)
    assert 0.0 <= averaged <= 1.0
    assert averaged != pytest.approx(single, rel=1e-6)


def test_quadrature_needs_a_velocity_node():
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        classical_visibility_quadrature(tli_config(binary()), n_velocities=0)


def test_degenerate_ensemble_rejected():
    cfg = tli_config(binary())
    ens = RayEnsemble(count=10_000, divergence_window=1e-9)
    with pytest.raises(DegenerateEnsembleError):
        classical_visibility(cfg, ens)


def test_too_few_survivors():
    narrow = binary(f=0.05)
    cfg = tli_config(narrow)
    with pytest.warns(UserWarning):
        with pytest.raises(StatisticsError):
            classical_visibility(cfg, RayEnsemble(count=2000, seed=1))


def test_transverse_acceleration_shifts_fringe():
    # rays pinned by the first two masks arrive at x3 = 2 x2 - x1 + a T^2,
    # so a constant transverse force displaces the moire fringe by a T^2
    cfg = tli_config(binary())
    ens = RayEnsemble(count=400_000, seed=11)
    t_flight = 0.22 / 100.0
    a_ext = 0.1 * 991e-9 / (2.0 * t_flight ** 2)
    rest = classical_visibility(cfg, ens)
    pushed = classical_visibility(cfg, ens, transverse_acceleration=a_ext)
    dphi = (pushed.fringe_phase - rest.fringe_phase + np.pi) % (2 * np.pi) - np.pi
    expected = 2.0 * np.pi * a_ext * t_flight ** 2 / 991e-9
    assert abs(dphi) == pytest.approx(expected, rel=0.1)
    assert pushed.visibility == pytest.approx(rest.visibility, abs=0.02)


def test_time_domain_config_rejected():
    from nearwave.gratings import IonizingGrating
    g = IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=1.0)
    cfg = InterferometerConfig(
        grating1=g, grating2=g, grating3=g,
        species=get_species("gold_cluster", mass_amu=1e6),
        beam=BeamState(100.0, 0.0), pulse_delay_T=1e-3, mode="time_domain")
    with pytest.raises(ValueError):
        classical_visibility_quadrature(cfg)
    with pytest.raises(ValueError):
        classical_visibility(cfg, RayEnsemble(count=10_000))


def test_config_with_channels_rejected():
    # the twin models no decoherence: a config that carries a channel, alone
    # or in a block, is refused rather than given a visibility without it
    from dataclasses import replace
    from nearwave.decoherence import csl_channel
    cfg = tli_config(vdw_mask())
    decohered = replace(cfg, channels=(csl_channel(1e-10, 1e-7, C70.mass),))
    for arg in (decohered, [cfg, decohered]):
        with pytest.raises(ValueError, match="no decoherence channels"):
            classical_visibility_quadrature(arg)


def _speed_free_window(g):
    """Coefficients 0 and 1 of |t|^2 of a mask: its squared open cell
    fractions, which no speed changes."""
    if g is None:
        return 1.0, 1.0 + 0.0j
    probability = material_amplitude(g) ** 2
    spectrum = np.fft.fft(probability) / probability.size
    return spectrum[0].real, spectrum[1]


def _central_samples(g2, s, v, x):
    """|t(x)|^2 and the kick of the central grating at positions x and
    speed v, written out from the grating formulas."""
    d = g2.period_d
    if isinstance(g2, MaterialGrating):
        offset = np.mod(x + d / 2.0, d) - d / 2.0
        cutoff = g2.wall_cutoff if g2.interaction != "none" else 0.0
        t2 = (np.abs(offset) < g2.open_fraction_f * d / 2.0
              - cutoff).astype(float)
        coeff, power = _wall_coefficient(g2, s)
        a = g2.open_fraction_f * d
        r_plus = np.maximum(a / 2.0 - offset, g2.wall_cutoff)
        r_minus = np.maximum(a / 2.0 + offset, g2.wall_cutoff)
        scale = g2.thickness_b * coeff * power / (s.mass * v)
        return t2, scale * (r_plus ** -(power + 1) - r_minus ** -(power + 1))
    shape = (np.pi / d) * np.sin(2.0 * np.pi * x / d)
    if isinstance(g2, IonizingGrating):
        t2 = np.exp(-g2.mean_absorbed_photons_n0
                    * np.cos(np.pi * x / d) ** 2)
        return t2, -(HBAR / s.mass) * g2.phase_amplitude_phi0 * shape
    return np.ones_like(x), \
        -(HBAR / (s.mass * v)) * laser_phase_amplitude(g2, s, v) * shape


def _per_node_quadrature(cfg, n_velocities, n_grid=1 << 14, fold=True):
    """The quadrature twin written out node by node: survival mask, kick
    and both (speed-free) outer windows rebuilt at every speed. ``fold``
    sums the half period 0 < x < d/2 as 2 sum |t|^2 cos(phi) / N, as the
    twin does; otherwise the full period as sum |t|^2 exp(i phi) / N."""
    d = cfg.period_d
    x = (np.arange(n_grid // 2 if fold else n_grid) + 0.5) * d / n_grid

    numerator, denominator = 0.0 + 0.0j, 0.0
    for v, w in velocity_weights(cfg.beam, n_velocities):
        t_flight = cfg.separation_L / v
        t2, kick = _central_samples(cfg.grating2, cfg.species, v, x)
        # phases reach 1e8 rad next to the walls: round as the twin does
        phase = -(2.0 * np.pi / d) * (2.0 * x + kick * t_flight)
        q0 = t2.mean()
        if fold:
            q1 = 2.0 * np.sum(t2 * np.cos(phase)) / n_grid
        else:
            q1 = np.sum(t2 * np.exp(1j * phase)) / n_grid
        t1_0, t1_1 = _speed_free_window(cfg.grating1)
        t3_0, t3_1 = _speed_free_window(cfg.grating3)
        numerator += w * t1_1 * q1 * np.conj(t3_1)
        denominator += w * t1_0 * q0 * t3_0
    return float(2.0 * abs(numerator) / denominator)


def _vdw_cases():
    cp = MaterialGrating(period_d=991e-9, open_fraction_f=0.4,
                         thickness_b=300e-9, interaction="casimir_polder_r4")
    return [
        tli_config(vdw_mask(), spread=0.2),
        InterferometerConfig(grating1=vdw_mask(), grating2=vdw_mask(),
                             grating3=cp, species=C70,
                             beam=BeamState(120.0, 0.15, "top_hat"),
                             separation_L=0.2),
        InterferometerConfig(grating1=vdw_mask(), grating2=vdw_mask(),
                             species=C70, beam=BeamState(100.0, 0.2),
                             separation_L=0.22),
    ]


def test_quadrature_equals_per_node_formula():
    # the hoisted survival mask and kick shape, the open-cell evaluation,
    # the speed-free windows and the one weighted sum give the per-node
    # half-period cosine sum up to rounding; a laser grating2 takes the
    # Bessel closed form of the sampled central integral, equal to it up
    # to rounding. A wall-free mask and an ionizing grating2 are checked
    # against the full-period complex sum: the fold of cell N-1-k onto
    # cell k holds for them up to rounding
    laser = LaserPhaseGrating(period_d=266e-9, power_P=7.0,
                              vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    outer = MaterialGrating(period_d=266e-9, open_fraction_f=0.42)
    ionizing = IonizingGrating(period_d=991e-9, mean_absorbed_photons_n0=2.0,
                               phase_amplitude_phi0=3.0)
    folded = _vdw_cases() + [
        InterferometerConfig(grating1=outer, grating2=laser, grating3=outer,
                             species=PFNS8, beam=BeamState(75.0, 0.1),
                             separation_L=0.105),
    ]
    full_period = [
        tli_config(binary(), spread=0.2),
        InterferometerConfig(grating1=vdw_mask(), grating2=ionizing,
                             grating3=vdw_mask(), species=C70,
                             beam=BeamState(100.0, 0.2), separation_L=0.22),
    ]
    for cases, fold in ((folded, True), (full_period, False)):
        for cfg in cases:
            for n in (1, 12):
                value = classical_visibility_quadrature(cfg, n_velocities=n)
                oracle = _per_node_quadrature(cfg, n, fold=fold)
                assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)


def _long_double_quadrature(cfg, n_velocities, n_grid=1 << 14):
    """The twin of a material grating2 in long double throughout, on the
    half-period offsets (k + 1/2) d / N from the slit centre: the reference
    for the rounding of the double-precision sum."""
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    s, g2 = cfg.species, cfg.grating2
    d, length = ld(g2.period_d), ld(cfg.separation_L)
    x = (np.arange(n_grid // 2, dtype=ld) + ld(0.5)) * d / ld(n_grid)
    a = ld(g2.open_fraction_f) * d
    t2 = (x < a / 2 - ld(g2.wall_cutoff)).astype(ld)
    coeff, power = _wall_coefficient(g2, s)
    r_plus = np.maximum(a / 2 - x, ld(g2.wall_cutoff))
    r_minus = np.maximum(a / 2 + x, ld(g2.wall_cutoff))
    shape = r_plus ** -(power + 1) - r_minus ** -(power + 1)
    q1 = ld(0)
    for v, w in velocity_weights(cfg.beam, n_velocities):
        v = ld(v)
        kick = ld(g2.thickness_b) * ld(coeff) * power / (ld(s.mass) * v) \
            * shape
        phase = 2 * pi * (2 * x + kick * length / v) / d
        q1 += ld(w) * 2 * np.sum(t2 * np.cos(phase)) / n_grid
    t1_0, t1_1 = _speed_free_window(cfg.grating1)
    t3_0, t3_1 = _speed_free_window(cfg.grating3)
    windows = ld(2 * abs(t1_1 * np.conj(t3_1)) / (t1_0 * t3_0))
    return windows * abs(q1) / np.mean(t2)


def test_quadrature_against_long_double():
    # the folded real sum rounds within 8.3e-8 of the same integral in long
    # double at 82.5 m/s on the bundled C70 sweep (the full-period complex
    # sum erred by 1.7e-7 there); the vdW cases are closer
    scenario = load_scenario(str(importlib.resources.files("nearwave")
                                 / "data" / "c70_tli_velocity_sweep.cfg"))
    for cfg in [apply_sweep_value(scenario, 82.5)] + _vdw_cases():
        value = classical_visibility_quadrature(cfg, n_velocities=12)
        oracle = _long_double_quadrature(cfg, 12)
        assert value == pytest.approx(float(oracle), rel=1e-7, abs=0.0)


@pytest.mark.parametrize("interaction", ["none", "vdw_r3",
                                         "casimir_polder_r4"])
def test_speed_free_window_equals_window_at_each_speed(interaction):
    # |t|^2 of a mask drops its eikonal phase, so the window built once
    # equals the window of the transmission sampled at each speed, up to
    # the rounding of |amp exp(i phi)|^2
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction=interaction)
    w0, w1 = _speed_free_window(g)
    for v in (42.0, 100.0, 180.0, 400.0):
        table = transmission_probability_coefficients(
            grating_transmission(g, C70, v), 1)
        assert table.get(0).real == pytest.approx(w0, rel=1e-15, abs=0.0)
        assert table.get(1) == pytest.approx(w1, rel=1e-15, abs=0.0)
        if interaction == "none":
            assert (table.get(0).real, table.get(1)) == (w0, w1)


@pytest.mark.parametrize("n0", [1e-3, 0.5, 6.0, 1000.0])
def test_ionizing_window_is_the_modified_bessel_closed_form(n0):
    # |t|^2 = exp(-n0 cos^2(pi x / d)) has the coefficients
    # e^(-n0/2) I_0(n0/2) and -e^(-n0/2) I_1(n0/2), whatever the phase;
    # finite at the largest n0
    import mpmath
    half = mpmath.mpf(n0) / 2
    for phi0 in (0.0, 40.0):
        c0, c1 = _mask_window(IonizingGrating(
            period_d=78.5e-9, mean_absorbed_photons_n0=n0,
            phase_amplitude_phi0=phi0))
        assert c0 == pytest.approx(
            float(mpmath.exp(-half) * mpmath.besseli(0, half)), abs=1e-15)
        assert c1 == pytest.approx(
            -float(mpmath.exp(-half) * mpmath.besseli(1, half)), abs=1e-15)


def test_window_of_an_unknown_grating_is_a_type_error():
    with pytest.raises(TypeError, match="unsupported grating type object"):
        _mask_window(object())
