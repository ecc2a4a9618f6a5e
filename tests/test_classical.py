import numpy as np
import pytest

from nearwave.classical import (AbsorbedRayError, DegenerateEnsembleError,
                                RayEnsemble, StatisticsError,
                                classical_visibility,
                                classical_visibility_quadrature,
                                deflection_kick)
from nearwave.constants import HBAR
from nearwave.core import BeamState, velocity_weights
from nearwave.engine import InterferometerConfig, grating_transmission
from nearwave.gratings import (LaserPhaseGrating, MaterialGrating,
                               _wall_coefficient, laser_phase_amplitude,
                               material_amplitude,
                               transmission_probability_coefficients)
from nearwave.species import get_species

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


def test_kick_on_bar_is_absorbed():
    with pytest.raises(AbsorbedRayError):
        deflection_kick(vdw_mask(), C70, 100.0, 991e-9 / 2.0)


def test_interaction_free_mask_gives_no_kick():
    assert deflection_kick(binary(), C70, 100.0, 100e-9) == 0.0


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


def _speed_free_window(g):
    """Coefficients 0 and 1 of |t|^2 of a mask: its squared open cell
    fractions, which no speed changes."""
    if g is None:
        return 1.0, 1.0 + 0.0j
    probability = material_amplitude(g) ** 2
    spectrum = np.fft.fft(probability) / probability.size
    return spectrum[0].real, spectrum[1]


def _per_node_quadrature(cfg, n_velocities, n_grid=1 << 14):
    """The quadrature twin written out node by node: survival mask, kick
    and both (speed-free) outer windows rebuilt at every speed."""
    s, d, g2 = cfg.species, cfg.period_d, cfg.grating2
    x = (np.arange(n_grid) + 0.5) * d / n_grid

    numerator, denominator = 0.0 + 0.0j, 0.0
    for v, w in velocity_weights(cfg.beam, n_velocities):
        t_flight = cfg.separation_L / v
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
            kick = scale * (r_plus ** -(power + 1) - r_minus ** -(power + 1))
        else:
            t2 = np.ones_like(x)
            kick = -(HBAR / (s.mass * v)) * laser_phase_amplitude(g2, s, v) \
                * (np.pi / d) * np.sin(2.0 * np.pi * x / d)
        q0 = t2.mean()
        q1 = np.mean(t2 * np.exp(-2j * np.pi * (2.0 * x + kick * t_flight) / d))
        t1_0, t1_1 = _speed_free_window(cfg.grating1)
        t3_0, t3_1 = _speed_free_window(cfg.grating3)
        numerator += w * t1_1 * q1 * np.conj(t3_1)
        denominator += w * t1_0 * q0 * t3_0
    return float(2.0 * abs(numerator) / denominator)


def test_quadrature_equals_per_node_formula():
    # the hoisted survival mask and kick shape, the open-cell evaluation
    # and the speed-free windows give the per-node numbers bit for bit;
    # a laser grating2 takes the Bessel closed form of the sampled central
    # integral, equal to it up to rounding
    cp = MaterialGrating(period_d=991e-9, open_fraction_f=0.4,
                         thickness_b=300e-9, interaction="casimir_polder_r4")
    laser = LaserPhaseGrating(period_d=266e-9, power_P=7.0,
                              vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    outer = MaterialGrating(period_d=266e-9, open_fraction_f=0.42)
    cases = [
        tli_config(vdw_mask(), spread=0.2),
        InterferometerConfig(grating1=vdw_mask(), grating2=vdw_mask(),
                             grating3=cp, species=C70,
                             beam=BeamState(120.0, 0.15, "top_hat"),
                             separation_L=0.2),
        InterferometerConfig(grating1=vdw_mask(), grating2=vdw_mask(),
                             species=C70, beam=BeamState(100.0, 0.2),
                             separation_L=0.22),
        InterferometerConfig(grating1=outer, grating2=laser, grating3=outer,
                             species=PFNS8, beam=BeamState(75.0, 0.1),
                             separation_L=0.105),
    ]
    for cfg in cases:
        for n in (1, 12):
            value = classical_visibility_quadrature(cfg, n_velocities=n)
            if isinstance(cfg.grating2, LaserPhaseGrating):
                assert value == pytest.approx(_per_node_quadrature(cfg, n),
                                              rel=1e-12, abs=0.0)
            else:
                assert value == _per_node_quadrature(cfg, n)


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
