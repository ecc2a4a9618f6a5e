import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearwave.constants import AMU
from nearwave.gratings import (AliasingError, CoefficientTable,
                               IonizingGrating, LaserPhaseGrating,
                               MAX_ABSORBED_PHOTONS_N0, MaterialGrating,
                               SlitBlockedError, _slit_offsets,
                               fourier_coefficients,
                               ionizing_transmission, laser_phase_amplitude,
                               laser_phase_transmission, material_amplitude,
                               material_slit_phase, material_transmission,
                               transmission_probability_coefficients)
from nearwave.species import get_species

C70 = get_species("C70")


def binary(f, d=991e-9):
    return MaterialGrating(period_d=d, open_fraction_f=f, interaction="none")


def analytic_binary_coefficient(f, j):
    if j == 0:
        return f
    return math.sin(math.pi * j * f) / (math.pi * j)


def test_coefficient_table_order_count():
    # j_max is read from the odd length 2 j_max + 1 of the last axis
    table = CoefficientTable(np.zeros((3, 11), dtype=complex))
    assert table.j_max == 5
    assert table.get(6) == 0.0
    with pytest.raises(ValueError, match="odd"):
        CoefficientTable(np.zeros(10, dtype=complex))


def test_binary_profile_mean():
    p = material_transmission(binary(0.48), C70, 100.0)
    # the sampled mean differs from f only by edge pixels, O(1/grid)
    assert np.mean(np.abs(p.samples) ** 2) == pytest.approx(0.48, abs=1e-3)
    assert np.max(np.abs(p.samples.imag)) == 0.0


def test_binary_coefficients_match_analytic():
    b = fourier_coefficients(material_transmission(binary(0.48), C70, 100.0))
    for j in range(0, 6):
        expected = analytic_binary_coefficient(0.48, j)
        assert b.get(j).real == pytest.approx(expected, abs=1e-6)
        assert abs(b.get(j).imag) < 1e-9


def test_half_open_known_values():
    b = fourier_coefficients(material_transmission(binary(0.5), C70, 100.0))
    assert b.get(0).real == pytest.approx(0.5, abs=1e-9)
    assert b.get(1).real == pytest.approx(1.0 / math.pi, abs=1e-6)
    assert abs(b.get(2)) < 1e-7


def test_fully_open_is_delta():
    g = LaserPhaseGrating(period_d=266e-9, power_P=0.0,
                          vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    b = fourier_coefficients(laser_phase_transmission(g, C70, 100.0))
    assert b.get(0) == pytest.approx(1.0)
    for j in range(1, 5):
        assert abs(b.get(j)) < 1e-12


def test_mirror_symmetry():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    b = fourier_coefficients(material_transmission(g, C70, 100.0))
    for j in range(1, 8):
        assert b.get(-j) == pytest.approx(b.get(j), rel=1e-9, abs=1e-12)


def test_vdw_phase_center_value():
    # two walls at a/2 = 235.4 nm, C3 = 10 meV nm^3, b = 500 nm, v = 100 m/s
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    phi = material_slit_phase(g, C70, 100.0, 0.0)
    assert phi == pytest.approx(0.011652588963932762, rel=1e-9)


def test_phase_monotone_toward_walls():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    a = g.open_fraction_f * g.period_d
    x = np.linspace(0.0, a / 2 - 2e-9, 200)
    phi = material_slit_phase(g, C70, 100.0, x)
    assert np.all(np.diff(phi) > 0.0)


def test_casimir_polder_phase_comparable_to_vdw():
    # the retarded C4/r^4 branch crosses the C3/r^3 branch near
    # r = C4/C3 = 240 nm, so at the slit center (r = 235 nm) the two
    # phases agree within a few percent
    common = dict(period_d=991e-9, open_fraction_f=0.475, thickness_b=500e-9)
    vdw = MaterialGrating(interaction="vdw_r3", **common)
    cp = MaterialGrating(interaction="casimir_polder_r4", **common)
    phi_vdw = material_slit_phase(vdw, C70, 100.0, 0.0)
    phi_cp = material_slit_phase(cp, C70, 100.0, 0.0)
    assert phi_cp == pytest.approx(0.0118946918630317, rel=1e-9)
    assert abs(phi_cp / phi_vdw - 1.0) < 0.05


def test_phase_scales_inverse_velocity():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    assert material_slit_phase(g, C70, 200.0, 0.0) == pytest.approx(
        material_slit_phase(g, C70, 100.0, 0.0) / 2.0)


def test_slit_blocked_error():
    with pytest.raises(SlitBlockedError):
        MaterialGrating(period_d=100e-9, open_fraction_f=0.01,
                        interaction="vdw_r3", wall_cutoff=1e-9)


def test_laser_phase_amplitude_value():
    g = LaserPhaseGrating(period_d=266e-9, power_P=1.0,
                          vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    pf = get_species("PFNS8")
    assert laser_phase_amplitude(g, pf, 75.0) == pytest.approx(
        84.57106385076976, rel=1e-9)


def test_laser_phase_amplitude_scalings():
    base = LaserPhaseGrating(period_d=266e-9, power_P=2.0,
                             vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    pf = get_species("PFNS8")
    phi = laser_phase_amplitude(base, pf, 75.0)
    double_p = LaserPhaseGrating(period_d=266e-9, power_P=4.0,
                                 vertical_waist_wy=20e-6,
                                 laser_wavelength=532e-9)
    wide = LaserPhaseGrating(period_d=266e-9, power_P=2.0,
                             vertical_waist_wy=40e-6, laser_wavelength=532e-9)
    assert laser_phase_amplitude(double_p, pf, 75.0) == pytest.approx(2 * phi)
    assert laser_phase_amplitude(wide, pf, 75.0) == pytest.approx(phi / 2)
    assert laser_phase_amplitude(base, pf, 150.0) == pytest.approx(phi / 2)


def test_laser_period_invariant():
    with pytest.raises(ValueError):
        LaserPhaseGrating(period_d=300e-9, power_P=1.0,
                          vertical_waist_wy=20e-6, laser_wavelength=532e-9)


def test_phase_grating_unitarity():
    g = LaserPhaseGrating(period_d=266e-9, power_P=0.05,
                          vertical_waist_wy=20e-6, laser_wavelength=532e-9)
    b = fourier_coefficients(laser_phase_transmission(g, C70, 100.0), 64)
    assert np.sum(np.abs(b.values) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_ionizing_transmission_examples():
    g = IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=1.0)
    p = ionizing_transmission(g, 1024)
    prob = np.abs(p.samples) ** 2
    assert prob[0] == pytest.approx(math.exp(-1.0), rel=1e-9)  # antinode
    assert prob[512] == pytest.approx(1.0, rel=1e-9)           # node
    trivial = ionizing_transmission(
        IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=0.0), 1024)
    assert np.allclose(trivial.samples, 1.0)


def test_ionizing_grating_absorbs_at_most_1000_photons():
    # its closed-form tables overflow from n0 = 1,418 on (see
    # MAX_ABSORBED_PHOTONS_N0)
    g = IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=1000.0)
    assert g.mean_absorbed_photons_n0 == MAX_ABSORBED_PHOTONS_N0 == 1000.0
    with pytest.raises(ValueError, match="mean_absorbed_photons_n0 must be "
                                         "at most 1000$"):
        IonizingGrating(period_d=78.5e-9, mean_absorbed_photons_n0=1000.5)


def test_aliasing_error():
    p = material_transmission(binary(0.5), C70, 100.0, grid_size=256)
    with pytest.raises(AliasingError):
        fourier_coefficients(p, 200)


def test_probability_coefficients_real():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    p = material_transmission(g, C70, 100.0)
    table = transmission_probability_coefficients(p, 4)
    # |t|^2 of a phase-carrying mask is the same binary window
    assert table.get(0).real == pytest.approx(
        np.mean(np.abs(p.samples) ** 2), abs=1e-12)
    assert abs(table.get(1).imag) < 1e-9


@settings(max_examples=25, deadline=None)
@given(f=st.floats(min_value=0.05, max_value=0.95),
       phi0=st.floats(min_value=0.0, max_value=6.0))
def test_parseval_property(f, phi0):
    d = 991e-9
    mask = material_transmission(binary(f, d), C70, 100.0, 2048)
    laser = laser_phase_transmission(
        LaserPhaseGrating(period_d=266e-9, power_P=0.0,
                          vertical_waist_wy=20e-6, laser_wavelength=532e-9),
        C70, 100.0, 2048)
    samples = mask.samples * np.exp(1j * phi0 * np.cos(
        np.pi * np.arange(2048) / 2048) ** 2)
    for profile in (mask, laser):
        b = fourier_coefficients(profile, profile.grid_size // 2 - 1)
        power = np.sum(np.abs(b.values) ** 2)
        # only the Nyquist bin is dropped from the sum
        assert power == pytest.approx(np.mean(np.abs(profile.samples) ** 2),
                                      abs=1e-6)
    assert np.max(np.abs(samples)) <= 1.0 + 1e-12


def test_grid_convergence():
    # doubling grid size and coefficient count leaves low orders unchanged
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    b1 = fourier_coefficients(material_transmission(g, C70, 100.0, 4096), 64)
    b2 = fourier_coefficients(material_transmission(g, C70, 100.0, 8192), 128)
    # the divergent wall phase keeps edge pixels from converging fast;
    # low orders still agree to a few parts in 1e3
    for j in range(-8, 9):
        assert b1.get(j) == pytest.approx(b2.get(j), abs=2e-3)


@pytest.mark.parametrize("grating", [
    MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                    thickness_b=500e-9, interaction="vdw_r3"),
    MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                    thickness_b=500e-9, interaction="casimir_polder_r4"),
    LaserPhaseGrating(period_d=266e-9, power_P=5.0, vertical_waist_wy=20e-6,
                      laser_wavelength=532e-9),
], ids=["vdw_r3", "casimir_polder_r4", "laser"])
def test_stacked_rows_equal_single_speed_builds(grating):
    # an array of speeds gives, row by row, the samples and the table of a
    # build at that speed alone
    build = (material_transmission if isinstance(grating, MaterialGrating)
             else laser_phase_transmission)
    speeds = np.array([61.0, 80.5, 100.0, 173.25])
    stacked = build(grating, C70, speeds, 1024)
    table = fourier_coefficients(stacked, 32)
    assert stacked.samples.shape == (4, 1024)
    assert table.values.shape == (4, 65)
    for row, v in enumerate(speeds):
        single = build(grating, C70, float(v), 1024)
        assert np.array_equal(stacked.samples[row], single.samples)
        assert np.array_equal(table.values[row],
                              fourier_coefficients(single, 32).values)


@pytest.mark.parametrize("grating", [
    binary(0.475),
    MaterialGrating(period_d=991e-9, open_fraction_f=0.475, thickness_b=0.0,
                    interaction="vdw_r3"),
], ids=["no_interaction", "zero_thickness"])
def test_mask_without_eikonal_phase_gives_one_row(grating):
    single = material_transmission(grating, C70, 100.0, 1024)
    stacked = material_transmission(grating, C70, np.array([[50.0], [200.0]]),
                                    1024)
    assert np.array_equal(stacked.samples, single.samples)
    with pytest.raises(ValueError):
        material_transmission(grating, C70, np.array([100.0, -1.0]), 1024)


@pytest.mark.parametrize("grid_size", [256, 1024, 4096])
def test_batched_fourier_equals_per_row_fft(grid_size):
    # one FFT over the node stack gives each row's table bit for bit as
    # the FFT of that row alone, for complex and real (|t|^2) samples
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    stacked = material_transmission(g, C70, np.linspace(40.0, 400.0, 12),
                                    grid_size)
    j = np.arange(-64, 65)
    for table, samples in (
            (fourier_coefficients(stacked), stacked.samples),
            (transmission_probability_coefficients(stacked, 64),
             np.abs(stacked.samples) ** 2)):
        assert table.values.shape == (12, 129)
        for row, values in zip(samples, table.values):
            expected = np.fft.fft(row)[np.mod(j, grid_size)] / grid_size
            assert np.array_equal(values, expected)


def test_amplitude_is_the_modulus_of_the_transmission():
    # the speed-free open cell fractions are |t| of the mask at any speed
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        thickness_b=500e-9, interaction="vdw_r3")
    amplitude = material_amplitude(g, 1024)
    assert amplitude.min() == 0.0 and amplitude.max() == 1.0
    for v in (50.0, 200.0):
        samples = material_transmission(g, C70, v, 1024).samples
        assert np.allclose(np.abs(samples), amplitude, rtol=1e-15, atol=0.0)
    assert np.array_equal(material_transmission(binary(0.475), C70, 100.0,
                                                1024).samples,
                          material_amplitude(binary(0.475), 1024))


@pytest.mark.parametrize("grid_size", [256, 1024, 4096])
@pytest.mark.parametrize("grating", [
    binary(0.475),
    MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                    thickness_b=500e-9, interaction="vdw_r3"),
    MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                    thickness_b=500e-9, interaction="casimir_polder_r4"),
    LaserPhaseGrating(period_d=266e-9, power_P=5.0, vertical_waist_wy=20e-6,
                      laser_wavelength=532e-9),
], ids=["none", "vdw_r3", "casimir_polder_r4", "laser"])
def test_folded_build_equals_direct_exp_on_symmetric_grid(grating, grid_size):
    # the grid is exactly symmetric about the slit centre, so the samples
    # of masks and lasers are even there, bit for bit: the engine's cosine
    # sum over offsets 0 .. d/2 stands for the whole grid. The sampled
    # profiles are one exp over the whole grid, single speed and stacked
    d = grating.period_d
    x = _slit_offsets(d, grid_size)
    # point N/2 is d/2, its own mirror image modulo one period
    k = np.arange(1, grid_size // 2)
    assert x[0] == 0.0 and x[grid_size // 2] == d / 2.0
    assert np.array_equal(x[k], -x[grid_size - k])
    for v in (100.0, np.array([[61.0], [100.0], [173.25]])):
        v_nodes = np.asarray(v)[..., None]
        if isinstance(grating, MaterialGrating):
            built = material_transmission(grating, C70, v, grid_size)
            direct = material_amplitude(grating, grid_size) * np.exp(
                1j * material_slit_phase(grating, C70, v_nodes, x))
        else:
            built = laser_phase_transmission(grating, C70, v, grid_size)
            phi0 = laser_phase_amplitude(grating, C70, v_nodes)
            direct = np.exp(1j * phi0 * np.cos(np.pi * x / d) ** 2)
        assert built.samples.shape == direct.shape
        assert np.array_equal(built.samples, direct)
        assert np.array_equal(built.samples[..., k],
                              built.samples[..., grid_size - k])
