import numpy as np
import pytest

from nearwave.constants import AMU
from nearwave.gratings import MaterialGrating, material_transmission
from nearwave.species import get_species
from oracles import (UndersamplingError, de_broglie_wavelength,
                     fresnel_propagate, incoherent_source_pattern,
                     talbot_length, tile_profile)

C70 = get_species("C70")
LAM = de_broglie_wavelength(840.0 * AMU, 100.0)


def test_double_slit_fringe_period():
    # two coherently illuminated slits separated by s produce fringes of
    # period lambda L / s on a distant screen
    s, width = 2e-6, 0.2e-6
    lam, L = 5e-9, 1.0
    x = np.linspace(-s / 2 - width, s / 2 + width, 4000)
    t = ((np.abs(x - s / 2) < width / 2) |
         (np.abs(x + s / 2) < width / 2)).astype(complex)
    expected_period = lam * L / s
    screen = np.linspace(-3 * expected_period, 3 * expected_period, 1201)
    intensity = fresnel_propagate(x, t, lam, L, screen)
    spacing = screen[1] - screen[0]
    spectrum = np.abs(np.fft.rfft(intensity - intensity.mean()))
    freq = np.fft.rfftfreq(len(screen), spacing)
    peak = freq[np.argmax(spectrum)]
    assert 1.0 / peak == pytest.approx(expected_period, rel=0.02)


def test_propagation_conserves_positivity_and_normalization():
    s, width = 2e-6, 0.2e-6
    x = np.linspace(-s, s, 3000)
    t = (np.abs(x) < width).astype(complex)
    screen = np.linspace(-1e-5, 1e-5, 301)
    intensity = fresnel_propagate(x, t, 5e-9, 0.5, screen)
    assert np.all(intensity >= 0.0)
    assert intensity.mean() == pytest.approx(1.0, rel=1e-12)


def test_undersampling_rejected():
    x = np.linspace(-1e-4, 1e-4, 64)
    t = np.ones_like(x, dtype=complex)
    screen = np.linspace(-1e-4, 1e-4, 32)
    with pytest.raises(UndersamplingError) as err:
        fresnel_propagate(x, t, LAM, 0.2, screen)
    assert err.value.required > err.value.actual


def test_tile_profile_geometry():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        interaction="none")
    p = material_transmission(g, C70, 100.0, 1024)
    x, t = tile_profile(p, 10, samples_per_period=256)
    assert len(x) == len(t) == 2560
    assert x[0] == pytest.approx(-5 * 991e-9, rel=1e-3)
    assert np.allclose(np.diff(x), 991e-9 / 256)
    # downsampling must divide the native grid
    with pytest.raises(ValueError):
        tile_profile(p, 4, samples_per_period=300)


def test_talbot_carpet_revival_against_direct_propagation():
    # a wide coherently illuminated grating reimages itself (shifted by
    # half a period) one Talbot length downstream
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        interaction="none")
    p = material_transmission(g, C70, 100.0, 1024)
    x, t = tile_profile(p, 200, samples_per_period=256)
    L_T = talbot_length(991e-9, LAM)
    screen = np.linspace(-991e-9, 991e-9, 161)
    intensity = fresnel_propagate(x, t, LAM, L_T, screen)
    # transmission profile starts at the slit center; the revival is
    # displaced by d/2, so intensity peaks at odd multiples of d/2
    half = 991e-9 / 2.0
    on_bar = intensity[np.abs(np.abs(screen) - half) < 991e-9 / 20]
    on_slit = intensity[np.abs(screen) < 991e-9 / 20]
    assert on_bar.mean() > 2.0 * on_slit.mean()


def test_incoherent_source_pattern_period_and_contrast():
    g = MaterialGrating(period_d=991e-9, open_fraction_f=0.475,
                        interaction="none")
    p = material_transmission(g, C70, 100.0, 1024)
    L = talbot_length(991e-9, LAM)
    d = 991e-9
    screen = np.linspace(-2 * d, 2 * d, 257)
    pattern = incoherent_source_pattern(p, p, LAM, L, 80, screen,
                                        n_source=24, samples_per_period=64)
    assert pattern.mean() == pytest.approx(1.0, rel=1e-12)
    # d-periodic fringe: correlate the two halves one period apart
    spacing = screen[1] - screen[0]
    shift = int(round(d / spacing))
    a, b = pattern[:-shift], pattern[shift:]
    r = np.corrcoef(a, b)[0, 1]
    assert r > 0.8
    assert pattern.max() - pattern.min() > 0.1
