import numpy as np
import pytest
from hypothesis import given, strategies as st

from nearwave.constants import AMU, HBAR, PLANCK_H
from nearwave.core import (BeamState, MIN_VELOCITY_FRACTION, _unit_rule,
                           bessel_j, talbot_time, velocity_weights)
from oracles import de_broglie_wavelength, talbot_length


def test_constants_consistency():
    assert HBAR == PLANCK_H / (2 * np.pi)


def test_de_broglie_wavelength_c70():
    # h / (840 amu * 100 m/s), evaluated independently
    lam = de_broglie_wavelength(840.0 * AMU, 100.0)
    assert lam == pytest.approx(4.750372278895712e-12, rel=1e-12)


def test_de_broglie_scaling():
    lam = de_broglie_wavelength(840.0 * AMU, 100.0)
    assert de_broglie_wavelength(840.0 * AMU, 200.0) == pytest.approx(lam / 2)
    assert de_broglie_wavelength(1680.0 * AMU, 100.0) == pytest.approx(lam / 2)


def test_talbot_length_value():
    lam = de_broglie_wavelength(840.0 * AMU, 100.0)
    assert talbot_length(991e-9, lam) == pytest.approx(0.20673769177271675,
                                                       rel=1e-12)


def test_talbot_time_value():
    # 1e6 amu cluster behind a 78.5 nm grating
    assert talbot_time(1e6 * AMU, 78.5e-9) == pytest.approx(
        0.015443025249522674, rel=1e-12)


def test_talbot_length_time_consistency():
    # L_T / v equals T_T at the same mass and period
    mass, v, d = 840.0 * AMU, 130.0, 991e-9
    lam = de_broglie_wavelength(mass, v)
    assert talbot_length(d, lam) / v == pytest.approx(talbot_time(mass, d),
                                                      rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_positive_argument_guards(bad):
    with pytest.raises(ValueError):
        de_broglie_wavelength(bad, 100.0)
    with pytest.raises(ValueError):
        talbot_length(bad, 1e-12)
    with pytest.raises(ValueError):
        talbot_time(1.0, bad)


def test_beam_state_invariants():
    with pytest.raises(ValueError):
        BeamState(mean_velocity=0.0)
    with pytest.raises(ValueError):
        BeamState(mean_velocity=100.0, relative_spread=1.5)
    with pytest.raises(ValueError):
        BeamState(mean_velocity=100.0, distribution_shape="lorentzian")


def test_velocity_weights_single_point():
    beam = BeamState(120.0, 0.1)
    assert velocity_weights(beam, 1) == [(120.0, 1.0)]


@given(n=st.integers(min_value=2, max_value=40),
       spread=st.floats(min_value=0.01, max_value=0.4),
       shape=st.sampled_from(["gaussian", "top_hat"]))
def test_velocity_weights_normalized(n, spread, shape):
    beam = BeamState(100.0, spread, shape)
    pairs = velocity_weights(beam, n)
    weights = np.array([w for _, w in pairs])
    velocities = np.array([v for v, _ in pairs])
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights >= 0.0)
    assert np.all(velocities >= MIN_VELOCITY_FRACTION * 100.0)


def test_velocity_weights_reject_an_overflowing_rule():
    # numpy's Gauss-Hermite weights overflow at 400 nodes; the rule raises
    # instead of returning NaN weights, and warns nothing
    with pytest.raises(FloatingPointError, match="not finite"):
        velocity_weights(BeamState(100.0, 0.1), 400)
    pairs = velocity_weights(BeamState(100.0, 0.1, "top_hat"), 400)
    assert np.all(np.isfinite(pairs))


def test_velocity_weights_mean_recovered():
    beam = BeamState(100.0, 0.1, "gaussian")
    pairs = velocity_weights(beam, 16)
    mean = sum(v * w for v, w in pairs)
    assert mean == pytest.approx(100.0, rel=1e-6)


def test_velocity_weights_deterministic():
    beam = BeamState(75.0, 0.1)
    assert velocity_weights(beam, 12) == velocity_weights(beam, 12)


@pytest.mark.parametrize("shape", ["gaussian", "top_hat"])
def test_velocity_weights_cached_nodes(shape):
    # the cached rule gives the numbers of a fresh Gauss rule bit for bit
    beam = BeamState(75.0, 0.1, shape)
    rule = (np.polynomial.hermite_e.hermegauss if shape == "gaussian"
            else np.polynomial.legendre.leggauss)
    nodes, weights = rule(12)
    expected = np.maximum(75.0 + 0.1 * 75.0 * nodes,
                          MIN_VELOCITY_FRACTION * 75.0)
    expected = list(zip(expected.tolist(), (weights / weights.sum()).tolist()))
    pairs = velocity_weights(beam, 12)
    assert pairs == expected
    # a caller can change its own list but not the shared nodes
    pairs[0] = (0.0, 0.0)
    cached = _unit_rule(shape, 12)
    assert _unit_rule(shape, 12) is cached
    for array in cached:
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert velocity_weights(beam, 12) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 16, 40, 100, 400])
def test_gaussian_rule_has_the_bits_of_numpy_polynomial(n):
    # the Gaussian rule is built without numpy.polynomial, and numpy's rule
    # is its oracle: the same nodes and normalised weights bit for bit,
    # signed zeros included; the 400-node weights overflow in both
    with np.errstate(all="ignore"):
        nodes, weights = np.polynomial.hermite_e.hermegauss(n)
        weights = weights / weights.sum()
    if not np.isfinite((nodes, weights)).all():
        assert n == 400
        with pytest.raises(FloatingPointError, match="400-node"):
            _unit_rule("gaussian", n)
        return
    ported = _unit_rule("gaussian", n)
    for got, want in zip(ported, (nodes, weights)):
        assert got.dtype == want.dtype and got.shape == (n,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_bessel_j_matches_scipy(n):
    # absolute error: a relative one means nothing near the zeros
    from scipy.special import jv
    x = np.concatenate([np.linspace(-3000.0, 3000.0, 6001),
                        np.linspace(-20.0, 20.0, 801)])
    for chunk in np.array_split(x, 16):
        assert np.max(np.abs(bessel_j(n, chunk) - jv(n, chunk))) < 1e-13
    assert bessel_j(n, 975.3) == pytest.approx(jv(n, 975.3), rel=0.0,
                                               abs=1e-13)


def test_bessel_j_many_orders_match_scipy():
    # one call for many orders: shape(x) + shape(n), negative orders by
    # J_-n = (-1)^n J_n, absolute 1e-13 over |n| <= 130 and |x| <= 2e4,
    # and exactly delta_n0 at x = 0
    from scipy.special import jv
    orders = np.arange(-130, 131)
    x = np.concatenate([np.linspace(-2e4, 2e4, 401),
                        np.linspace(-40.0, 40.0, 161), [0.0, 975.3]])
    for chunk in np.array_split(x, 8):
        table = bessel_j(orders, chunk)
        assert table.shape == chunk.shape + orders.shape
        assert np.max(np.abs(table - jv(orders, chunk[:, None]))) < 1e-13
    scattered = np.array([7, -3, 0, 130, -130, 64])
    value = bessel_j(scattered, 1234.5)
    assert value.shape == scattered.shape
    assert np.max(np.abs(value - jv(scattered, 1234.5))) < 1e-13
    assert np.array_equal(bessel_j(orders, 0.0), orders == 0)
    grid = np.linspace(-2e4, 2e4, 9).reshape(3, 3)
    assert bessel_j(np.array([2]), grid).shape == (3, 3, 1)
    assert np.max(np.abs(bessel_j(-7, grid) - jv(-7, grid))) < 1e-13


def test_bessel_j_shape_and_finite_input():
    assert bessel_j(2, np.zeros((3, 4))).shape == (3, 4)
    assert np.ndim(bessel_j(2, 1.5)) == 0
    assert bessel_j(0, 0.0) == 1.0
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            bessel_j(2, np.array([1.0, bad]))


def test_bessel_j_complex_argument_matches_scipy():
    # the same rule at complex z, as an ionizing grating's table reads it
    # (|Im z| = n0 / 4 <= 250): its terms grow like e^|Im z|, so the error
    # is absolute on that scale; scipy's complex jv itself errs by about
    # 2e-14 of it near |z| = 650. A real z keeps a real result
    from scipy.special import jv
    orders = np.arange(-64, 65)
    imag = np.array([-250.0, -20.0, -1e-3, 0.0, 1e-3, 3.0, 250.0])
    z = (np.linspace(-800.0, 800.0, 41)[:, None] + 1j * imag).ravel()
    for chunk in np.array_split(z, 8):
        table = bessel_j(orders, chunk)
        assert table.dtype == complex
        scale = np.exp(np.abs(chunk.imag))[:, None]
        assert np.max(np.abs(table - jv(orders, chunk[:, None])) / scale) \
            < 1e-13
    assert np.array_equal(bessel_j(orders, 0j), orders == 0)
    assert bessel_j(orders, 975.3).dtype == float
