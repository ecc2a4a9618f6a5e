import cmath
import math

import numpy as np
import pytest

from nearwave.constants import AMU, BOLTZMANN_KB
from nearwave.metrology import DeflectionField, stark_fringe_shift
from nearwave.species import get_species
from oracles import (ShiftDistribution, shift_dephasing_factor,
                     total_polarizability)

C70 = get_species("C70")


def test_stark_shift_frozen_value():
    # K = 1, d(E^2)/dx = 1e13 V^2/m^3, alpha = 100e-30 cm^3-convention
    # (4 pi eps0 * 100e-30 m^3 in SI), 840 amu at 100 m/s
    alpha_si = 4.0 * math.pi * 8.8541878128e-12 * 100e-30
    fld = DeflectionField(geometry_constant_K=1.0, grad_E_squared=1e13)
    shift = stark_fringe_shift(fld, alpha_si, 840.0 * AMU, 100.0)
    assert shift == pytest.approx(3.988413840978835e-6, rel=1e-9)


def test_stark_shift_scalings():
    fld = DeflectionField(geometry_constant_K=2.0, grad_E_squared=5e12)
    base = stark_fringe_shift(fld, 1e-39, C70.mass, 100.0)
    assert stark_fringe_shift(fld, 2e-39, C70.mass, 100.0) == pytest.approx(
        2.0 * base)
    assert stark_fringe_shift(fld, 1e-39, C70.mass, 200.0) == pytest.approx(
        base / 4.0)
    with pytest.raises(ValueError):
        stark_fringe_shift(fld, 1e-39, C70.mass, 0.0)


def test_total_polarizability_thermal_term():
    alpha = 1e-39
    d_rms = 5e-30  # C m
    t = 500.0
    expected = alpha + d_rms ** 2 / (3.0 * BOLTZMANN_KB * t)
    assert total_polarizability(alpha, d_rms, t) == pytest.approx(
        expected, rel=1e-12)
    assert total_polarizability(alpha, 0.0, t) == alpha
    # the orientation-averaged term shrinks as the molecule heats up
    assert total_polarizability(alpha, d_rms, 1000.0) < expected
    with pytest.raises(ValueError):
        total_polarizability(alpha, d_rms, 0.0)


def test_shift_dephasing_delta_and_gaussian():
    d = 991e-9
    k = 2.0 * math.pi / d
    delta = ShiftDistribution(model="delta", mean=100e-9)
    assert shift_dephasing_factor(delta, d) == pytest.approx(
        cmath.exp(1j * k * 100e-9), rel=1e-12)
    assert abs(shift_dephasing_factor(delta, d)) == pytest.approx(1.0)
    gauss = ShiftDistribution(model="gaussian", mean=0.0, sigma=100e-9)
    assert shift_dephasing_factor(gauss, d) == pytest.approx(
        math.exp(-0.5 * (k * 100e-9) ** 2), rel=1e-12)


def test_shift_dephasing_empirical_matches_gaussian():
    d = 991e-9
    sigma = 80e-9
    rng = np.random.default_rng(3)
    samples = rng.normal(0.0, sigma, 200_000)
    emp = shift_dephasing_factor(
        ShiftDistribution(model="empirical", samples=tuple(samples)), d)
    ana = shift_dephasing_factor(
        ShiftDistribution(model="gaussian", sigma=sigma), d)
    assert abs(emp) == pytest.approx(abs(ana), rel=0.02)


def test_shift_distribution_guards():
    with pytest.raises(ValueError):
        ShiftDistribution(model="uniform")
    with pytest.raises(ValueError):
        ShiftDistribution(model="gaussian", sigma=-1.0)
    with pytest.raises(ValueError):
        shift_dephasing_factor(ShiftDistribution(model="empirical"), 991e-9)
    with pytest.raises(ValueError):
        shift_dephasing_factor(ShiftDistribution(), 0.0)
    with pytest.raises(ValueError):
        DeflectionField(geometry_constant_K=0.0, grad_E_squared=1e13)
