"""Elementary matter-wave scales, beam velocity averaging, Bessel J_n.

All quantities are SI. The Talbot time m d^2/h is the near-field scale
that every flight time is measured in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import PLANCK_H

# Quadrature nodes below this fraction of the mean velocity are clipped:
# near-zero forward velocities are unphysical for a selected beam.
MIN_VELOCITY_FRACTION = 0.05


def require_finite(**values):
    """Raise ValueError naming the first value that is NaN or infinite.

    None values are skipped. Range checks written as ``x <= 0`` let NaN
    through, so input guards call this first.
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BeamState:
    """Forward velocity distribution of the particle beam.

    ``relative_spread`` is the standard deviation over the mean for the
    gaussian shape, and the half width over the mean for the top-hat shape.
    """

    mean_velocity: float
    relative_spread: float = 0.0
    distribution_shape: str = "gaussian"

    def __post_init__(self):
        require_finite(mean_velocity=self.mean_velocity)
        if self.mean_velocity <= 0.0:
            raise ValueError("mean_velocity must be positive")
        if not 0.0 <= self.relative_spread < 1.0:
            raise ValueError("relative_spread must lie in [0, 1)")
        if self.distribution_shape not in ("gaussian", "top_hat"):
            raise ValueError(f"unknown distribution shape {self.distribution_shape!r}")


def talbot_time(mass, period):
    """Self-imaging time m d^2/h for pulsed (time-domain) gratings."""
    if mass <= 0.0 or period <= 0.0:
        raise ValueError("mass and period must be positive")
    return mass * period * period / PLANCK_H


def _hermite_e(x, n: int):
    """Orthonormal probabilists' Hermite He_n at ``x``: numpy's
    ``_normed_hermite_e_n``, operation for operation."""
    if n == 0:
        return np.full(x.shape, 1 / np.sqrt(np.sqrt(2 * np.pi)))
    c0, c1 = 0.0, 1.0 / np.sqrt(np.sqrt(2 * np.pi))
    for nd in range(n, 1, -1):
        c0, c1 = (-c1 * np.sqrt((nd - 1.0) / nd),
                  c0 + c1 * x * np.sqrt(1.0 / nd))
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _unit_rule(shape: str, n_points: int):
    """Read-only nodes and normalised weights of the n-point rule for a shape.

    Gauss-Hermite (probabilists') nodes for ``gaussian``, Gauss-Legendre for
    ``top_hat``; built once per (shape, n_points) and shared by every call.
    The Gaussian rule is numpy's ``hermegauss`` ported step for step, so that
    it has its bits without importing ``numpy.polynomial``: the eigenvalues
    of the symmetric companion matrix, one Newton step, symmetrised weights
    rescaled to sqrt(2 pi). The top-hat rule is numpy's ``leggauss``.
    Raises ``FloatingPointError`` if a node or weight is not finite (the
    Gauss-Hermite weights overflow at some hundreds of nodes).
    """
    with np.errstate(all="ignore"):
        if shape == "gaussian":
            n, off = n_points, np.sqrt(np.arange(1, n_points))
            nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
            nodes -= _hermite_e(nodes, n) / (_hermite_e(nodes, n - 1)
                                             * np.sqrt(n))
            fm = _hermite_e(nodes, n - 1)
            fm /= np.abs(fm).max()
            weights = 1 / (fm * fm)
            weights = (weights + weights[::-1]) / 2
            nodes = (nodes - nodes[::-1]) / 2
            weights *= np.sqrt(2 * np.pi) / weights.sum()
        else:
            nodes, weights = np.polynomial.legendre.leggauss(n_points)
        weights = weights / weights.sum()
    if not np.isfinite((nodes, weights)).all():
        raise FloatingPointError(f"{n_points}-node velocity rule not finite")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def velocity_weights(beam: BeamState, n_points: int):
    """Quadrature nodes and weights sampling the beam velocity distribution.

    Returns a list of ``(velocity, weight)`` pairs with nonnegative weights
    summing to one. ``n_points = 1`` collapses to the mean velocity. The
    result is deterministic for fixed inputs.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    v0 = beam.mean_velocity
    if n_points == 1 or beam.relative_spread == 0.0:
        return [(v0, 1.0)]

    scale = beam.relative_spread * v0  # sigma, or the top hat's half width
    nodes, weights = _unit_rule(beam.distribution_shape, n_points)
    velocities = v0 + scale * nodes
    velocities = np.maximum(velocities, MIN_VELOCITY_FRACTION * v0)
    return list(zip(velocities.tolist(), weights.tolist()))


def bessel_node_count(n: int, x: float) -> int:
    """Nodes N of a full period that resolve J_n(x): the N-point rule errs
    only by the aliased orders J_{kN +- n}(x), and with
    N = ceil(|x| + |n| + 10 |x|^(1/3)) + 40 the first of them lies far past
    the Bessel turning point, whose width grows like |x|^(1/3).
    """
    x = abs(x)
    return math.ceil(x + abs(n) + 10.0 * x ** (1.0 / 3.0)) + 40


def bessel_j(n, x):
    """Bessel functions J_n(x) of integer order, without scipy.

    Trapezoid rule on Bessel's integral
    J_n(x) = (1/pi) int_0^pi cos(n tau - x sin tau) dtau at the H midpoints
    of [0, pi], H = ceil(N/2) rounded up to even, N the
    ``bessel_node_count`` of the largest |n| and |x|. The integrand is
    smooth and 2 pi-periodic, so the absolute error against
    ``scipy.special.jv`` stays below 1e-13 for |n| <= 130 and
    |x| <= 2e4. The midpoints pair up about pi/2, which folds the rule
    onto [0, pi/2]: (2/H) sum cos(n tau) cos(x sin tau) for even n and
    (2/H) sum sin(n tau) sin(x sin tau) for odd n, one real matrix
    product per parity; J_-n = (-1)^n J_n follows from the parity of cos
    and sin. At x = 0 the result is exactly J_n(0) = delta_n0.

    ``n`` is one order or a 1-D array of orders, and ``x`` any array; one
    rule serves every entry, and the result has shape
    ``shape(x) + shape(n)``. A complex ``x`` gives a complex result, within
    2e-15 e^|Im x| of ``mpmath`` for |x| <= 800; it overflows at |Im x| = 709.
    """
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    orders = np.asarray(n)
    largest = float(np.max(np.abs(x), initial=0.0))
    if not math.isfinite(largest):
        raise ValueError(f"x must be finite, got largest |x| = {largest!r}")
    widest = int(np.max(np.abs(orders), initial=0))
    quarter = -(-bessel_node_count(widest, largest) // 4)
    tau = (np.arange(quarter) + 0.5) * (np.pi / (2 * quarter))
    arg = x[..., None] * np.sin(tau)
    flat = np.atleast_1d(orders)
    result = np.empty(x.shape + flat.shape, dtype=x.dtype)
    even = flat % 2 == 0
    # n tau_k = 2 pi n (2k + 1) / P with P = 4 H: reduced modulo P, every
    # cos(n tau) is one of P cosines, and sin(n tau) the one H steps back
    period = 8 * quarter
    cosines = np.cos(np.arange(period) * (2.0 * np.pi / period))
    steps = np.multiply.outer(2 * np.arange(quarter) + 1, flat)
    for parity, trig, shift in ((even, np.cos, 0),
                                (~even, np.sin, 2 * quarter)):
        if parity.any():
            result[..., parity] = trig(arg) @ cosines[
                (steps[:, parity] - shift) % period]
    result /= quarter
    # J_n(0) = delta_n0 exactly, where the sums of cos(n tau) leave 1e-17
    result[x == 0.0] = flat == 0
    return result.reshape(x.shape + orders.shape)[()]


__all__ = [
    "BeamState", "talbot_time", "velocity_weights",
    "MIN_VELOCITY_FRACTION", "require_finite", "bessel_j",
    "bessel_node_count",
]
