"""Closed-form link formulas and their derivatives.

The central quantity is the transmission energy of one (user, AP) pair
operated at minimal power under a hard deadline,

    E = (N0/h) * x * t * (2**(L/(x*t)) - 1),     t = D - eta*L/q,

together with its analytic gradient and the 2x2 curvature blocks used
to certify which variable pairs form convex subproblems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    EXPONENT_CAP,
    ArrayRecord,
    InfeasiblePairError,
    PairPoint,
    StructuralError,
)

LN2 = math.log(2.0)


def _pow2(u):
    """2**u with the overflow guard applied by callers."""
    return math.exp(u * LN2)


def _pow2m1(u):
    """2**u - 1 without cancellation for small u."""
    return math.expm1(u * LN2)


def _check_exponent(u, pair=None):
    if u > EXPONENT_CAP:
        raise InfeasiblePairError(
            f"rate exponent {u:.3g} exceeds {EXPONENT_CAP:.1f}; "
            "pair is numerically infeasible", pair=pair)


def rate(power_w, point: PairPoint) -> float:
    """Achievable uplink rate in bits/s: x * log2(1 + P / (x * N0/h))."""
    if point.bandwidth_hz <= 0:
        raise StructuralError("bandwidth must be positive")
    if power_w < 0:
        raise StructuralError("power must be nonnegative")
    x = point.bandwidth_hz
    return x * math.log2(1.0 + power_w / (x * point.noise_over_gain))


def min_power(point: PairPoint) -> float:
    """Smallest transmit power that still meets the deadline.

    With R_min = L/t the deadline is met exactly (transmission fills the
    residue the computation leaves): P = (N0 x / h) * (2**(R_min/x) - 1).
    """
    if point.data_bits == 0:
        return 0.0
    if point.slack_s <= 0:
        raise InfeasiblePairError(f"nonpositive slack {point.slack_s}")
    if point.bandwidth_hz <= 0:
        raise StructuralError("bandwidth must be positive")
    u = point.data_bits / (point.bandwidth_hz * point.slack_s)
    _check_exponent(u)
    return point.noise_over_gain * point.bandwidth_hz * _pow2m1(u)


def pair_energy(point: PairPoint) -> float:
    """Transmission energy in Joules at minimal power; 0 for an empty pair."""
    if point.data_bits == 0:
        return 0.0
    if point.slack_s <= 0:
        raise InfeasiblePairError(f"nonpositive slack {point.slack_s}")
    x, t, a = point.bandwidth_hz, point.slack_s, point.noise_over_gain
    u = point.data_bits / (x * t)
    _check_exponent(u)
    return a * x * t * _pow2m1(u)


def energy_matrix(scenario, data, bandwidth, slack, threshold=0.0):
    """Vectorized per-pair energies; inactive pairs contribute exactly 0.

    `slack` is the K x M matrix of t values. Raises on any active pair
    that is starved of bandwidth or slack, with the pair index attached.
    """
    act = np.asarray(data) > threshold
    if not act.any():
        return np.zeros_like(np.asarray(data, dtype=float))
    bad = act & ((bandwidth <= 0) | (slack <= 0))
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise InfeasiblePairError(
            f"active pair ({i}, {j}) has no bandwidth or nonpositive slack",
            pair=(i, j))
    a = scenario.noise_over_gain()
    u = np.zeros_like(a)
    u[act] = data[act] / (bandwidth[act] * slack[act])
    if np.any(u > EXPONENT_CAP):
        i, j = map(int, np.argwhere(u > EXPONENT_CAP)[0])
        raise InfeasiblePairError(f"rate exponent overflow at pair ({i}, {j})",
                                  pair=(i, j))
    e = np.zeros_like(a)
    e[act] = a[act] * bandwidth[act] * slack[act] * np.expm1(u[act] * LN2)
    return e


def total_energy(scenario, allocation, threshold=0.0) -> float:
    """Sum of pair energies over all active pairs of an allocation."""
    slack = allocation.slack(scenario)
    return float(energy_matrix(scenario, allocation.data, allocation.bandwidth,
                               slack, threshold).sum())


@dataclass(frozen=True)
class EnergyGradient:
    """First partials of the pair energy at an interior point.

    d_dL is taken with (x, q) held fixed, so the slack shrinks as data
    grows; d_dx and d_dt hold the other two of (L, x, t) fixed. On any
    feasible interior point d_dL > 0 while d_dx <= 0 and d_dt <= 0.
    """

    d_dL: float
    d_dx: float
    d_dt: float


def _interior(point):
    if point.data_bits <= 0 or point.bandwidth_hz <= 0:
        raise StructuralError("interior point requires positive data and bandwidth")
    if not 0 < point.slack_s < point.deadline_s:
        raise StructuralError("interior point requires slack strictly inside (0, deadline)")


def partials(point: PairPoint) -> EnergyGradient:
    """Analytic gradient of pair_energy; matches central finite differences."""
    _interior(point)
    L, x, t = point.data_bits, point.bandwidth_hz, point.slack_s
    a, d = point.noise_over_gain, point.deadline_s
    c = point.cycles_per_bit / point.compute_cps
    u = L / (x * t)
    _check_exponent(u)
    p = _pow2(u)
    d_dL = a * x * ((d * LN2 / (x * t) - c) * p + c)
    bracket = _pow2m1(u) - u * LN2 * p
    return EnergyGradient(d_dL=d_dL, d_dx=a * t * bracket, d_dt=a * x * bracket)


@dataclass(frozen=True, eq=False)
class HessianDiag(ArrayRecord):
    """A symmetric 2x2 second-derivative block of the pair energy."""

    pair: str
    matrix: np.ndarray
    determinant: float


_HESSIAN_PAIRS = ("L_x", "L_q", "x_t")


def hessian_diag(point: PairPoint, pair: str) -> HessianDiag:
    """Second derivatives of pair_energy over one variable pair.

    pair selects the coordinates and what is held fixed:
      "L_x": (data, bandwidth) with compute fixed, slack varying as D - eta*L/q;
      "L_q": (data, compute) with bandwidth fixed;
      "x_t": (bandwidth, slack) with data fixed.
    Entries are the exact analytic values (they agree with central second
    finite differences of pair_energy).
    """
    if pair not in _HESSIAN_PAIRS:
        raise StructuralError(f"unknown pair {pair!r}, expected one of {_HESSIAN_PAIRS}")
    _interior(point)
    L, x, t = point.data_bits, point.bandwidth_hz, point.slack_s
    a, d, eta = point.noise_over_gain, point.deadline_s, point.cycles_per_bit
    q = point.compute_cps
    c = eta / q
    u = L / (x * t)
    _check_exponent(u)
    p = _pow2(u)
    k2 = LN2 * LN2
    bracket = _pow2m1(u) - u * LN2 * p  # always negative on the interior

    if pair == "L_x":
        e_LL = a * k2 * p * d * d / (x * t**3)
        e_xx = a * k2 * p * L * L / (x**3 * t)
        e_Lx = -a * c * bracket - a * k2 * p * d * L / (x * x * t * t)
        m = np.array([[e_LL, e_Lx], [e_Lx, e_xx]])
    elif pair == "L_q":
        e_LL = a * k2 * p * d * d / (x * t**3)
        t_q = eta * L / q**2
        e_qq = (a * k2 * p * L * L / (x * t**3)) * t_q**2 \
            - 2.0 * a * x * bracket * eta * L / q**3
        e_Lq = -a * k2 * p * eta * L * L * d / (q * q * x * t**3) \
            + a * x * bracket * eta / q**2
        m = np.array([[e_LL, e_Lq], [e_Lq, e_qq]])
    else:  # x_t
        e_xx = a * k2 * p * L * L / (x**3 * t)
        e_tt = a * k2 * p * L * L / (x * t**3)
        e_xt = a * (bracket + k2 * u * u * p)
        m = np.array([[e_xx, e_xt], [e_xt, e_tt]])

    m.setflags(write=False)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return HessianDiag(pair=pair, matrix=m, determinant=float(det))
