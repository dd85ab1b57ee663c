"""Closed-form link formulas and their derivatives.

The central quantity is the transmission energy of one (user, AP) pair
operated at minimal power under a hard deadline,

    E = (N0/h) * x * t * (2**(L/(x*t)) - 1),     t = D - eta*L/q.

It is written once, in the vectorised `energy`, `bracket` and
`data_marginal` that the KKT roots in `kkt` evaluate, all through one
primitive, kappa(z) = -phi(z)/(z*e^z) (`_kappa`). The bandwidth root
(`exponent_root`) and a pair's cheapest cost per bit at given prices
(`price_oracle`) take the same Newton step in ln z, a fixed count of
times. `energy_derivatives` gives the barrier method in `kkt` its 3x3
Hessian in (L, x, q), the one Hessian of the pair energy: the 2x2
curvature blocks are read off it. The scalar functions and the analytic
gradient build on the pair model. They act on a `PairPoint`, one entry
of an `Allocation` with its user's task, whose slack is derived from its
compute and which passed the pair rule when it was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    EXPONENT_CAP,
    LN2,
    ArrayRecord,
    InfeasiblePairError,
    PairPoint,
    StructuralError,
    check_pairs,
    deadline_slack,
)


def energy(u, x, t, a):
    """Pair energy a*x*t*(2**u - 1), elementwise over rate exponents
    u = L/(x*t), bandwidths x, slacks t and noise-to-gain ratios a."""
    return a * x * t * np.expm1(u * LN2)


def _kappa(z):
    """kappa(z) = (z - 1 + e^-z)/z, in (0, z/2) for z > 0, the factor of
    -phi(z) = z*e^z*kappa(z). It cancels below z = 0.5; there it is z
    times the series."""
    return np.where(z < 0.5, z * np.polyval(_KAPPA_SERIES, -z), (z - 1.0 + np.exp(-z)) / z)


def bracket(z):
    """phi(z) = expm1(z) - z*e^z = -z*e^z*kappa(z), negative for z > 0.

    At z = ln2*L/(x*t) it gives the partials dE/dx = a*t*phi and
    dE/dt = a*x*phi. Through `_kappa` it keeps float64 resolution where
    phi ~ -z^2/2 at small z. kappa's argument is clipped to [tiny, 1/eps],
    so phi(0) = 0 and phi runs to -inf, never nan, once e^z overflows.
    """
    return -z * np.exp(z) * _kappa(np.clip(z, np.finfo(float).tiny, 1.0 / np.finfo(float).eps))


# kappa(z)/z = sum_{n>=1} (-z)^(n-1)/(n+1)!, highest power first: 13 terms are
# within 3.4e-16 below z = 0.5, the closed form within 6.4e-16 just above
_KAPPA_SERIES = [1.0 / math.factorial(n) for n in range(14, 1, -1)]

# largest bandwidth root: the rate exponent L/(x*t) = EXPONENT_CAP
_Z_TOP = EXPONENT_CAP * LN2
_C_TOP = -float(bracket(_Z_TOP))

# every per-pair slack is searched inside this fraction of its deadline
SLACK_BRACKET = (1e-12, 1.0 - 1e-12)

# Newton steps in ln z of the bandwidth root and of the price oracle, and
# the oracle's bounds of ln s, s = D/t - 1
_ROOT_STEPS, _ORACLE_STEPS = 4, 10
_LOG_S = tuple(math.log(1.0 / f - 1.0) for f in SLACK_BRACKET[::-1])


def _exponent_start(c):
    """The closed-form start of the root of -bracket(z) = c >= 0: for
    c < 2 the series z = p - p^2/3 + 11p^3/72, p = sqrt(2c), about the
    branch point c = 0, and ln c - ln(ln c - 1) above."""
    p, lc = np.sqrt(2.0 * np.minimum(c, 2.0)), np.log(np.maximum(c, 2.0))
    return np.where(c < 2.0, p * (1.0 - p / 3.0 + 11.0 / 72.0 * p * p),
                    lc - np.log(np.maximum(lc - 1.0, 1.0)))


def exponent_root(c):
    """The root z > 0 of (z - 1)*e^z + 1 = c, that is -bracket(z) = c.

    It is z = 1 + W0((c - 1)/e) (Corless et al., Adv. Comput. Math.
    1996), at most the exponent cap. The price oracle's Newton step in
    u = ln z, on ln kappa + u + z = ln c here, polishes `_exponent_start`
    to float64 resolution in _ROOT_STEPS steps at every normal c; z(0) = 0.
    """
    c = np.asarray(c, dtype=float)
    cc = np.clip(c, np.finfo(float).tiny, _C_TOP)
    lc = np.log(cc)
    z = _exponent_start(cc)
    for _ in range(_ROOT_STEPS):
        kappa = _kappa(z)
        z = z * np.exp(-(np.log(kappa) + np.log(z) + z - lc) / (z / kappa))
    return np.where(c == 0.0, 0.0, z)


def price_oracle(beta, mu, d, eta, a):
    """Cheapest cost per bit of a pair at bandwidth price beta and
    compute price mu, elementwise:

        e = min over 0 < t < D of a*ln2*e^z + mu*eta/(D - t),

    where z = ln2*L/(x*t), the root of -bracket(z) = b/t with b = beta/a,
    sets the bandwidth that minimises E + beta*x at slack t. The slack is
    stationary where z*t^2/(D - t)^2 = r = beta*ln2/(mu*eta), at
    t = D/(1 + s) with s = sqrt(z/r), clipped to the slack bracket. As
    -bracket(z) = z*e^z*kappa(z), the bandwidth root there is one equation
    in u = ln z, F(u) = ln kappa + u + z - ln(b/D) - ln(1 + s) = 0, of
    slope z/kappa - s/(2*(1 + s)) > 3/2 (the second term only where s is
    not clipped). _ORACLE_STEPS Newton steps in u solve it from
    `_exponent_start` at t = D/2, with z capped at the exponent cap and
    ln r taken as ln(beta*ln2) - ln(mu*eta), which no price overflows.
    Over 20,000 draws spanning 80 decades of prices, e settles to 3e-14
    after 9 steps (8 leave it 8e-11 off). Returns (e, t, x/L), with
    D - t = s*t and x/L = ln2/(t*z) the bandwidth per bit.
    """
    log_bd = np.log(beta / a) - np.log(d)
    log_r = np.log(beta * LN2) - np.log(mu * eta)
    c = np.exp(np.clip(log_bd + LN2, math.log(np.finfo(float).tiny), math.log(_C_TOP)))
    z = _exponent_start(c)
    for _ in range(_ORACLE_STEPS):
        u = np.log(z)
        half = 0.5 * (u - log_r)
        log_s = np.clip(half, *_LOG_S)
        s = np.exp(log_s)
        kappa = _kappa(z)
        f = np.log(kappa) + u + z - log_bd - np.log1p(s)
        slope = z / kappa - np.where(half == log_s, 0.5 * s / (1.0 + s), 0.0)
        # the step in u, applied to z so that z keeps its own precision
        z = np.minimum(z * np.exp(-f / slope), _Z_TOP)
    s = np.exp(np.clip(0.5 * (np.log(z) - log_r), *_LOG_S))
    t = d / (1.0 + s)
    return a * LN2 * np.exp(z) + mu * eta / (s * t), t, LN2 / (t * z)


def data_marginal(L, x, q, d, eta, a):
    """dE/dL at fixed (x, q), where the slack t = D - eta*L/q shrinks as L
    grows: a*(ln2*e^z - (eta/q)*x*phi(z)). Both terms are positive and the
    sum rises strictly in L, from a*ln2 at L = 0."""
    z = L / (x * deadline_slack(d, eta, L, q)) * LN2
    return a * (LN2 * np.exp(z) - eta / q * x * bracket(z))


def energy_derivatives(L, x, q, d, eta, a):
    """Gradient and Hessian of the pair energy in (L, x, q), elementwise
    over pairs with slack t = D - eta*L/q > 0: n x 3 and n x 3 x 3.

    With y = x*t the energy a*y*(2**(L/y) - 1) is the perspective of
    2**L - 1, so with u = L/y, z = u*ln2 and phi(z) = dE/dy/a (`bracket`)
    its gradient is a*(ln2*e^z*dL + phi*dy), and its Hessian
    a*(ln2^2*e^z/y*v*v^T + phi*Hess y) with v = dL - u*dy, which is
    (D/t, -u*t, -u*x*eta*L/q^2)."""
    t, f, zero = d - eta * L / q, eta / q, np.zeros_like(L)
    u, fx, fL = L / (x * t), f * x / q, f * L / q
    phi = a * bracket(u * LN2)
    grad = phi[:, None] * np.stack((-x * f, t, x * fL), axis=-1)  # phi*dy
    grad[:, 0] += a * LN2 * np.exp2(u)
    v = np.stack((d / t, -u * t, -u * x * fL), axis=-1)
    hy = np.stack((zero, -f, fx, -f, zero, fL, fx, fL, -2 * fx * L / q), axis=-1).reshape(-1, 3, 3)
    curv = a * LN2 * LN2 * np.exp2(u) / (x * t)
    return grad, curv[:, None, None] * v[:, :, None] * v[:, None, :] + phi[:, None, None] * hy


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
    return pair_energy(point) / point.slack_s


def pair_energy(point: PairPoint) -> float:
    """Transmission energy in Joules at minimal power; 0 for an empty pair."""
    if point.data_bits == 0:
        return 0.0
    x, t = point.bandwidth_hz, point.slack_s
    return float(energy(point.data_bits / (x * t), x, t, point.noise_over_gain))


def energy_matrix(scenario, data, bandwidth, compute):
    """Vectorized per-pair energies of K x M loads, bandwidths and compute.

    The pair rule (`model.check_pairs`) gives the active pairs, their
    slack t = D - eta*L/q and their rate exponent u = L/(x*t); the others
    contribute exactly 0. The first of its faults, in row-major order,
    raises InfeasiblePairError naming the pair and the constraint it fails.
    """
    act, slack, u, faults = check_pairs(scenario, data, bandwidth, compute)
    if faults:
        (i, j), constraint, _ = faults[0]
        raise InfeasiblePairError(f"pair ({i}, {j}): {constraint}", pair=(i, j))
    e = np.zeros(data.shape)
    e[act] = energy(u[act], bandwidth[act], slack[act], scenario.noise_over_gain[act])
    return e


def total_energy(scenario, allocation) -> float:
    """Sum of pair energies over all active pairs of an allocation."""
    return float(energy_matrix(scenario, allocation.data, allocation.bandwidth,
                               allocation.compute).sum())


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
    if not 0 < point.slack_s < point.deadline_s:
        raise StructuralError("interior point requires slack strictly inside (0, deadline)")


def partials(point: PairPoint) -> EnergyGradient:
    """Analytic gradient of pair_energy; matches central finite differences."""
    _interior(point)
    x, t, a = point.bandwidth_hz, point.slack_s, point.noise_over_gain
    phi = float(bracket(point.data_bits / (x * t) * LN2))
    d_dL = float(data_marginal(point.data_bits, x, point.compute_cps, point.deadline_s,
                               point.cycles_per_bit, a))
    return EnergyGradient(d_dL=d_dL, d_dx=a * t * phi, d_dt=a * x * phi)


@dataclass(frozen=True, eq=False)
class HessianDiag(ArrayRecord):
    """A symmetric 2x2 second-derivative block of the pair energy."""

    pair: str
    matrix: np.ndarray
    determinant: float


_HESSIAN_PAIRS = ("L_x", "L_q", "x_t")


def hessian_diag(point: PairPoint, pair: str) -> HessianDiag:
    """Second derivatives of pair_energy over one variable pair, read off
    the Hessian in (L, x, q) of `energy_derivatives`.

    pair selects the coordinates and what is held fixed:
      "L_x": (data, bandwidth) with compute fixed, slack varying as D - eta*L/q;
      "L_q": (data, compute) with bandwidth fixed;
      "x_t": (bandwidth, slack) with data fixed.
    The first two are principal blocks, taken from the upper triangle so
    that they are symmetric. "x_t" follows by the chain rule through
    q = eta*L/(D - t), with q_t = q^2/(eta*L): E_xx = H_xx,
    E_xt = H_xq*q_t and E_tt = (H_qq + 2*E_q/q)*q_t^2.
    """
    if pair not in _HESSIAN_PAIRS:
        raise StructuralError(f"unknown pair {pair!r}, expected one of {_HESSIAN_PAIRS}")
    _interior(point)
    L, q = point.data_bits, point.compute_cps
    (g,), (h,) = energy_derivatives(*(np.array([v]) for v in (
        L, point.bandwidth_hz, q, point.deadline_s, point.cycles_per_bit,
        point.noise_over_gain)))
    if pair == "x_t":
        q_t = q * q / (point.cycles_per_bit * L)
        e_xt = h[1, 2] * q_t
        m = np.array([[h[1, 1], e_xt], [e_xt, (h[2, 2] + 2.0 * g[2] / q) * q_t**2]])
    else:
        j = 1 if pair == "L_x" else 2
        m = np.array([[h[0, 0], h[0, j]], [h[0, j], h[j, j]]])
    m.setflags(write=False)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return HessianDiag(pair=pair, matrix=m, determinant=float(det))
