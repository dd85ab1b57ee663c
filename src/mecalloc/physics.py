"""Closed-form link formulas and their derivatives.

The central quantity is the transmission energy of one (user, AP) pair
operated at minimal power under a hard deadline,

    E = (N0/h) * x * t * (2**(L/(x*t)) - 1),     t = D - eta*L/q.

It is written once, in the vectorised `energy`, `bracket` and
`data_marginal` that the KKT roots in `kkt` evaluate, and priced in
`price_oracle`, the cheapest cost per bit of a pair at given prices, by
a bisection in ln c, c = beta/(a*t), that ends in one `exponent_root`.
The scalar functions, the analytic gradient and the
2x2 curvature blocks used to certify which variable pairs form convex
subproblems build on them.
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
    deadline_slack,
)


def energy(L, x, t, a):
    """Pair energy a*x*t*(2**(L/(x*t)) - 1), elementwise over loads L,
    bandwidths x, slacks t and noise-to-gain ratios a."""
    return a * x * t * np.expm1(L / (x * t) * LN2)


def bracket(z):
    """phi(z) = expm1(z) - z*e^z, negative for z > 0.

    At z = ln2*L/(x*t) it gives the partials dE/dx = a*t*phi and
    dE/dt = a*x*phi. Written as expm1(z)*(1 - z) - z, it runs to -inf,
    never nan, once e^z overflows. At small z, phi ~ -z^2/2 cancels to a
    relative error of about 2.2e-16/z, and to 0 or a wrong sign below 1e-16.
    """
    return np.expm1(z) * (1.0 - z) - z


# largest bandwidth root: the rate exponent L/(x*t) = EXPONENT_CAP
_Z_TOP = EXPONENT_CAP * LN2
_C_TOP = -float(bracket(_Z_TOP))

# fixed halving count for the vectorized per-pair root solves; shrinks
# any bracket to float64 resolution
INNER_ITERS = 48

# every per-pair slack is searched inside this fraction of its deadline
SLACK_BRACKET = (1e-12, 1.0 - 1e-12)


def vec_bisect(go_right, lo, hi, iters=INNER_ITERS):
    """Simultaneous bisection over an array of independent brackets.

    go_right(mid) returns a boolean array marking the entries whose root
    lies to the right of mid; scalar lo and hi give every entry the same
    bracket.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        right = go_right(mid)
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def _branch_series(c):
    """z = p - p^2/3 + 11p^3/72 with p = sqrt(2c), the series of the root of
    -bracket(z) = c about its branch point c = 0."""
    p = np.sqrt(2.0 * c)
    return p * (1.0 - p / 3.0 + 11.0 / 72.0 * p * p)


def exponent_root(c):
    """The root z > 0 of (z - 1)*e^z + 1 = c, that is -bracket(z) = c.

    It is z = 1 + W0((c - 1)/e) (Corless et al., Adv. Comput. Math.
    1996). The start is the branch-point series for c < 2 and
    ln c - ln(ln c - 1) above. Three Halley steps on
    ln(-bracket(z)) = ln c polish it to float64 resolution; below
    c = 1e-9 the series alone already is. The root is capped at the
    exponent cap.
    """
    c = np.asarray(c, dtype=float)
    cc = np.clip(c, 1e-9, _C_TOP)
    lc = np.log(cc)
    z = np.where(cc < 2.0, _branch_series(np.minimum(cc, 2.0)),
                 lc - np.log(np.maximum(lc - 1.0, 1.0)))
    for _ in range(3):
        # g = ln(-bracket(z)) - ln c has slope 1/kappa, with
        # kappa = -bracket(z)/(z*e^z) = (z - 1 + e^-z)/z written without
        # cancellation for small z
        em = np.exp(-z)
        kappa = np.where(z < 0.5, (np.expm1(z) * (z - 1.0) + z) * em / z,
                         (z - 1.0 + em) / z)
        g = np.log(kappa * z) + z - lc
        dkappa = (1.0 - (1.0 + z) * em) / (z * z)
        z = z - g * kappa / (1.0 + 0.5 * g * dkappa)
    return np.where(c < 1e-9, _branch_series(np.minimum(c, 1e-9)), z)


def price_oracle(beta, mu, d, eta, a):
    """Cheapest cost per bit of a pair at bandwidth price beta and
    compute price mu, elementwise.

    At slack t the bandwidth that minimises E + beta*x has
    z = ln2*L/(x*t) = exponent_root(c), c = b/t with b = beta/a, and its
    cost per bit is a*ln2*e^z. The pair's cost per bit is

        e = min over 0 < t < D of a*ln2*e^z + mu*eta/(D - t).

    It is stationary where z*t^2/(D - t)^2 = ratio = beta*ln2/(mu*eta),
    whose left side rises in t. The bisection runs in ln c over the slack
    bracket mapped through c = b/t, and -bracket rises in z, so a probe is
    the closed-form test c > -bracket(ratio*(D*c/b - 1)^2). The slack
    t = b/c is exact; one exponent_root gives z. Returns (e, t, x/L), with
    x/L = ln2/(t*z) the bandwidth per bit.
    """
    b = beta / a

    def go_right(log_c):
        c = np.exp(log_c)
        return c > -bracket(ratio * (d * c / b - 1.0) ** 2)

    lo, hi = (np.log(b / (d * f)) for f in SLACK_BRACKET[::-1])
    # the ratio overflows at a compute price near zero; it only feeds the test
    with np.errstate(over="ignore"):
        ratio = beta * LN2 / (mu * eta)
        c = np.exp(vec_bisect(go_right, lo, hi))
    t, z = b / c, exponent_root(c)
    return a * LN2 * np.exp(z) + mu * eta / (d - t), t, LN2 / (t * z)


def data_marginal(L, x, q, d, eta, a):
    """dE/dL at fixed (x, q), where the slack t = D - eta*L/q shrinks as L
    grows: a*(ln2*e^z - (eta/q)*x*phi(z)). Both terms are positive and the
    sum rises strictly in L, from a*ln2 at L = 0."""
    z = L / (x * deadline_slack(d, eta, L, q)) * LN2
    return a * (LN2 * np.exp(z) - eta / q * x * bracket(z))


def _exponent(point):
    """Rate exponent u = L/(x*t) of an operating point, at most EXPONENT_CAP."""
    u = point.data_bits / (point.bandwidth_hz * point.slack_s)
    if u > EXPONENT_CAP:
        raise InfeasiblePairError(
            f"rate exponent {u:.3g} exceeds {EXPONENT_CAP:.1f}; "
            "pair is numerically infeasible")
    return u


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
    if point.slack_s <= 0:
        raise InfeasiblePairError(f"nonpositive slack {point.slack_s}")
    if point.bandwidth_hz <= 0:
        raise StructuralError("bandwidth must be positive")
    _exponent(point)
    return float(energy(point.data_bits, point.bandwidth_hz, point.slack_s,
                        point.noise_over_gain))


def energy_matrix(scenario, data, bandwidth, slack, threshold=0.0):
    """Vectorized per-pair energies; inactive pairs contribute exactly 0.

    `slack` is the K x M matrix of t values. Raises on any active pair
    that is starved of bandwidth or slack, with the pair index attached.
    """
    act = np.asarray(data) > threshold
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
    e[act] = energy(data[act], bandwidth[act], slack[act], a[act])
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
    x, t, a = point.bandwidth_hz, point.slack_s, point.noise_over_gain
    phi = float(bracket(_exponent(point) * LN2))
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
    u = _exponent(point)
    p = math.exp(u * LN2)
    k2 = LN2 * LN2
    phi = float(bracket(u * LN2))  # always negative on the interior

    e_LL = a * k2 * p * d * d / (x * t**3)
    e_xx = a * k2 * p * L * L / (x**3 * t)
    e_tt = a * k2 * p * L * L / (x * t**3)

    if pair == "L_x":
        e_Lx = -a * eta / q * phi - a * k2 * p * d * L / (x * x * t * t)
        m = np.array([[e_LL, e_Lx], [e_Lx, e_xx]])
    elif pair == "L_q":
        t_q = eta * L / q**2
        e_qq = e_tt * t_q**2 - 2.0 * a * x * phi * eta * L / q**3
        e_Lq = -a * k2 * p * eta * L * L * d / (q * q * x * t**3) \
            + a * x * phi * eta / q**2
        m = np.array([[e_LL, e_Lq], [e_Lq, e_qq]])
    else:  # x_t
        e_xt = a * (phi + k2 * u * u * p)
        m = np.array([[e_xx, e_xt], [e_xt, e_tt]])

    m.setflags(write=False)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return HessianDiag(pair=pair, matrix=m, determinant=float(det))
