"""Shared test oracles: independent energy formulas, finite differences,
and brute-force grid searches, plus one stub of the pricing's Newton
solve. Nothing here calls the solver paths it is used to check."""

import decimal
import math
from decimal import Decimal

import numpy as np

from mecalloc import PairPoint, Scenario, TaskSpec, kkt


def sample_points(n, seed=7):
    """Random interior operating points at field-trial magnitudes:
    kHz..MHz bandwidth shares, kbit..Mbit loads, sub-second deadlines,
    noise-to-gain ratios spanning strong to very weak channels."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = []
    while len(pts) < n:
        a = 10.0 ** rng.uniform(-18, -9)
        x = 10.0 ** rng.uniform(4.0, 6.7)
        L = 10.0 ** rng.uniform(3.0, 6.2)
        d = rng.uniform(0.2, 1.0)
        q = 10.0 ** rng.uniform(8.0, 10.4)
        eta = 1e3
        t = d - eta * L / q
        if t <= 0.05 * d:
            continue
        u = L / (x * t)
        if not 1e-3 < u < 25.0:
            continue
        pts.append(PairPoint(L, x, q, d, eta, a))
    return pts


def scalar_energy(L, x, t, noise_over_gain):
    """Pair energy from the raw formula, plain floats only."""
    if L == 0.0:
        return 0.0
    if x <= 0.0 or t <= 0.0:
        return math.inf
    u = L / (x * t)
    if u > 1020.0:  # 2**u overflows float64
        return math.inf
    return noise_over_gain * x * t * (2.0 ** u - 1.0)


def scalar_energy_q(L, x, q, deadline, cycles_per_bit, noise_over_gain):
    t = deadline - cycles_per_bit * L / q
    return scalar_energy(L, x, t, noise_over_gain)


def starve_pricing(mp):
    """Stop every Newton solve of the pricing at its start prices, so that
    each re-balance leaves a budget residual above its tolerance."""
    mp.setattr(kkt, "_newton", lambda system, y, tol, first=None:
               (y, *(first or system(y))[::2], 1))


def make_scenario(gains, bits, deadline, eta, bandwidth, capacities, noise=1.0):
    """Small hand-built scenario; gains given as a nested list."""
    g = np.asarray(gains, dtype=float)
    K, M = g.shape
    bits = np.broadcast_to(np.asarray(bits, dtype=float), (K,))
    deadline = np.broadcast_to(np.asarray(deadline, dtype=float), (K,))
    tasks = tuple(TaskSpec(float(b), float(d), float(eta))
                  for b, d in zip(bits, deadline))
    return Scenario(num_users=K, num_aps=M, gains=g, tasks=tasks,
                    bandwidth_hz=float(bandwidth),
                    compute_capacity=np.broadcast_to(
                        np.asarray(capacities, dtype=float), (M,)).copy(),
                    noise_psd=float(noise))


def fd_gradient(f, v, rel_step=1e-6, min_step=1e-9):
    """Central first differences, one coordinate at a time."""
    v = [float(c) for c in v]
    out = []
    for i, vi in enumerate(v):
        h = max(rel_step * abs(vi), min_step)
        vp, vm = list(v), list(v)
        vp[i] += h
        vm[i] -= h
        out.append((f(vp) - f(vm)) / (2.0 * h))
    return out


def decimal_energy(L, x, t, noise_over_gain):
    """Pair energy from the raw formula in the current decimal context."""
    return noise_over_gain * x * t * ((L / (x * t) * Decimal(2).ln()).exp() - 1)


def decimal_hessian(f, v):
    """Central second differences of f, which maps a list of Decimals to a
    Decimal, in 60-digit decimal arithmetic. A step of 1e-15 of each
    coordinate leaves a truncation error near 1e-30 relative, and the
    working precision keeps the difference of nearly equal function
    values about 30 digits above rounding."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        v = [Decimal(c) for c in v]
        h = [Decimal("1e-15") * abs(c) for c in v]

        def at(*steps):
            w = list(v)
            for i, sign in steps:
                w[i] += sign * h[i]
            return f(w)

        n = len(v)
        H = [[0.0] * n for _ in range(n)]
        for i in range(n):
            H[i][i] = float((at((i, 1)) - 2 * f(v) + at((i, -1))) / h[i] ** 2)
            for j in range(i + 1, n):
                H[i][j] = H[j][i] = float(
                    (at((i, 1), (j, 1)) - at((i, 1), (j, -1)) - at((i, -1), (j, 1))
                     + at((i, -1), (j, -1))) / (4 * h[i] * h[j]))
    return H


def grid_min_daa(bits, x, q, deadline, eta, noise_over_gain, points=10001):
    """Exhaustive split of one task over two APs at fixed resources."""
    best = (math.inf, None)
    for k in range(points):
        L1 = bits * k / (points - 1)
        L2 = bits - L1
        t1 = deadline - eta * L1 / q[0]
        t2 = deadline - eta * L2 / q[1]
        if t1 <= 0 or t2 <= 0:
            continue
        e = scalar_energy(L1, x[0], t1, noise_over_gain[0]) \
            + scalar_energy(L2, x[1], t2, noise_over_gain[1])
        if e < best[0]:
            best = (e, L1)
    return best


def grid_min_baa(L, t, noise_over_gain, bandwidth, points=10001):
    """Exhaustive bandwidth split between two single-AP users at fixed slack."""
    best = (math.inf, None)
    for k in range(1, points - 1):
        x1 = bandwidth * k / (points - 1)
        x2 = bandwidth - x1
        e = scalar_energy(L[0], x1, t[0], noise_over_gain[0]) \
            + scalar_energy(L[1], x2, t[1], noise_over_gain[1])
        if e < best[0]:
            best = (e, x1)
    return best


def grid_min_caa(L, x, deadline, eta, capacity, noise_over_gain, points=10001):
    """Exhaustive compute split between two users of one AP at fixed x."""
    q1_min, q1_max = eta * L[0] / deadline[0], capacity - eta * L[1] / deadline[1]
    best = (math.inf, None)
    for k in range(1, points - 1):
        q1 = q1_min + (q1_max - q1_min) * k / (points - 1)
        q2 = capacity - q1
        e = scalar_energy_q(L[0], x[0], q1, deadline[0], eta, noise_over_gain[0]) \
            + scalar_energy_q(L[1], x[1], q2, deadline[1], eta, noise_over_gain[1])
        if e < best[0]:
            best = (e, q1)
    return best


def grid_min_bcaa(L, deadline, eta, bandwidth, capacity, noise_over_gain,
                  points=200):
    """Joint 2-D grid over (x1, q1) for two users of one AP."""
    q1_min, q1_max = eta * L[0] / deadline[0], capacity - eta * L[1] / deadline[1]
    xs = np.linspace(bandwidth / points, bandwidth * (1 - 1.0 / points), points)
    qs = np.linspace(q1_min, q1_max, points + 2)[1:-1]
    X1, Q1 = np.meshgrid(xs, qs)
    T1 = deadline[0] - eta * L[0] / Q1
    T2 = deadline[1] - eta * L[1] / (capacity - Q1)
    X2 = bandwidth - X1
    with np.errstate(over="ignore"):
        E = noise_over_gain[0] * X1 * T1 * (2.0 ** (L[0] / (X1 * T1)) - 1.0) \
            + noise_over_gain[1] * X2 * T2 * (2.0 ** (L[1] / (X2 * T2)) - 1.0)
    k = np.unravel_index(np.argmin(E), E.shape)
    return float(E[k]), float(X1[k]), float(Q1[k])
