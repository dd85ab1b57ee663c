"""The KKT subproblem solvers, the fixed-data dual and the joint dual.

Each subproblem pins two of the three variable blocks (data split L,
bandwidth x, compute q) and splits the budgets of the third, each priced
by one dual:

  solve_daa: each user's task over its pairs, at the data dual lambda,
             the common dE/dL of its loads;
  solve_baa: the bandwidth over the active pairs at fixed slack, at one
             dual beta = -dE/dx > 0;
  solve_caa: one AP's compute over its active users at fixed bandwidth,
             at one dual mu = -dE/dq > 0;
  solve_bcaa: bandwidth and compute for a fixed data split. It
             maximises the fixed-data dual q(beta, mu) by Newton steps
             in the 1 + M log prices, with `physics.price_oracle` giving
             each pair's minimiser (`_price`), reads (x, q) off them and
             certifies them by the duality gap (`_read_off`);
  joint_split: the outer loop's first candidate, the fast dual step: the
             soft-argmin split of a log-sum-exp smoothing of the joint dual
             G(beta, mu) = sum_i T_i*min_j e_ij - beta*B - sum_j mu_j*C_j
             (`joint_dual`), maximised by Newton steps in the same prices,
             with its (x, q) read off and certified as in solve_bcaa;
  pair_costs: every pair's cost per bit e_ij at given prices, the
             minimand of the joint dual;
  barrier_stages: the candidates after it, the centring stages of a
             barrier method on the whole problem in (L, x, q); each
             candidate is one record (`Candidate`).

Every derivative comes from the pair model in `physics`. The first three
are references for the tests, off the solve path. They share one step,
`_barrier_split`: barrier stages in the one free coordinate of each pair,
whose diagonal Hessian prices each budget in closed form. They minimise
the energy itself, so they stay independent of the pricings they check.

Every pricing is a `_newton` solve in the log prices inside DUAL_RANGE,
run to half of bisect_tol; it raises nothing, and its callers read how
it stopped (`_price`, `joint_split`). No pricing bisects per pair: the
price oracle (`physics.price_oracle`) and the bandwidth root
z = L*ln2/(x*t), `physics.exponent_root`(beta/(a*t)), take the same
Newton step in ln z, on one kappa(z), a fixed count of times.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    EXPONENT_CAP,
    LN2,
    BracketError,
    ConvergenceError,
    DegenerateInputError,
    InfeasibilityError,
    InfeasiblePairError,
    SolveConfig,
    StructuralError,
    deadline_slack,
    least_bandwidth,
    least_load,
)
from .physics import (
    bracket,
    energy,
    energy_derivatives,
    energy_matrix,
    exponent_root,
    price_oracle,
)

# keeps every slack at least this fraction of the deadline away from the
# t = 0 singularity of 2**(L/(x t))
SLACK_MARGIN = 1e-6

# every pricing stays inside this range; its Newton steps run in its log
DUAL_RANGE = (1e-280, 1e280)
LOG_RANGE = tuple(np.log(DUAL_RANGE))

# most calls of its system in one `_newton` solve, and steps of a barrier stage
MAX_DUAL_PROBES = 200

# longest Newton step of the fixed-data pricing in any log price: ten
# decades
MAX_PRICE_STEP = math.log(1e10)

# the joint dual step: the log-sum-exp temperature of its first stages as
# a fraction of each user's cheapest cost per bit; the continuation
# (`joint_split`) picks the temperature of every later stage
JOINT_SMOOTHING = (1e-3, 1e-4)

# the outer loop stops when its energy E is within GAP_TOL*E of the joint
# Lagrangian bound, which no split can beat; the dual step's smoothing may
# spend half of it
GAP_TOL = 1e-5

# the growth of the barrier weight per stage, here and in `_barrier_split`,
# and half the Newton decrement at which a stage of `barrier_stages` is centred
BARRIER_GROWTH = 20.0
CENTRING_TOL = 1e-9


# one outer-loop answer: an allocation, its prices, its energy and the joint dual at them
Candidate = namedtuple("Candidate", "L x q beta mus energy bound")


@dataclass(frozen=True)
class DualVariable:
    """A Lagrange/auxiliary multiplier: a budget's price, from a subproblem
    reference (`_barrier_split`) or a Newton pricing.

    kind "lambda_data" stores the nonnegative reparameterization of the
    per-user data multiplier (the raw multiplier is its negative);
    "beta_bandwidth" is global and strictly positive; "mu_compute" is
    per-AP and nonnegative. owner is the user/AP index, or None for the
    global bandwidth dual.
    """

    kind: str
    value: float
    owner: Optional[int] = None

    def __post_init__(self):
        if self.kind == "beta_bandwidth":
            if self.value <= 0:
                raise StructuralError("bandwidth dual must be positive")
        elif self.kind in ("mu_compute", "lambda_data"):
            if self.value < 0:
                raise StructuralError(f"{self.kind} dual must be nonnegative")
        else:
            raise StructuralError(f"unknown dual kind {self.kind!r}")


@dataclass(frozen=True)
class SolveDiagnostic:
    dual: DualVariable
    residual: float
    iterations: int


def _barrier_split(kind, owners, group, targets, pairs, c, v, lo, cfg, diag=None):
    """Split each budget at least energy over coordinate c (0, 1, 2 for
    L, x, q) of pairs = (L, x, q, d, eta, a), the other two held: element k
    counts towards targets[group[k]]. v > lo is a start of finite energy
    that meets every budget.

    Barrier stages (Boyd & Vandenberghe, Convex Optimization, ch. 11) on
    tau_g*E_g - sum log(v - lo) per budget g, whose gap bound m_g/tau_g
    (m_g elements) starts at E_g and falls BARRIER_GROWTH-fold a stage to
    float64 resolution of E_g. Each element's curvature comes from
    `physics.energy_derivatives`: the Hessian is diagonal, so each nu_g is
    one closed-form sum. A budget takes its full Newton step once the
    decrement is below 1e-2, else halves it until the trial keeps t > 0 and
    the rate exponent within EXPONENT_CAP and the slope along the step,
    read off derivatives that no rounding of a large energy hides, is not
    positive. A stage ends after MAX_DUAL_PROBES steps or once each budget
    is centred, every |g + nu| at most 1e-12*|nu|, or at its rounding
    floor, no nearer after a full step or a stall. A final |g + nu|/|nu|
    above bisect_tol raises ConvergenceError. diag gets one `kind` record
    per budget, its dual dE/dL for the data, -dE/dx and -dE/dq otherwise.
    Returns (duals, v rescaled onto each budget).
    """
    n, m = targets.size, np.bincount(group, minlength=targets.size)
    pairs = list(pairs)

    def at(v):  # the domain mask and, inside it, v - lo, E, dE/dv and d2E/dv2
        pairs[c] = v
        L, x, q, d, eta, a = pairs
        t = d - eta * L / q
        ok = (v > lo) & (t > 0.0) & (L <= EXPONENT_CAP * x * t)
        terms = np.ones((4, v.size))
        terms[0, ok] = (v - lo)[ok]
        terms[1, ok] = energy(L[ok] / (x[ok] * t[ok]), x[ok], t[ok], a[ok])
        grad, hess = energy_derivatives(*(p[ok] for p in pairs))
        terms[2:, ok] = grad[:, c], hess[:, c, c]
        return ok, terms

    ok, (gap, e, de, d2e) = at(v)
    if not ok.all():
        raise ConvergenceError(f"{kind}: the start leaves a pair outside its domain")
    tau, steps = m / np.bincount(group, e, n), 0
    while True:
        last = np.full(n, np.inf)
        for _ in range(MAX_DUAL_PROBES):
            g = tau[group] * de - 1.0 / gap
            h = tau[group] * d2e + 1.0 / gap ** 2
            nu = -np.bincount(group, g / h, n) / np.bincount(group, 1.0 / h, n)
            worst = np.zeros(n)  # each budget's largest |g + nu|/|nu|
            np.maximum.at(worst, group, np.abs(g + nu[group]) / np.abs(nu[group]))
            if np.all((worst <= 1e-12) | (worst >= last)):  # centred, or at its floor
                break
            step = -(g + nu[group]) / h
            decrement, s = np.bincount(group, h * step * step, n), np.ones(n)
            while True:
                ok, trial = at(w := v + s[group] * step)
                # the slope along the step; inf for a trial outside the domain
                slope = np.bincount(group, np.where(
                    ok, (tau[group] * trial[2] - 1.0 / trial[0] + nu[group]) * step, np.inf), n)
                good = (slope <= 0.0) | ((decrement < 1e-2) & (slope < np.inf))
                if good.all():
                    break
                s = np.where(good, s, 0.5 * s)
                s[s < 1e-12] = 0.0  # a stall: the trial at s = 0 is the start
            last = np.where((s == 0.0) | (s == 1.0), worst, np.inf)
            v, (gap, e, de, d2e), steps = w, trial, steps + 1
        done = m / tau <= np.finfo(float).eps * np.bincount(group, e, n)
        if done.all():
            break
        tau = np.where(done, tau, BARRIER_GROWTH * tau)
    if (worst > cfg.bisect_tol).any():
        b = int(np.argmax(worst))
        owner = "" if owners[b] is None else f" {owners[b]}"
        raise ConvergenceError(f"{kind}{owner}: stationarity residual {worst[b]:.3e}")
    duals = (-nu if kind == "lambda_data" else nu) / tau
    if diag is not None:
        diag.extend(SolveDiagnostic(DualVariable(kind, float(p), owner=o), float(r), steps)
                    for p, o, r in zip(duals, owners, worst))
    return duals, v * (targets / np.bincount(group, v, n))[group]


# ---------------------------------------------------------------------------
# DAA: data allocation for fixed bandwidth and compute

def solve_daa(scenario, x, q, cfg: SolveConfig, diag=None):
    """Optimal data split per user for fixed bandwidth and compute.

    Each user's row is an independent convex problem, one budget of
    `_barrier_split` in L from the split in proportion to each pair's
    largest load; pairs whose optimal load falls at or below the activity
    threshold are frozen at zero with the surviving pairs re-solved so
    the row budget stays exact.
    """
    x, q = np.asarray(x, dtype=float), np.asarray(q, dtype=float)
    K, M, bits = scenario.num_users, scenario.num_aps, scenario.task_bits
    usable = (q > 0) & (x > 0)

    for _ in range(M + 1):
        ui, uj = np.nonzero(usable)
        d, eta = scenario.deadlines_s[ui], scenario.cycles_per_bit[ui]
        upper = (1.0 - SLACK_MARGIN) * d * q[ui, uj] / eta
        room = np.bincount(ui, weights=upper, minlength=K)
        if np.any(room < bits):
            i = int(np.nonzero(room < bits)[0][0])
            raise InfeasibilityError(
                f"user {i}: maximal feasible loads carry {room[i]:.6g} "
                f"of {bits[i]:.6g} bits", user=i)
        records = []
        pairs = (None, x[ui, uj], q[ui, uj], d, eta, scenario.noise_over_gain[ui, uj])
        _, loads = _barrier_split("lambda_data", range(K), ui, bits, pairs, 0,
                                  upper * (bits / room)[ui], 0.0, cfg, records)
        crumbs = loads <= scenario.activity_threshold_bits
        if crumbs.any():
            usable[ui[crumbs], uj[crumbs]] = False
            continue
        if diag is not None:
            diag.extend(records)
        out = np.zeros((K, M))
        out[ui, uj] = loads
        return out
    raise ConvergenceError("activity freezing did not settle")


# ---------------------------------------------------------------------------
# BAA: bandwidth allocation for fixed data and slack

def solve_baa(scenario, t, L, cfg: SolveConfig, diag=None):
    """Bandwidth split across all active pairs for fixed data and slack.

    One budget of `_barrier_split` in x, from the split in proportion to
    each pair's L/t; its dual beta > 0 is the price of bandwidth.
    """
    L, t = np.asarray(L, dtype=float), np.asarray(t, dtype=float)
    act = L > scenario.activity_threshold_bits
    if not act.any():
        raise DegenerateInputError("no active pairs to allocate bandwidth to")
    i = np.nonzero(act)[0]
    Lv, tv, dv, eta = L[act], t[act], scenario.deadlines_s[i], scenario.cycles_per_bit[i]
    if np.any(tv <= 0) or np.any(tv >= dv):
        raise StructuralError("slack must be interior (0, deadline) on active pairs")
    B, rate = scenario.bandwidth_hz, Lv / tv
    out = np.zeros_like(L)
    out[act] = _barrier_split(
        "beta_bandwidth", [None], np.zeros(Lv.size, dtype=int), np.array([B]),
        (Lv, None, eta * Lv / (dv - tv), dv, eta, scenario.noise_over_gain[act]), 1,
        B * rate / rate.sum(), 0.0, cfg, diag)[1]
    return out


# ---------------------------------------------------------------------------
# CAA: compute allocation, per AP

def solve_caa(scenario, x, L, ap, cfg: SolveConfig, diag=None):
    """Slack (hence compute) split among one AP's active users at fixed x;
    the other users keep their deadline as slack. The capacity binds: one
    budget of `_barrier_split` in q, above each user's least demand
    eta*L/D, from the split in proportion to it; its dual mu is the price
    of the AP's compute. Raises when the AP serves no active user, when an
    active user has no bandwidth, and when the AP's least load
    (`model.least_load`) reaches its capacity."""
    L, x = np.asarray(L, dtype=float), np.asarray(x, dtype=float)
    act = L[:, ap] > scenario.activity_threshold_bits
    if not act.any():
        raise DegenerateInputError(f"AP {ap} serves no active user")
    if np.any(x[act, ap] <= 0):
        raise StructuralError(f"AP {ap}: active user without bandwidth")
    load = least_load(scenario, L, L > scenario.activity_threshold_bits)[ap]
    cap = scenario.compute_capacity[ap]
    if load >= cap:
        raise InfeasibilityError(
            f"AP {ap}: compute demand {load:.6g} exceeds capacity {cap:.6g}", ap=ap)
    Lv, dv, eta = L[act, ap], scenario.deadlines_s[act], scenario.cycles_per_bit[act]
    least = eta * Lv / dv
    q = np.full(act.shape, np.inf)
    q[act] = _barrier_split(
        "mu_compute", [ap], np.zeros(Lv.size, dtype=int), np.array([cap]),
        (Lv, x[act, ap], None, dv, eta, scenario.noise_over_gain[act, ap]), 2,
        least * (cap / load), least, cfg, diag)[1]
    return deadline_slack(scenario.deadlines_s, scenario.cycles_per_bit, L[:, ap], q)


# ---------------------------------------------------------------------------
# The fixed-data dual: one bandwidth price and one compute price per AP

def _pricing_inputs(scenario, L):
    """What the fixed-data dual of split L depends on: its activity mask,
    the active pairs in row-major order as (loads, deadlines, cycles per
    bit, noise-to-gain ratios), the position of each pair's AP among the
    served APs, the budgets (B, then C_j of each served AP) and the served
    APs."""
    act = L > scenario.activity_threshold_bits
    i, j = np.nonzero(act)
    aps = np.flatnonzero(act.any(axis=0))
    pairs = (L[i, j], scenario.deadlines_s[i], scenario.cycles_per_bit[i],
             scenario.noise_over_gain[i, j])
    budgets = np.concatenate(([scenario.bandwidth_hz], scenario.compute_capacity[aps]))
    return act, pairs, np.searchsorted(aps, j), budgets, aps


def fixed_data_dual(scenario, L, beta, mus):
    """The fixed-data dual at bandwidth price beta and M-vector of
    compute prices mus,

        q(beta, mu) = sum over active pairs of L_ij*e_ij(beta, mu_j)
                      - beta*B - sum over served APs of mu_j*C_j,

    with e_ij the pair's cheapest cost per bit (`physics.price_oracle`).
    An AP that serves no active pair enters with mu_j = 0. By weak
    duality q never exceeds the energy of any (x, q) that meets both
    budgets at this data split (Boyd & Vandenberghe, Convex Optimization,
    sec. 5.5), and its maximum is the fixed-data optimum.
    """
    _, pairs, col, budgets, aps = _pricing_inputs(scenario, np.asarray(L, dtype=float))
    prices = np.append(beta, np.asarray(mus, dtype=float)[aps])
    e = price_oracle(beta, prices[1:][col], *pairs[1:])[0]
    return float(pairs[0] @ e - prices @ budgets)


def _budget_terms(beta, t, s, pairs, col, budgets):
    """Scaled budget residuals of the allocation the oracle induces at
    slacks t and bandwidths per bit s, and their Jacobian in the log
    prices y = (ln beta, ln mu of each served AP), at fixed loads.

    The residuals (sum x/B - 1, sum_i q_ij/C_j - 1) are the gradient of
    q(beta, mu) scaled by the budgets. Their Jacobian comes from implicit
    differentiation through the pair's slack root
    H = ln(beta*ln2) + 2 ln(D - t) - ln(mu*eta) - 2 ln t - ln z = 0 and
    the bandwidth root, along which d ln z = k*(d ln beta - d ln t) with
    k = c*e^-z/z^2, c = beta/(a*t).
    """
    Lv, d, eta, a = pairs
    z = LN2 / (t * s)
    k = beta / (a * t) * np.exp(-z) / (z * z)
    h = 2.0 * d / (d - t) - k  # -dH/d ln t
    dt = (1.0 - k) / h  # d ln t/d ln beta; d ln t/d ln mu is -1/h
    x, q = Lv * s, Lv * eta / (d - t)
    qt = q * t / (d - t)  # dq/d ln t
    m = budgets.size - 1
    sums = np.append(x.sum(), np.bincount(col, weights=q, minlength=m))
    J = np.diag(np.append(x @ (-dt - k * (1.0 - dt)),
                          np.bincount(col, weights=-qt / h, minlength=m)))
    # d ln(x/L)/d ln mu = (1 - k)/h, which is d ln t/d ln beta
    J[0, 1:] = np.bincount(col, weights=x * dt, minlength=m)
    J[1:, 0] = np.bincount(col, weights=qt * dt, minlength=m)
    return sums / budgets - 1.0, J / budgets[:, None]


def _budget_system(y, pairs, col, budgets):
    """`_budget_terms` at the log prices y, with one oracle call.
    Returns (residuals, Jacobian, the oracle's (e, t, x/L))."""
    _, d, eta, a = pairs
    beta = np.exp(y[0])
    oracle = price_oracle(beta, np.exp(y[1:])[col], d, eta, a)
    return (*_budget_terms(beta, *oracle[1:], pairs, col, budgets), oracle)


def _solve(A, b):
    """A^-1 b, or None when A is singular to working precision."""
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    return x if np.all(np.isfinite(x)) else None


def _newton(system, y, tol, first=None):
    """Safeguarded Newton solve of system(y) = (r, J, extra): the
    residuals r, their Jacobian J in the log prices y and whatever the
    caller wants back from the last accepted iterate. first, when given,
    is system(y), which the caller has evaluated already.

    A step longer than MAX_PRICE_STEP in any price is scaled down as a
    whole. Its first trial takes the fraction of the step that the last
    accepted trial took, four times it when that trial was the first of
    its step, and at most the whole step; a trial is halved until the
    residual norm falls. So a solve that had to shorten its steps does not
    try each new one whole first. The iterates stay inside DUAL_RANGE.
    Stops once every residual is inside tol, and like a stall when J is
    singular to working precision, when no step lowers the norm, when a
    step would leave the range from its edge (the root lies beyond it) or
    after MAX_DUAL_PROBES calls of system. It raises nothing: the caller
    reads how it stopped off the residuals and prices it returns. Returns
    (y, r, extra) of the best iterate and the count of calls.
    """
    y = np.clip(y, *LOG_RANGE)
    r, J, extra = first or system(y)
    calls, frac = int(first is None), 1.0
    while np.abs(r).max() > tol and calls < MAX_DUAL_PROBES:
        if (step := _solve(J, -r)) is None:  # J singular: a stall
            break
        step *= min(1.0, MAX_PRICE_STEP / np.abs(step).max())
        if np.any(((y <= LOG_RANGE[0]) & (step < 0)) | ((y >= LOG_RANGE[1]) & (step > 0))):
            break
        norm = np.linalg.norm(r)
        start = frac
        while calls < MAX_DUAL_PROBES:
            y_try = np.clip(y + frac * step, *LOG_RANGE)
            r_try, J_try, extra_try = system(y_try)
            calls += 1
            if np.linalg.norm(r_try) < norm:
                break
            frac *= 0.5
            if frac * np.abs(step).max() < 1e-15:
                return y, r, extra, calls
        else:
            return y, r, extra, calls
        y, r, J, extra = y_try, r_try, J_try, extra_try
        if frac == start:
            frac = min(1.0, 4.0 * frac)
    return y, r, extra, calls


def _start_prices(pairs, col, t, B):
    """The log prices, of the bandwidth and of each served AP, that the
    fixed-data pricing starts from at the slack t of each pair: beta is
    the L-weighted geometric mean of the prices -a*t*bracket(z) that give
    each pair its load's share of B (z = sum L*ln2/(B*t)), and each AP's
    price the L-weighted geometric mean over its pairs of the compute
    price that makes the slack t stationary, beta*ln2*(D - t)^2/(eta*t^2*z)
    with z = exponent_root(beta/(a*t))."""
    Lv, d, eta, a = pairs
    with np.errstate(over="ignore"):
        share = -bracket(Lv.sum() * LN2 / (B * t))
    log_beta = Lv @ np.log(a * t * share) / Lv.sum()
    z = exponent_root(np.exp(log_beta) / (a * t))
    log_mu = log_beta + np.log(LN2 / (eta * z)) + 2.0 * np.log((d - t) / t)
    return np.append(log_beta, np.bincount(col, weights=Lv * log_mu) / np.bincount(col, weights=Lv))


# ---------------------------------------------------------------------------
# The joint dual: the split prices choose

def joint_dual(scenario, beta, mus, e=None):
    """The Lagrangian bound of the full problem at bandwidth price beta
    and M-vector of compute prices mus,

        G(beta, mu) = sum_i T_i*min_j e_ij(beta, mu_j) - beta*B - sum_j mu_j*C_j.

    For fixed prices each pair's Lagrangian is homogeneous of degree one
    in its load, so by weak duality G never exceeds the energy of any
    feasible allocation, whatever its data split. e, when given, is
    `pair_costs` at these prices.
    """
    mus = np.asarray(mus, dtype=float)
    if e is None:
        e = pair_costs(scenario, beta, mus)
    return float(scenario.task_bits @ e.min(axis=1) - beta * scenario.bandwidth_hz
                 - mus @ scenario.compute_capacity)


def pair_costs(scenario, beta, mus):
    """Cost per bit e_ij (`physics.price_oracle`) of all K x M pairs at
    bandwidth price beta and M-vector of compute prices mus: by Danskin's
    theorem (Bertsekas, Nonlinear Programming, Prop. B.25) dF/dL_ij of the
    energy F(L) that the re-balance of split L reaches, when they are its
    prices."""
    return price_oracle(beta, mus, scenario.deadlines_s[:, None],
                        scenario.cycles_per_bit[:, None], scenario.noise_over_gain)[0]


def _joint_system(y, bits, pairs, col, tau, budgets, oracle=None):
    """Scaled gradient of the smoothed joint dual
    G_tau = sum_i T_i*softmin_{tau_i, j} e_ij - beta*B - sum_j mu_j*C_j
    and its Jacobian in the log prices y = (ln beta, ln mu_1..M), over
    all K*M pairs of the full split (`_pricing_inputs`), from the oracle's
    (e, t, x/L) at y: one oracle call unless oracle holds them already.

    The gradient is the scaled budget residual of the loads L = T*w, w
    the soft-argmin weights, so its Jacobian is `_budget_terms` at those
    loads plus the weight term
    -sum_i (T_i/tau_i)*sum_j w_ij*u_ij*(D_ij - Dbar_i)^T, scaled by the
    budgets. Here u_ij = (x/L, eta/(D - t)) is the pair's budget use per
    bit, D_ij = p*u_ij the gradient of e_ij in the log prices and Dbar_i
    the w-weighted mean of D_ij over user i's APs, so the term is
    -sum_i (T_i/tau_i)*Cov_w(u_i)*diag(p): two nonzeros per u_ij make every
    entry a column sum. Returns (residuals, Jacobian, (w, oracle)).
    """
    _, d, eta, a = pairs
    K, M = bits.size, budgets.size - 1
    p = np.exp(y)
    if oracle is None:
        oracle = price_oracle(p[0], p[1:][col], d, eta, a)
    e, t, s = (v.reshape(K, M) for v in oracle)
    w = np.exp((e.min(axis=1, keepdims=True) - e) / tau[:, None])
    w /= w.sum(axis=1, keepdims=True)
    r, J = _budget_terms(p[0], t.ravel(), s.ravel(), ((bits[:, None] * w).ravel(), d, eta, a),
                         col, budgets)
    uc = eta.reshape(K, M) / (d.reshape(K, M) - t)
    c = (bits / tau)[:, None]
    cw = c * w
    U = np.column_stack(((w * s).sum(axis=1), w * uc))  # w-weighted mean u, K x (1 + M)
    cov = np.diag(np.append((cw * s * s).sum(), (cw * uc * uc).sum(axis=0)))
    cov[0, 1:] = cov[1:, 0] = (cw * s * uc).sum(axis=0)
    cov -= (c * U).T @ U
    return r, J - cov * p / budgets[:, None], (w, oracle)


def joint_split(scenario, cfg: SolveConfig):
    """The data split the prices of the joint dual choose, and the
    allocation read off them.

    Maximises the smoothed joint dual (`_joint_system`) over the 1 + M
    log prices in stages from the logs of the prices `_price` returns for
    the capacity split L_ij = T_i*C_j/sum C, which pools the spare compute:
    its InfeasibilityError decides the scenario, and its raises propagate.
    With tau -> 0 the bound tends to G(beta, mu) (`joint_dual`), whose
    maximum nearly always meets the energy: the time-sharing argument of
    Yu & Lui (IEEE Trans. Commun. 2006), with the log-sum-exp smoothing of
    Nesterov (Math. Program. 2005).

    Stage k fixes tau_i = kappa_k*min_j e_ij at its start prices and
    solves to half of bisect_tol by one `_newton` solve, like every
    pricing, from the oracle pass that ended the stage before. A stage
    that stops short of that tolerance fails. The step is a fast path:
    a draw it cannot certify, one whose optimum leaves an AP idle
    included, goes to the barrier stages (`barrier_stages`).

    The smoothing costs the soft split a bias
    S = sum_i T_i*(sum_j w_ij*e_ij - min_j e_ij) <= sum_i T_i*tau_i*ln M
    over G, read off the last iterate with no oracle call. After the
    stages of JOINT_SMOOTHING, Nesterov's continuation runs one more stage
    while S is above half of GAP_TOL times the soft split's Lagrangian
    value E_soft = G + S, the half of the start's gap tolerance the
    smoothing may spend. S shrinks about in proportion to kappa, so the
    next kappa is the last one times half the ratio of that target to S;
    it goes no lower than the kappa at which the bound on S meets the
    target, and the continuation stops when the last kappa was there.

    Returns the `Candidate` of the last stage that met the tolerance:
    L = T*w at its soft-argmin weights, loads at or below the activity
    threshold dropped and each row rescaled onto its task; its prices; the
    (x, q, E) `_read_off` certifies at them; and G read off the oracle of
    its last accepted iterate, where `joint_dual` is G. None when the
    first stage fails or the read-off misses its certificate.
    """
    cap = scenario.compute_capacity
    beta, mus = _price(scenario, scenario.task_bits[:, None] / (cap.sum() / cap), cfg)[0]
    y = np.log(np.append(beta, mus))
    K, M = scenario.num_users, scenario.num_aps
    bits, tol = scenario.task_bits, 0.5 * cfg.bisect_tol
    # every task once on each of the M APs
    _, pairs, col, budgets, _ = _pricing_inputs(scenario, np.repeat(bits[:, None], M, axis=1))
    p = np.exp(y)
    oracle = price_oracle(p[0], p[1:][col], *pairs[1:])

    def system(y, oracle=None):
        return _joint_system(y, bits, pairs, col, tau, budgets, oracle)

    best, kappa = None, JOINT_SMOOTHING[0]
    for stage in itertools.count(1):
        tau = kappa * oracle[0].reshape(K, M).min(axis=1)
        # the first call reuses the last oracle pass
        y, r, (w, oracle), _ = _newton(system, y, tol, system(y, oracle))
        if np.abs(r).max() > tol:
            break
        p = np.exp(y)
        e = oracle[0].reshape(K, M)
        bound, least = joint_dual(scenario, p[0], p[1:], e), bits @ e.min(axis=1)
        bias = bits @ (w * e).sum(axis=1) - least
        w[bits[:, None] * w <= scenario.activity_threshold_bits] = 0.0
        best = (bits[:, None] * w / w.sum(axis=1, keepdims=True), bound, p, oracle)
        target = 0.5 * GAP_TOL * (bound + bias)
        if stage < len(JOINT_SMOOTHING):
            kappa = JOINT_SMOOTHING[stage]
        elif bias > target and kappa > (low := target / (least * math.log(M))):
            kappa = max(0.5 * kappa * target / bias, low)
        else:
            break
    if best is None:
        return None
    L, bound, p, oracle = best
    inputs = _pricing_inputs(scenario, L)
    act = inputs[0].ravel()
    try:
        x, q, energy = _read_off(scenario, L, cfg, inputs, np.append(p[0], p[1:][inputs[-1]]),
                                 *(v[act] for v in oracle))
    except (ConvergenceError, InfeasiblePairError):
        return None
    return Candidate(L, x, q, p[0], p[1:], energy, bound)


def barrier_stages(scenario):
    """The centring stages of a primal barrier method on the convex
    problem in (L, x, q) (Boyd & Vandenberghe, Convex Optimization,
    ch. 11), each a `Candidate`: its allocation, its budget multipliers as
    prices, its energy (one `physics.energy_matrix` call) and the joint
    dual at them.

    Over each pair's shares l = L/T, xi = x/B and rho = q/C, a stage
    minimises tau*E - sum log l - sum log xi - sum log(D*q - eta*L) by
    Newton steps that keep every budget (sum_j l, sum xi, each sum_i rho
    at 1): each pair's 3x3 Hessian (`physics.energy_derivatives` and the
    barrier's) is inverted, the K + 1 + M budget rows solved through its
    Schur complement, and an Armijo search rejects any trial outside the
    domain or with a rate exponent above EXPONENT_CAP. A stage ends once
    half the Newton decrement is at most CENTRING_TOL or no longer falls
    after a full step (its rounding floor), when no trial is strictly
    lower, or after MAX_DUAL_PROBES steps. Its multipliers are
    nu_B/(tau*B) and nu_j/(tau*C_j) of its last Newton system. The start,
    interior if the total least demand fits the total capacity (else there
    is no stage), is the capacity split, each AP's compute in proportion
    to its users' least demands eta*T/D and equal bandwidth; there the gap
    bound 3KM/tau is its energy over BARRIER_GROWTH^2. tau grows
    BARRIER_GROWTH-fold per stage, until that bound is within float64
    resolution of the stage's energy, as in `_barrier_split`; a singular
    Newton system, a pair's 3x3 block or the Schur system, ends the stages
    too.

    A stage's allocation is its centred point with every pair at or below
    the activity threshold set to L = x = q = 0 and each budget's shares
    rescaled onto it: L onto each task, x onto B and q onto C_j of each
    served AP. On the central path the point is within 3KM/tau of the
    optimum at its own multipliers (sec. 11.2.2), so the stage needs no
    re-balance.
    """
    K, M, B, bits = scenario.num_users, scenario.num_aps, scenario.bandwidth_hz, scenario.task_bits
    n, R, cap = K * M, K + M + 1, scenario.compute_capacity
    i, j = np.divmod(np.arange(n), M)
    d, eta, a = scenario.deadlines_s[i], scenario.cycles_per_bit[i], scenario.noise_over_gain
    a, scale = a.ravel(), np.column_stack((bits[i], np.full(n, B), cap[j]))
    rows = np.column_stack((i, np.full(n, K), K + 1 + j))  # each share's budget
    c = np.column_stack((-eta * bits[i], np.zeros(n), d * cap[j]))  # d(D*q - eta*L)/d shares
    least, logs = bits * eta[::M] / d[::M], np.array([1.0, 1.0, 0.0])  # shares with a log barrier
    z = np.column_stack(((cap / cap.sum())[j], np.full(n, 1.0 / n), (least / least.sum())[i]))

    def objective(z):  # (E, the barrier, D*q - eta*L); E is inf outside the domain
        (L, x, q), room = (z * scale).T, (z * c).sum(axis=1)
        if min(z[:, :2].min(), room.min()) <= 0.0 or np.any(L * q > EXPONENT_CAP * x * room):
            return np.inf, 0.0, room
        return (energy(L * q / (x * room), x, room / q, a).sum(),
                -np.log(z[:, :2]).sum() - np.log(room).sum(), room)

    E, barrier, room = objective(z)
    tau = 3.0 * n * BARRIER_GROWTH ** 2 / E
    while np.isfinite(E):
        s_last, last = 0.0, np.inf
        for steps in range(MAX_DUAL_PROBES):
            grad, hess = energy_derivatives(*(z * scale).T, d, eta, a)
            g = tau * grad * scale - c / room[:, None] - logs / z
            H = tau * hess * scale[:, :, None] * scale[:, None, :] + c[:, :, None] * c[:, None, :] \
                / (room * room)[:, None, None] + np.eye(3) * (logs / z ** 2)[:, :, None]
            if (Hi := _solve(H, np.broadcast_to(np.eye(3), H.shape))) is None:
                return
            S = np.bincount((rows[:, :, None] * R + rows[:, None, :]).ravel(), Hi.ravel(), R * R)
            if (nu := _solve(S.reshape(R, R), -np.bincount(
                    rows.ravel(), np.einsum("nab,nb->na", Hi, g).ravel(), R))) is None:
                return
            step = -np.einsum("nab,nb->na", Hi, g + nu[rows])
            decrement, s = -(g * step).sum(), 1.0
            if decrement <= 2.0 * CENTRING_TOL or (s_last == 1.0 and decrement >= last):
                break
            while s > 1e-12:
                z_try = z + s * step  # back on every budget, off it by rounding only
                z_try /= np.bincount(rows.ravel(), z_try.ravel(), R)[rows]
                trial = objective(z_try)
                if tau * trial[0] + trial[1] < tau * E + barrier - 0.25 * s * decrement:
                    break
                s *= 0.5
            else:
                break
            z, (E, barrier, room), s_last, last = z_try, trial, s, decrement
        prices = np.maximum(nu[K:] / (tau * np.append(B, cap)), DUAL_RANGE[0])
        beta, mus = prices[0], prices[1:]
        L, x, q = np.moveaxis((z * scale).reshape(K, M, 3), 2, 0)
        off = L <= scenario.activity_threshold_bits
        L[off] = x[off] = q[off] = 0.0
        L *= (bits / L.sum(axis=1))[:, None]
        x *= B / x.sum()
        served = q.sum(axis=0) > 0.0
        q[:, served] *= cap[served] / q[:, served].sum(axis=0)
        yield Candidate(L, x, q, beta, mus, float(energy_matrix(scenario, L, x, q).sum()),
                        joint_dual(scenario, beta, mus))
        if 3.0 * n / tau <= np.finfo(float).eps * E:
            return
        tau *= BARRIER_GROWTH


# ---------------------------------------------------------------------------
# BCAA: joint bandwidth and compute allocation for fixed data

def _price(scenario, L, cfg, diag=None):
    """`solve_bcaa`'s pricing of split L: one feasibility check, then the
    maximisation of the fixed-data dual.

    A bandwidth budget at or below the split's `model.least_bandwidth`
    raises InfeasibilityError, naming an AP whose `model.least_load`
    reaches its capacity. The Newton solve, of the prices of the bandwidth
    and of each AP that serves an active pair, starts from `_start_prices`
    at the slack D*(1 - load_j/C_j) of the capacity split proportional to
    eta*L/D; ending short of its tolerance at an edge of DUAL_RANGE, it
    raises BracketError. diag, when a list, gets one record per final
    price. Returns (beta, mus), mus an M-vector with every idle AP at the
    floor of DUAL_RANGE; the `_pricing_inputs` of L; the final prices of
    the bandwidth and the served APs; and the oracle's (e, t, x/L) there."""
    inputs = act, pairs, col, budgets, aps = _pricing_inputs(scenario, L)
    if not act.any():
        raise DegenerateInputError("no active pairs")
    load, cap = least_load(scenario, L, act), scenario.compute_capacity
    if (need := least_bandwidth(scenario, L)) >= budgets[0]:
        j = int(np.argmax(over := load >= cap))  # an overloaded AP makes the need infinite
        raise InfeasibilityError(
            f"AP {j}: data split demands {load[j]:.6g} cycles/s of {cap[j]:.6g}" if over[j] else
            f"bandwidth {budgets[0]:.6g} Hz is {need - budgets[0]:.6g} Hz short of the "
            f"{need:.6g} Hz the data split needs", ap=j if over[j] else None)
    y = _start_prices(pairs, col, (scenario.deadlines_s[:, None] * (1.0 - load / cap))[act],
                      budgets[0])
    # driving the scaled budget residuals to zero maximises q(beta, mu)
    tol = 0.5 * cfg.bisect_tol
    y, r, oracle, calls = _newton(lambda y: _budget_system(y, pairs, col, budgets), y, tol)
    if np.abs(r).max() > tol and np.any((y <= LOG_RANGE[0]) | (y >= LOG_RANGE[1])):
        raise BracketError(f"dual root outside the range {DUAL_RANGE}")
    p = np.exp(y)
    if diag is not None:
        kinds = ["beta_bandwidth"] + ["mu_compute"] * aps.size
        diag.extend(SolveDiagnostic(DualVariable(k, float(v), owner=o), float(abs(ri)), calls)
                    for k, v, o, ri in zip(kinds, p, [None, *aps.tolist()], r))
    mus = np.full(scenario.num_aps, DUAL_RANGE[0])
    mus[aps] = p[1:]
    return (p[0], mus), inputs, p, *oracle


def _read_off(scenario, L, cfg, inputs, prices, e, t, s):
    """The certified (x, q) of split L at prices (beta, then the mu of
    each served AP), read off the oracle's (e, t, x/L) at the active pairs
    of L, with inputs its `_pricing_inputs`. At fixed prices each pair's
    Lagrangian has one minimiser, so x = L*(x/L) and q = L*eta/(D - t)
    (Boyd & Vandenberghe, Convex Optimization, sec. 5.5.5), each budget's
    shares rescaled onto its total. A scaled budget residual above
    bisect_tol, or a duality gap E - q above bisect_tol*E, with
    q = sum L*e - prices @ budgets (`fixed_data_dual`), raises
    ConvergenceError.

    Returns (x, q, E), with x and q K x M and E evaluated once.
    """
    act, (Lv, d, eta, _), col, budgets, aps = inputs
    xv, qv = Lv * s, Lv * eta / (d - t)
    r = np.append(xv.sum(), np.bincount(col, weights=qv, minlength=aps.size)) / budgets - 1.0
    k = int(np.argmax(np.abs(r)))
    # the sums are rounded, so no residual is known to below float64 resolution
    if (res := max(abs(r[k]), np.finfo(float).eps)) > cfg.bisect_tol:
        budget = "bandwidth" if k == 0 else f"AP {aps[k - 1]} compute"
        raise ConvergenceError(f"fixed-data pricing: {budget} budget residual {res:.3e}")
    # r is sum/total - 1, so dividing by 1 + r puts each budget on its total
    x, q = np.zeros_like(L), np.zeros_like(L)
    x[act] = xv / (1.0 + r[0])
    q[act] = qv / (1.0 + r[1:])[col]
    energy = float(energy_matrix(scenario, L, x, q).sum())
    dual = Lv @ e - prices @ budgets
    if energy - dual > cfg.bisect_tol * energy:
        raise ConvergenceError(f"fixed-data duality gap {(energy - dual) / energy:.3e} of E")
    return x, q, energy


def solve_bcaa(scenario, L, cfg: SolveConfig, diag=None):
    """Jointly optimal (x, q) for a fixed data split, read off its dual.

    `_price` maximises the fixed-data dual q(beta, mu) (`fixed_data_dual`)
    by a safeguarded Newton solve (`_newton`) of the scaled budget
    residuals in the log prices, from its cold start (`_start_prices`),
    to half the relative tolerance. `_read_off` then reads the answer off
    the oracle of the last Newton iterate and certifies it: a scaled
    budget residual above bisect_tol, or a duality gap above
    bisect_tol*E, raises ConvergenceError, so an answer returned is
    certified optimal to that relative tolerance. diag, when a list,
    receives the pricing's records, also when the certificate then fails.

    Returns (x, q, 1), with x and q K x M; the bench tracer reads the 1.
    """
    L = np.asarray(L, dtype=float)
    return (*_read_off(scenario, L, cfg, *_price(scenario, L, cfg, diag)[1:])[:2], 1)
