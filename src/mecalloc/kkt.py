"""The KKT subproblem solvers, the fixed-data dual and the joint dual.

Each subproblem pins two of the three variable blocks (data split L,
bandwidth x, compute q) and prices the budgets of the third, each with
one dual: an inner root per pair against its budget's dual, and an
outer search driving each budget sum onto its constraint.

  solve_daa: per-user data duals nu (the data constraint multiplier,
             stored with positive sign), roots of dE/dL = nu;
  solve_baa: one global bandwidth dual beta > 0, roots of dE/dx + beta = 0;
  solve_caa: one AP's compute dual mu >= 0 over the deadline slack t,
             roots of dE/dt + mu * eta*L/(D-t)^2 = 0;
  solve_bcaa: bandwidth and compute for a fixed data split. It
             maximises the fixed-data dual q(beta, mu) by Newton steps
             in the 1 + M log prices, with `physics.price_oracle` giving
             each pair's minimiser (`_price`), reads (x, q) off them and
             certifies them by the duality gap (`_read_off`);
  joint_split: the data split of the outer loop's dual step. It
             maximises a log-sum-exp smoothing of the joint dual
             G(beta, mu) = sum_i T_i*min_j e_ij - beta*B - sum_j mu_j*C_j
             (`joint_dual`) by Newton steps in the same prices, over the
             pairs of the split that puts every whole task on every AP,
             lowering the smoothing until its bias over G is within half
             of GAP_TOL, splits each task by the soft-argmin weights and
             reads that split's (x, q) off its last oracle pass, certified
             as in solve_bcaa (`_read_off`);
  pair_costs: every pair's cost per bit e_ij at a warm state's prices:
             the outer gradient and entry test in one (Danskin).

Every derivative in those roots comes from the pair model in `physics`.
The first three are bisection references for the re-balance, off the
solve path. They share one pricing step, _price_budgets: one lockstep
`vec_bisect` of every budget's dual over the base-10 logarithm of
DUAL_RANGE in DUAL_HALVINGS halvings, the final per-pair pass, the
residual check, the rescale onto each budget and the diag records. Each
bisected function is strictly monotone on a closed-form bracket fixed
before it starts, and each budget sum in its dual, so no root inside the
range is lost. Overflow warnings are silenced only where an overflowed
value feeds a sign test or a clipped start: in that step and in the
cold start of the bandwidth price.

So the module has two root finders: `vec_bisect` for the references and
`_newton` for every pricing, the fixed-data and the joint one, each in
the log prices inside DUAL_RANGE, run to half of bisect_tol from a warm
state by one start rule (`_start_prices`) and handing one back. No
pricing bisects per pair: the price oracle (`physics.price_oracle`) and
the bandwidth root z = L*ln2/(x*t), `physics.exponent_root`(beta/(a*t)),
take the same Newton step in ln z, on one kappa(z), a fixed count of times.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    LN2,
    BracketError,
    ConvergenceError,
    DegenerateInputError,
    InfeasibilityError,
    InfeasiblePairError,
    SolveConfig,
    StructuralError,
    deadline_slack,
)
from .physics import (
    SLACK_BRACKET,
    bracket,
    data_marginal,
    energy_matrix,
    exponent_root,
    price_oracle,
)

# keeps every slack at least this fraction of the deadline away from the
# t = 0 singularity of 2**(L/(x t))
SLACK_MARGIN = 1e-6

# every dual search stays inside this range
DUAL_RANGE = (1e-280, 1e280)

# fixed halving count for the vectorized per-pair root solves of the
# bisection references; shrinks any bracket to float64 resolution
INNER_ITERS = 48

# halvings of each bisection reference's dual search: they narrow the
# log10 span of DUAL_RANGE (560 decades) to at most 1e-13 decades
DUAL_HALVINGS = math.ceil(math.log2(
    (math.log10(DUAL_RANGE[1]) - math.log10(DUAL_RANGE[0])) / 1e-13))

# most calls of its system in one `_newton` solve
MAX_DUAL_PROBES = 200

# longest Newton step of the fixed-data pricing in any log price: ten
# decades
MAX_PRICE_STEP = math.log(1e10)

# the joint dual step: the log-sum-exp temperature of its first stages as
# a fraction of each user's cheapest cost per bit; the continuation
# (`joint_split`) picks the temperature of every later stage
JOINT_SMOOTHING = (1e-3, 1e-4)

# the start stops the solve when its energy E is within GAP_TOL*E of the
# joint Lagrangian bound, which no split can beat; the dual step's
# smoothing may spend half of it
GAP_TOL = 1e-5


@dataclass(frozen=True)
class DualVariable:
    """A Lagrange/auxiliary multiplier: a budget's price, found by the
    lockstep bisection of `_price_budgets` or by a Newton pricing.

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


def _price_budgets(kind, group, owners, targets, share_of, cfg, increasing, diag=None):
    """Price each budget with one dual and split it over its elements.

    group[k] is the budget element k draws on, owners[g] the user or AP
    that owns budget g (None for the bandwidth), and share_of maps one
    dual per element to the element's share, increasing or decreasing in
    it. One lockstep `vec_bisect` of DUAL_HALVINGS halvings over the
    log10 of DUAL_RANGE drives each budget's share sum onto its target. A
    sum still off its target by more than the relative tolerance raises
    BracketError when its dual ends at an edge of the range (the root
    lies beyond it), ConvergenceError otherwise. Appends one `kind`
    record per budget to diag. Overflowed exponentials inside the
    searches only ever feed sign tests, so their warnings are silenced.

    Returns (duals, shares, shares rescaled so each sum is its target).
    """
    n = len(owners)
    edges = np.log10(DUAL_RANGE)

    def sums_at(log_duals):
        return np.bincount(group, weights=share_of(10.0 ** log_duals[group]), minlength=n)

    with np.errstate(over="ignore"):
        log_duals = vec_bisect(lambda mid: (sums_at(mid) < targets) == increasing,
                               np.full(n, edges[0]), np.full(n, edges[1]), DUAL_HALVINGS)
        duals = 10.0 ** log_duals
        shares = share_of(duals[group])
    sums = np.bincount(group, weights=shares, minlength=n)
    resid = np.abs(sums - targets) / targets
    bad = resid > cfg.bisect_tol
    # a root beyond the range leaves its dual in the last bracket at an edge
    width = np.ptp(edges) / 2.0 ** DUAL_HALVINGS
    if np.any(bad & (np.abs(log_duals[:, None] - edges).min(axis=1) < width)):
        raise BracketError(f"dual root outside the range {DUAL_RANGE}")
    if bad.any():
        g = int(np.argmax(resid))
        owner = "" if owners[g] is None else f" {owners[g]}"
        raise ConvergenceError(f"{kind}{owner}: budget sum residual {resid[g]:.3e}")
    if diag is not None:
        diag.extend(SolveDiagnostic(DualVariable(kind, float(v), owner=o),
                                    residual=float(r), iterations=DUAL_HALVINGS)
                    for v, o, r in zip(duals, owners, resid))
    return duals, shares, shares * (targets / sums)[group]


def vec_bisect(go_right, lo, hi, iters=INNER_ITERS):
    """Lockstep bisection of independent brackets [lo, hi]: go_right(mid)
    marks the entries whose root lies right of mid. Scalar lo and hi give
    every entry the same bracket."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        right = go_right(mid)
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# DAA: data allocation for fixed bandwidth and compute

def _data_roots(nu, x, q, d, eta, a, upper, zero_marginal):
    """Per-pair loads satisfying dE/dL = nu, clipped to [0, upper];
    zero_marginal is dE/dL at zero load, which does not depend on nu."""
    at_zero = zero_marginal >= nu
    at_cap = data_marginal(upper, x, q, d, eta, a) <= nu
    roots = vec_bisect(
        lambda mid: data_marginal(mid, x, q, d, eta, a) < nu,
        np.zeros_like(upper), upper)
    return np.where(at_zero, 0.0, np.where(at_cap, upper, roots))


def solve_daa(scenario, x, q, cfg: SolveConfig, diag=None):
    """Optimal data split per user for fixed bandwidth and compute.

    Each user's row is an independent convex problem; its multiplier is
    located by bisection on the row sum, and pairs whose optimal load
    falls below the activity threshold are frozen at zero with the
    surviving pairs re-solved so the row budget stays exact.
    """
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    K, M = scenario.num_users, scenario.num_aps
    noise = scenario.noise_over_gain()
    d_user = scenario.deadlines_s
    eta_user = scenario.cycles_per_bit
    bits = scenario.task_bits
    usable = (q > 0) & (x > 0)

    for _ in range(M + 1):
        ui, uj = np.nonzero(usable)
        xv, qv, av = x[ui, uj], q[ui, uj], noise[ui, uj]
        dv, etav = d_user[ui], eta_user[ui]
        upper = (1.0 - SLACK_MARGIN) * dv * qv / etav
        room = np.bincount(ui, weights=upper, minlength=K)
        if np.any(room < bits):
            i = int(np.nonzero(room < bits)[0][0])
            raise InfeasibilityError(
                f"user {i}: maximal feasible loads carry {room[i]:.6g} "
                f"of {bits[i]:.6g} bits", user=i)
        g0 = data_marginal(0.0, xv, qv, dv, etav, av)
        records = []
        _, roots, loads = _price_budgets(
            "lambda_data", ui, range(K), bits,
            lambda nu: _data_roots(nu, xv, qv, dv, etav, av, upper, g0),
            cfg, increasing=True, diag=records)
        crumbs = (roots > 0) & (roots <= scenario.activity_threshold_bits)
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

def _bandwidth_roots(beta, L, t, a):
    """Per-pair bandwidths satisfying dE/dx + beta = 0 at fixed (L, t).

    With z = L*ln2/(x*t) the condition a*t*phi(z) + beta = 0 reads
    -phi(z) = beta/(a*t), solved in closed form by `exponent_root`.
    """
    return L * LN2 / (t * exponent_root(beta / (a * t)))


def solve_baa(scenario, t, L, cfg: SolveConfig, diag=None):
    """Bandwidth split across all active pairs for fixed data and slack.

    A single global dual beta > 0 prices bandwidth; each pair's share is
    the unique root of its stationarity condition and the dual search
    drives the total onto the system bandwidth.
    """
    L = np.asarray(L, dtype=float)
    t = np.asarray(t, dtype=float)
    act = L > scenario.activity_threshold_bits
    if not act.any():
        raise DegenerateInputError("no active pairs to allocate bandwidth to")
    d = np.broadcast_to(scenario.deadlines_s[:, None], L.shape)
    if np.any(t[act] <= 0) or np.any(t[act] >= d[act]):
        raise StructuralError("slack must be interior (0, deadline) on active pairs")
    Lv, tv, av = L[act], t[act], scenario.noise_over_gain()[act]
    out = np.zeros_like(L)
    out[act] = _price_budgets(
        "beta_bandwidth", np.zeros(Lv.size, dtype=int), [None],
        np.array([scenario.bandwidth_hz]),
        lambda beta: _bandwidth_roots(beta, Lv, tv, av),
        cfg, increasing=False, diag=diag)[2]
    return out


# ---------------------------------------------------------------------------
# CAA: compute allocation (through the slack substitution), per AP

def _slack_roots(mu, L, x, d, w, a):
    """Per-pair slacks where dE/dt + mu*w/(d-t)^2 = 0 at fixed (L, x),
    with dE/dt = a*x*phi; the left side rises strictly in t."""
    return vec_bisect(
        lambda t: a * x * bracket(L / (x * t) * LN2) + mu * w / (d - t) ** 2 < 0,
        d * SLACK_BRACKET[0], d * SLACK_BRACKET[1])


def solve_caa(scenario, x, L, ap, cfg: SolveConfig, diag=None):
    """Slack (hence compute) split among one AP's active users at fixed x;
    the other users keep their deadline as slack. The capacity binds, so
    one dual search drives mu until the demand sum_i eta*L/(D - t) meets
    it. Raises when the AP serves no active user, when an active user has
    no bandwidth, and when the AP's least demand sum_i eta*L/D reaches its
    capacity."""
    L, x = np.asarray(L, dtype=float), np.asarray(x, dtype=float)
    act = L[:, ap] > scenario.activity_threshold_bits
    if not act.any():
        raise DegenerateInputError(f"AP {ap} serves no active user")
    if np.any(x[act, ap] <= 0):
        raise StructuralError(f"AP {ap}: active user without bandwidth")
    load = (scenario.cycles_per_bit * L[:, ap] / scenario.deadlines_s)[act].sum()
    cap = scenario.compute_capacity[ap]
    if load >= cap:
        raise InfeasibilityError(
            f"AP {ap}: compute demand {load:.6g} exceeds capacity {cap:.6g}", ap=ap)
    Lv, xv, dv = L[act, ap], x[act, ap], scenario.deadlines_s[act]
    wv, av = scenario.cycles_per_bit[act] * Lv, scenario.noise_over_gain()[act, ap]
    q = np.full(act.shape, np.inf)
    q[act] = _price_budgets(
        "mu_compute", np.zeros(Lv.size, dtype=int), [ap], np.array([cap]),
        lambda mu: wv / (dv - _slack_roots(mu, Lv, xv, dv, wv, av)),
        cfg, increasing=False, diag=diag)[2]
    return deadline_slack(scenario.deadlines_s, scenario.cycles_per_bit, L[:, ap], q)


# ---------------------------------------------------------------------------
# The fixed-data dual: one bandwidth price and one compute price per AP

def _pricing_inputs(scenario, L):
    """What the fixed-data dual of split L depends on: the active pairs in
    row-major order as (loads, deadlines, cycles per bit, noise-to-gain
    ratios), the position of each pair's AP among the served APs, the
    budgets (B, then C_j of each served AP) and the served APs."""
    act = L > scenario.activity_threshold_bits
    i, j = np.nonzero(act)
    aps = np.flatnonzero(act.any(axis=0))
    pairs = (L[i, j], scenario.deadlines_s[i], scenario.cycles_per_bit[i],
             scenario.noise_over_gain()[i, j])
    budgets = np.concatenate(([scenario.bandwidth_hz], scenario.compute_capacity[aps]))
    return pairs, np.searchsorted(aps, j), budgets, aps


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
    pairs, col, budgets, aps = _pricing_inputs(scenario, np.asarray(L, dtype=float))
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
    try each new one whole first. The iterates stay inside DUAL_RANGE; a
    step that would leave it from its edge means the root lies beyond,
    and raises BracketError. Stops once every residual
    is inside tol, when J is singular or no step lowers the norm, or after
    MAX_DUAL_PROBES calls of system. Returns (y, r, extra) of the best
    iterate and the count of calls.
    """
    edge = np.log(DUAL_RANGE)
    y = np.clip(y, *edge)
    r, J, extra = first or system(y)
    calls, frac = int(first is None), 1.0
    while np.abs(r).max() > tol and calls < MAX_DUAL_PROBES:
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):  # J singular to working precision
            break
        step *= min(1.0, MAX_PRICE_STEP / np.abs(step).max())
        if np.any(((y <= edge[0]) & (step < 0)) | ((y >= edge[1]) & (step > 0))):
            raise BracketError(f"dual root outside the range {DUAL_RANGE}")
        norm = np.linalg.norm(r)
        start = frac
        while calls < MAX_DUAL_PROBES:
            y_try = np.clip(y + frac * step, *edge)
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


def _warm_prices(warm, m):
    """The state's prices, beta then m compute prices, all zero when the
    state is void: a price missing, not finite, not positive or misshapen."""
    beta, mus = warm.get("beta"), warm.get("mus")
    prices = (np.append(np.asarray(beta, dtype=float), mus)
              if np.shape(beta) == () and np.shape(mus) == (m,) else np.zeros(m + 1))
    return np.where(np.all(np.isfinite(prices) & (prices > 0)), prices, 0.0)


def _start_prices(prices, pairs, col, aps, t, B):
    """The log prices, of the bandwidth and of the served APs aps, that a
    pricing starts from at the slack t of each pair, from its state's
    `_warm_prices`: those clipped into DUAL_RANGE, but for a void state a
    cold beta, the L-weighted geometric mean of the prices -a*t*bracket(z)
    that give each pair its load's share of B (z = sum L*ln2/(B*t)). Every
    AP at or below the floor, so every AP of a void state, starts from the
    L-weighted geometric mean over its pairs of the compute price that
    makes the slack t stationary, beta*ln2*(D - t)^2/(eta*t^2*z) with
    z = exponent_root(beta/(a*t))."""
    Lv, d, eta, a = pairs
    prices = np.append(prices[0], prices[1:][aps])
    y = np.log(np.clip(prices, *DUAL_RANGE))
    if prices[0] == 0.0:
        with np.errstate(over="ignore"):
            share = -bracket(Lv.sum() * LN2 / (B * t))
        y[0] = Lv @ np.log(a * t * share) / Lv.sum()
    floor = prices[1:] <= DUAL_RANGE[0]
    if floor.any():
        z = exponent_root(np.exp(y[0]) / (a * t))
        log_mu = y[0] + np.log(LN2 / (eta * z)) + 2.0 * np.log((d - t) / t)
        y[1:][floor] = (np.bincount(col, weights=Lv * log_mu) / np.bincount(col, weights=Lv))[floor]
    return y


# ---------------------------------------------------------------------------
# The joint dual: the split prices choose

def joint_dual(scenario, beta, mus):
    """The Lagrangian bound of the full problem at bandwidth price beta
    and M-vector of compute prices mus,

        G(beta, mu) = sum_i T_i*min_j e_ij(beta, mu_j) - beta*B - sum_j mu_j*C_j.

    For fixed prices each pair's Lagrangian is homogeneous of degree one
    in its load, so by weak duality G never exceeds the energy of any
    feasible allocation, whatever its data split.
    """
    mus = np.asarray(mus, dtype=float)
    e = pair_costs(scenario, {"beta": beta, "mus": mus})
    return float(scenario.task_bits @ e.min(axis=1) - beta * scenario.bandwidth_hz
                 - mus @ scenario.compute_capacity)


def pair_costs(scenario, warm):
    """Cost per bit e_ij (`physics.price_oracle`) of all K x M pairs at the
    warm state's prices: by Danskin's theorem (Bertsekas, Nonlinear
    Programming, Prop. B.25) dF/dL_ij of the re-balanced energy F."""
    return price_oracle(warm["beta"], warm["mus"], scenario.deadlines_s[:, None],
                        scenario.cycles_per_bit[:, None], scenario.noise_over_gain())[0]


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


def joint_split(scenario, cfg: SolveConfig, warm):
    """The data split the prices of the joint dual choose, and the
    allocation read off them.

    Maximises the smoothed joint dual (`_joint_system`) over the 1 + M
    log prices in stages (`_joint_stages`) from the warm state, which it
    only reads, or, when that is void, from the state `_price` returns
    for the capacity split L_ij = T_i*C_j/sum C (its raises propagate).
    With tau -> 0 the bound tends to G(beta, mu) (`joint_dual`), whose
    maximum nearly always meets the energy: the time-sharing argument of
    Yu & Lui (IEEE Trans. Commun. 2006), with the log-sum-exp smoothing of
    Nesterov (Math. Program. 2005).

    Returns (L, G, state, allocation) of the last stage that met the
    tolerance: L = T*w at its soft-argmin weights, loads at or below the
    activity threshold dropped and each row rescaled onto its task; G
    read off the oracle of its last accepted iterate; its prices as a warm
    state, every held AP at the floor, where `joint_dual` is G; and the
    (x, q, E) `_read_off` certifies at those prices and split L, or None
    when it misses the certificate. Returns None when the first stage
    misses the tolerance, its Jacobian is singular or its root lies beyond
    DUAL_RANGE.
    """
    if _warm_prices(warm, scenario.num_aps)[0] == 0.0:
        cap = scenario.compute_capacity
        warm = _price(scenario, scenario.task_bits[:, None] / (cap.sum() / cap), cfg, warm, [])[0]
    best = None
    for best in _joint_stages(scenario, cfg, warm):
        pass
    if best is None:
        return None
    L, bound, state, oracle = best
    inputs = _pricing_inputs(scenario, L)
    prices = np.append(state["beta"], state["mus"][inputs[-1]])
    act = (L > scenario.activity_threshold_bits).ravel()
    try:
        allocation = _read_off(scenario, L, cfg, inputs, prices, *(v[act] for v in oracle))
    except (ConvergenceError, InfeasiblePairError):
        allocation = None
    return L, bound, state, allocation


def _joint_stages(scenario, cfg, warm):
    """The stages of `joint_split`, from the pricing's start rule
    (`_start_prices`) at the capacity split's slack. Stage k fixes
    tau_i = kappa_k*min_j e_ij at its start prices and solves to half of
    bisect_tol by `_newton`, like every pricing, from the oracle pass that
    ended the stage before.

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

    An AP whose residual sits at -1 when a solve stalls serves no one: its
    price belongs at zero, where G's slope in log mu vanishes. Such an AP
    is held at the floor of DUAL_RANGE, out of the system, and the stage
    solved again; the stage fails when a held AP's capacity would then be
    exceeded. Yields (L, G, state, the oracle's (e, t, x/L) over all K*M
    pairs) of each stage that meets the tolerance, and stops at the first
    that does not, at a singular Jacobian or at a root beyond DUAL_RANGE.
    """
    K, M = scenario.num_users, scenario.num_aps
    bits, tol = scenario.task_bits, 0.5 * cfg.bisect_tol
    pairs, col, budgets, _ = _pricing_inputs(scenario, np.repeat(bits[:, None], M, axis=1))
    Lv, d, eta, _ = pairs  # every task once on each of the M APs
    slack = d * (1.0 - (Lv * eta / d).sum() / (M * budgets[1:].sum()))
    y = _start_prices(_warm_prices(warm, M), pairs, col, np.arange(M), slack, budgets[0])
    held = np.zeros(M + 1, dtype=bool)
    p = np.exp(y)
    oracle = price_oracle(p[0], p[1:][col], *pairs[1:])

    def system(v, oracle=None):  # the prices not held; returns all residuals too
        y[~held] = v
        r, J, extra = _joint_system(y, bits, pairs, col, tau, budgets, oracle)
        return r[~held], J[np.ix_(~held, ~held)], (r, extra)

    kappa = JOINT_SMOOTHING[0]
    for stage in itertools.count(1):
        tau = kappa * oracle[0].reshape(K, M).min(axis=1)
        first = system(y[~held], oracle)  # reuses the last oracle pass
        try:
            while True:
                v, r_free, (r, (w, oracle)), _ = _newton(system, y[~held], tol, first)
                y[~held] = v
                if np.abs(r_free).max() <= tol:
                    break
                idle = ~held & (r <= -1.0 + tol)
                idle[0] = False
                if not idle.any():
                    return
                held |= idle
                y[idle] = math.log(DUAL_RANGE[0])
                first = None
        except BracketError:
            return
        if np.any(r[held] > tol):
            return
        p = np.exp(y)
        e = oracle[0].reshape(K, M)
        mus = np.where(held[1:], DUAL_RANGE[0], p[1:])
        least = bits @ e.min(axis=1)
        bound = float(least - p[0] * budgets[0] - mus @ budgets[1:])
        bias = bits @ (w * e).sum(axis=1) - least
        w[bits[:, None] * w <= scenario.activity_threshold_bits] = 0.0
        yield (bits[:, None] * w / w.sum(axis=1, keepdims=True), bound,
               {"beta": p[0], "mus": mus}, oracle)
        target = 0.5 * GAP_TOL * (bound + bias)
        if stage < len(JOINT_SMOOTHING):
            kappa = JOINT_SMOOTHING[stage]
        elif bias > target and kappa > (low := target / (least * math.log(M))):
            kappa = max(0.5 * kappa * target / bias, low)
        else:
            return


# ---------------------------------------------------------------------------
# BCAA: joint bandwidth and compute allocation for fixed data

def _price(scenario, L, cfg, warm, diag):
    """The pricing of `solve_bcaa`: the input checks and the maximisation
    of the fixed-data dual of split L.

    warm is a state it only reads: the bandwidth price "beta" and the
    M-vector of compute prices "mus" the last pricing ended at, every AP
    that served no active pair at the floor of DUAL_RANGE. The pricing
    starts from them by `_start_prices` at the slack D*(1 - load_j/C_j)
    of the capacity split proportional to eta*L/D. Only APs that serve an
    active pair are priced; one whose least load sum_i eta*L/D reaches its
    capacity raises InfeasibilityError, and a price root beyond DUAL_RANGE
    BracketError.
    Appends to diag one record per final price with its scaled budget
    residual and the count of oracle calls. Returns the final prices as a
    state of that form, the `_pricing_inputs` of L, the final prices of
    the bandwidth and the served APs, and the oracle's (e, t, x/L) at
    them."""
    act = L > scenario.activity_threshold_bits
    if not act.any():
        raise DegenerateInputError("no active pairs")
    d = scenario.deadlines_s[:, None]
    cap = scenario.compute_capacity
    # an AP's least load: the compute its active pairs need at zero slack
    load = np.where(act, scenario.cycles_per_bit[:, None] * L / d, 0.0).sum(axis=0)
    inputs = pairs, col, budgets, aps = _pricing_inputs(scenario, L)
    over = act.any(axis=0) & (load >= cap)
    if over.any():
        j = int(np.argmax(over))
        raise InfeasibilityError(
            f"AP {j}: data split demands {load[j]:.6g} cycles/s of "
            f"{cap[j]:.6g}", ap=j)
    y = _start_prices(_warm_prices(warm, cap.size), pairs, col, aps,
                      (d * (1.0 - load / cap))[act], budgets[0])
    # driving the scaled budget residuals to zero maximises q(beta, mu)
    y, r, oracle, calls = _newton(lambda y: _budget_system(y, pairs, col, budgets), y,
                                  0.5 * cfg.bisect_tol)
    p = np.exp(y)
    diag.extend(SolveDiagnostic(DualVariable(kind, float(v), owner=o),
                                residual=float(abs(ri)), iterations=calls)
                for kind, v, o, ri in zip(["beta_bandwidth"] + ["mu_compute"] * aps.size, p,
                                          [None, *aps.tolist()], r))
    mus = np.full(scenario.num_aps, DUAL_RANGE[0])
    mus[aps] = p[1:]
    return {"beta": p[0], "mus": mus}, inputs, p, *oracle


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
    (Lv, d, eta, _), col, budgets, aps = inputs
    act = L > scenario.activity_threshold_bits
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


def solve_bcaa(scenario, L, cfg: SolveConfig, diag=None, warm=None):
    """Jointly optimal (x, q) for a fixed data split, read off its dual.

    `_price` maximises the fixed-data dual q(beta, mu) (`fixed_data_dual`)
    by a safeguarded Newton solve (`_newton`) of the scaled budget
    residuals in the log prices, from the warm state (`_start_prices`),
    to half the relative tolerance. `_read_off` then reads the answer off
    the oracle of the last Newton iterate and certifies it: a scaled
    budget residual above bisect_tol, or a duality gap above
    bisect_tol*E, raises ConvergenceError, so an answer returned is
    certified optimal to that relative tolerance. warm, when given, is the
    state `_price` starts from, and this function alone refreshes it with
    the state `_price` returns, also when the certificate then fails. diag
    receives its records, also then.

    Returns (x, q, 1), with x and q K x M; the bench tracer reads the 1.
    """
    L = np.asarray(L, dtype=float)
    state, *priced = _price(scenario, L, cfg, warm or {}, [] if diag is None else diag)
    if warm is not None:
        warm.update(state)
    return (*_read_off(scenario, L, cfg, *priced)[:2], 1)
