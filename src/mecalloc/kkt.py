"""Monotone-bisection machinery and the KKT subproblem solvers.

Each subproblem pins two of the three variable blocks (data split L,
bandwidth x, compute q) and solves the stationarity condition of the
third by nested bisection: an inner root per pair against the current
dual, and an outer search driving the budget sum onto its constraint.

  solve_daa: per-user data duals nu (the data constraint multiplier,
             stored with positive sign), roots of dE/dL = nu;
  solve_baa: one global bandwidth dual beta > 0, roots of dE/dx + beta = 0;
  solve_caa: per-AP compute duals mu >= 0 over the deadline slack t,
             roots of dE/dt + mu * eta*L/(D-t)^2 = 0;
  solve_bcaa: safeguarded accelerated alternation of solve_baa and
             solve_caa. Each step is the global minimum of a convex
             block; an Anderson extrapolation of the compute split is
             taken only when it lowers the energy, so energy never rises.

Every search runs inside a bracket fixed before it starts. The per-pair
roots bisect fixed brackets; the bandwidth root is solved for
z = L*ln2/(x*t), which depends only on beta/(a*t) and lies below the
exponent cap. Duals span many decades at SI magnitudes, so each dual
search works on the dual's base-10 logarithm inside DUAL_RANGE: it
gallops from its start with doubling steps until the budget crosses its
target, then bisects. Every function being bisected is strictly monotone
on its bracket, and every budget sum is strictly monotone in its dual,
so the searches never lose a root inside the range. Searches that share
a family (one dual per user, or one per AP) advance in lockstep so each
iteration is a single vectorized pass over all pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    EXPONENT_CAP,
    BracketError,
    ConvergenceError,
    DegenerateInputError,
    InfeasibilityError,
    SolveConfig,
    StructuralError,
)
from .physics import energy_matrix

LN2 = math.log(2.0)

# keeps every slack at least this fraction of the deadline away from the
# t = 0 singularity of 2**(L/(x t))
SLACK_MARGIN = 1e-6

# fixed halving count for the vectorized per-pair root solves; shrinks
# any bracket to float64 resolution
INNER_ITERS = 48

# every dual search stays inside this range
DUAL_RANGE = (1e-280, 1e280)

# natural-log bracket of the per-pair bandwidth root z = L*ln2/(x*t): the
# top is the rate exponent L/(x*t) = EXPONENT_CAP, and well above the
# bottom z*exp(z) - expm1(z) already rounds to zero
_LOG_Z_BRACKET = (math.log(1e-20), math.log(EXPONENT_CAP * LN2))

# past rounds beyond the latest that the bandwidth/compute extrapolation
# mixes in
ANDERSON_MEMORY = 2


@dataclass(frozen=True)
class DualVariable:
    """A Lagrange/auxiliary multiplier found by outer bisection.

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


def _quiet_overflow(fn):
    """Solver entry wrapper: overflowed exponentials inside bracket probes
    only ever feed sign tests, so the warnings are noise."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)
    return wrapper


def _vec_bisect(go_right, lo, hi, iters=INNER_ITERS):
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


def _solve_duals(budget_of, targets, cfg, starts, increasing):
    """Lockstep family of monotone dual searches on log10 scale.

    budget_of maps a per-group dual vector to the per-group budget sums;
    every probe evaluates all groups at once. Each group starts at its
    dual clipped to DUAL_RANGE and gallops: the first probe doubles (or
    halves) the dual and each further probe doubles the log10 step, until
    the budget crosses its target. From then on the group bisects its
    log10 bracket. A group stops as soon as its budget residual is inside
    half the configured relative tolerance (the caller still verifies).
    A group whose root lies beyond DUAL_RANGE raises BracketError once its
    probe reaches the range edge.

    Returns (duals, evaluation count).
    """
    targets = np.asarray(targets, dtype=float)
    edge_lo, edge_hi = np.log10(DUAL_RANGE)
    tol = 0.5 * cfg.bisect_tol * np.abs(targets)
    probe = np.log10(np.clip(np.asarray(starts, dtype=float), *DUAL_RANGE))
    # log10 bracket of each root; an end not found yet is infinite
    lo = np.full_like(probe, -np.inf)
    hi = np.full_like(probe, np.inf)
    step = np.full_like(probe, math.log10(2.0))
    done = np.zeros(probe.shape, dtype=bool)
    for calls in range(1, cfg.max_inner_iters + 1):
        duals = 10.0 ** probe
        b = budget_of(duals)
        above = (b >= targets) ^ increasing  # the root lies above the probe
        done |= (np.abs(b - targets) <= tol) | (hi - lo <= 1e-13)
        if done.all():
            return duals, calls
        # a finished group's bracket closes on its answer, so it probes
        # that answer again
        lo = np.where(done | above, probe, lo)
        hi = np.where(done | ~above, probe, hi)
        if np.any(~done & ((lo >= edge_hi) | (hi <= edge_lo))):
            raise BracketError(f"dual root outside the range {DUAL_RANGE}")
        probe = np.where(np.isinf(hi), np.minimum(lo + step, edge_hi),
                         np.where(np.isinf(lo), np.maximum(hi - step, edge_lo),
                                  0.5 * (lo + hi)))
        step *= 2.0
    raise ConvergenceError(f"dual search exhausted {cfg.max_inner_iters} probes")


# ---------------------------------------------------------------------------
# stationarity functions (vectorized over pairs; overflow maps to +-inf,
# which only ever feeds sign tests during bracketing)

def _data_marginal(L, x, q, d, eta, a):
    """dE/dL at fixed (x, q); strictly increasing in L, equals a*ln2 at L=0.

    Callers suppress overflow warnings: an overflowed exponential only
    ever feeds sign tests during bracketing.
    """
    c = eta / q
    t = d - c * L
    s = L / (x * t)
    p = np.exp(s * LN2)
    return a * x * ((d * LN2 / (x * t) - c) * p + c)


def _slack_stationarity(t, L, x, d, w, a, mu):
    """dE/dt + mu * w/(d-t)^2 at fixed (L, x); strictly increasing in t."""
    u = L / (x * t)
    p = np.exp(u * LN2)
    return a * x * (p * (1.0 - u * LN2) - 1.0) + mu * w / (d - t) ** 2


# ---------------------------------------------------------------------------
# DAA: data allocation for fixed bandwidth and compute

def _data_roots(nu, x, q, d, eta, a, upper):
    """Per-pair loads satisfying dE/dL = nu, clipped to [0, upper]."""
    at_zero = a * LN2 >= nu
    at_cap = _data_marginal(upper, x, q, d, eta, a) <= nu
    roots = _vec_bisect(
        lambda mid: _data_marginal(mid, x, q, d, eta, a) < nu,
        np.zeros_like(upper), upper)
    return np.where(at_zero, 0.0, np.where(at_cap, upper, roots))


@_quiet_overflow
def solve_daa(scenario, x, q, cfg: SolveConfig, diag=None, dual_guess=None):
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
    nus = np.asarray(dual_guess, dtype=float).copy() if dual_guess is not None \
        else None

    for _ in range(M + 1):
        if not usable.any(axis=1).all():
            i = int(np.nonzero(~usable.any(axis=1))[0][0])
            raise InfeasibilityError(
                f"user {i}: no usable (bandwidth, compute) pair to carry data",
                user=i)
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

        def row_sums(nu_users):
            roots = _data_roots(nu_users[ui], xv, qv, dv, etav, av, upper)
            return np.bincount(ui, weights=roots, minlength=K)

        if nus is None:
            # just above the smallest zero-load marginal of each row
            nus = np.full(K, np.inf)
            np.minimum.at(nus, ui, av)
            nus *= LN2 * 2.0
        nus, calls = _solve_duals(row_sums, bits, cfg, nus, increasing=True)
        roots = _data_roots(nus[ui], xv, qv, dv, etav, av, upper)
        crumbs = (roots > 0) & (roots <= cfg.activity_threshold_bits)
        if crumbs.any():
            usable = usable.copy()
            usable[ui[crumbs], uj[crumbs]] = False
            continue
        sums = np.bincount(ui, weights=roots, minlength=K)
        resid = np.abs(sums - bits) / bits
        if np.any(resid > cfg.bisect_tol):
            i = int(np.argmax(resid))
            raise ConvergenceError(f"user {i}: data row sum residual {resid[i]:.3e}")
        out = np.zeros((K, M))
        out[ui, uj] = roots * (bits / sums)[ui]
        if diag is not None:
            for i in range(K):
                diag.append(SolveDiagnostic(
                    DualVariable("lambda_data", float(nus[i]), owner=i),
                    residual=float(resid[i]), iterations=calls))
        return out
    raise ConvergenceError("activity freezing did not settle")


# ---------------------------------------------------------------------------
# BAA: bandwidth allocation for fixed data and slack

def _bandwidth_roots(beta, L, t, a):
    """Per-pair bandwidths satisfying dE/dx + beta = 0 at fixed (L, t).

    With z = L*ln2/(x*t) the condition reads (z - 1)*e^z + 1 = beta/(a*t),
    whose left side rises from 0 at z = 0; z is bisected on a fixed log
    bracket.
    """
    c = beta / (a * t)

    def below_root(log_z):
        z = np.exp(log_z)
        return z * np.exp(z) - np.expm1(z) < c

    return L * LN2 / (t * np.exp(_vec_bisect(below_root, *_LOG_Z_BRACKET)))


@_quiet_overflow
def solve_baa(scenario, t, L, cfg: SolveConfig, diag=None, dual_guess=None):
    """Bandwidth split across all active pairs for fixed data and slack.

    A single global dual beta > 0 prices bandwidth; each pair's share is
    the unique root of its stationarity condition and the dual search
    drives the total onto the system bandwidth.
    """
    L = np.asarray(L, dtype=float)
    t = np.asarray(t, dtype=float)
    act = L > cfg.activity_threshold_bits
    if not act.any():
        raise DegenerateInputError("no active pairs to allocate bandwidth to")
    d = np.broadcast_to(scenario.deadlines_s[:, None], L.shape)
    if np.any(t[act] <= 0) or np.any(t[act] >= d[act]):
        raise StructuralError("slack must be interior (0, deadline) on active pairs")
    B = scenario.bandwidth_hz
    Lv = L[act]
    tv = t[act]
    av = scenario.noise_over_gain()[act]

    def total(beta_vec):
        return np.array([_bandwidth_roots(beta_vec[0], Lv, tv, av).sum()])

    start = np.array([dual_guess if dual_guess else 1.0])
    betas, calls = _solve_duals(total, np.array([B]), cfg, start, increasing=False)
    beta = float(betas[0])
    roots = _bandwidth_roots(beta, Lv, tv, av)
    if abs(roots.sum() - B) > cfg.bisect_tol * B:
        raise ConvergenceError(
            f"bandwidth sum residual {abs(roots.sum() - B) / B:.3e}")
    if diag is not None:
        diag.append(SolveDiagnostic(
            DualVariable("beta_bandwidth", beta),
            residual=abs(roots.sum() - B) / B, iterations=calls))
    out = np.zeros_like(L)
    out[act] = roots * (B / roots.sum())
    return out


# ---------------------------------------------------------------------------
# CAA: compute allocation (through the slack substitution), per AP

def _slack_roots(mu, L, x, d, w, a):
    lo = d * 1e-12
    hi = d * (1.0 - 1e-12)
    return _vec_bisect(
        lambda mid: _slack_stationarity(mid, L, x, d, w, a, mu) < 0, lo, hi)


def _caa_joint(scenario, x, L, aps, cfg, diag=None, dual_guess=None):
    """Slack and compute columns for several APs at once; one dual search per AP.

    Energy falls as compute grows, so each AP's capacity binds: mu_j is
    driven until the implied demand sum_i eta*L/(D - t) meets capacity.
    Returns (slack columns, compute columns rescaled onto each capacity,
    duals) for the requested APs; inactive users keep their deadline as
    slack and get no compute. Appends one mu_compute record per AP to
    diag, each carrying the probe count of the joint search.
    """
    L = np.asarray(L, dtype=float)
    x = np.asarray(x, dtype=float)
    act = L > cfg.activity_threshold_bits
    d_user = scenario.deadlines_s
    n_groups = len(aps)

    # row-major order keeps each AP's users ascending, so the per-AP
    # bincount sums below add in the same order as a per-AP loop would
    ui, gid = np.nonzero(act[:, aps])
    idle = np.bincount(gid, minlength=n_groups) == 0
    if idle.any():
        raise DegenerateInputError(f"AP {aps[int(np.argmax(idle))]} serves no active user")
    uj = np.asarray(aps)[gid]

    Lv = L[ui, uj]
    xv = x[ui, uj]
    if np.any(xv <= 0):
        bad = int(uj[np.nonzero(xv <= 0)[0][0]])
        raise StructuralError(f"AP {bad}: active user without bandwidth")
    dv = d_user[ui]
    wv = scenario.cycles_per_bit[ui] * Lv
    av = scenario.noise_over_gain()[ui, uj]
    caps = scenario.compute_capacity[aps]
    base_load = np.bincount(gid, weights=wv / dv, minlength=n_groups)
    if np.any(base_load >= caps):
        g = int(np.nonzero(base_load >= caps)[0][0])
        raise InfeasibilityError(
            f"AP {aps[g]}: compute demand {base_load[g]:.6g} exceeds capacity "
            f"{caps[g]:.6g}", ap=aps[g])

    def demand(mus):
        roots = _slack_roots(mus[gid], Lv, xv, dv, wv, av)
        return np.bincount(gid, weights=wv / (dv - roots), minlength=n_groups)

    starts = np.asarray(dual_guess, dtype=float) if dual_guess is not None \
        else np.ones(n_groups)
    mus, calls = _solve_duals(demand, caps, cfg, starts, increasing=False)
    roots = _slack_roots(mus[gid], Lv, xv, dv, wv, av)
    qv = wv / (dv - roots)
    sums = np.bincount(gid, weights=qv, minlength=n_groups)
    resid = np.abs(sums - caps) / caps
    if np.any(resid > cfg.bisect_tol):
        g = int(np.argmax(resid))
        raise ConvergenceError(
            f"AP {aps[g]}: compute sum residual {resid[g]:.3e}")
    qv = qv * (caps / sums)[gid]
    t_cols = np.broadcast_to(d_user[:, None], (L.shape[0], n_groups)).copy()
    t_cols[ui, gid] = dv - wv / qv
    q_cols = np.zeros((L.shape[0], n_groups))
    q_cols[ui, gid] = qv
    if diag is not None:
        for g, j in enumerate(aps):
            diag.append(SolveDiagnostic(
                DualVariable("mu_compute", float(mus[g]), owner=j),
                residual=float(resid[g]), iterations=calls))
    return t_cols, q_cols, mus


@_quiet_overflow
def solve_caa(scenario, x, L, ap, cfg: SolveConfig, diag=None, dual_guess=None):
    """Slack (hence compute) split among one AP's active users at fixed x."""
    guess = np.array([dual_guess]) if dual_guess else None
    return _caa_joint(scenario, x, L, [ap], cfg, diag, guess)[0][:, 0]


# ---------------------------------------------------------------------------
# BCAA: joint bandwidth and compute allocation for fixed data

def _anderson_mix(qs, gs):
    """Type-II Anderson extrapolation of the compute fixed point.

    qs are the last few round inputs (oldest first) and gs their images
    under one BAA/CAA round. Returns the affine combination of the images
    whose matching combination of residuals g - q is least in 2-norm
    (Walker & Ni, SIAM J. Numer. Anal. 2011). The weights sum to one, so
    every AP column sums to the capacity the images share.
    """
    f = [(g - q).ravel() for q, g in zip(qs, gs)]
    dF = np.column_stack([b - a for a, b in zip(f, f[1:])])
    gamma = np.linalg.lstsq(dF, f[-1], rcond=None)[0]
    return gs[-1] - sum(c * (b - a) for c, a, b in zip(gamma, gs, gs[1:]))


@_quiet_overflow
def solve_bcaa(scenario, L, cfg: SolveConfig, diag=None, warm=None):
    """Jointly optimal (x, q) for a fixed data split.

    Alternates the bandwidth and per-AP compute solvers, each solving its
    block exactly. A round is one compute step: the compute split q it
    starts from goes through one BAA and one CAA call, q -> CAA(BAA(t(q))),
    a fixed-point map on q. After each round a type-II Anderson
    extrapolation over the last ANDERSON_MEMORY + 1 rounds proposes the
    next round's q. The proposal is taken only if every active slack stays
    interior and the energy after its bandwidth step is no higher than the
    previous round's; otherwise the history is dropped and the round
    repeats its bandwidth step from the plain iterate (one BAA call more,
    visible in diag). Either way the energy sequence is non-increasing,
    and the fixed-L problem is convex, so the rounds reach its global
    optimum. Stops once a round improves energy by less than a tenth of
    the outer tolerance. The returned (x, q) always come straight from a
    BAA and a CAA call, so both budgets hold to the search tolerance.

    warm, when given, is a caller-owned dict this function reads and
    refreshes between calls of one outer loop: the previous compute split
    seeds the slack and the previous duals seed the searches. Any entry
    incompatible with the current active set is ignored.

    Returns (x, q, rounds).
    """
    L = np.asarray(L, dtype=float)
    thr = cfg.activity_threshold_bits
    act = L > thr
    if not act.any():
        raise DegenerateInputError("no active pairs")
    d = scenario.deadlines_s[:, None]
    eta = scenario.cycles_per_bit[:, None]
    cap = scenario.compute_capacity
    # compute each active pair needs at zero slack; an AP's column sum is
    # the least load the data split puts on it
    w = np.where(act, eta * L / d, 0.0)
    load = w.sum(axis=0)
    served = act.any(axis=0)
    aps = np.flatnonzero(served).tolist()
    over = served & (load >= cap)
    if over.any():
        j = int(np.argmax(over))
        raise InfeasibilityError(
            f"AP {j}: data split demands {load[j]:.6g} cycles/s of "
            f"{cap[j]:.6g}", ap=j)

    def slack_of(q):
        return np.where(act, d - eta * L / np.where(q > 0, q, 1.0), d)

    def energy_at(x, t):
        return float(energy_matrix(scenario, L, x, t, thr).sum())

    warm = warm if warm is not None else {}
    q_in = warm.get("q")
    t = None
    if q_in is not None and q_in.shape == L.shape and np.all(q_in[act] > 0):
        q_in = np.where(act, q_in, 0.0)
        t = slack_of(q_in)
    if t is None or np.any(t[act] <= 0):
        # capacity split proportional to eta*L/D keeps every slack interior
        q_in = w * (cap / np.where(load > 0, load, 1.0))
        t = slack_of(q_in)

    eps_inner = cfg.epsilon_j / 10.0
    steps = []
    beta_guess = warm.get("beta")
    mus_prev = warm.get("mus", {})
    mus = np.array([mus_prev.get(j, 1.0) for j in aps]) if mus_prev else None
    energy_prev = None
    qs, gs = [], []  # Anderson history: round inputs and their images
    candidate = None
    rounds = 0
    for rounds in range(1, cfg.max_inner_iters + 1):
        x = None
        if candidate is not None and np.all(candidate[act] > 0):
            t_cand = slack_of(candidate)
            if np.all(t_cand[act] > 0):
                x_cand = solve_baa(scenario, t_cand, L, cfg, diag=steps,
                                   dual_guess=beta_guess)
                beta_guess = steps[-1].dual.value
                if energy_at(x_cand, t_cand) <= energy_prev:
                    x, t, q_in = x_cand, t_cand, candidate
        if x is None:
            if candidate is not None:
                qs, gs = [], []
            x = solve_baa(scenario, t, L, cfg, diag=steps, dual_guess=beta_guess)
            beta_guess = steps[-1].dual.value
        t_cols, q_cols, mus = _caa_joint(scenario, x, L, aps, cfg, steps, mus)
        t[:, aps] = t_cols
        q = np.zeros_like(L)
        q[:, aps] = q_cols
        energy = energy_at(x, t)
        if energy_prev is not None and energy_prev - energy <= eps_inner:
            break
        energy_prev = energy
        qs = (qs + [q_in])[-ANDERSON_MEMORY - 1:]
        gs = (gs + [q])[-ANDERSON_MEMORY - 1:]
        candidate = _anderson_mix(qs, gs) if len(qs) > 1 else None
        q_in = q
    else:
        raise ConvergenceError(
            f"bandwidth/compute alternation still improving after "
            f"{cfg.max_inner_iters} rounds (last energy {energy:.6e} J)")
    if diag is not None:
        diag.extend(steps)

    warm.update(q=q, beta=beta_guess, mus=dict(zip(aps, mus.tolist())))
    return x, q, rounds
