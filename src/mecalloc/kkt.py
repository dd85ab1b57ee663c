"""Monotone-bisection machinery and the KKT subproblem solvers.

Each subproblem pins two of the three variable blocks (data split L,
bandwidth x, compute q) and prices the budgets of the third, each with
one dual: an inner root per pair against its budget's dual, and an
outer search driving each budget sum onto its constraint.

  solve_daa: per-user data duals nu (the data constraint multiplier,
             stored with positive sign), roots of dE/dL = nu;
  solve_baa: one global bandwidth dual beta > 0, roots of dE/dx + beta = 0;
  solve_caa: per-AP compute duals mu >= 0 over the deadline slack t,
             roots of dE/dt + mu * eta*L/(D-t)^2 = 0;
  solve_bcaa: safeguarded accelerated alternation of solve_baa and
             solve_caa. Each step is the global minimum of a convex
             block; an Anderson extrapolation of the compute split is
             taken only when it lowers the energy, so energy never rises.

Every derivative in those roots comes from the pair model in `physics`.
The first three share one pricing step, _price_budgets: the dual search,
the final per-pair pass, the residual check, the rescale onto each
budget and the diag records. It holds the module's only overflow guard.

Every search runs inside a bracket fixed before it starts. The per-pair
roots bisect fixed brackets; the bandwidth root is solved for
z = L*ln2/(x*t), which depends only on beta/(a*t) and lies below the
exponent cap. Duals span many decades at SI magnitudes, so each dual
search works on the dual's base-10 logarithm inside DUAL_RANGE: it
gallops from its start with doubling steps until the budget crosses its
target, then bisects. Every function being bisected is strictly monotone
on its bracket, and every budget sum is strictly monotone in its dual,
so the searches never lose a root inside the range. The budgets of one
family (one per user, or one per AP) are searched in lockstep so each
iteration is a single vectorized pass over all pairs.
"""

from __future__ import annotations

import math
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
    SolveConfig,
    StructuralError,
    deadline_slack,
)
from .physics import bracket, data_marginal, energy_matrix

# keeps every slack at least this fraction of the deadline away from the
# t = 0 singularity of 2**(L/(x t))
SLACK_MARGIN = 1e-6

# fixed halving count for the vectorized per-pair root solves; shrinks
# any bracket to float64 resolution
INNER_ITERS = 48

# every dual search stays inside this range
DUAL_RANGE = (1e-280, 1e280)

# most probes of one dual search, and most rounds of one fixed-data solve
MAX_DUAL_PROBES = 200
MAX_BCAA_ROUNDS = 200

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
    for calls in range(1, MAX_DUAL_PROBES + 1):
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
    raise ConvergenceError(f"dual search exhausted {MAX_DUAL_PROBES} probes")


def _price_budgets(kind, group, owners, targets, share_of, cfg, starts, increasing,
                   diag=None):
    """Price each budget with one dual and split it over its elements.

    group[k] is the budget element k draws on, owners[g] the user or AP
    that owns budget g (None for the bandwidth), and share_of maps one
    dual per element to the element's share. The duals come from one
    lockstep search driving each budget's share sum onto its target; a
    sum still off its target by more than the relative tolerance raises
    ConvergenceError. Appends one `kind` record per budget to diag.

    Overflowed exponentials inside the searches only ever feed sign
    tests, so overflow warnings are silenced here, and only here.

    Returns (duals, shares, shares rescaled so each sum is its target).
    """
    n = len(owners)
    with np.errstate(over="ignore"):
        duals, calls = _solve_duals(
            lambda d: np.bincount(group, weights=share_of(d[group]), minlength=n),
            targets, cfg, starts, increasing)
        shares = share_of(duals[group])
    sums = np.bincount(group, weights=shares, minlength=n)
    resid = np.abs(sums - targets) / targets
    if np.any(resid > cfg.bisect_tol):
        g = int(np.argmax(resid))
        owner = "" if owners[g] is None else f" {owners[g]}"
        raise ConvergenceError(f"{kind}{owner}: budget sum residual {resid[g]:.3e}")
    if diag is not None:
        diag.extend(SolveDiagnostic(DualVariable(kind, float(v), owner=o),
                                    residual=float(r), iterations=calls)
                    for v, o, r in zip(duals, owners, resid))
    return duals, shares, shares * (targets / sums)[group]


# ---------------------------------------------------------------------------
# DAA: data allocation for fixed bandwidth and compute

def _data_roots(nu, x, q, d, eta, a, upper, zero_marginal):
    """Per-pair loads satisfying dE/dL = nu, clipped to [0, upper];
    zero_marginal is dE/dL at zero load, which does not depend on nu."""
    at_zero = zero_marginal >= nu
    at_cap = data_marginal(upper, x, q, d, eta, a) <= nu
    roots = _vec_bisect(
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
    nus = None

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
        if nus is None:
            # just above the smallest zero-load marginal of each row
            nus = np.full(K, np.inf)
            np.minimum.at(nus, ui, g0)
            nus *= 2.0
        records = []
        nus, roots, loads = _price_budgets(
            "lambda_data", ui, range(K), bits,
            lambda nu: _data_roots(nu, xv, qv, dv, etav, av, upper, g0),
            cfg, nus, increasing=True, diag=records)
        crumbs = (roots > 0) & (roots <= cfg.activity_threshold_bits)
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
    phi(z) = -beta/(a*t), whose left side falls from 0 at z = 0; z is
    bisected on a fixed log bracket.
    """
    c = -beta / (a * t)
    log_z = _vec_bisect(lambda log_z: bracket(np.exp(log_z)) > c, *_LOG_Z_BRACKET)
    return L * LN2 / (t * np.exp(log_z))


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
    Lv, tv, av = L[act], t[act], scenario.noise_over_gain()[act]
    out = np.zeros_like(L)
    out[act] = _price_budgets(
        "beta_bandwidth", np.zeros(Lv.size, dtype=int), [None],
        np.array([scenario.bandwidth_hz]),
        lambda beta: _bandwidth_roots(beta, Lv, tv, av),
        cfg, np.array([dual_guess or 1.0]), increasing=False, diag=diag)[2]
    return out


# ---------------------------------------------------------------------------
# CAA: compute allocation (through the slack substitution), per AP

def _slack_roots(mu, L, x, d, w, a):
    """Per-pair slacks where dE/dt + mu*w/(d-t)^2 = 0 at fixed (L, x),
    with dE/dt = a*x*phi; the left side rises strictly in t."""
    return _vec_bisect(
        lambda t: a * x * bracket(L / (x * t) * LN2) + mu * w / (d - t) ** 2 < 0,
        d * 1e-12, d * (1.0 - 1e-12))


def _caa_joint(scenario, x, L, aps, cfg, diag=None, mus=None):
    """Compute columns for several APs at once; one dual search per AP.

    Energy falls as compute grows, so each AP's capacity binds: mu_j is
    driven until the implied demand sum_i eta*L/(D - t) meets capacity.
    The searches start from mus[aps] (mus an M-vector; 1.0 when not
    given). Returns the K x M compute matrix, zero off the active pairs
    of aps, and the M-vector of prices, 1.0 at APs not priced. Appends
    one mu_compute record per AP to diag, each carrying the probe count
    of the joint search. Checks no input: `solve_caa` and `solve_bcaa`
    make sure every AP in aps serves active users, all with bandwidth,
    below its capacity.
    """
    # row-major order keeps each AP's users ascending, so the per-AP
    # bincount sums below add in the same order as a per-AP loop would
    ui, gid = np.nonzero((L > cfg.activity_threshold_bits)[:, aps])
    uj = np.asarray(aps)[gid]
    Lv, xv, dv = L[ui, uj], x[ui, uj], scenario.deadlines_s[ui]
    wv, av = scenario.cycles_per_bit[ui] * Lv, scenario.noise_over_gain()[ui, uj]
    out = np.ones(scenario.num_aps)
    out[aps], _, qv = _price_budgets(
        "mu_compute", gid, aps, scenario.compute_capacity[aps],
        lambda mu: wv / (dv - _slack_roots(mu, Lv, xv, dv, wv, av)), cfg,
        (out if mus is None else mus)[aps], increasing=False, diag=diag)
    q = np.zeros_like(L)
    q[ui, uj] = qv
    return q, out


def solve_caa(scenario, x, L, ap, cfg: SolveConfig, diag=None):
    """Slack (hence compute) split among one AP's active users at fixed x;
    the other users keep their deadline as slack. Raises when the AP serves
    no active user, when an active user has no bandwidth, and when the
    AP's least demand sum_i eta*L/D reaches its capacity."""
    L, x = np.asarray(L, dtype=float), np.asarray(x, dtype=float)
    act = L[:, ap] > cfg.activity_threshold_bits
    if not act.any():
        raise DegenerateInputError(f"AP {ap} serves no active user")
    if np.any(x[act, ap] <= 0):
        raise StructuralError(f"AP {ap}: active user without bandwidth")
    load = (scenario.cycles_per_bit * L[:, ap] / scenario.deadlines_s)[act].sum()
    cap = scenario.compute_capacity[ap]
    if load >= cap:
        raise InfeasibilityError(
            f"AP {ap}: compute demand {load:.6g} exceeds capacity {cap:.6g}", ap=ap)
    q = _caa_joint(scenario, x, L, [ap], cfg, diag)[0][:, ap]
    return deadline_slack(scenario.deadlines_s, scenario.cycles_per_bit,
                          L[:, ap], np.where(q > 0, q, np.inf))


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


def solve_bcaa(scenario, L, cfg: SolveConfig, diag=None, warm=None, max_rounds=None):
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
    the outer tolerance, or after max_rounds rounds when that is given;
    without it, MAX_BCAA_ROUNDS rounds that still improve raise
    ConvergenceError. The returned (x, q) always come straight from a BAA
    and a CAA call, so both budgets hold to the search tolerance.

    warm, when given, is a caller-owned dict this function reads and
    refreshes between calls of one outer loop: the last K x M slack "t"
    seeds the first round, and the bandwidth price "beta" and M-vector of
    compute prices "mus" (1.0 at APs not priced) seed the dual searches.
    The slack, not the compute split, is kept because at fixed prices each
    pair's optimal slack does not depend on its load, while its compute
    eta*L/(D - t) scales with it. A slack of the wrong shape, or not
    interior (0, deadline) on every active pair, voids the whole warm
    state: the solve starts cold, at unit prices and the slack
    D*(1 - load_j/C_j) of the capacity split proportional to eta*L/D.
    The compute step checks no input; this function checks once, before
    round 1: only APs that serve an active pair are priced, BAA gives each
    active pair bandwidth, and an AP whose least load sum_i eta*L/D
    reaches its capacity raises InfeasibilityError.

    Returns (x, q, rounds), with x and q K x M.
    """
    L = np.asarray(L, dtype=float)
    thr = cfg.activity_threshold_bits
    act = L > thr
    if not act.any():
        raise DegenerateInputError("no active pairs")
    d = scenario.deadlines_s[:, None]
    eta = scenario.cycles_per_bit[:, None]
    cap = scenario.compute_capacity
    # an AP's least load: the compute its active pairs need at zero slack
    load = np.where(act, eta * L / d, 0.0).sum(axis=0)
    served = act.any(axis=0)
    aps = np.flatnonzero(served).tolist()
    over = served & (load >= cap)
    if over.any():
        j = int(np.argmax(over))
        raise InfeasibilityError(
            f"AP {j}: data split demands {load[j]:.6g} cycles/s of "
            f"{cap[j]:.6g}", ap=j)

    def slack_of(q):  # inactive pairs keep their whole deadline
        return deadline_slack(d, eta, L, np.where(act, q, np.inf))

    def energy_at(x, t):
        return float(energy_matrix(scenario, L, x, t, thr).sum())

    warm = warm if warm is not None else {}
    t = warm.get("t")
    if t is not None and t.shape == L.shape and np.all(((t > 0) & (t < d))[act]):
        beta_guess, mus = warm.get("beta"), warm.get("mus")
    else:
        # the slack the capacity split proportional to eta*L/D leaves
        t, beta_guess, mus = d * (1.0 - load / cap), None, None
    # the compute that slack implies, as the first round's input
    q_in = np.where(act, eta * L, 0.0) / np.where(act, d - t, 1.0)

    eps_inner = cfg.epsilon_j / 10.0
    steps = []
    energy_prev = None
    qs, gs = [], []  # Anderson history: round inputs and their images
    candidate = None
    rounds = 0
    for rounds in range(1, (max_rounds or MAX_BCAA_ROUNDS) + 1):
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
        q, mus = _caa_joint(scenario, x, L, aps, cfg, steps, mus)
        t = slack_of(q)
        energy = energy_at(x, t)
        if rounds == max_rounds or (energy_prev is not None
                                    and energy_prev - energy <= eps_inner):
            break
        energy_prev = energy
        qs = (qs + [q_in])[-ANDERSON_MEMORY - 1:]
        gs = (gs + [q])[-ANDERSON_MEMORY - 1:]
        candidate = _anderson_mix(qs, gs) if len(qs) > 1 else None
        q_in = q
    else:
        raise ConvergenceError(
            f"bandwidth/compute alternation still improving after "
            f"{MAX_BCAA_ROUNDS} rounds (last energy {energy:.6e} J)")
    if diag is not None:
        diag.extend(steps)

    warm.update(t=t, beta=beta_guess, mus=mus)
    return x, q, rounds
