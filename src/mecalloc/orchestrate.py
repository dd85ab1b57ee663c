"""Outer iteration, initialization strategies, baselines and metrics.

The full solver minimises the re-balanced energy F(L), the least energy
the bandwidth/compute re-balance reaches at data split L. The start is
the dual step: the split the joint Lagrangian dual's prices choose
(`kkt.joint_split`) from those of the capacity split, whatever the
initial split L0, with the allocation read off those prices and
certified like a re-balance's, so no re-balance runs. The dual split is
re-balanced only when that read-off misses its certificate, and L0 only
when the step fails. Every round after it takes one projected
reduced-gradient step on L. F is the maximum of the fixed-data dual over
the prices, so by Danskin's theorem dF/dL_ij is the pair's cost per bit
e_ij at the last re-balance's prices (`kkt.pair_costs`): the gradient on
the active pairs and the entry test on the others. The step is projected
onto each user's task simplex on its support, and a backtracking line
search accepts the first trial whose warm re-balance, one pass of
`kkt.solve_bcaa`, strictly lowers the energy, starting from the
Barzilai-Borwein step length (IMA J. Numer. Anal. 1988).

The problem is convex in (L, x, q), so the one stop rule is the
certificate of the joint dual G (`kkt.joint_dual`), the Frank-Wolfe gap
bound of F (Jaggi, ICML 2013), read at the dual step's and each round's
prices.

Every energy the loop compares is one `physics.energy_matrix` call. The
outer loop calls `solve_daa` no longer; the module keeps the name because
the bench tracer (`perfbench/tracer.py`) patches it here.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .kkt import GAP_TOL, joint_dual, joint_split, pair_costs, solve_bcaa
from .kkt import solve_daa  # noqa: F401  (see above)
from .model import (
    Allocation,
    BracketError,
    ConvergenceError,
    InfeasibilityError,
    InfeasiblePairError,
    Scenario,
    SolveConfig,
    StructuralError,
    allocation_to_dict,
    budget_residuals,
    is_count,
)
from .physics import energy_matrix, total_energy
from .scenario import _uniform_draws

_KINDS = ("equal_split", "uniform_random", "best_ap_weighted")

CHECK_TOL = 1e-9  # check_solution's relative tolerance on the stored energy

# the smallest trial step before a round gives up
MIN_STEP = 1e-8

# an inactive pair joins the support when its cost per bit at the warm
# prices is below (1 - ENTRY_TOL) times its user's least active gradient
ENTRY_TOL = 1e-6


@dataclass(frozen=True)
class InitStrategy:
    """How the initial data split is drawn.

    equal_split spreads each task evenly over the APs; uniform_random
    normalizes M uniform draws per user (seeded); best_ap_weighted puts
    `weight` of the task on the strongest-gain AP and spreads the rest
    evenly, so `binary()`, its weight 1, sends everything there.
    """

    kind: str
    weight: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise StructuralError(f"unknown init strategy {self.kind!r}")
        if not 0.0 < self.weight <= 1.0:
            raise StructuralError("weight must be in (0, 1]")
        if not is_count(self.seed):
            raise StructuralError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @classmethod
    def equal(cls):
        return cls("equal_split")

    @classmethod
    def random(cls, seed=0):
        return cls("uniform_random", seed=seed)

    @classmethod
    def best_ap(cls, weight=0.9):
        return cls("best_ap_weighted", weight=weight)

    @classmethod
    def binary(cls):
        return cls.best_ap(1.0)


@dataclass(frozen=True)
class SolveTrace:
    """Per-outer-round record: the energy after each round and its cost.

    Entry 0 is the start (`solve_iterative`). inner_iteration_counts
    holds the re-balances (`kkt.solve_bcaa`, one pass each) each outer
    round ran, one per trial step of the round, rejected ones included (a
    re-balance that raises adds none). Entry 0 counts those of the start:
    0 when the allocation is read off the dual step's prices, 1 otherwise.
    A start the Lagrangian bound certifies is the only entry.
    """

    outer_energies_j: tuple
    inner_iteration_counts: tuple
    wall_times_s: tuple


@dataclass(frozen=True)
class Solution:
    allocation: Allocation
    energy_j: float
    trace: SolveTrace
    converged: bool
    lower_bound_j: Optional[float] = None

    def to_dict(self):
        return {
            "allocation": allocation_to_dict(self.allocation),
            "energy_j": self.energy_j,
            "converged": self.converged,
            "lower_bound_j": self.lower_bound_j,
            "trace": {name: list(v) for name, v in asdict(self.trace).items()},
        }

    @property
    def outer_iterations(self):
        return len(self.trace.outer_energies_j) - 1


@dataclass(frozen=True)
class Metrics:
    energy_mj: float
    max_load_share_per_user: tuple
    multi_ap_user_count: int
    constraint_residuals: dict


def best_snr_assignment(scenario: Scenario):
    """Strongest-gain AP per user; ties break to the lowest AP index."""
    return np.argmax(scenario.gains, axis=1).tolist()


def initialize(scenario: Scenario, strategy: InitStrategy):
    """Initial K x M data split; rows sum to each task size exactly."""
    K, M = scenario.num_users, scenario.num_aps
    bits = scenario.task_bits
    if strategy.kind == "equal_split":
        return np.tile(bits[:, None] / M, (1, M))
    if strategy.kind == "uniform_random":
        draws = _uniform_draws(strategy.seed, K * M).reshape(K, M)
        return draws / draws.sum(axis=1, keepdims=True) * bits[:, None]
    best = (np.arange(K), best_snr_assignment(scenario))
    if M == 1:
        L = np.zeros((K, M))
        L[best] = bits
        return L
    # best_ap_weighted
    L = np.tile((bits * (1.0 - strategy.weight) / (M - 1))[:, None], (1, M))
    L[best] = bits * strategy.weight
    return L


def _projected_step(L, G, act, bits, alpha, thr):
    """Move each user's loads by -alpha*G and project the row onto its
    task simplex on its current support {L >= 0, sum L = T}. Loads the
    projection leaves at or below thr are dropped and the row rescaled
    onto T. A row with fewer than two active pairs cannot move."""
    v = np.where(act, L - alpha * G, -np.inf)
    # Euclidean projection onto the simplex: w = max(v - tau, 0) with tau
    # from the largest k whose k-th largest entry stays above it
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1)
    rho = np.sum(u * np.arange(1, L.shape[1] + 1) > css - bits[:, None], axis=1)
    tau = (css[np.arange(L.shape[0]), rho - 1] - bits) / rho
    w = np.maximum(v - tau[:, None], 0.0)
    w[w <= thr] = 0.0
    w *= (bits / w.sum(axis=1))[:, None]
    return np.where((act.sum(axis=1) >= 2)[:, None], w, L)


def _rebalance(scenario, L, cfg, warm):
    """Warm re-balance of a trial split from a copy of warm. Returns
    (energy, x, q, warm copy); a split the re-balance cannot price or
    certify, such as one whose compute dual lies beyond the dual range,
    gets an infinite energy and x = q = None."""
    warm = dict(warm)
    try:
        x, q = solve_bcaa(scenario, L, cfg, warm=warm)[:2]
        return float(energy_matrix(scenario, L, x, q).sum()), x, q, warm
    except (InfeasibilityError, InfeasiblePairError, BracketError, ConvergenceError):
        return np.inf, None, None, warm


def _direction(scenario, L, warm):
    """The support, row-scaled direction and bound of a gradient round at
    split L.

    One `kkt.pair_costs` call gives e_ij = dF/dL_ij at the warm prices.
    Every inactive pair whose e_ij is below (1 - ENTRY_TOL) times its
    user's least active e_ij joins the support. The user's mean gradient
    would be the KKT test, and the two agree at a stationary split; away
    from one, pairs cheaper than the mean but dearer than the best pair
    turned the step away from splits the plain step reaches. Returns
    (support, G = T*(e/nu - 1), the joint dual at the warm prices), with
    nu_i the load-weighted mean of user i's e over its active pairs.
    """
    act = L > scenario.activity_threshold_bits
    e = pair_costs(scenario, warm)
    La = np.where(act, L, 0.0)
    nu = (La * e).sum(axis=1) / La.sum(axis=1)
    enter = e < np.where(act, e, np.inf).min(axis=1, keepdims=True) * (1.0 - ENTRY_TOL)
    return (act | enter, scenario.task_bits[:, None] * (e / nu[:, None] - 1.0),
            joint_dual(scenario, warm["beta"], warm["mus"], e))


def solve_iterative(scenario: Scenario, strategy: Optional[InitStrategy] = None,
                    cfg: Optional[SolveConfig] = None) -> Solution:
    """A dual step, then projected reduced-gradient descent on the data
    split until the joint Lagrangian bound certifies the energy.

    The objective is F(L), the energy after the bandwidth/compute
    re-balance at data split L. The start (entry 0 of the trace) is the
    dual step (`kkt.joint_split`) from an empty warm state, which it
    leaves empty, starting from the prices of the capacity split
    L_ij = T_i*C_j/sum C. The step chooses the split the start keeps,
    with the allocation read off the same prices and certified, at no
    re-balance. Only when that read-off misses its certificate is the
    split re-balanced, warm from the state the step returns; only when the
    step returns no split, or its split cannot be re-balanced, is L0,
    cold.

    The joint dual G (`kkt.joint_dual`) at any prices bounds every
    answer, and lower_bound_j is the largest G seen: at the dual step's
    prices, then at the warm prices before each round, off the
    `kkt.pair_costs` call of its direction. The solve stops, converged,
    once the energy E is within GAP_TOL*E of it, which may be before the
    first round, and unconverged when a round cannot lower E or after
    cfg.max_outer_iters rounds.

    A gradient round reads every pair's cost per bit e_ij at the warm
    prices (`kkt.pair_costs`), by Danskin's theorem dF/dL_ij. The support
    grows first (`_direction`): every inactive pair whose e_ij is below
    its user's least active e_ij joins it. The round then takes one
    projected step along that gradient (`_projected_step`). The warm
    prices are the last accepted re-balance's (`kkt.solve_bcaa`), and
    each trial is followed by a re-balance warm from a copy of them
    (`_rebalance`). The step size starts at the BB1 length s.s/s.y, with
    s the last change of L and y the change of the row-scaled direction
    G = T*(e/nu - 1) over the support, clipped to [MIN_STEP, 1] (1 in the
    first gradient round and when s.y <= 0), and halves until the trial
    energy is strictly lower; a trial that is infeasible, or whose
    re-balance finds a dual outside its range or misses its certificate,
    counts as a rejection. A round whose step moves no load, or whose
    step falls below MIN_STEP, lowers the energy by zero.
    """
    strategy = strategy or InitStrategy.equal()
    cfg = cfg or SolveConfig()
    bits = scenario.task_bits

    L = initialize(scenario, strategy)
    t0 = time.perf_counter()
    warm, rounds, x, lower = {}, 0, None, -np.inf
    dual = joint_split(scenario, cfg, warm)
    if dual is not None:
        L_dual, lower, state, allocation = dual
        if allocation is not None:
            L, (x, q, energy), warm = L_dual, allocation, state
        else:
            e_try, x_try, q_try, warm_try = _rebalance(scenario, L_dual, cfg, state)
            if x_try is not None:
                L, x, q, warm, energy, rounds = L_dual, x_try, q_try, warm_try, e_try, 1
    if x is None:
        x, q = solve_bcaa(scenario, L, cfg, warm=warm)[:2]
        rounds += 1
        energy = float(energy_matrix(scenario, L, x, q).sum())
    outer, inner_counts, walls = [energy], [rounds], [time.perf_counter() - t0]

    L_last = G_last = None
    converged = energy - lower <= GAP_TOL * energy
    while not converged:
        t_iter = time.perf_counter()
        act, G, bound = _direction(scenario, L, warm)
        lower = max(lower, bound)
        converged = energy - lower <= GAP_TOL * energy
        if converged or len(outer) > cfg.max_outer_iters:
            break
        rounds, trial = 0, 1.0
        if L_last is not None:
            # BB1 step s.s/s.y over the support, from the last step
            s, y = (L - L_last)[act], (G - G_last)[act]
            if s @ y > 0:
                trial = min(max(s @ s / (s @ y), MIN_STEP), 1.0)
        L_last, G_last = L, G
        while trial >= MIN_STEP:
            L_try = _projected_step(L, G, act, bits, trial, scenario.activity_threshold_bits)
            if np.array_equal(L_try, L):
                break
            e_try, x_try, q_try, warm_try = _rebalance(scenario, L_try, cfg, warm)
            rounds += x_try is not None
            if e_try < energy:
                L, x, q, warm, energy = L_try, x_try, q_try, warm_try, e_try
                break
            trial *= 0.5
        outer.append(energy)
        inner_counts.append(rounds)
        walls.append(time.perf_counter() - t_iter)
        if energy == outer[-2]:
            break

    allocation = Allocation(data=L, bandwidth=x, compute=q)
    return Solution(
        allocation=allocation,
        energy_j=energy,
        trace=SolveTrace(tuple(outer), tuple(inner_counts), tuple(walls)),
        converged=converged,
        lower_bound_j=lower,
    )


def solve_fixed_data(scenario: Scenario, L, cfg: Optional[SolveConfig] = None) -> Solution:
    """One resource re-balance under a frozen data split (convex, exact)."""
    L = np.asarray(L, dtype=float)
    t0 = time.perf_counter()
    x, q = solve_bcaa(scenario, L, cfg or SolveConfig())[:2]
    e = float(energy_matrix(scenario, L, x, q).sum())
    allocation = Allocation(data=L, bandwidth=x, compute=q)
    return Solution(
        allocation=allocation,
        energy_j=e,
        trace=SolveTrace((e,), (1,), (time.perf_counter() - t0,)),
        converged=True,
    )


def solve_fixed_assignment(scenario: Scenario, assignment,
                           cfg: Optional[SolveConfig] = None) -> Solution:
    """Global optimum when every user is pinned to a single, given AP.

    The data matrix is binary by construction and only bandwidth and
    compute are optimized, which is a convex problem solved exactly by
    one re-balance.
    """
    assignment = list(assignment)
    if len(assignment) != scenario.num_users:
        raise StructuralError(
            f"assignment maps {len(assignment)} users, scenario has "
            f"{scenario.num_users}")
    L = np.zeros((scenario.num_users, scenario.num_aps))
    for i, j in enumerate(assignment):
        if not (is_count(j) and j < scenario.num_aps):
            raise StructuralError(f"user {i} assigned to unknown AP {j}")
        L[i, j] = scenario.tasks[i].input_bits
    return solve_fixed_data(scenario, L, cfg)


def evaluate(scenario: Scenario, solution: Solution,
             cfg: Optional[SolveConfig] = None) -> Metrics:
    """Report-level metrics: energy in mJ, per-user peak load shares,
    how many users split across several APs, and budget residuals. cfg
    is accepted for callers that pass one and is not read."""
    alloc = solution.allocation
    bits = scenario.task_bits
    shares = tuple(float(alloc.data[i].max() / bits[i])
                   for i in range(scenario.num_users))
    active = alloc.data > scenario.activity_threshold_bits
    multi = int(np.sum(active.sum(axis=1) >= 2))
    return Metrics(
        energy_mj=solution.energy_j * 1e3,
        max_load_share_per_user=shares,
        multi_ap_user_count=multi,
        constraint_residuals=budget_residuals(scenario, alloc),
    )


def check_solution(scenario, solution, cfg=None):
    """Internal consistency: the stored energy matches a fresh evaluation.
    cfg is accepted for callers that pass one and is not read."""
    fresh = total_energy(scenario, solution.allocation)
    return abs(fresh - solution.energy_j) <= CHECK_TOL * max(fresh, 1e-300)
