"""Outer iteration, initialization strategies, baselines and metrics.

The full solver minimises the re-balanced energy F(L), the least energy
the bandwidth/compute re-balance reaches at data split L. Each round
takes one projected reduced-gradient step on L: the envelope theorem
gives the gradient of F from the last re-balance's slack and compute
duals, the step is projected onto each user's task simplex on its
current support, and a backtracking line search accepts the first trial
whose capped warm re-balance strictly lowers the energy. So the outer
energies fall strictly until a round's decrement meets the stop.

The outer loop no longer calls `solve_daa`; the module keeps the name
because the bench tracer (`perfbench/tracer.py`) patches it here.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .kkt import solve_bcaa, solve_daa  # noqa: F401  (solve_daa: see above)
from .model import (
    LN2,
    Allocation,
    BracketError,
    InfeasibilityError,
    InfeasiblePairError,
    Scenario,
    SolveConfig,
    StructuralError,
    allocation_to_dict,
    budget_residuals,
    deadline_slack,
    is_count,
)
from .physics import energy_matrix, total_energy

_KINDS = ("equal_split", "uniform_random", "best_ap_weighted", "binary_best_ap")

# most rounds of the re-balance after each trial step, and the smallest
# trial step before a round gives up
BALANCE_ROUNDS = 2
MIN_STEP = 1e-8


@dataclass(frozen=True)
class InitStrategy:
    """How the initial data split is drawn.

    equal_split spreads each task evenly over the APs; uniform_random
    normalizes M uniform draws per user (seeded); best_ap_weighted puts
    `weight` of the task on the strongest-gain AP and spreads the rest
    evenly; binary_best_ap sends everything to the strongest AP.
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
        return cls("binary_best_ap")

    @property
    def name(self):
        if self.kind == "best_ap_weighted":
            return f"best-ap-{int(round(100 * self.weight))}"
        return {"equal_split": "equal", "uniform_random": "random",
                "binary_best_ap": "binary-best-ap"}[self.kind]


@dataclass(frozen=True)
class SolveTrace:
    """Per-outer-round record: the energy after each round and its cost.

    Entry 0 is the initial re-balance. inner_iteration_counts holds the
    re-balance rounds each outer round spent, summed over every trial
    step of the round, rejected ones included (a re-balance that raises
    adds none); a re-balance round is one compute step (CAA) after one
    bandwidth step (BAA), or two BAA calls when an extrapolated compute
    split was rejected.
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

    def to_dict(self):
        return {
            "allocation": allocation_to_dict(self.allocation),
            "energy_j": self.energy_j,
            "converged": self.converged,
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
        rng = np.random.Generator(np.random.PCG64(strategy.seed))
        draws = rng.uniform(size=(K, M))
        return draws / draws.sum(axis=1, keepdims=True) * bits[:, None]
    best = (np.arange(K), best_snr_assignment(scenario))
    if strategy.kind == "binary_best_ap" or M == 1:
        L = np.zeros((K, M))
        L[best] = bits
        return L
    # best_ap_weighted
    L = np.tile((bits * (1.0 - strategy.weight) / (M - 1))[:, None], (1, M))
    L[best] = bits * strategy.weight
    return L


def _reduced_gradient(scenario, L, x, warm, act):
    """Gradient of the re-balanced energy F(L) = min over (x, q) of E on
    the active pairs, by the envelope theorem from the last re-balance:
    dF/dL = a*ln2*2**(L/(x*t)) + mu_j*eta/(D - t), with the slack t and
    the per-AP compute duals mu_j that re-balance left in warm."""
    i, j = np.nonzero(act)
    t = warm["t"][i, j]
    mu = np.zeros(scenario.num_aps)
    mu[list(warm["mus"])] = list(warm["mus"].values())
    g = np.zeros_like(L)
    g[i, j] = scenario.noise_over_gain()[i, j] * LN2 * np.exp2(L[i, j] / (x[i, j] * t)) \
        + mu[j] * scenario.cycles_per_bit[i] / (scenario.deadlines_s[i] - t)
    return g


def _projected_step(L, g, act, bits, alpha, thr):
    """Move each user's loads by -alpha*T*(g/nu - 1) and project the row
    onto its task simplex on its current support {L >= 0, sum L = T},
    where nu is the load-weighted mean of g over the row. Loads the
    projection leaves at or below thr are dropped and the row rescaled
    onto T. A row with fewer than two active pairs cannot move."""
    nu = (L * g).sum(axis=1) / np.where(act, L, 0.0).sum(axis=1)
    v = np.where(act, L - alpha * bits[:, None] * (g / nu[:, None] - 1.0), -np.inf)
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


def solve_iterative(scenario: Scenario, strategy: Optional[InitStrategy] = None,
                    cfg: Optional[SolveConfig] = None) -> Solution:
    """Projected reduced-gradient descent on the data split until the
    energy gap of a round falls below the configured threshold.

    The objective is F(L), the energy after the bandwidth/compute
    re-balance at data split L. The first re-balance runs on the raw
    initial split to tolerance. Each round then takes one projected step
    along the envelope gradient of F (`_reduced_gradient`,
    `_projected_step`), each trial followed by a warm re-balance of at
    most BALANCE_ROUNDS rounds from a copy of the warm state. The step
    size starts at twice the last accepted one (1 in the first round,
    never above 1) and halves until the trial energy is strictly lower;
    a trial that is infeasible, or whose re-balance finds a dual outside
    its range, counts as a rejection. A round whose step moves no load,
    or whose step falls below MIN_STEP, lowers the energy by zero. The
    loop stops at the end of the first round that lowers the energy
    by at most epsilon_j, which may be the last allowed round.
    """
    strategy = strategy or InitStrategy.equal()
    cfg = cfg or SolveConfig.for_scenario(scenario)
    thr = cfg.activity_threshold_bits
    bits = scenario.task_bits

    L = initialize(scenario, strategy)
    t0 = time.perf_counter()
    warm = {}
    x, q, rounds = solve_bcaa(scenario, L, cfg, warm=warm)
    energy = _energy(scenario, L, x, q, thr)
    outer = [energy]
    inner_counts = [rounds]
    walls = [time.perf_counter() - t0]

    alpha = 0.5  # the first trial step is min(2*alpha, 1) = 1
    converged = False
    for _ in range(cfg.max_outer_iters):
        t_iter = time.perf_counter()
        act = L > thr
        g = _reduced_gradient(scenario, L, x, warm, act)
        rounds = 0
        trial = min(2.0 * alpha, 1.0)
        while trial >= MIN_STEP:
            L_try = _projected_step(L, g, act, bits, trial, thr)
            if np.array_equal(L_try, L):
                break
            warm_try = dict(warm)
            try:
                x_try, q_try, n = solve_bcaa(scenario, L_try, cfg, warm=warm_try,
                                             max_rounds=BALANCE_ROUNDS)
                rounds += n
                e_try = _energy(scenario, L_try, x_try, q_try, thr)
            except (InfeasibilityError, InfeasiblePairError, BracketError):
                # a split the re-balance cannot price, such as one whose
                # compute dual lies beyond DUAL_RANGE, is rejected
                e_try = np.inf
            if e_try < energy:
                L, x, q, warm, energy = L_try, x_try, q_try, warm_try, e_try
                alpha = trial
                break
            trial *= 0.5
        outer.append(energy)
        inner_counts.append(rounds)
        walls.append(time.perf_counter() - t_iter)
        if outer[-2] - energy <= cfg.epsilon_j:
            converged = True
            break

    allocation = Allocation(data=L, bandwidth=x, compute=q)
    return Solution(
        allocation=allocation,
        energy_j=energy,
        trace=SolveTrace(tuple(outer), tuple(inner_counts), tuple(walls)),
        converged=converged,
    )


def _energy(scenario, L, x, q, thr):
    """Total energy at (L, x, q) over the pairs loaded above thr."""
    L = np.asarray(L, dtype=float)
    t = deadline_slack(scenario.deadlines_s[:, None], scenario.cycles_per_bit[:, None],
                       L, np.where(L > thr, q, np.inf))
    return float(energy_matrix(scenario, L, x, t, thr).sum())


def solve_fixed_data(scenario: Scenario, L, cfg: Optional[SolveConfig] = None) -> Solution:
    """One resource re-balance under a frozen data split (convex, exact)."""
    cfg = cfg or SolveConfig.for_scenario(scenario)
    t0 = time.perf_counter()
    x, q, rounds = solve_bcaa(scenario, L, cfg)
    e = _energy(scenario, L, x, q, cfg.activity_threshold_bits)
    allocation = Allocation(data=np.asarray(L, dtype=float), bandwidth=x, compute=q)
    return Solution(
        allocation=allocation,
        energy_j=e,
        trace=SolveTrace((e,), (rounds,), (time.perf_counter() - t0,)),
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
    how many users split across several APs, and budget residuals."""
    cfg = cfg or SolveConfig.for_scenario(scenario)
    alloc = solution.allocation
    bits = scenario.task_bits
    shares = tuple(float(alloc.data[i].max() / bits[i])
                   for i in range(scenario.num_users))
    active = alloc.data > cfg.activity_threshold_bits
    multi = int(np.sum(active.sum(axis=1) >= 2))
    return Metrics(
        energy_mj=solution.energy_j * 1e3,
        max_load_share_per_user=shares,
        multi_ap_user_count=multi,
        constraint_residuals=budget_residuals(scenario, alloc, cfg),
    )


def check_solution(scenario, solution, cfg=None, tol=1e-9):
    """Internal consistency: the stored energy matches a fresh evaluation."""
    cfg = cfg or SolveConfig.for_scenario(scenario)
    fresh = total_energy(scenario, solution.allocation, cfg.activity_threshold_bits)
    return abs(fresh - solution.energy_j) <= tol * max(fresh, 1e-300)
