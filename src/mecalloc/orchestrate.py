"""Outer iteration, initialization strategies, baselines and metrics.

The full solver alternates two exact block updates from a chosen initial
data split until the energy improvement of a round drops below the stop
threshold: the data split moves under fixed resources, then bandwidth
and compute re-balance under the fixed split. Both steps descend, so the
recorded outer energy sequence is non-increasing and terminates.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .kkt import solve_bcaa, solve_daa
from .model import (
    Allocation,
    InfeasibilityError,
    InternalConsistencyError,
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
    """Per-outer-iteration record: energies after each resource re-balance.

    inner_iteration_counts holds the rounds of each re-balance; a round
    is one compute step (CAA) after one bandwidth step (BAA), or two BAA
    calls when an extrapolated compute split was rejected.

    data_step_energies_j holds the energy measured right after each data
    step, before the following re-balance (one fewer entry than
    outer_energies_j, which starts at the initial re-balance).
    """

    outer_energies_j: tuple
    inner_iteration_counts: tuple
    wall_times_s: tuple
    data_step_energies_j: tuple = ()


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


def _descent_guard(e_new, e_old, cfg, step):
    if e_new > e_old * (1.0 + 10.0 * cfg.bisect_tol):
        raise InternalConsistencyError(
            f"{step} raised energy from {e_old:.9e} J to {e_new:.9e} J")


def solve_iterative(scenario: Scenario, strategy: Optional[InitStrategy] = None,
                    cfg: Optional[SolveConfig] = None) -> Solution:
    """Alternate the data step and the resource re-balance until the
    energy gap of a round falls below the configured threshold.

    The first resource re-balance runs on the raw initial split; the loop
    then repeats (data step, re-balance) and stops at the end of the first
    round that lowers the energy by at most epsilon_j, which may be the
    last allowed round.
    """
    strategy = strategy or InitStrategy.equal()
    cfg = cfg or SolveConfig.for_scenario(scenario)
    thr = cfg.activity_threshold_bits

    L = initialize(scenario, strategy)
    t0 = time.perf_counter()
    warm = {}
    x, q, rounds = solve_bcaa(scenario, L, cfg, warm=warm)
    e0 = _energy(scenario, L, x, q, thr)
    outer = [e0]
    data_steps = []
    inner_counts = [rounds]
    walls = [time.perf_counter() - t0]

    nu_guess = None
    converged = False
    for it in range(1, cfg.max_outer_iters + 1):
        t_iter = time.perf_counter()
        daa_diag = []
        try:
            L_new = solve_daa(scenario, x, q, cfg, diag=daa_diag, dual_guess=nu_guess)
        except (InfeasibilityError,) as exc:
            raise InfeasibilityError(
                f"outer iteration {it}, data step: {exc}", user=exc.user) from exc
        nu_guess = np.array([rec.dual.value for rec in daa_diag])
        # freezing a pair whose optimal load sits below the activity
        # threshold can cost up to its dual times the threshold
        frozen = np.sum((L > thr) & (L_new == 0.0), axis=1)
        cushion = 2.0 * thr * float((nu_guess * frozen).sum())
        L = L_new
        e1 = _energy(scenario, L, x, q, thr)
        _descent_guard(e1, e0 + cushion, cfg, f"outer iteration {it} data step")
        try:
            x, q, rounds = solve_bcaa(scenario, L, cfg, warm=warm)
        except (InfeasibilityError,) as exc:
            raise InfeasibilityError(
                f"outer iteration {it}, resource step: {exc}", ap=exc.ap) from exc
        e0 = _energy(scenario, L, x, q, thr)
        _descent_guard(e0, e1, cfg, f"outer iteration {it} resource step")
        outer.append(e0)
        data_steps.append(e1)
        inner_counts.append(rounds)
        walls.append(time.perf_counter() - t_iter)
        if outer[-2] - e0 <= cfg.epsilon_j:
            converged = True
            break

    allocation = Allocation(data=L, bandwidth=x, compute=q)
    return Solution(
        allocation=allocation,
        energy_j=e0,
        trace=SolveTrace(tuple(outer), tuple(inner_counts), tuple(walls),
                         tuple(data_steps)),
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
