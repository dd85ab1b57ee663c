"""Outer iteration, initialization strategies, baselines and metrics.

The full solver minimises the energy over (L, x, q), a convex problem.
The start is the dual step, the fast path: the split the joint
Lagrangian dual's prices choose (`kkt.joint_split`) from those of the
capacity split, whatever the initial split L0, with the allocation read
off those prices and certified like a re-balance's, so no re-balance
runs. Every round after it takes the next centring stage of a barrier
method on the whole problem (`kkt.barrier_stages`) with the stage's own
allocation, again with no re-balance; those rounds certify every draw
the dual step cannot, one whose optimum leaves an AP idle included. The
one stop rule is the certificate of the joint dual G (`kkt.joint_dual`),
read at the dual step's prices and at each stage's multipliers.

Every energy the loop compares is one `physics.energy_matrix` call. The
outer loop calls `solve_daa` no longer; the module keeps the name because
the bench tracer (`perfbench/tracer.py`) patches it here.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .kkt import GAP_TOL, barrier_stages, joint_dual, joint_split, solve_bcaa
from .kkt import solve_daa  # noqa: F401  (see above)
from .model import (
    Allocation,
    ConvergenceError,
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


@dataclass(frozen=True)
class InitStrategy:
    """How the initial data split is drawn.

    equal_split spreads each task evenly over the APs; uniform_random
    normalizes M uniform draws per user (seeded); best_ap_weighted puts
    `weight` of the task on the strongest-gain AP and spreads the rest
    evenly, so `binary()`, its weight 1, sends everything there. No solve
    reads a start; the kinds stay as the fixed splits that the bench, the
    acceptance criteria and the tests pass.
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
    holds the re-balances (`kkt.solve_bcaa`, one pass each) each entry
    ran: 1 for a fixed-data solve, and 0 at every entry of
    `solve_iterative`, whose start and rounds read their allocations off
    the dual step's prices or a barrier stage. A start the Lagrangian
    bound certifies is the only entry.
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


def solve_iterative(scenario: Scenario, strategy: Optional[InitStrategy] = None,
                    cfg: Optional[SolveConfig] = None) -> Solution:
    """The dual step, then barrier stages until the joint Lagrangian
    bound certifies the energy.

    The start (entry 0 of the trace) is the dual step (`kkt.joint_split`),
    its allocation read off its prices and certified, at no re-balance.
    Each round after it takes the next stage of `kkt.barrier_stages` and
    keeps the stage's own allocation when its energy is lower than the
    held one's. When the dual step holds no answer (a stage missed its
    tolerance, or the read-off its certificate), the first stage is the
    start. Neither step reads an initial split: the problem is convex.
    strategy is accepted, and not read, for the bench and the acceptance
    criteria, which pass one.

    The joint dual G (`kkt.joint_dual`) at any prices bounds every answer;
    lower_bound_j is the largest G seen: at the dual step's prices and at
    each stage's multipliers. The solve stops, converged, once the energy
    E is within GAP_TOL*E of it, and unconverged after cfg.max_outer_iters
    rounds or when the stages end.
    """
    cfg = cfg or SolveConfig()
    x, energy, lower, t0 = None, np.inf, -np.inf, time.perf_counter()
    outer, walls = [], []
    dual = joint_split(scenario, cfg)
    if dual is not None:
        L_dual, lower, _, allocation = dual
        if allocation is not None:
            L, (x, q, energy) = L_dual, allocation
            outer, walls = [energy], [time.perf_counter() - t0]
    stages = barrier_stages(scenario)
    while x is None or energy - lower > GAP_TOL * energy:
        t_iter = time.perf_counter() if outer else t0
        if len(outer) > cfg.max_outer_iters or (stage := next(stages, None)) is None:
            break
        L_try, x_try, q_try, beta, mus = stage
        lower = max(lower, joint_dual(scenario, beta, mus))
        if (e_try := float(energy_matrix(scenario, L_try, x_try, q_try).sum())) < energy:
            L, x, q, energy = L_try, x_try, q_try, e_try
        outer.append(energy)
        walls.append(time.perf_counter() - t_iter)
    if x is None:
        raise ConvergenceError("the barrier method starts outside its domain")

    return Solution(
        allocation=Allocation(data=L, bandwidth=x, compute=q),
        energy_j=energy,
        trace=SolveTrace(tuple(outer), (0,) * len(outer), tuple(walls)),
        converged=energy - lower <= GAP_TOL * energy,
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
