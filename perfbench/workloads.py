"""Seeded workloads: the scenarios, the solve calls and the answer checks.

Every input is drawn from the workload seed; the library only ever sees
the generated scenarios. Library calls go through the module attributes
(`orchestrate.solve_iterative`, `model.validate`, ...) so that a tracer
patching those attributes sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mecalloc import model, orchestrate, scenario
from mecalloc.model import (
    BracketError,
    ConvergenceError,
    DegenerateInputError,
    InfeasibilityError,
    InfeasiblePairError,
    InternalConsistencyError,
    StructuralError,
)

# Every error the solver raises on its own; anything else is a defect of
# the program and stops the benchmark.
SOLVER_ERRORS = (BracketError, ConvergenceError, DegenerateInputError,
                 InfeasibilityError, InfeasiblePairError,
                 InternalConsistencyError, StructuralError)

# deadline-sweep is the scenario of the library's acceptance tests (seed
# 42); the workload seed scales each task size by up to +-2%. A fresh
# geometry per seed changes how many re-balance rounds the sweep needs.
SWEEP_GEOMETRY_SEED = 42
SWEEP_TASK_JITTER = 0.02
SWEEP_SIZE = (8, 4)
DEADLINES_S = (0.2, 0.4, 0.6, 0.8, 1.0)
# The outer-round cap of the D = 0.2 s iterative solve. That solve does not
# converge within it, nor within the library default of 100 that every
# other solve keeps; at 100 rounds it alone takes a minute.
SWEEP_MAX_OUTER = 30
LADDER_SIZES = ((64, 9), (256, 16))
BATCH_SCENARIOS = 50
# Outer energies may rise by the solver's own descent-guard slack (ten
# bisection tolerances per step, two steps per round) and no more.
MONOTONE_REL_TOL = 20.0

SCALING = {
    "deadline-sweep": "8x4 GenParams defaults at geometry seed 42 (10 MHz, "
                      "2.5e10 cycles/s per AP, 1.5 Mbit tasks scaled by "
                      f"1 +- {SWEEP_TASK_JITTER} from the workload seed); "
                      "D in {0.2,0.4,0.6,0.8,1.0} s; iterative "
                      f"max_outer_iters={SWEEP_MAX_OUTER} at D = 0.2 s",
    "size-ladder": "K x M in {64x9, 256x16}; bandwidth 1e7*K/8 Hz; "
                   "capacity 2.5e10*(K/8)*(4/M) cycles/s per AP",
    "restriction-batch": f"{BATCH_SCENARIOS} scenarios, K in 4..12, M in 2..4, "
                         "ladder scaling; per-user task 0.5-2 Mbit, "
                         "deadline 0.4-1.0 s; redrawn while the best-AP "
                         "split loads an AP above 80% of its capacity",
}


@dataclass(frozen=True)
class Job:
    """One solve call of a workload."""

    label: str
    method: str  # "iterative:equal", "binary-best-ap" or "fixed-equal"
    scenario: object
    cfg: object


@dataclass
class Outcome:
    """What a job returned, and whether the answer passed the checks."""

    job: Job
    seconds: float
    energy_mj: float = math.nan
    outer_rounds: int = 0
    bcaa_rounds: int = 0
    converged: bool = False
    error: str = ""
    violations: tuple = ()

    @property
    def fixed_data(self):
        """A single convex re-balance: no data step, no outer loop."""
        return self.job.method != "iterative:equal"

    @property
    def failed(self):
        return bool(self.error) or not self.converged or bool(self.violations)


def _ladder_params(K, M, seed):
    return scenario.GenParams(num_users=K, num_aps=M, bandwidth_hz=1e7 * K / 8,
                              capacity_cps=2.5e10 * (K / 8) * (4 / M), seed=seed)


def _deadline_sweep(seed):
    K, M = SWEEP_SIZE
    base = scenario.generate(
        scenario.GenParams(num_users=K, num_aps=M, seed=SWEEP_GEOMETRY_SEED))
    rng = np.random.Generator(np.random.PCG64(seed))
    jitter = rng.uniform(1.0 - SWEEP_TASK_JITTER, 1.0 + SWEEP_TASK_JITTER, K)
    base = _with_tasks(base, base.task_bits * jitter, base.deadlines_s)
    jobs = []
    for d in DEADLINES_S:
        sc = scenario.override_parameter(base, "deadline_s", d)
        cfg = model.SolveConfig.for_scenario(sc)
        iterative_cfg = model.SolveConfig.for_scenario(
            sc, max_outer_iters=SWEEP_MAX_OUTER) if d == DEADLINES_S[0] else cfg
        jobs.append(Job(f"D={d}:iterative:equal", "iterative:equal", sc, iterative_cfg))
        jobs.append(Job(f"D={d}:binary-best-ap", "binary-best-ap", sc, cfg))
    return jobs


def _size_ladder(seed):
    jobs = []
    for K, M in LADDER_SIZES:
        sc = scenario.generate(_ladder_params(K, M, seed))
        cfg = model.SolveConfig.for_scenario(sc)
        for method in ("iterative:equal", "binary-best-ap"):
            jobs.append(Job(f"{K}x{M}:{method}", method, sc, cfg))
    return jobs


def _with_tasks(sc, bits, deadlines):
    """The scenario with each user's task size and deadline replaced."""
    tasks = tuple(model.TaskSpec(float(b), float(d), float(eta))
                  for b, d, eta in zip(bits, deadlines, sc.cycles_per_bit))
    return model.Scenario(num_users=sc.num_users, num_aps=sc.num_aps, gains=sc.gains,
                          tasks=tasks, bandwidth_hz=sc.bandwidth_hz,
                          compute_capacity=sc.compute_capacity, noise_psd=sc.noise_psd)


def _best_ap_overloaded(sc):
    demand = sc.cycles_per_bit * sc.task_bits / sc.deadlines_s
    best = np.argmax(sc.gains, axis=1)
    load = np.bincount(best, weights=demand, minlength=sc.num_aps)
    return bool(np.any(load > 0.8 * sc.compute_capacity))


def _restriction_batch(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    jobs = []
    for n in range(BATCH_SCENARIOS):
        while True:
            K = int(rng.integers(4, 13))
            M = int(rng.integers(2, 5))
            base = scenario.generate(_ladder_params(K, M, int(rng.integers(2**31))))
            sc = _with_tasks(base, rng.uniform(0.5e6, 2e6, K), rng.uniform(0.4, 1.0, K))
            if not _best_ap_overloaded(sc):
                break
        cfg = model.SolveConfig.for_scenario(sc)
        for method in ("binary-best-ap", "fixed-equal"):
            jobs.append(Job(f"#{n}:{K}x{M}:{method}", method, sc, cfg))
    return jobs


_JOBS = {
    "deadline-sweep": _deadline_sweep,
    "size-ladder": _size_ladder,
    "restriction-batch": _restriction_batch,
}


def build(workload, seed):
    """The jobs of one workload pass, in run order."""
    return _JOBS[workload](seed)


def solve(job):
    sc, cfg = job.scenario, job.cfg
    if job.method == "iterative:equal":
        return orchestrate.solve_iterative(sc, orchestrate.InitStrategy.equal(), cfg)
    if job.method == "binary-best-ap":
        return orchestrate.solve_fixed_assignment(
            sc, orchestrate.best_snr_assignment(sc), cfg)
    if job.method == "fixed-equal":
        L = orchestrate.initialize(sc, orchestrate.InitStrategy.equal())
        return orchestrate.solve_fixed_data(sc, L, cfg)
    raise ValueError(f"unknown method {job.method!r}")


def check(job, solution):
    """Constraint and energy violations of a returned solution."""
    sc, cfg = job.scenario, job.cfg
    bad = [str(v) for v in model.validate(sc, solution.allocation, cfg).violations]
    if not orchestrate.check_solution(sc, solution, cfg):
        bad.append("stored energy differs from a fresh evaluation")
    outer = solution.trace.outer_energies_j
    slack = MONOTONE_REL_TOL * cfg.bisect_tol
    for k in range(1, len(outer)):
        if outer[k] > outer[k - 1] * (1.0 + slack):
            bad.append(f"outer energy rose in round {k}: "
                       f"{outer[k - 1]:.9e} -> {outer[k]:.9e} J")
    metrics = orchestrate.evaluate(sc, solution, cfg)
    for name, res in metrics.constraint_residuals.items():
        if res > cfg.bisect_tol:
            bad.append(f"budget residual {name} = {res:.3e}")
    return tuple(bad), metrics.energy_mj
