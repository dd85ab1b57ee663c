#!/usr/bin/env python3
"""The 400-solve grid, its 60-solve tight-deadline section and the
600-draw fuzz.

    python3 scripts/grid.py [--rows]

Run from the root of a source checkout; the library is imported from
`src/`. Each shape K x M at deadline D is drawn with the other
`GenParams` defaults and solved once by `solve_iterative`, which reads
no start: the problem is convex. In the grid, five shapes are drawn at
seeds 0-79, 400 distinct draws. In the tight section, 4x4 at D = 0.2 s
and 3x5 at D = 0.15 s are drawn at seeds 0-29. The fuzz draws 600
`GenParams` from `numpy.random.Generator(PCG64(12345))`, per draw
K = integers(1, 9), M = integers(1, 6), D = 10^uniform(-1.3, 0.5) s,
B = 10^uniform(5, 8) Hz, C = 10^uniform(9.5, 12) cycles/s,
T = 10^uniform(5.5, 7.3) bits and seed = integers(0, 1000), in that
order; about a quarter of them are infeasible, and those must raise
InfeasibilityError. Each draw is also solved at its best-SNR assignment,
the `binary-best-ap` restriction, whose energy no iterative answer should
exceed by more than `kkt.GAP_TOL` where it is feasible.

Each section prints its summary line, `grid: ...`, `tight: ...` or
`fuzz: ...`, after its rows. With `--rows`, one line per solve comes
first: shape, seed (in the fuzz, the draw's index), energy and bound in J
(repr, so two commits diff exactly), outer rounds and converged. The exit
code is 1 when a solve raises a solver error (in the fuzz, one other than
InfeasibilityError), ends unconverged, has no bound, has a gap above
`kkt.GAP_TOL` or is above its best-SNR energy by more than `kkt.GAP_TOL`.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mecalloc import model  # noqa: E402
from mecalloc.kkt import GAP_TOL  # noqa: E402
from mecalloc.orchestrate import (  # noqa: E402
    best_snr_assignment,
    solve_fixed_assignment,
    solve_iterative,
)
from mecalloc.scenario import GenParams, generate  # noqa: E402

# (users, APs, deadline in s)
SHAPES = ((4, 2, 0.3), (6, 3, 0.5), (8, 4, 0.25), (16, 4, 0.4), (32, 6, 0.5))
SEEDS = range(80)
# tight deadlines, where most solves need barrier rounds
TIGHT_SHAPES = ((4, 4, 0.2), (3, 5, 0.15))
TIGHT_SEEDS = range(30)
SOLVER_ERRORS = (model.BracketError, model.ConvergenceError, model.DegenerateInputError,
                 model.InfeasibilityError, model.InfeasiblePairError, model.StructuralError)


def grid_draws(shapes, seeds):
    """(shape, seed, GenParams) of each shape at each seed."""
    return [(f"{K}x{M}", seed, GenParams(num_users=K, num_aps=M, deadline_s=D, seed=seed))
            for K, M, D in shapes for seed in seeds]


def fuzz_draws(count=600):
    """(shape, index, GenParams) of the fuzz's draws, in the order of the
    module docstring."""
    rng, out = np.random.Generator(np.random.PCG64(12345)), []
    for k in range(count):
        K, M = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        D, B = 10.0 ** rng.uniform(-1.3, 0.5), 10.0 ** rng.uniform(5, 8)
        C, T = 10.0 ** rng.uniform(9.5, 12), 10.0 ** rng.uniform(5.5, 7.3)
        out.append((f"{K}x{M}", k, GenParams(num_users=K, num_aps=M, deadline_s=D, bandwidth_hz=B,
                                             capacity_cps=C, task_bits=T,
                                             seed=int(rng.integers(0, 1000)))))
    return out


def run_section(name, draws, cfg, rows, allowed=()):
    """Solve every draw of a section, print its rows when asked, then its
    summary line; returns the counts of errors (raises of `allowed` are
    counted apart), unconverged solves, solves without a bound, gaps above
    GAP_TOL and answers above their best-SNR energy by more than GAP_TOL."""
    t0 = time.perf_counter()
    n = errors = infeasible = unconverged = certified = most_rounds = unbounded = gaps = above = 0
    worst_gap = worst_above = 0.0
    for shape, seed, params in draws:
        sc = generate(params)
        try:
            best_snr = solve_fixed_assignment(sc, best_snr_assignment(sc), cfg).energy_j
        except SOLVER_ERRORS:  # the best-SNR split overloads an AP
            best_snr = math.inf
        n += 1
        try:
            sol = solve_iterative(sc, cfg=cfg)
        except allowed as exc:
            infeasible += 1
            if rows:
                print(f"{shape} {seed} {type(exc).__name__}")
            continue
        except SOLVER_ERRORS as exc:
            errors += 1
            if rows:
                print(f"{shape} {seed} error {type(exc).__name__}: {exc}")
            continue
        e, lb = sol.energy_j, sol.lower_bound_j
        unconverged += not sol.converged
        certified += sol.outer_iterations == 0
        most_rounds = max(most_rounds, sol.outer_iterations)
        if lb is None:
            unbounded += 1
        else:
            gaps += e - lb > GAP_TOL * e
            worst_gap = max(worst_gap, (e - lb) / e)
        above += e > best_snr * (1.0 + GAP_TOL)
        worst_above = max(worst_above, e / best_snr - 1.0)
        if rows:
            print(f"{shape} {seed} {e!r} {lb!r} {sol.outer_iterations} {sol.converged}")
    print(f"{name}: {n} solves, {errors} errors, "
          + (f"{infeasible} {' or '.join(a.__name__ for a in allowed)}, " if allowed else "")
          + f"{unconverged} unconverged, {certified} "
          f"certified at the start, at most {most_rounds} rounds, "
          f"{unbounded} without a bound, "
          f"{gaps} gaps above GAP_TOL (largest {worst_gap:.3g}), {above} above their "
          f"best-SNR energy by more than GAP_TOL (largest {worst_above:.3g}), "
          f"{time.perf_counter() - t0:.1f} s")
    return errors, unconverged, unbounded, gaps, above


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", action="store_true", help="print one line per solve first")
    args = p.parse_args(argv)
    cfg = model.SolveConfig()
    failures = (run_section("grid", grid_draws(SHAPES, SEEDS), cfg, args.rows)
                + run_section("tight", grid_draws(TIGHT_SHAPES, TIGHT_SEEDS), cfg, args.rows)
                + run_section("fuzz", fuzz_draws(), cfg, args.rows, (model.InfeasibilityError,)))
    return int(sum(failures) > 0)


if __name__ == "__main__":
    sys.exit(main())
