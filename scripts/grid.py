#!/usr/bin/env python3
"""The 400-solve grid and its 60-solve tight-deadline section.

    python3 scripts/grid.py [--rows]

Run from the root of a source checkout; the library is imported from
`src/`. Each shape K x M at deadline D is drawn with the other
`GenParams` defaults and solved once by `solve_iterative`, which reads
no start: the problem is convex. In the grid, five shapes are drawn at
seeds 0-79, 400 distinct draws. In the tight section, 4x4 at D = 0.2 s
and 3x5 at D = 0.15 s are drawn at seeds 0-29. Each draw is also solved
at its best-SNR assignment, the `binary-best-ap` restriction, whose
energy no iterative answer should exceed by more than `kkt.GAP_TOL`
where it is feasible.

Each section prints its summary line, `grid: ...` or `tight: ...`, after
its rows. With `--rows`, one line per solve comes first: shape, seed,
energy and bound in J (repr, so two commits diff exactly), outer rounds
and converged. The exit code is 1 when a solve raises a
solver error, ends unconverged, has no bound, has a gap above
`kkt.GAP_TOL` or is above its best-SNR energy by more than `kkt.GAP_TOL`.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def run_section(name, shapes, seeds, cfg, rows):
    """Solve every draw of a section, print its rows when asked, then its
    summary line; returns the counts of errors, unconverged solves, solves
    without a bound, gaps above GAP_TOL and answers above their best-SNR
    energy by more than GAP_TOL."""
    t0 = time.perf_counter()
    n = errors = unconverged = certified = most_rounds = unbounded = gaps = above = 0
    worst_gap = worst_above = 0.0
    for K, M, D in shapes:
        for seed in seeds:
            sc = generate(GenParams(num_users=K, num_aps=M, deadline_s=D, seed=seed))
            try:
                best_snr = solve_fixed_assignment(sc, best_snr_assignment(sc), cfg).energy_j
            except SOLVER_ERRORS:  # the best-SNR split overloads an AP
                best_snr = math.inf
            n += 1
            try:
                sol = solve_iterative(sc, cfg=cfg)
            except SOLVER_ERRORS as exc:
                errors += 1
                if rows:
                    print(f"{K}x{M} {seed} error {type(exc).__name__}: {exc}")
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
                print(f"{K}x{M} {seed} {e!r} {lb!r} {sol.outer_iterations} {sol.converged}")
    print(f"{name}: {n} solves, {errors} errors, {unconverged} unconverged, {certified} "
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
    grid = run_section("grid", SHAPES, SEEDS, cfg, args.rows)
    tight = run_section("tight", TIGHT_SHAPES, TIGHT_SEEDS, cfg, args.rows)
    return int(sum(grid) + sum(tight) > 0)


if __name__ == "__main__":
    sys.exit(main())
