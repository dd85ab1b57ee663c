#!/usr/bin/env python3
"""The 400-solve grid: random draws over five shapes, four starts each.

    python3 scripts/grid.py [--rows]

Run from the root of a source checkout; the library is imported from
`src/`. Each shape K x M at deadline D is drawn at seeds 0-19 with the
other `GenParams` defaults, and `solve_iterative` runs from four starts:
equal, binary (best-ap-100), best-ap-90 and random(0). Each draw is also
solved at its best-SNR assignment, the `binary-best-ap` restriction,
whose energy no iterative answer should exceed where it is feasible.

The last line of standard output is the summary. With `--rows`, one
line per solve comes first: shape, seed, start, energy and bound in J
(repr, so two commits diff exactly), outer rounds, re-balances and
converged. The exit code is 1 when a solve raises a solver error, ends
unconverged, has no bound or a gap above `kkt.GAP_TOL`.
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
    InitStrategy,
    best_snr_assignment,
    solve_fixed_assignment,
    solve_iterative,
)
from mecalloc.scenario import GenParams, generate  # noqa: E402

# (users, APs, deadline in s)
SHAPES = ((4, 2, 0.3), (6, 3, 0.5), (8, 4, 0.25), (16, 4, 0.4), (32, 6, 0.5))
SEEDS = range(20)
STARTS = {"equal": InitStrategy.equal(), "binary": InitStrategy.binary(),
          "best-ap-90": InitStrategy.best_ap(0.9), "random-0": InitStrategy.random(0)}
SOLVER_ERRORS = (model.BracketError, model.ConvergenceError, model.DegenerateInputError,
                 model.InfeasibilityError, model.InfeasiblePairError, model.StructuralError)
# an answer above its best-SNR energy by more than this, relative, is reported
RESTRICTION_TOL = 1e-9


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", action="store_true", help="print one line per solve first")
    args = p.parse_args(argv)
    cfg = model.SolveConfig()
    t0 = time.perf_counter()
    n = errors = unconverged = certified = rebalances = unbounded = gaps = above = 0
    worst_gap = worst_above = 0.0
    for K, M, D in SHAPES:
        for seed in SEEDS:
            sc = generate(GenParams(num_users=K, num_aps=M, deadline_s=D, seed=seed))
            try:
                best_snr = solve_fixed_assignment(sc, best_snr_assignment(sc), cfg).energy_j
            except SOLVER_ERRORS:  # the best-SNR split overloads an AP
                best_snr = math.inf
            for start, strategy in STARTS.items():
                n += 1
                try:
                    sol = solve_iterative(sc, strategy, cfg)
                except SOLVER_ERRORS as exc:
                    errors += 1
                    if args.rows:
                        print(f"{K}x{M} {seed} {start} error {type(exc).__name__}: {exc}")
                    continue
                e, lb = sol.energy_j, sol.lower_bound_j
                unconverged += not sol.converged
                certified += sol.outer_iterations == 0
                rebalances += sum(sol.trace.inner_iteration_counts)
                if lb is None:
                    unbounded += 1
                else:
                    gaps += e - lb > GAP_TOL * e
                    worst_gap = max(worst_gap, (e - lb) / e)
                above += e > best_snr * (1.0 + RESTRICTION_TOL)
                worst_above = max(worst_above, e / best_snr - 1.0)
                if args.rows:
                    print(f"{K}x{M} {seed} {start} {e!r} {lb!r} {sol.outer_iterations} "
                          f"{sum(sol.trace.inner_iteration_counts)} {sol.converged}")
    print(f"{n} solves, {errors} errors, {unconverged} unconverged, {certified} certified "
          f"at the start, {rebalances} re-balances, {unbounded} without a bound, {gaps} gaps "
          f"above GAP_TOL (largest {worst_gap:.3g}), {above} above their best-SNR energy "
          f"by more than {RESTRICTION_TOL:g} (largest {worst_above:.3g}), "
          f"{time.perf_counter() - t0:.1f} s")
    return int(errors + unconverged + unbounded + gaps > 0)


if __name__ == "__main__":
    sys.exit(main())
