"""Command-line harness: scenario generation, single solves, sweeps.

Structured outputs are JSON, tabular outputs are CSV with a fixed header
and 9-significant-digit floats so runs diff cleanly; the only
run-dependent line is the leading "# generated" timestamp comment.

Exit codes: 0 success, 2 usage error, 3 infeasible, 4 did not converge.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

from .model import (
    BracketError,
    ConvergenceError,
    InfeasibilityError,
    InfeasiblePairError,
    SolveConfig,
    StructuralError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from .orchestrate import (
    InitStrategy,
    best_snr_assignment,
    evaluate,
    initialize,
    solve_fixed_assignment,
    solve_fixed_data,
    solve_iterative,
)
from .scenario import SWEEP_PARAMETERS, GenParams, generate, override_parameter, provenance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4

OUT_DIR_ENV = "MECALLOC_OUT_DIR"

# generate flags not spelled after their GenParams field
_GENERATE_FLAGS = {"num_users": "--users", "num_aps": "--aps", "region_m": "--region",
                   "noise_psd_w_per_hz": "--noise-psd"}


def _out_path(path):
    """Relative outputs land in $MECALLOC_OUT_DIR when it is set."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _timestamp():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


_METHODS = ("iterative:equal", "binary-best-ap", "fixed-equal")


def _method(token):
    """--method token -> its label in _METHODS ("iterative" is short for
    "iterative:equal"); any other token raises ArgumentTypeError, so it is
    rejected before the scenario is read."""
    label = "iterative:equal" if token == "iterative" else token
    if label not in _METHODS:
        raise argparse.ArgumentTypeError(f"unknown method {token!r}")
    return label


def _run(scenario, label, cfg):
    if label == "iterative:equal":
        return solve_iterative(scenario, cfg=cfg)
    if label == "binary-best-ap":
        return solve_fixed_assignment(scenario, best_snr_assignment(scenario), cfg)
    return solve_fixed_data(scenario, initialize(scenario, InitStrategy.equal()), cfg)


def _config(args):
    try:
        return SolveConfig(bisect_tol=args.bisect_tol, max_outer_iters=args.max_outer)
    except StructuralError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_scenario(path):
    try:
        return load_scenario(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read scenario {path}: {exc!r}") from None


# ---------------------------------------------------------------------------

def cmd_generate(args):
    try:
        params = GenParams(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(GenParams)})
        scenario = generate(params)
    except StructuralError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    out = _out_path(args.out)
    save_scenario(scenario, out, provenance=provenance(params))
    print(f"wrote {out}: K={scenario.num_users} M={scenario.num_aps} "
          f"B={_fmt(scenario.bandwidth_hz)} Hz seed={args.seed}")
    return EXIT_OK


def cmd_solve(args):
    label = _method(args.method)
    scenario = _read_scenario(args.scenario)
    cfg = _config(args)
    solution = _run(scenario, label, cfg)
    metrics = evaluate(scenario, solution, cfg)
    report = validate(scenario, solution.allocation, cfg)
    doc = solution.to_dict()
    doc["metrics"] = dataclasses.asdict(metrics)
    doc["constraints_ok"] = report.ok
    out = _out_path(args.out)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.trace:
        trace_path = _out_path(args.trace)
        with open(trace_path, "w", newline="") as fh:
            fh.write(f"# generated: {_timestamp()}\n")
            w = csv.writer(fh)
            w.writerow(["outer_iter", "energy_mj", "inner_iters", "wall_time_s"])
            tr = solution.trace
            for k, (e, n, wt) in enumerate(zip(tr.outer_energies_j,
                                               tr.inner_iteration_counts,
                                               tr.wall_times_s)):
                w.writerow([k, _fmt(e * 1e3), n, _fmt(wt)])
    bound = solution.lower_bound_j
    gap = "" if bound is None else f"gap={_fmt(1.0 - bound / solution.energy_j)}, "
    print(f"energy {metrics.energy_mj:.9g} mJ, converged={solution.converged}, "
          f"outer_iterations={solution.outer_iterations}, {gap}"
          f"constraints_ok={report.ok}")
    if not report.ok:
        print(str(report), file=sys.stderr)
    return EXIT_OK if solution.converged else EXIT_NO_CONVERGENCE


_SWEEP_COLUMNS = ["parameter", "value", "strategy", "energy_mj",
                  "outer_iterations", "mean_max_load_share",
                  "min_max_load_share", "multi_ap_user_count", "lower_bound_mj",
                  "converged", "error"]


def _sweep_point(scenario_doc, param, cfg, point):
    """One (parameter value, strategy label) solve; runs inside a worker."""
    value, label = point
    scenario = override_parameter(scenario_from_dict(scenario_doc),
                                  param.replace("-", "_"), value)
    row = dict.fromkeys(_SWEEP_COLUMNS, "")
    row.update(parameter=param, value=value, strategy=label)
    try:
        sol = _run(scenario, label, cfg)
    except (InfeasibilityError, InfeasiblePairError, ConvergenceError,
            BracketError) as exc:
        row["converged"] = "false"
        row["error"] = str(exc).replace(",", ";")
        return row
    m = evaluate(scenario, sol, cfg)
    act = sol.allocation.data > scenario.activity_threshold_bits
    multi = act.sum(axis=1) >= 2
    shares = np.array(m.max_load_share_per_user)[multi]
    row.update(
        energy_mj=_fmt(m.energy_mj),
        outer_iterations=sol.outer_iterations,
        mean_max_load_share=_fmt(float(shares.mean())) if shares.size else "",
        min_max_load_share=_fmt(float(shares.min())) if shares.size else "",
        multi_ap_user_count=m.multi_ap_user_count,
        lower_bound_mj="" if sol.lower_bound_j is None else _fmt(sol.lower_bound_j * 1e3),
        converged="true" if sol.converged else "false",
    )
    return row


def cmd_sweep(args):
    try:
        values = sorted(float(v) for v in args.values.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"sweep values: {exc}") from None
    if not all(0 < v < np.inf for v in values) or len(values) != len(set(values)):
        raise argparse.ArgumentTypeError("sweep values must be distinct, positive and finite")
    labels = [_method(tok.strip()) for tok in args.strategies.split(",") if tok.strip()]
    if not labels:
        raise argparse.ArgumentTypeError("at least one strategy is required")
    if len(labels) != len(set(labels)):
        raise argparse.ArgumentTypeError(f"each method may be named once, got {args.strategies!r}")
    if args.workers < 1:
        raise argparse.ArgumentTypeError(f"--workers must be at least 1, got {args.workers}")
    scenario = _read_scenario(args.scenario)
    solve_point = functools.partial(_sweep_point, scenario_to_dict(scenario),
                                    args.param, _config(args))
    points = [(v, label) for v in values for label in labels]
    # the pool forks all its workers at the first submit
    workers = min(args.workers, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(solve_point, points))
    else:
        rows = [solve_point(p) for p in points]
    rows.sort(key=lambda r: (float(r["value"]), r["strategy"]))

    out = _out_path(args.out)
    with open(out, "w", newline="") as fh:
        fh.write(f"# generated: {_timestamp()}\n")
        w = csv.DictWriter(fh, fieldnames=_SWEEP_COLUMNS)
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {out}: {len(rows)} rows")

    if args.param == "deadline-s" and "iterative:equal" in labels:
        energies = [float(r["energy_mj"]) for r in rows
                    if r["strategy"] == "iterative:equal" and r["energy_mj"] != ""]
        mono = all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))
        print("monotonicity[iterative:equal]: energy non-increasing in deadline: "
              f"{'yes' if mono else 'NO'}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="mecalloc",
        description="Joint data/bandwidth/compute allocation benchmarks for "
                    "multi-AP mobile edge computing.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a scenario JSON file")
    for f in dataclasses.fields(GenParams):
        g.add_argument(_GENERATE_FLAGS.get(f.name, "--" + f.name.replace("_", "-")),
                       dest=f.name, type=type(f.default), default=f.default,
                       help="square side, m" if f.name == "region_m" else None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    # flags shared by solve and sweep, with SolveConfig's defaults
    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--scenario", required=True)
    solver_flags.add_argument("--bisect-tol", type=float, default=SolveConfig.bisect_tol)
    solver_flags.add_argument("--max-outer", type=int, default=SolveConfig.max_outer_iters,
                              help="SolveConfig.max_outer_iters: the most barrier rounds")

    # no flag is abbreviated, so a retired flag cannot pass for a live one
    solver = dict(parents=[solver_flags], allow_abbrev=False)
    s = sub.add_parser("solve", **solver, help="solve one scenario file")
    s.add_argument("--method", default="iterative",
                   help="iterative (or iterative:equal; the problem is convex, so it "
                        "takes no start), binary-best-ap or fixed-equal")
    s.add_argument("--out", default="solution.json")
    s.add_argument("--trace", default=None, help="trace CSV path")
    s.set_defaults(func=cmd_solve)

    w = sub.add_parser("sweep", **solver, help="solve over a parameter grid")
    w.add_argument("--param", required=True,
                   choices=sorted(name.replace("_", "-") for name in SWEEP_PARAMETERS))
    w.add_argument("--values", required=True,
                   help="comma-separated positive values, e.g. 0.2,0.4,0.6")
    w.add_argument("--strategies", default="iterative:equal",
                   help="comma-separated tokens of solve --method")
    w.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    w.add_argument("--out", default="sweep.csv")
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibilityError, InfeasiblePairError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConvergenceError, BracketError) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
