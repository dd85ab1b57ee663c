#!/usr/bin/env python3
"""Benchmark of the mecalloc solver.

    python3 perfbench/run.py --workload deadline-sweep --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. One run builds one seeded workload and repeats whole passes over
its solves while another pass still fits in `--seconds` (at least one
pass). Every answer is checked. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones, measured with
tracing off. With `--trace 1` the run makes one untraced pass and one
traced pass, and reports the wall times of the untraced pass, the
per-layer metrics of the traced pass and the tracing overhead. The exit
code is 1 when an answer violates a constraint, its energy does not
match or a pass over the same inputs answered differently, and 2 when
the library is not in the checkout. See README.md in this directory.
"""

import os

# pinned before numpy loads: one thread, so the numbers measure the solver
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("deadline-sweep", "size-ladder", "restriction-batch")
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_seconds(workload, seed):
    """Median over fresh processes of: import mecalloc, build the workload."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def _run_job(workloads, job, tracer):
    t0 = time.perf_counter()
    try:
        with tracer.span("orchestrate"):
            sol = workloads.solve(job)
    except workloads.SOLVER_ERRORS as exc:
        return workloads.Outcome(job, time.perf_counter() - t0,
                                 error=f"{type(exc).__name__}: {exc}")
    violations, energy_mj = workloads.check(job, sol)
    return workloads.Outcome(job, time.perf_counter() - t0, energy_mj=energy_mj,
                             outer_rounds=sol.outer_iterations,
                             bcaa_rounds=sum(sol.trace.inner_iteration_counts),
                             converged=sol.converged, violations=violations)


def _run_pass(workloads, jobs, tracer):
    t0 = time.perf_counter()
    outcomes = [_run_job(workloads, job, tracer) for job in jobs]
    return time.perf_counter() - t0, outcomes


def _geomean(values):
    """Geometric mean; energies span decades across deadlines and sizes."""
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _end_to_end(passes, setup_s):
    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "bcaa_rounds": (sum(o.bcaa_rounds for o in passes[0][1]), "count"),
        "solved_frac": (1.0 - sum(o.failed for o in outcomes) / len(outcomes), "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def _timings(wall, outcomes):
    """Wall time of a pass and the median and p90 of its solve times."""
    solves = [o.seconds for o in outcomes]
    # only restriction-batch has enough solves for a p90 with ten beyond it;
    # on the other workloads these pick single solves out of a handful
    p90 = statistics.quantiles(solves, n=10, method="inclusive")[8] \
        if len(solves) > 1 else solves[0]
    return {"wall_s": (wall, "s"), "solve_s_p50": (statistics.median(solves), "s"),
            "solve_s_p90": (p90, "s")}


def _per_layer(tr, passes):
    (untraced_wall, untraced), (traced_wall, outcomes) = passes
    iterative = [o for o in outcomes if not o.fixed_data]
    metrics = tr.layer_metrics(outer_rounds=sum(o.outer_rounds for o in iterative),
                               iterative_solves=len(iterative))
    metrics.update(_timings(untraced_wall, untraced))
    metrics["energy_gm_mj"] = (
        _geomean(o.energy_mj for o in outcomes if not o.error), "mJ")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "1")
    return metrics


def _unrepeatable(passes):
    """Jobs whose answer differs between passes over the same inputs."""
    return [first.job.label for first, *rest in zip(*(outs for _, outs in passes))
            if any((o.error, o.energy_mj, o.bcaa_rounds)
                   != (first.error, first.energy_mj, first.bcaa_rounds) for o in rest)]


def _print_context(args, workloads, numpy, passes):
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# scaling: {workloads.SCALING[args.workload]}")
    print(f"# python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(f"# passes={len(passes)} pass walls: "
          + " ".join(f"{w:.3f}s" for w, _ in passes))
    print("# first pass: " + " ".join(f"{k}={v:.4g}{u}" for k, (v, u) in
                                       _timings(*passes[0]).items()))
    for o in passes[0][1]:
        status = ("FAILED " + o.error if o.error else
                  "VIOLATED " + "; ".join(o.violations) if o.violations else
                  "ok" if o.converged else "not converged")
        print(f"#   {o.job.label:<34} {o.seconds:8.3f}s  rounds={o.outer_rounds:<3d} "
              f"bcaa={o.bcaa_rounds:<4d} E={o.energy_mj:.6g} mJ  {status}")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "mecalloc" / "__init__.py").is_file():
        print(f"error: no mecalloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)

    import numpy
    import tracer as tracing
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    start = time.perf_counter()
    passes = [_run_pass(workloads, jobs, tracing.NoTracer())]
    if args.trace:
        with tracing.Tracer() as tr:
            # rebuilt under the tracer so that scenario generation is timed
            passes.append(_run_pass(workloads, workloads.build(args.workload, args.seed), tr))
        metrics = _per_layer(tr, passes)
    else:
        while time.perf_counter() - start + passes[-1][0] <= args.seconds:
            passes.append(_run_pass(workloads, jobs, tracing.NoTracer()))
        metrics = _end_to_end(passes, setup_s)

    _print_context(args, workloads, numpy, passes)
    if args.trace and tr.missing:
        print("# missing hooks: " + ", ".join(sorted(tr.missing)))
    outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
    unrepeatable = _unrepeatable(passes)
    if unrepeatable:
        print("# answers changed between passes: " + ", ".join(unrepeatable))
    correct = not unrepeatable and not any(o.violations for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
