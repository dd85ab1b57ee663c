"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy artifacts (the seed-42 solves and the deadline sweep) are computed
once per session and shared across criteria.
"""

import json
import math

import numpy as np
import pytest

from mecalloc import (
    InitStrategy,
    PairPoint,
    SolveConfig,
    best_snr_assignment,
    evaluate,
    hessian_diag,
    min_power,
    pair_energy,
    partials,
    rate,
    solve_baa,
    solve_bcaa,
    solve_caa,
    solve_daa,
    solve_fixed_assignment,
    solve_iterative,
)
from mecalloc.cli import main as cli_main
from mecalloc.scenario import GenParams, generate, override_parameter

from util import (
    fd_gradient,
    grid_min_baa,
    grid_min_bcaa,
    grid_min_caa,
    grid_min_daa,
    make_scenario,
    sample_points,
    scalar_energy,
    scalar_energy_q,
)

DEADLINE_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="session")
def acc_cfg(scenario42):
    # outer stop 1e-2 mJ expressed in Joules
    return SolveConfig.for_scenario(scenario42, epsilon_j=1e-5)


@pytest.fixture(scope="session")
def init_solutions(scenario42, acc_cfg):
    return {
        "equal": solve_iterative(scenario42, InitStrategy.equal(), acc_cfg),
        "random": solve_iterative(scenario42, InitStrategy.random(seed=42), acc_cfg),
        "best-ap-90": solve_iterative(scenario42, InitStrategy.best_ap(0.9), acc_cfg),
    }


@pytest.fixture(scope="session")
def deadline_sweep(scenario42):
    """Per deadline: the iterative solve, the pinned-assignment optimum,
    and the iterative solve started from that binary split."""
    rows = {}
    assignment = best_snr_assignment(scenario42)
    for d in DEADLINE_GRID:
        sc = override_parameter(scenario42, "deadline_s", d)
        cfg = SolveConfig.for_scenario(sc, epsilon_j=1e-5)
        rows[d] = {
            "scenario": sc,
            "cfg": cfg,
            "iterative": solve_iterative(sc, InitStrategy.equal(), cfg),
            "fixed": solve_fixed_assignment(sc, assignment, cfg),
            "from_binary": solve_iterative(sc, InitStrategy.binary(), cfg),
        }
    return rows


def test_criterion_01_deadline_tightness(scenario42, acc_cfg, init_solutions):
    sol = init_solutions["equal"]
    assert sol.converged
    al = sol.allocation
    worst = 0.0
    act = al.data > scenario42.activity_threshold_bits
    for i, j in zip(*np.nonzero(act)):
        task = scenario42.tasks[i]
        p = PairPoint.from_compute(al.data[i, j], al.bandwidth[i, j],
                                   al.compute[i, j], task.deadline_s,
                                   task.cycles_per_bit,
                                   scenario42.noise_psd / scenario42.gains[i, j])
        transmission = p.data_bits / rate(min_power(p), p)
        computing = task.cycles_per_bit * al.data[i, j] / al.compute[i, j]
        worst = max(worst, abs(transmission + computing - task.deadline_s)
                    / task.deadline_s)
    ok = _report(1, worst <= 1e-6,
                 f"deadline tightness: worst |T+Q-D|/D = {worst:.3e} (tol 1e-6)")
    assert ok


def test_criterion_02_gradient_oracle():
    worst = 0.0
    for p in sample_points(1000, seed=17):
        g = partials(p)
        a, d, eta = p.noise_over_gain, p.deadline_s, p.cycles_per_bit
        fd_L = fd_gradient(lambda v: pair_energy(PairPoint.from_compute(
            v[0], p.bandwidth_hz, p.compute_cps, d, eta, a)), [p.data_bits])[0]
        fd_x = fd_gradient(lambda v: pair_energy(PairPoint.from_slack(
            p.data_bits, v[0], p.slack_s, d, eta, a)), [p.bandwidth_hz])[0]
        fd_t = fd_gradient(lambda v: pair_energy(PairPoint.from_slack(
            p.data_bits, p.bandwidth_hz, v[0], d, eta, a)), [p.slack_s])[0]
        for have, want in ((g.d_dL, fd_L), (g.d_dx, fd_x), (g.d_dt, fd_t)):
            worst = max(worst, abs(have - want) / max(abs(want), 1e-300))
    ok = _report(2, worst <= 1e-5,
                 f"gradient oracle: worst relative error {worst:.3e} over 1000 "
                 f"points (tol 1e-5)")
    assert ok


def test_criterion_03_hessian_signs():
    # data-bandwidth block at a fixed probe point
    p1 = PairPoint.from_compute(0.1, 0.1, 1.0, 0.1, 0.5, 1.0)
    det_lx = hessian_diag(p1, "L_x").determinant
    # data-compute block at a fixed probe point
    p2 = PairPoint.from_compute(2.0, 1.0, 2.1, 1.0, 1.0, 1.0)
    det_lq = hessian_diag(p2, "L_q").determinant
    # bandwidth-slack block at random interior points
    xt_ok = True
    for p in sample_points(1000, seed=23):
        h = hessian_diag(p, "x_t")
        if not (h.determinant > 0 and h.matrix[0, 0] > 0 and h.matrix[1, 1] > 0):
            xt_ok = False
            break
    ok = _report(
        3,
        det_lx < 0 and det_lq < 0 and xt_ok,
        f"curvature signs: det(L,x)@probe = {det_lx:.4e} (expected < 0), "
        f"det(L,q)@probe = {det_lq:.4e} (expected < 0), "
        f"det(x,t) > 0 at 1000 random points: {xt_ok}")
    assert ok, (
        "the energy function's true second derivatives, confirmed by central "
        "finite differences, give positive determinants at both probe points "
        f"(L,x: {det_lx:.4e}; L,q: {det_lq:.4e}); the expected negative signs "
        "are not attainable for these curvature blocks")


def test_criterion_04_subproblem_oracles():
    fails = []

    # data split: one user, two APs with gains 10:1
    sc = make_scenario([[1.0, 0.1]], bits=1.0, deadline=1.0, eta=1.0,
                       bandwidth=2.0, capacities=2.0)
    x = np.array([[1.0, 1.0]])
    q = np.array([[2.0, 2.0]])
    L = solve_daa(sc, x, q, SolveConfig.for_scenario(sc))
    a = (sc.noise_psd / sc.gains)[0]
    e = sum(scalar_energy_q(L[0, j], x[0, j], q[0, j], 1.0, 1.0, a[j])
            for j in range(2))
    e_star, split_star = grid_min_daa(1.0, x[0], q[0], 1.0, 1.0, a)
    if not (e <= e_star * 1.001 and abs(L[0, 0] - split_star) <= 0.01):
        fails.append(f"data split: {e:.6e} vs oracle {e_star:.6e}")

    # bandwidth split: two single-AP users at fixed slack
    sc = make_scenario([[1.0], [0.2]], bits=[2.0, 1.0], deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=20.0)
    t = np.array([[0.5], [0.4]])
    xm = solve_baa(sc, t, np.array([[2.0], [1.0]]), SolveConfig.for_scenario(sc))
    a = (sc.noise_psd / sc.gains)[:, 0]
    e = scalar_energy(2.0, xm[0, 0], 0.5, a[0]) + scalar_energy(1.0, xm[1, 0], 0.4, a[1])
    e_star, _ = grid_min_baa([2.0, 1.0], [0.5, 0.4], a, 10.0)
    if not e <= e_star * 1.001:
        fails.append(f"bandwidth split: {e:.6e} vs oracle {e_star:.6e}")

    # compute split: two users of one AP, second carries twice the data
    sc = make_scenario([[1.0], [0.5]], bits=[2.0, 4.0], deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=10.0)
    xc = np.array([[4.0], [6.0]])
    tc = solve_caa(sc, xc, np.array([[2.0], [4.0]]), ap=0,
                   cfg=SolveConfig.for_scenario(sc))
    qc = np.array([2.0, 4.0]) / (1.0 - tc)
    a = (sc.noise_psd / sc.gains)[:, 0]
    e = scalar_energy_q(2.0, 4.0, qc[0], 1.0, 1.0, a[0]) \
        + scalar_energy_q(4.0, 6.0, qc[1], 1.0, 1.0, a[1])
    e_star, _ = grid_min_caa([2.0, 4.0], [4.0, 6.0], [1.0, 1.0], 1.0, 10.0, a)
    if not e <= e_star * 1.001:
        fails.append(f"compute split: {e:.6e} vs oracle {e_star:.6e}")

    # joint bandwidth + compute for a fixed data split
    sc = make_scenario([[1.0], [1.0 / 3.0]], bits=[2.0, 1.0], deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=10.0)
    xb, qb, _ = solve_bcaa(sc, np.array([[2.0], [1.0]]),
                           SolveConfig.for_scenario(sc))
    a = (sc.noise_psd / sc.gains)[:, 0]
    e = scalar_energy_q(2.0, xb[0, 0], qb[0, 0], 1.0, 1.0, a[0]) \
        + scalar_energy_q(1.0, xb[1, 0], qb[1, 0], 1.0, 1.0, a[1])
    e_star, _, _ = grid_min_bcaa([2.0, 1.0], [1.0, 1.0], 1.0, 10.0, 10.0, a)
    if not e <= e_star * 1.001:
        fails.append(f"joint split: {e:.6e} vs oracle {e_star:.6e}")

    ok = _report(4, not fails,
                 "subproblem oracles within 0.1%"
                 + ("" if not fails else "; " + "; ".join(fails)))
    assert ok


def test_criterion_05_outer_convergence(acc_cfg, init_solutions):
    problems = []
    for name, sol in init_solutions.items():
        e = np.array(sol.trace.outer_energies_j)
        if not sol.converged:
            problems.append(f"{name}: did not converge")
        if sol.outer_iterations > 100:
            problems.append(f"{name}: {sol.outer_iterations} iterations")
        rises = np.diff(e) / e[:-1]
        if rises.size and rises.max() > 10 * acc_cfg.bisect_tol:
            problems.append(f"{name}: energy rose by {rises.max():.2e}")
    ok = _report(5, not problems,
                 "outer convergence: " + (
                     "monotone, all initializations converged within 100 "
                     "iterations" if not problems else "; ".join(problems)))
    assert ok


def test_criterion_06_initialization_invariance(acc_cfg, init_solutions):
    energies = {k: s.energy_j for k, s in init_solutions.items()}
    spread = max(energies.values()) - min(energies.values())
    ok = _report(6, spread <= 3 * acc_cfg.epsilon_j,
                 f"initialization invariance: spread {spread * 1e3:.4f} mJ "
                 f"(tol {3 * acc_cfg.epsilon_j * 1e3:.2f} mJ); "
                 + ", ".join(f"{k}={v * 1e3:.4f}" for k, v in energies.items()))
    assert ok


def test_criterion_07_delay_monotonicity(deadline_sweep):
    energies = [deadline_sweep[d]["iterative"].energy_j for d in DEADLINE_GRID]
    mono = all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))
    ok = _report(7, mono,
                 "delay monotonicity: "
                 + " >= ".join(f"{e * 1e3:.4g}" for e in energies) + " mJ")
    assert ok


def test_criterion_08_restriction_dominance(deadline_sweep):
    problems = []
    for d in DEADLINE_GRID:
        row = deadline_sweep[d]
        bound = row["fixed"].energy_j * (1 + 10 * row["cfg"].bisect_tol)
        if row["from_binary"].energy_j > bound:
            problems.append(
                f"D={d}: {row['from_binary'].energy_j:.6e} > {bound:.6e}")
    ok = _report(8, not problems,
                 "restriction dominance at every sweep point"
                 + ("" if not problems else "; " + "; ".join(problems)))
    assert ok


def test_criterion_09_constraint_residuals(scenario42, acc_cfg, init_solutions,
                                           deadline_sweep):
    worst = 0.0
    solved = [(scenario42, acc_cfg, s) for s in init_solutions.values()]
    for d in DEADLINE_GRID:
        row = deadline_sweep[d]
        for key in ("iterative", "fixed", "from_binary"):
            if row[key].converged:
                solved.append((row["scenario"], row["cfg"], row[key]))
    for sc, cfg, sol in solved:
        if not sol.converged:
            continue
        m = evaluate(sc, sol, cfg)
        worst = max(worst, max(m.constraint_residuals.values()))
    ok = _report(9, worst <= 1e-6,
                 f"budget equalities: worst relative residual {worst:.3e} "
                 f"(tol 1e-6)")
    assert ok


def test_best_ap_init_needs_fewest_rounds(init_solutions):
    # soft expectation pinned to this seed: front-loading the strongest AP
    # starts nearest the fixed point
    iters = {k: s.outer_iterations for k, s in init_solutions.items()}
    assert iters["best-ap-90"] <= min(iters["equal"], iters["random"])


def test_stop_met_in_the_last_allowed_round_counts_as_converged():
    # the dual step of this 6x3 draw returns no split, so the equal start
    # runs gradient rounds and meets the outer stop at the end of round n;
    # a budget of exactly n rounds runs the same rounds and must say so
    sc = generate(GenParams(num_users=6, num_aps=3, deadline_s=0.5, seed=13))
    full = solve_iterative(sc, InitStrategy.equal(), SolveConfig.for_scenario(sc))
    n = full.outer_iterations
    assert full.converged and n >= 2

    def solve_within(rounds):
        cfg = SolveConfig.for_scenario(sc, max_outer_iters=rounds)
        return solve_iterative(sc, InitStrategy.equal(), cfg)

    last = solve_within(n)
    assert last.converged
    assert last.energy_j == full.energy_j
    assert not solve_within(n - 1).converged


def test_tight_deadline_converges_near_the_lagrangian_bound(deadline_sweep):
    # the best known D = 0.2 s energy is 87.36 mJ (400 steps at a 1e-12 J
    # stop), and the Lagrangian lower bound of ROADMAP item 3 lies within
    # 0.33% of it
    sol = deadline_sweep[0.2]["iterative"]
    assert sol.converged
    assert sol.outer_iterations <= 100
    assert sol.energy_j <= 87.36e-3 * 1.01


def test_tight_deadline_answer_meets_the_joint_dual_at_the_dual_step_prices(scenario42):
    # weak duality of the full problem makes G(beta, mu) at any prices a
    # lower bound on every feasible energy; at the prices of the dual step
    # (the solve's lower_bound_j) it certifies the D = 0.2 s answer to
    # within 1e-3 (the time-sharing zero gap of Yu & Lui, IEEE Trans.
    # Commun. 2006)
    sc = override_parameter(scenario42, "deadline_s", 0.2)
    cfg = SolveConfig.for_scenario(sc, epsilon_j=1e-5)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    bound = sol.lower_bound_j
    assert sol.converged
    assert bound <= sol.energy_j <= bound * (1.0 + 1e-3)


def test_iterative_matches_the_binary_start_at_loose_deadlines(deadline_sweep):
    for d in (0.4, 0.6):
        row = deadline_sweep[d]
        assert row["iterative"].energy_j == pytest.approx(
            row["from_binary"].energy_j, rel=1e-3, abs=0), d


def test_criterion_10_determinism(tmp_path):
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["generate", "--seed", "42", "--out", str(s1)]) == 0
    assert cli_main(["generate", "--seed", "42", "--out", str(s2)]) == 0
    scenario_ok = s1.read_bytes() == s2.read_bytes()

    small = tmp_path / "small.json"
    assert cli_main(["generate", "--seed", "11", "--users", "4", "--aps", "2",
                     "--out", str(small)]) == 0
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--scenario", str(small), "--param", "deadline-s",
            "--values", "0.5,0.8", "--strategies",
            "iterative:equal,binary-best-ap", "--workers", "1"]
    assert cli_main(args + ["--out", str(c1)]) == 0
    assert cli_main(args + ["--out", str(c2)]) == 0

    def body(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("# generated")]

    sweep_ok = body(c1) == body(c2)
    ok = _report(10, scenario_ok and sweep_ok,
                 f"determinism: scenario bytes identical = {scenario_ok}, "
                 f"sweep rows identical = {sweep_ok}")
    assert ok
