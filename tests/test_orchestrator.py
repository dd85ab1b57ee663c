import numpy as np
import pytest

from mecalloc import (
    InfeasibilityError,
    InitStrategy,
    SolveConfig,
    StructuralError,
    best_snr_assignment,
    evaluate,
    initialize,
    solve_fixed_assignment,
    solve_fixed_data,
    solve_iterative,
    total_energy,
    validate,
)
from mecalloc.orchestrate import check_solution
from mecalloc.scenario import GenParams

from util import make_scenario, scalar_energy


def _small_scenario():
    # two users, two APs, each user clearly prefers a different AP
    return make_scenario([[1.0, 0.05], [0.08, 1.0]], bits=[2.0, 1.5],
                         deadline=1.0, eta=1.0, bandwidth=10.0,
                         capacities=[6.0, 6.0], noise=1.0)


def _cfg(sc, **kw):
    kw.setdefault("epsilon_j", 1e-7)
    return SolveConfig.for_scenario(sc, **kw)


# --- initialize ---------------------------------------------------------

def test_seeds_and_ap_indices_must_be_nonnegative_integers():
    for bad in (lambda: GenParams(seed=-1), lambda: GenParams(seed=1.5),
                lambda: InitStrategy.random(seed=-1), lambda: InitStrategy.random(seed=1.5),
                lambda: solve_fixed_assignment(_small_scenario(), [0.5, 1]),
                lambda: solve_fixed_assignment(_small_scenario(), [-1, 1])):
        with pytest.raises(StructuralError):
            bad()


def test_initialize_equal_split(scenario42):
    L = initialize(scenario42, InitStrategy.equal())
    assert np.allclose(L, 1.5e6 / 4)
    assert np.allclose(L.sum(axis=1), scenario42.task_bits)


def test_initialize_best_ap_weighted(scenario42):
    L = initialize(scenario42, InitStrategy.best_ap(0.9))
    best = best_snr_assignment(scenario42)
    for i, j in enumerate(best):
        assert L[i, j] == pytest.approx(1.35e6)
        others = [L[i, k] for k in range(4) if k != j]
        assert np.allclose(others, 0.05e6)


def test_initialize_binary(scenario42):
    L = initialize(scenario42, InitStrategy.binary())
    assert np.count_nonzero(L) == scenario42.num_users
    assert np.allclose(L.sum(axis=1), scenario42.task_bits)


def test_best_ap_inits_match_per_user_reference():
    # ties break to the lowest AP index
    sc = make_scenario([[1.0, 2.0, 2.0], [3.0, 1.0, 3.0], [0.5, 0.5, 0.5]],
                       bits=[1.0, 2.0, 3.0], deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=10.0)
    best = best_snr_assignment(sc)
    assert best == [1, 0, 0]
    binary = np.zeros((3, 3))
    weighted = np.zeros((3, 3))
    for i, j in enumerate(best):
        binary[i, j] = sc.task_bits[i]
        weighted[i, :] = sc.task_bits[i] * (1.0 - 0.8) / 2
        weighted[i, j] = sc.task_bits[i] * 0.8
    assert np.array_equal(initialize(sc, InitStrategy.binary()), binary)
    assert np.array_equal(initialize(sc, InitStrategy.best_ap(0.8)), weighted)
    # a single AP takes every task whole, whatever the weight
    one = make_scenario([[1.0], [2.0]], bits=[1.0, 2.0], deadline=1.0, eta=1.0,
                        bandwidth=10.0, capacities=10.0)
    assert np.array_equal(initialize(one, InitStrategy.best_ap(0.8)), [[1.0], [2.0]])


def test_initialize_random_is_seeded(scenario42):
    a = initialize(scenario42, InitStrategy.random(seed=9))
    b = initialize(scenario42, InitStrategy.random(seed=9))
    c = initialize(scenario42, InitStrategy.random(seed=10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.allclose(a.sum(axis=1), scenario42.task_bits)
    assert np.all(a >= 0)


def test_strategy_validation():
    with pytest.raises(StructuralError):
        InitStrategy("water_filling")
    with pytest.raises(StructuralError):
        InitStrategy.best_ap(weight=0.0)
    assert InitStrategy.best_ap(0.9).name == "best-ap-90"


# --- solve_iterative ----------------------------------------------------

def test_single_pair_converges_in_one_round():
    sc = make_scenario([[0.5]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    sol = solve_iterative(sc, InitStrategy.equal(), _cfg(sc))
    assert sol.converged
    assert sol.outer_iterations == 1
    t = 1.0 - 2.0 / 8.0
    a = sc.noise_psd / 0.5
    assert sol.energy_j == pytest.approx(
        a * 10.0 * t * (2.0 ** (2.0 / (10.0 * t)) - 1.0), rel=1e-9)


def test_outer_energies_never_increase():
    sc = _small_scenario()
    sol = solve_iterative(sc, InitStrategy.equal(), _cfg(sc))
    e = np.array(sol.trace.outer_energies_j)
    assert np.all(np.diff(e) <= 1e-8 * e[:-1])
    assert sol.converged
    assert check_solution(sc, sol)


def test_initialization_strategies_agree_on_small_instance():
    sc = _small_scenario()
    cfg = _cfg(sc)
    sols = [solve_iterative(sc, s, cfg)
            for s in (InitStrategy.equal(), InitStrategy.random(seed=42),
                      InitStrategy.best_ap(0.9))]
    energies = [s.energy_j for s in sols]
    assert max(energies) - min(energies) <= 3 * cfg.epsilon_j


def test_converged_solution_validates():
    sc = _small_scenario()
    cfg = _cfg(sc)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert validate(sc, sol.allocation, cfg).ok
    assert sol.energy_j == pytest.approx(
        total_energy(sc, sol.allocation, cfg.activity_threshold_bits), rel=1e-9)


def test_trace_lengths_are_consistent():
    sc = _small_scenario()
    sol = solve_iterative(sc, InitStrategy.equal(), _cfg(sc))
    tr = sol.trace
    n = len(tr.outer_energies_j)
    assert len(tr.inner_iteration_counts) == n
    assert len(tr.wall_times_s) == n
    assert len(tr.data_step_energies_j) == n - 1
    assert sol.outer_iterations == n - 1


def test_max_outer_budget_marks_non_convergence():
    sc = _small_scenario()
    cfg = SolveConfig.for_scenario(sc, epsilon_j=1e-300, max_outer_iters=2)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert not sol.converged
    assert sol.outer_iterations == 2


def test_delay_monotonicity_small_instance():
    base = [[1.0, 0.05], [0.08, 1.0]]
    energies = []
    for d in (0.8, 1.0, 1.3, 1.7):
        sc = make_scenario(base, bits=[2.0, 1.5], deadline=d, eta=1.0,
                           bandwidth=10.0, capacities=[6.0, 6.0])
        energies.append(solve_iterative(sc, InitStrategy.equal(),
                                        _cfg(sc)).energy_j)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))


# --- fixed-assignment baseline -------------------------------------------

def test_fixed_assignment_single_user_matches_iterative():
    sc = make_scenario([[0.5]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    a = solve_fixed_assignment(sc, [0], _cfg(sc))
    b = solve_iterative(sc, InitStrategy.equal(), _cfg(sc))
    assert a.energy_j == pytest.approx(b.energy_j, rel=1e-9)


def test_fixed_assignment_is_binary_and_valid():
    sc = _small_scenario()
    cfg = _cfg(sc)
    sol = solve_fixed_assignment(sc, best_snr_assignment(sc), cfg)
    m = evaluate(sc, sol, cfg)
    assert all(s == pytest.approx(1.0) for s in m.max_load_share_per_user)
    assert m.multi_ap_user_count == 0
    assert validate(sc, sol.allocation, cfg).ok


def test_fixed_assignment_overload_is_named():
    sc = make_scenario([[1.0, 0.1], [1.0, 0.1]], bits=4.0, deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=[6.0, 6.0])
    with pytest.raises(InfeasibilityError) as err:
        solve_fixed_assignment(sc, [0, 0], _cfg(sc))
    assert err.value.ap == 0


def test_iterative_from_binary_never_loses_to_fixed():
    sc = _small_scenario()
    cfg = _cfg(sc)
    fixed = solve_fixed_assignment(sc, best_snr_assignment(sc), cfg)
    iterative = solve_iterative(sc, InitStrategy.binary(), cfg)
    assert iterative.energy_j <= fixed.energy_j * (1 + 10 * cfg.bisect_tol)


def test_fixed_data_beats_nothing_but_validates():
    sc = _small_scenario()
    cfg = _cfg(sc)
    L = initialize(sc, InitStrategy.equal())
    sol = solve_fixed_data(sc, L, cfg)
    assert sol.converged
    assert validate(sc, sol.allocation, cfg).ok
    # equal split is a restriction, so the full solver does at least as well
    full = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert full.energy_j <= sol.energy_j * (1 + 10 * cfg.bisect_tol)


# --- evaluate -------------------------------------------------------------

def test_metrics_equal_split(scenario42, cfg42, equal_allocation42):
    from mecalloc.orchestrate import Metrics, Solution, SolveTrace
    e = total_energy(scenario42, equal_allocation42)
    sol = Solution(allocation=equal_allocation42, energy_j=e,
                   trace=SolveTrace((e,), (0,), (0.0,)), converged=True)
    m = evaluate(scenario42, sol, cfg42)
    assert m.energy_mj == pytest.approx(e * 1e3)
    assert all(s == pytest.approx(0.25) for s in m.max_load_share_per_user)
    assert m.multi_ap_user_count == scenario42.num_users
    assert all(r <= cfg42.bisect_tol for r in m.constraint_residuals.values())
