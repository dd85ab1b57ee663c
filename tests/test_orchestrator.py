import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecalloc import (
    Allocation,
    BracketError,
    ConvergenceError,
    InfeasibilityError,
    InitStrategy,
    SolveConfig,
    StructuralError,
    best_snr_assignment,
    evaluate,
    initialize,
    solve_bcaa,
    solve_fixed_assignment,
    solve_fixed_data,
    solve_iterative,
    total_energy,
    validate,
)
from mecalloc import kkt, orchestrate
from mecalloc.orchestrate import check_solution
from mecalloc.physics import data_marginal, price_oracle
from mecalloc.scenario import GenParams, generate, override_parameter

from util import make_scenario, scalar_energy, starve_pricing

# a pair left out of a converged answer may cost no less than (1 - ENTRY_TOL)
# times its user's marginal nu_i
ENTRY_TOL = 1e-6


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
                lambda: solve_fixed_assignment(_small_scenario(), [-1, 1]),
                # a bool is an int to Python, and L[i, True] loads the whole row
                lambda: solve_fixed_assignment(generate(GenParams(num_users=4, num_aps=3, seed=1)),
                                               [True, False, True, False]),
                lambda: GenParams(num_users=True), lambda: SolveConfig(max_outer_iters=True),
                lambda: InitStrategy.random(seed=True)):
        with pytest.raises(StructuralError):
            bad()


def test_fixed_assignment_maps_every_user():
    for assignment in ([0], [0, 1, 1]):
        with pytest.raises(StructuralError, match="assignment maps"):
            solve_fixed_assignment(_small_scenario(), assignment)


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
    # the binary start is the weighted one at weight 1: (1 - 1)/(M - 1) is 0
    assert InitStrategy.binary() == InitStrategy.best_ap(1.0)
    assert np.array_equal(initialize(sc, InitStrategy.best_ap(1.0)), binary)
    assert np.array_equal(initialize(sc, InitStrategy.best_ap(0.8)), weighted)
    # a single AP takes every task whole, whatever the weight
    one = make_scenario([[1.0], [2.0]], bits=[1.0, 2.0], deadline=1.0, eta=1.0,
                        bandwidth=10.0, capacities=10.0)
    for weight in (0.8, 1.0):
        assert np.array_equal(initialize(one, InitStrategy.best_ap(weight)), [[1.0], [2.0]])


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
        InitStrategy("binary_best_ap")  # InitStrategy.binary() is best_ap(1.0)
    with pytest.raises(StructuralError):
        InitStrategy.best_ap(weight=0.0)


# --- solve_iterative ----------------------------------------------------

def test_single_pair_is_certified_at_the_start():
    sc = make_scenario([[0.5]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    sol = solve_iterative(sc, InitStrategy.equal(), _cfg(sc))
    assert sol.converged
    assert sol.outer_iterations == 0
    t = 1.0 - 2.0 / 8.0
    a = sc.noise_psd / 0.5
    assert sol.energy_j == pytest.approx(
        a * 10.0 * t * (2.0 ** (2.0 / (10.0 * t)) - 1.0), rel=1e-9, abs=0)


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
        total_energy(sc, sol.allocation), rel=1e-9, abs=0)


@pytest.mark.parametrize("path", ["certified-start", "gradient-rounds", "fixed-data",
                                  "fixed-assignment"])
def test_the_stored_energy_is_the_fresh_evaluation_bit_for_bit(path):
    # every solve path stores the energy of the one energy function at its
    # answer; the seed-42 start at D = 0.6 s is certified by the bound
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.6)
    if path == "certified-start":
        sol = solve_iterative(sc, InitStrategy.equal())
    elif path == "gradient-rounds":
        # the dual step of this draw returns no split, so barrier rounds run
        sc = generate(GenParams(num_users=6, num_aps=3, deadline_s=0.5, seed=13))
        sol = solve_iterative(sc, InitStrategy.equal())
    elif path == "fixed-data":
        sol = solve_fixed_data(sc, initialize(sc, InitStrategy.equal()))
    else:
        sol = solve_fixed_assignment(sc, best_snr_assignment(sc))
    assert (sol.outer_iterations > 0) == (path == "gradient-rounds")
    assert sol.energy_j == total_energy(sc, sol.allocation)


def test_trace_lengths_are_consistent():
    sc = _small_scenario()
    sol = solve_iterative(sc, InitStrategy.equal(), _cfg(sc))
    tr = sol.trace
    n = len(tr.outer_energies_j)
    assert len(tr.inner_iteration_counts) == n
    assert len(tr.wall_times_s) == n
    assert sol.outer_iterations == n - 1


def _rounds_draw():
    # the dual step of this draw returns no split from the capacity
    # split's prices, so the first barrier stage is its start and three
    # rounds follow
    return generate(GenParams(num_users=6, num_aps=3, deadline_s=0.5, seed=13))


def test_max_outer_budget_marks_non_convergence():
    # one round does not bring this start within GAP_TOL of its bound
    sc = _rounds_draw()
    cfg = SolveConfig.for_scenario(sc, max_outer_iters=1)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert not sol.converged
    assert sol.outer_iterations == 1
    assert sol.energy_j - sol.lower_bound_j > orchestrate.GAP_TOL * sol.energy_j


def test_reduced_gradient_matches_central_differences():
    # F(L) is the energy of a tight cold re-balance at split L; the costs
    # per bit at one re-balance's prices must be its derivative (Danskin)
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.4)
    cfg = SolveConfig.for_scenario(sc, epsilon_j=1e-13)
    L = initialize(sc, InitStrategy.equal())

    def rebalanced_energy(L):
        x, q, _ = solve_bcaa(sc, L, cfg)
        return total_energy(sc, Allocation(L, x, q))

    g = kkt.pair_costs(sc, *kkt._price(sc, L, cfg)[0])
    for i, j in ((2, 3), (5, 1)):
        h = 1e-4 * L[i, j]
        up, down = L.copy(), L.copy()
        up[i, j] += h
        down[i, j] -= h
        fd = (rebalanced_energy(up) - rebalanced_energy(down)) / (2.0 * h)
        assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=0), (i, j)


@pytest.mark.parametrize("deadline", [0.2, 0.4])
def test_reduced_gradient_is_the_slack_and_price_form_after_a_rebalance(deadline):
    # stationarity of the slack at the pricing's prices gives
    # mu_j*eta/(D - t) = -a*x*phi(z)*eta/q, so dE/dL at (x, q) equals
    # a*ln2*2**(L/(x*t)) + mu_j*eta/(D - t) with the answer's slack
    # t = D - eta*L/q and the pricing's compute prices; it is also the
    # pair's cost per bit at those prices, the minimand of the joint dual
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", deadline)
    cfg = SolveConfig.for_scenario(sc)
    thr = sc.activity_threshold_bits
    L = initialize(sc, InitStrategy.equal())
    # a trial split moves a quarter of each task onto its user's cheapest
    # AP at the equal split's prices
    costs = kkt.pair_costs(sc, *kkt._price(sc, L, cfg)[0])
    L = 0.75 * L
    L[np.arange(sc.num_users), np.argmin(costs, axis=1)] += 0.25 * sc.task_bits
    x, q, rounds = solve_bcaa(sc, L, cfg)
    assert rounds == 1
    beta, mus = kkt._price(sc, L, cfg)[0]
    i, j = np.nonzero(L > thr)
    t = sc.deadlines_s[i] - sc.cycles_per_bit[i] * L[i, j] / q[i, j]
    form = sc.noise_over_gain[i, j] * np.log(2.0) * np.exp2(L[i, j] / (x[i, j] * t)) \
        + mus[j] * sc.cycles_per_bit[i] / (sc.deadlines_s[i] - t)
    g = data_marginal(L[i, j], x[i, j], q[i, j], sc.deadlines_s[i], sc.cycles_per_bit[i],
                      sc.noise_over_gain[i, j])
    assert np.allclose(g, form, rtol=1e-7, atol=0)
    assert np.allclose(g, kkt.pair_costs(sc, beta, mus)[i, j], rtol=1e-7, atol=0)


def _spy_rebalances(monkeypatch):
    """Record the split and the round count of every `solve_bcaa` call
    the outer loop makes."""
    calls = []
    rebalance = orchestrate.solve_bcaa

    def spy(scenario, L, *args, **kwargs):
        out = rebalance(scenario, L, *args, **kwargs)
        calls.append((np.array(L), out[2]))
        return out

    monkeypatch.setattr(orchestrate, "solve_bcaa", spy)
    return calls


def _decline_dual_step(monkeypatch):
    """Start every solve from the re-balance of its initial split."""
    monkeypatch.setattr(orchestrate, "joint_split", lambda *args: None)


def test_trial_split_whose_pricing_misses_its_tolerance_is_rejected(monkeypatch):
    sc = _small_scenario()
    cfg = _cfg(sc)
    L = initialize(sc, InitStrategy.equal())
    starve_pricing(monkeypatch)
    with pytest.raises(ConvergenceError, match="budget residual"):
        solve_fixed_data(sc, L, cfg)


@st.composite
def _outer_instances(draw):
    """A generated scenario of 1-6 users x 1-4 APs, an initial split and
    AP capacities that split fits in."""
    K = draw(st.integers(1, 6))
    M = draw(st.integers(1, 4))
    strategy = draw(st.sampled_from([InitStrategy.equal(), InitStrategy.random(seed=3),
                                     InitStrategy.best_ap(0.8)]))
    params = GenParams(num_users=K, num_aps=M, deadline_s=draw(st.floats(0.15, 1.0)),
                       bandwidth_hz=draw(st.floats(2e6, 4e7)),
                       seed=draw(st.integers(0, 2**16)))
    L = initialize(generate(params), strategy)
    peak = params.cycles_per_bit * L.sum(axis=0).max() / params.deadline_s
    headroom = draw(st.floats(1.2, 4.0))
    return generate(dataclasses.replace(params, capacity_cps=headroom * peak)), strategy


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_outer_instances())
def test_outer_loop_properties_on_random_instances(instance):
    # the properties hold in every round, so a short budget tests them all
    sc, strategy = instance
    cfg = SolveConfig.for_scenario(sc, max_outer_iters=5)
    sol = solve_iterative(sc, strategy, cfg)
    drops = np.diff(sol.trace.outer_energies_j)
    # a round keeps the held answer unless its stage's allocation is lower
    assert np.all(drops <= 0)
    if not drops.size:
        # a start that runs no round is certified by the Lagrangian bound
        assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j
    assert validate(sc, sol.allocation, cfg).ok
    start = solve_fixed_data(sc, initialize(sc, strategy), cfg)
    assert sol.energy_j <= start.energy_j


def _spy_dual_step(monkeypatch):
    """Record what every call of `kkt.joint_split` returns."""
    steps = []
    split = orchestrate.joint_split

    def spy(*args):
        steps.append(split(*args))
        return steps[-1]

    monkeypatch.setattr(orchestrate, "joint_split", spy)
    return steps


def _start42(deadline):
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", deadline)
    return sc, SolveConfig.for_scenario(sc)


def test_the_solve_path_never_calls_the_bisection_references(monkeypatch):
    # solve_daa, solve_baa and solve_caa, once bisections and now barriers
    # on one coordinate, are references for the tests, so their step costs
    # no solve any time; at D = 0.2 s both starts are certified by the dual
    # step, and the 6x3 draw, whose dual step returns no split, runs
    # barrier rounds
    def refuse(*args, **kwargs):
        raise AssertionError("a subproblem reference ran on the solve path")

    monkeypatch.setattr(kkt, "_barrier_split", refuse)
    sc, cfg = _start42(0.2)
    for strategy in (InitStrategy.equal(), InitStrategy.binary()):
        assert solve_iterative(sc, strategy, cfg).trace.outer_energies_j
    draw = generate(GenParams(num_users=6, num_aps=3, deadline_s=0.5, seed=13))
    assert solve_iterative(draw).outer_iterations >= 1
    assert solve_fixed_data(sc, initialize(sc, InitStrategy.equal()), cfg).converged
    assert solve_fixed_assignment(sc, best_snr_assignment(sc), cfg).converged


def test_the_start_prices_the_initial_split_without_rebalancing_it(monkeypatch):
    # the dual split beats the pricing of the equal split, so no
    # re-balance runs on that split and every round spent, none here, is
    # counted
    sc, cfg = _start42(0.4)
    L0 = initialize(sc, InitStrategy.equal())
    calls = _spy_rebalances(monkeypatch)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert not any(np.array_equal(L, L0) for L, _ in calls)
    assert sum(sol.trace.inner_iteration_counts) == sum(n for _, n in calls)


def test_the_start_ends_below_the_dual_of_the_initial_split():
    # weak duality: q at the pricing's prices bounds the re-balanced
    # energy of the initial split, and the accepted dual split is below q
    sc, cfg = _start42(0.4)
    L0 = initialize(sc, InitStrategy.equal())
    bound = kkt.fixed_data_dual(sc, L0, *kkt._price(sc, L0, cfg)[0])
    assert bound <= solve_fixed_data(sc, L0, cfg).energy_j
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.trace.outer_energies_j[0] < bound


@pytest.mark.parametrize("deadline", [0.4, 0.6, 1.0])
def test_a_dual_split_equal_to_the_initial_split_costs_no_rebalance(deadline, monkeypatch):
    sc, cfg = _start42(deadline)
    steps = _spy_dual_step(monkeypatch)
    sol = solve_iterative(sc, InitStrategy.binary(), cfg)
    assert np.array_equal(steps[0][0], initialize(sc, InitStrategy.binary()))
    assert sol.trace.inner_iteration_counts[0] == 0


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_outer_instances())
def test_joint_dual_at_the_dual_step_prices_bounds_the_answer(instance):
    # weak duality of the full problem: G(beta, mu) at any prices, here
    # those of the dual step, never exceeds a feasible energy
    sc, strategy = instance
    cfg = SolveConfig.for_scenario(sc, max_outer_iters=5)
    with pytest.MonkeyPatch.context() as mp:
        steps = _spy_dual_step(mp)
        sol = solve_iterative(sc, strategy, cfg)
    for _, bound, prices, _ in filter(None, steps):
        G = kkt.joint_dual(sc, *prices)
        assert bound == G <= sol.energy_j * (1.0 + 1e-12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_outer_instances())
def test_no_inactive_pair_of_a_converged_answer_costs_less_than_its_user(instance):
    # the entry test leaves no pair out whose cost per bit at the answer's
    # prices is below its user's marginal nu_i
    sc, strategy = instance
    cfg = SolveConfig.for_scenario(sc)
    sol = solve_iterative(sc, strategy, cfg)
    if not sol.converged:
        return
    L = sol.allocation.data
    act = L > sc.activity_threshold_bits
    # the answer's prices: the fixed-data dual has one maximiser
    g = kkt.pair_costs(sc, *kkt._price(sc, L, cfg)[0])
    nu = (np.where(act, L, 0.0) * g).sum(axis=1) / np.where(act, L, 0.0).sum(axis=1)
    e = np.where(act, np.inf, g)
    assert np.all(e >= nu[:, None] * (1.0 - ENTRY_TOL))


@pytest.mark.parametrize("gains, deadline, bandwidth, capacity", [
    # two 4x4 draws of `_outer_instances` whose energies are below 0.1 mJ:
    # an absolute stop of 1e-5 J on a round's decrement once ended them
    # with a cheaper pair left out. Here, five gradient rounds ended at
    # 6.6794e-5 J with no bound, and user 0's AP 2 cost 0.80*nu_0
    ([[2.39715968e-10, 9.64886093e-10, 3.21681365e-11, 4.60925389e-11],
      [1.78887729e-11, 5.46078289e-09, 6.18252678e-12, 2.52652833e-11],
      [7.74202509e-09, 1.90508779e-11, 2.67097529e-11, 6.51890623e-12],
      [1.44921276e-11, 4.56441782e-12, 1.25517664e-09, 1.54776587e-11]],
     0.999, 1e7, 2.48715233e9),
    # here, four rounds ended at 5.96719e-5 J with no bound, and user 2's
    # AP 3 cost 0.979*nu_2
    ([[9.41148441e-12, 1.93676885e-10, 9.77878536e-12, 2.38527688e-10],
      [9.18208294e-12, 3.23607065e-10, 3.27509977e-12, 1.12010489e-11],
      [1.09970296e-10, 1.37017900e-09, 3.52313194e-11, 9.04397202e-11],
      [2.67807966e-11, 2.01900345e-08, 7.18080134e-12, 2.34139432e-11]],
     1.0, 13188101.0, 5.25e9),
], ids=["0.80nu", "0.98nu"])
def test_no_inactive_pair_of_a_converged_answer_costs_less_than_its_user_on_a_tiny_energy(
        gains, deadline, bandwidth, capacity):
    sc = make_scenario(gains, bits=1.5e6, deadline=deadline, eta=1e3, bandwidth=bandwidth,
                       capacities=[capacity] * 4, noise=GenParams().noise_psd_w_per_hz)
    test_no_inactive_pair_of_a_converged_answer_costs_less_than_its_user.hypothesis.inner_test(
        (sc, InitStrategy.equal()))


def test_the_entry_test_prices_an_ap_the_split_left_idle_at_the_floor():
    # the pricing holds AP 3, which serves no one, at the floor of
    # DUAL_RANGE: its capacity is free to the pairs that would enter there
    sc = generate(GenParams(num_users=12, num_aps=4, seed=3))
    cfg = SolveConfig.for_scenario(sc)
    L = np.tile(sc.task_bits[:, None] / 3.0, (1, 4))
    L[:, 3] = 0.0
    beta, mus = kkt._price(sc, L, cfg)[0]
    e = kkt.pair_costs(sc, beta, mus)
    floor = price_oracle(beta, kkt.DUAL_RANGE[0], sc.deadlines_s, sc.cycles_per_bit,
                         sc.noise_over_gain[:, 3])[0]
    np.testing.assert_allclose(e[:, 3], floor, rtol=1e-14, atol=0)


def test_a_start_whose_split_overloads_an_ap_runs_the_dual_step_from_the_equal_prices():
    # the binary start loads AP 3 with 2.625e10 of its 2.5e10 cycles/s, so
    # its split has no fixed-data dual
    sc = generate(GenParams(num_users=16, num_aps=4, deadline_s=0.4, seed=0))
    with pytest.raises(InfeasibilityError, match="AP 3"):
        solve_bcaa(sc, initialize(sc, InitStrategy.binary()), SolveConfig.for_scenario(sc))
    sol = solve_iterative(sc, InitStrategy.binary())
    assert sol.converged
    assert sol.energy_j == pytest.approx(0.452634834, rel=1e-9, abs=0)
    assert sol.energy_j == pytest.approx(solve_iterative(sc).energy_j, rel=1e-9, abs=0)


def test_every_start_ends_at_the_same_certified_answer():
    # the dual step runs from the prices of the capacity split, which no
    # initial split changes, so every start keeps the same dual split
    sc = generate(GenParams(num_users=16, num_aps=4, deadline_s=0.4, seed=0))
    sols = [solve_iterative(sc, strategy) for strategy in (
        InitStrategy.equal(), InitStrategy.binary(), InitStrategy.best_ap(), InitStrategy.random())]
    for sol in sols:
        assert sol.converged and sol.outer_iterations == 0
        assert sol.energy_j == sols[0].energy_j == pytest.approx(0.452634834, rel=1e-9, abs=0)
        assert sol.lower_bound_j == sols[0].lower_bound_j


def test_unequal_capacities_start_from_the_capacity_split():
    # APs 2 and 3 each hold 5% of the aggregate demand: the equal split
    # overloads them, and the capacity split does not
    sc = generate(GenParams(num_users=8, num_aps=4, deadline_s=0.6, seed=0))
    demand = np.sum(sc.cycles_per_bit * sc.task_bits / sc.deadlines_s)
    sc = dataclasses.replace(sc, compute_capacity=np.array([0.6, 0.6, 0.05, 0.05]) * demand)
    with pytest.raises(InfeasibilityError, match="AP 2"):
        solve_bcaa(sc, initialize(sc, InitStrategy.equal()), SolveConfig.for_scenario(sc))
    for strategy in (InitStrategy.equal(), InitStrategy.random(), InitStrategy.best_ap()):
        sol = solve_iterative(sc, strategy)
        assert sol.converged and sol.outer_iterations == 0
        assert sol.energy_j == pytest.approx(1.724999e-2, rel=1e-6, abs=0)
        assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j


def test_a_huge_bandwidth_solves_to_its_energy_at_a_tenth_of_it():
    # at 1e20 Hz every rate exponent is about 1e-17, where the bracket must
    # not cancel: the cold bandwidth price takes the log of -phi(z) ~ z^2/2.
    # Bandwidth is then free, so the energies are those at 1e19 Hz
    sc = generate(GenParams(num_users=3, num_aps=2, bandwidth_hz=1e20, task_bits=1e3, seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed = solve_fixed_data(sc, initialize(sc, InitStrategy.equal()))
        sol = solve_iterative(sc)
    assert fixed.energy_j == pytest.approx(2.822468320038004e-07, rel=1e-12, abs=0)
    assert sol.energy_j == pytest.approx(1.2591576856629717e-07, rel=1e-12, abs=0)


def test_a_start_within_the_gap_tolerance_of_the_bound_stops_the_solve():
    sc, cfg = _start42(0.4)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.converged
    assert sol.outer_iterations == 0
    assert sol.trace.inner_iteration_counts == (0,)
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j


def test_the_tight_deadline_start_is_certified_with_no_gradient_round():
    # the continuation of the dual step's smoothing closes the gap at D =
    # 0.2 s, so the start reads its allocation off the dual step's prices
    # and ends the solve
    sc, cfg = _start42(0.2)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.converged
    assert sol.outer_iterations == 0
    assert sol.trace.inner_iteration_counts == (0,)
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j


@pytest.mark.parametrize("users, aps, deadline, seed, ceiling", [
    # the optimum leaves AP 1 idle; a dual step that held an idle AP's
    # price at the floor of DUAL_RANGE certified the start at
    # 1.82154217569e-4 J
    (3, 5, 0.15, 3, 1.82154217569e-4),
    # the dual step's Newton solve meets a singular Jacobian; a damped
    # step through it certified the start at 3.52191254e-4 J
    (4, 2, 0.3, 14, 3.52191254e-4),
    # the optimum serves AP 1 alone and leaves the other two idle
    (6, 3, 0.8, 4, None),
], ids=["3x5-idle-ap", "4x2-singular", "6x3-two-idle-aps"])
def test_a_draw_the_dual_step_cannot_certify_is_certified_by_barrier_rounds(
        users, aps, deadline, seed, ceiling):
    sc = generate(GenParams(num_users=users, num_aps=aps, deadline_s=deadline, seed=seed))
    cfg = SolveConfig.for_scenario(sc)
    dual = kkt.joint_split(sc, cfg)
    assert dual is None or dual[3] is None
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.converged and sol.outer_iterations >= 1
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j
    assert check_solution(sc, sol)
    if ceiling is not None:
        assert sol.energy_j <= ceiling * (1.0 + 1e-9)


def test_the_draw_of_the_hardest_continuation_stage_keeps_its_bound():
    # this draw's third smoothing stage is a long Newton solve, and a dual
    # step that lost it would give no bound; the step keeps one, and the
    # energy is no higher (to 1e-9) than the 4.0184291272 mJ that one
    # gradient round reaches from a start of the first two stages alone
    sc = generate(GenParams(num_users=8, num_aps=4, deadline_s=0.25, seed=14))
    sol = solve_iterative(sc, InitStrategy.equal(), SolveConfig.for_scenario(sc))
    assert sol.lower_bound_j is not None
    assert sol.energy_j <= 4.0184291272e-3 * (1.0 + 1e-9)


@pytest.mark.parametrize("deadline", [0.2, 0.4, 1.0])
def test_a_certified_start_runs_no_rebalance(deadline, monkeypatch):
    # the start's allocation is read off the dual step's prices
    sc, cfg = _start42(deadline)
    calls = _spy_rebalances(monkeypatch)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.converged and sol.outer_iterations == 0
    assert calls == []
    assert sol.trace.inner_iteration_counts == (0,)


def test_an_uncertified_start_runs_gradient_rounds(monkeypatch):
    # the dual step gives no start, and the barrier rounds' bounds certify
    # the answer
    steps = _spy_dual_step(monkeypatch)
    sol = solve_iterative(_rounds_draw(), InitStrategy.equal())
    assert steps == [None]
    assert sol.outer_iterations >= 1
    assert sol.converged
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j


def test_a_declined_dual_step_takes_its_bound_from_the_rounds(monkeypatch):
    _decline_dual_step(monkeypatch)
    sc, cfg = _start42(0.4)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.outer_iterations >= 1
    assert sol.converged
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j


def test_a_solve_with_gradient_rounds_is_bounded_at_its_final_prices(monkeypatch):
    # each round, the start included here, reads the joint dual once, at
    # its barrier stage's multipliers; the solve stops at the first energy
    # within GAP_TOL of the largest
    bounds, joint_dual = [], orchestrate.joint_dual

    def spy(*args):
        bounds.append(joint_dual(*args))
        return bounds[-1]

    monkeypatch.setattr(orchestrate, "joint_dual", spy)
    sol = solve_iterative(_rounds_draw(), InitStrategy.equal())
    energies = np.array(sol.trace.outer_energies_j)
    assert len(bounds) == energies.size > 1
    best = np.maximum.accumulate(bounds)
    open_gap = energies - best > orchestrate.GAP_TOL * energies
    assert open_gap[:-1].all() and not open_gap[-1]
    assert sol.converged and sol.lower_bound_j == best[-1]


@pytest.mark.parametrize("users, deadline", [(1, 0.3), (4, 0.5), (16, 1.0)])
def test_a_one_ap_solve_is_certified_at_the_start(users, deadline):
    # with one AP every soft weight is 1, so the dual step's split is the
    # only split and its smoothing costs no bias
    sc = generate(GenParams(num_users=users, num_aps=1, deadline_s=deadline,
                            capacity_cps=2.5e10 * users / 4, seed=3))
    cfg = SolveConfig.for_scenario(sc)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.converged and sol.trace.inner_iteration_counts == (0,)
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j
    assert sol.energy_j == pytest.approx(
        solve_fixed_data(sc, sc.task_bits[:, None], cfg).energy_j, rel=1e-12, abs=0)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_outer_instances())
def test_the_lower_bound_never_exceeds_the_energy_of_any_start(instance):
    # weak duality: the bound of any solve lies below every feasible
    # energy, whatever the start or the data split
    sc, strategy = instance
    cfg = SolveConfig.for_scenario(sc, max_outer_iters=5)
    bounds, energies = [], []
    for start in (strategy, InitStrategy.equal(), InitStrategy.binary(), InitStrategy.random(seed=1)):
        try:
            sol = solve_iterative(sc, start, cfg)
        except InfeasibilityError:  # the headroom only fits the strategy's split
            continue
        bounds.append(sol.lower_bound_j)
        energies.append(sol.energy_j)
    try:
        energies.append(solve_fixed_assignment(sc, best_snr_assignment(sc), cfg).energy_j)
    except InfeasibilityError:
        pass
    if sc.num_aps == 1:
        assert None not in bounds
    for b in filter(None, bounds):
        assert b <= min(energies) * (1.0 + 1e-12)


def test_a_dual_split_without_an_allocation_starts_from_the_first_barrier_stage(monkeypatch):
    # every task on AP 0 needs more compute than the AP has, so no
    # allocation is read off that dual split: the start is the first
    # barrier stage's own allocation, neither that split's nor the initial
    # one's, no re-balance runs, and the dual step's bound still counts
    sc, cfg = _start42(0.4)
    over = np.zeros((sc.num_users, sc.num_aps))
    over[:, 0] = sc.task_bits
    dual = orchestrate.joint_split(sc, cfg)
    monkeypatch.setattr(orchestrate, "joint_split", lambda *args: (over, *dual[1:3], None))
    calls = _spy_rebalances(monkeypatch)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    L, x, q = next(kkt.barrier_stages(sc))[:3]
    assert sol.trace.outer_energies_j[0] == total_energy(sc, Allocation(L, x, q))
    assert calls == []
    assert sol.trace.inner_iteration_counts == (0,) * len(sol.trace.outer_energies_j)
    assert sol.converged and sol.lower_bound_j >= dual[1]
    assert sol.energy_j == pytest.approx(dual[3][2], rel=orchestrate.GAP_TOL, abs=0)


@pytest.mark.parametrize("draw", [
    (4, 3, 17837797.251165822, 0.6017431531495429, 4366455300.34655, 51345),
    (5, 4, 24228717.439667195, 0.7015231409101567, 3597779182.8106804, 10072),
    (3, 3, 25323585.240077876, 0.2946752483077867, 6657748986.718429, 63840),
    (3, 3, 20360434.031632002, 0.26297010889095995, 12564770741.940273, 47186),
    (6, 3, 17607682.06449225, 0.7048514774979054, 11457368075.266806, 37292),
])
def test_draws_the_gradient_rounds_left_unconverged_are_certified(draw):
    # projected gradient rounds spent all 100 rounds on each of these
    # draws, with gaps of 6.8e-4 to 1.8e-2; the barrier stages certify
    # each in a few rounds
    K, M, bandwidth, deadline, capacity, seed = draw
    sc = generate(GenParams(num_users=K, num_aps=M, bandwidth_hz=bandwidth,
                            deadline_s=deadline, capacity_cps=capacity, seed=seed))
    cfg = SolveConfig.for_scenario(sc)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.converged and sol.outer_iterations <= 10
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j
    assert validate(sc, sol.allocation, cfg).ok


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_outer_instances())
def test_the_barrier_rounds_certify_every_instance_alone(instance):
    # with the dual step declined the barrier stages do all the work: each
    # solve is certified and valid, and no worse than the best-SNR split
    # by more than GAP_TOL where that split is feasible
    sc, strategy = instance
    cfg = SolveConfig.for_scenario(sc)
    with pytest.MonkeyPatch.context() as mp:
        _decline_dual_step(mp)
        sol = solve_iterative(sc, strategy, cfg)
    assert sol.converged
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j
    assert validate(sc, sol.allocation, cfg).ok
    try:
        best_snr = solve_fixed_assignment(sc, best_snr_assignment(sc), cfg).energy_j
    except (InfeasibilityError, BracketError, ConvergenceError):
        return
    assert sol.energy_j <= best_snr * (1.0 + orchestrate.GAP_TOL)


def test_the_barrier_rounds_do_not_read_the_initial_split():
    # like the dual step, the barrier starts from one interior point
    # whatever the strategy, so every start gives the same answer
    sc = _rounds_draw()
    sols = [solve_iterative(sc, strategy) for strategy in (
        InitStrategy.equal(), InitStrategy.binary(), InitStrategy.random(seed=5))]
    assert sols[0].outer_iterations >= 1
    for sol in sols[1:]:
        assert sol.energy_j == sols[0].energy_j
        assert sol.trace.outer_energies_j == sols[0].trace.outer_energies_j


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
    assert a.energy_j == pytest.approx(b.energy_j, rel=1e-9, abs=0)


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
