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
        # the dual step of this draw returns no split from the equal start
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


def test_max_outer_budget_marks_non_convergence(monkeypatch):
    # with the dual step declined the first gradient round solves this
    # instance, so only a one-round budget ends before the stop test can
    # be met
    _decline_dual_step(monkeypatch)
    sc = _small_scenario()
    cfg = SolveConfig.for_scenario(sc, epsilon_j=1e-300, max_outer_iters=1)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert not sol.converged
    assert sol.outer_iterations == 1


def test_reduced_gradient_matches_central_differences():
    # F(L) is the energy of a tight cold re-balance at split L; the costs
    # per bit at one re-balance's prices must be its derivative (Danskin)
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.4)
    cfg = SolveConfig.for_scenario(sc, epsilon_j=1e-13)
    L = initialize(sc, InitStrategy.equal())

    def rebalanced_energy(L):
        x, q, _ = solve_bcaa(sc, L, cfg)
        return total_energy(sc, Allocation(L, x, q))

    warm = {}
    solve_bcaa(sc, L, cfg, warm=warm)
    g = kkt.pair_costs(sc, warm)
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
    # t = D - eta*L/q and the warm compute prices; it is also the pair's
    # cost per bit at those prices, the outer loop's gradient
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", deadline)
    cfg = SolveConfig.for_scenario(sc)
    thr = sc.activity_threshold_bits
    L = initialize(sc, InitStrategy.equal())
    warm = {}
    solve_bcaa(sc, L, cfg, warm=warm)
    act = L > thr
    g = kkt.pair_costs(sc, warm)
    nu = (L * g).sum(axis=1) / L.sum(axis=1)
    G = sc.task_bits[:, None] * (g / nu[:, None] - 1.0)
    L = orchestrate._projected_step(L, G, act, sc.task_bits, 0.25, thr)
    # the re-balance of the trial split starts from the warm prices
    x, q, rounds = solve_bcaa(sc, L, cfg, warm=warm)
    assert rounds == 1
    i, j = np.nonzero(L > thr)
    t = sc.deadlines_s[i] - sc.cycles_per_bit[i] * L[i, j] / q[i, j]
    form = sc.noise_over_gain()[i, j] * np.log(2.0) * np.exp2(L[i, j] / (x[i, j] * t)) \
        + warm["mus"][j] * sc.cycles_per_bit[i] / (sc.deadlines_s[i] - t)
    g = data_marginal(L[i, j], x[i, j], q[i, j], sc.deadlines_s[i], sc.cycles_per_bit[i],
                      sc.noise_over_gain()[i, j])
    assert np.allclose(g, form, rtol=1e-7, atol=0)
    assert np.allclose(g, kkt.pair_costs(sc, warm)[i, j], rtol=1e-7, atol=0)


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


def test_inner_counts_hold_every_rebalance_of_a_round(monkeypatch):
    # at D = 0.2 s this 3x2 solve rejects at least one gradient trial; the
    # rounds its re-balance spent still count
    _decline_dual_step(monkeypatch)
    sc = generate(GenParams(num_users=3, num_aps=2, deadline_s=0.2, seed=1))
    calls = _spy_rebalances(monkeypatch)
    sol = solve_iterative(sc, InitStrategy.equal(), SolveConfig.for_scenario(sc))
    accepted = int(np.sum(np.diff(sol.trace.outer_energies_j) < 0))
    assert len(calls) > 1 + accepted
    assert sum(sol.trace.inner_iteration_counts) == sum(n for _, n in calls)


def test_trial_split_the_rebalance_cannot_price_is_rejected(monkeypatch):
    # the first gradient trial loads AP 0 to 99.9% of its capacity, and
    # the compute dual that split needs lies above the dual search range
    _decline_dual_step(monkeypatch)
    sc = make_scenario([[1.88105189e-07, 4.26221231e-11, 5.78186228e-11],
                        [2.22414308e-11, 2.05850297e-09, 5.28408061e-12],
                        [2.12932352e-11, 3.93789650e-11, 1.46234383e-10]],
                       bits=1.5e6, deadline=0.96875, eta=1e3, bandwidth=2e6,
                       capacities=1.862e9, noise=3.981071705534986e-21)
    raised = []
    rebalance = orchestrate.solve_bcaa

    def spy(*args, **kwargs):
        try:
            return rebalance(*args, **kwargs)
        except BracketError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(orchestrate, "solve_bcaa", spy)
    cfg = SolveConfig.for_scenario(sc, max_outer_iters=2)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert raised
    assert np.all(np.diff(sol.trace.outer_energies_j) < 0)
    assert validate(sc, sol.allocation, cfg).ok


def _starve_pricing(mp):
    """Stop every Newton solve of the pricing at its start prices, so that
    the pricing misses its tolerance."""
    mp.setattr(kkt, "_newton", lambda system, y, tol: (y, *system(y)[::2], 1))


def test_trial_split_whose_pricing_misses_its_tolerance_is_rejected(monkeypatch):
    sc = _small_scenario()
    cfg = _cfg(sc)
    L = initialize(sc, InitStrategy.equal())
    _starve_pricing(monkeypatch)
    assert orchestrate._rebalance(sc, L, cfg, {})[0] == np.inf
    with pytest.raises(ConvergenceError, match="budget residual"):
        solve_fixed_data(sc, L, cfg)


def _tight42():
    # seed-42 8x4 at D = 0.2 s: its first round accepts a step of 0.25
    return override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.2)


def _trials_per_round(monkeypatch):
    """Spy that records, per round, the step sizes `_projected_step`
    tries and the (L, G, act) of its first trial."""
    rounds = []
    gradient, step = orchestrate.pair_costs, orchestrate._projected_step

    def gradient_spy(*args):
        rounds.append({"trials": []})
        return gradient(*args)

    def step_spy(L, G, act, bits, alpha, thr):
        rounds[-1].setdefault("start", (L, G, act))
        rounds[-1]["trials"].append(alpha)
        return step(L, G, act, bits, alpha, thr)

    monkeypatch.setattr(orchestrate, "pair_costs", gradient_spy)
    monkeypatch.setattr(orchestrate, "_projected_step", step_spy)
    return rounds


def test_step_starts_at_one_then_at_the_spectral_length(monkeypatch):
    _decline_dual_step(monkeypatch)
    rounds = _trials_per_round(monkeypatch)
    sc = _tight42()
    solve_iterative(sc, InitStrategy.equal(), SolveConfig.for_scenario(sc, max_outer_iters=6))
    trials = [r["trials"] for r in rounds if r["trials"]]
    assert trials[0][0] == 1.0
    assert all(0.0 < a <= 1.0 for r in trials for a in r)
    # backtracking halves; the first trial of a later round comes from the
    # last step's curvature, not from a power of two
    assert all(b == 0.5 * a for r in trials for a, b in zip(r, r[1:]))
    assert any(np.log2(r[0]) != np.round(np.log2(r[0])) for r in trials[1:])


def test_step_restarts_at_one_without_positive_curvature(monkeypatch):
    # a gradient frozen at its first value makes the second round's G
    # differ from the first only through nu, and s.y < 0
    _decline_dual_step(monkeypatch)
    rounds = _trials_per_round(monkeypatch)
    first = []
    gradient = orchestrate.pair_costs

    def frozen(*args):
        g = gradient(*args)
        first.append(g)
        return first[0]

    monkeypatch.setattr(orchestrate, "pair_costs", frozen)
    sc = _tight42()
    solve_iterative(sc, InitStrategy.equal(), SolveConfig.for_scenario(sc, max_outer_iters=2))
    (L1, G1, _), a1 = rounds[0]["start"], rounds[0]["trials"][-1]
    (L2, G2, act), a2 = rounds[1]["start"], rounds[1]["trials"][0]
    assert a1 < 0.5  # the old "twice the last step" rule would try 2*a1 < 1
    s, y = (L2 - L1)[act], (G2 - G1)[act]
    assert s @ y <= 0
    assert a2 == 1.0


def test_spectral_step_rejects_fewer_trials(monkeypatch):
    # with the previous "twice the last accepted step" start this capped
    # solve rejected 26 trials and ended at 91.6364 mJ
    calls = []
    rebalance = orchestrate.solve_bcaa

    def spy(*args, **kwargs):
        calls.append(1)
        return rebalance(*args, **kwargs)

    monkeypatch.setattr(orchestrate, "solve_bcaa", spy)
    sc = _tight42()
    sol = solve_iterative(sc, InitStrategy.equal(), SolveConfig.for_scenario(sc, max_outer_iters=30))
    accepted = int(np.sum(np.diff(sol.trace.outer_energies_j) < 0))
    assert len(calls) - 1 - accepted <= 18
    assert sol.energy_j <= 0.0916364243073258


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
    if drops.size:
        # only a last round that finds no lower trial may leave the energy as is
        assert np.all(drops[:-1] < 0) and drops[-1] <= 0
    else:
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
    # solve_daa, solve_baa and solve_caa are references for the tests, so
    # the fixed halving count of their dual searches costs no solve any
    # time; at D = 0.2 s both starts are certified by the dual step, and
    # the 6x3 draw, whose dual step returns no split, runs gradient rounds
    def refuse(*args, **kwargs):
        raise AssertionError("a bisection reference ran on the solve path")

    monkeypatch.setattr(kkt, "_price_budgets", refuse)
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
    warm = {}
    solve_bcaa(sc, L0, cfg, warm=warm)
    bound = kkt.fixed_data_dual(sc, L0, warm["beta"], warm["mus"])
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


def test_a_dual_split_that_overloads_an_ap_falls_back_to_the_initial_split(monkeypatch):
    # every task on AP 0 needs more compute than the AP has, so that dual
    # split cannot be re-balanced and the start re-balances the equal split
    sc, cfg = _start42(0.4)
    L0 = initialize(sc, InitStrategy.equal())
    over = np.zeros_like(L0)
    over[:, 0] = sc.task_bits
    with pytest.raises(InfeasibilityError, match="AP 0"):
        solve_bcaa(sc, over, cfg)
    split = orchestrate.joint_split
    monkeypatch.setattr(orchestrate, "joint_split", lambda sc, cfg, warm: (
        over, *split(sc, cfg, warm)[1:3], None))
    calls = _spy_rebalances(monkeypatch)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    L_a, n_a = calls[0]
    assert np.array_equal(L_a, L0) and n_a == 1
    assert sol.trace.inner_iteration_counts[0] == n_a
    assert sol.trace.outer_energies_j[0] == pytest.approx(
        solve_fixed_data(sc, L0, cfg).energy_j, rel=1e-9, abs=0)


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
    for _, bound, state, _ in filter(None, steps):
        G = kkt.joint_dual(sc, state["beta"], state["mus"])
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
    warm = {}  # the answer's prices: the fixed-data dual has one maximiser
    solve_bcaa(sc, L, cfg, warm=warm)
    g = kkt.pair_costs(sc, warm)
    nu = (np.where(act, L, 0.0) * g).sum(axis=1) / np.where(act, L, 0.0).sum(axis=1)
    e = np.where(act, np.inf, g)
    assert np.all(e >= nu[:, None] * (1.0 - orchestrate.ENTRY_TOL))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the absolute epsilon_j stop ends a sub-0.1 mJ solve while a pair "
                          "left out still costs less than its user's marginal")
@pytest.mark.parametrize("gains, deadline, bandwidth, capacity", [
    # a 4x4 draw of `_outer_instances`: the dual step gives no bound, and
    # five gradient rounds end at 6.6794e-5 J, each lowering the energy by
    # less than epsilon_j; user 0's AP 2 then costs 0.80*nu_0 but stays out
    ([[2.39715968e-10, 9.64886093e-10, 3.21681365e-11, 4.60925389e-11],
      [1.78887729e-11, 5.46078289e-09, 6.18252678e-12, 2.52652833e-11],
      [7.74202509e-09, 1.90508779e-11, 2.67097529e-11, 6.51890623e-12],
      [1.44921276e-11, 4.56441782e-12, 1.25517664e-09, 1.54776587e-11]],
     0.999, 1e7, 2.48715233e9),
    # another such draw: four rounds end at 5.96719e-5 J with no bound, and
    # user 2's AP 3 costs 0.979*nu_2 but stays out
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
    # the warm state holds AP 3, which serves no one, at the floor of
    # DUAL_RANGE: its capacity is free to the pairs that would enter there
    sc = generate(GenParams(num_users=12, num_aps=4, seed=3))
    cfg = SolveConfig.for_scenario(sc)
    L = np.tile(sc.task_bits[:, None] / 3.0, (1, 4))
    L[:, 3] = 0.0
    warm = {}
    solve_bcaa(sc, L, cfg, warm=warm)
    e = kkt.pair_costs(sc, warm)
    floor = price_oracle(warm["beta"], kkt.DUAL_RANGE[0], sc.deadlines_s, sc.cycles_per_bit,
                         sc.noise_over_gain()[:, 3])[0]
    np.testing.assert_allclose(e[:, 3], floor, rtol=1e-14, atol=0)


def test_the_support_grows_by_the_pairs_cheaper_than_their_users_best_pair():
    # each user loads one or two of APs 0-2 and AP 3 serves no one; some
    # pairs enter on every AP, and others stay out
    sc = generate(GenParams(num_users=12, num_aps=4, seed=3))
    cfg = SolveConfig.for_scenario(sc)
    L = np.zeros((12, 4))
    for i in range(12):
        L[i, [i % 3, (i + 1) % 3][: 1 + i % 2]] = sc.task_bits[i] / (1 + i % 2)
    warm = {}
    solve_bcaa(sc, L, cfg, warm=warm)
    support, _, entered = orchestrate._direction(sc, L, warm)
    e = kkt.pair_costs(sc, warm)
    expected = L > 0
    for i in range(12):
        best = min(e[i, j] for j in range(4) if L[i, j] > 0)
        for j in range(4):
            if L[i, j] == 0 and e[i, j] < (1.0 - orchestrate.ENTRY_TOL) * best:
                expected[i, j] = True
    grown = expected & (L == 0)
    assert entered and 0 < grown[:, 3].sum() < 12 and 0 < grown[:, :3].sum() < np.sum(L == 0) - 12
    np.testing.assert_array_equal(support, expected)


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


def test_a_dual_step_through_an_overflowing_price_ratio_leaks_no_warning():
    # from the prices of the best-ap-90 split the dual step calls the price
    # oracle where beta*ln2/(mu*eta) overflows; the solve from that start
    # runs its dual step from the capacity split's prices
    sc = generate(GenParams(num_users=16, num_aps=4, deadline_s=0.4, seed=0))
    cfg = SolveConfig.for_scenario(sc, max_outer_iters=1)
    warm = {}
    solve_bcaa(sc, initialize(sc, InitStrategy.best_ap()), cfg, warm=warm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kkt.joint_split(sc, cfg, warm)
        sol = solve_iterative(sc, InitStrategy.best_ap(), cfg)
    assert sol.outer_iterations <= 1


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


def test_a_read_off_that_misses_its_certificate_falls_back_to_one_warm_rebalance(monkeypatch):
    # the read-off's energy, the first one evaluated, is doubled, so its
    # duality gap misses the certificate and the dual split is re-balanced
    sc, cfg = _start42(0.4)
    evaluations, energies = kkt.energy_matrix, []

    def doubled_first(*args):
        energies.append(evaluations(*args))
        return energies[-1] * (2.0 if len(energies) == 1 else 1.0)

    monkeypatch.setattr(kkt, "energy_matrix", doubled_first)
    steps = _spy_dual_step(monkeypatch)
    calls = _spy_rebalances(monkeypatch)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    (L_dual, _, _, allocation), = steps
    assert allocation is None
    assert len(calls) == 1 and np.array_equal(calls[0][0], L_dual)
    assert sol.trace.inner_iteration_counts == (1,)
    monkeypatch.undo()
    assert sol.energy_j == pytest.approx(solve_iterative(sc, InitStrategy.equal(), cfg).energy_j,
                                         rel=1e-12, abs=0)


def test_an_uncertified_start_runs_gradient_rounds(monkeypatch):
    # the seed-42 start at D = 0.2 s is certified, so the dual step's
    # bound is lowered past the gap tolerance
    split = orchestrate.joint_split

    def loose(*args):
        L, bound, state, allocation = split(*args)
        return L, bound * (1.0 - 10.0 * orchestrate.GAP_TOL), state, allocation

    monkeypatch.setattr(orchestrate, "joint_split", loose)
    sc, cfg = _start42(0.2)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    start = sol.trace.outer_energies_j[0]
    assert start - sol.lower_bound_j > orchestrate.GAP_TOL * start
    assert sol.outer_iterations >= 1


def test_a_declined_dual_step_gives_no_bound_and_runs_rounds(monkeypatch):
    _decline_dual_step(monkeypatch)
    sc, cfg = _start42(0.4)
    sol = solve_iterative(sc, InitStrategy.equal(), cfg)
    assert sol.lower_bound_j is None
    assert sol.outer_iterations >= 1


def test_a_solve_with_gradient_rounds_is_bounded_at_its_final_prices(monkeypatch):
    # the dual step of this draw returns no split from the capacity
    # split's prices; from the answer's prices, where AP 0 serves no one
    # and sits at the floor, it does, and its bound is the solve's
    sc = generate(GenParams(num_users=6, num_aps=3, deadline_s=0.5, seed=13))
    steps = _spy_dual_step(monkeypatch)
    sol = solve_iterative(sc, InitStrategy.equal())
    assert sol.outer_iterations >= 1
    assert steps[0] is None and len(steps) == 2
    assert sol.lower_bound_j == steps[1][1]
    assert sol.lower_bound_j <= sol.energy_j * (1.0 + 1e-12)


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


def test_a_solve_with_gradient_rounds_keeps_the_lower_certified_answer():
    # from the answer the gradient rounds reach, 0.373905 mJ, the dual step
    # at the answer's prices reads off a certified split 5.8% lower
    sc = generate(GenParams(num_users=4, num_aps=2, deadline_s=0.3, seed=14))
    sol = solve_iterative(sc, InitStrategy.equal())
    assert sol.outer_iterations == 6
    assert sol.energy_j <= 0.352191254e-3 * (1.0 + 1e-9)
    assert sol.energy_j - sol.lower_bound_j <= orchestrate.GAP_TOL * sol.energy_j
    assert sol.trace.outer_energies_j[-1] == sol.energy_j
    assert check_solution(sc, sol)


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
