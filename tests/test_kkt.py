import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecalloc import (
    Allocation,
    BracketError,
    ConvergenceError,
    DegenerateInputError,
    DualVariable,
    InfeasibilityError,
    InitStrategy,
    SolveConfig,
    StructuralError,
    best_snr_assignment,
    initialize,
    solve_baa,
    solve_bcaa,
    solve_caa,
    solve_daa,
    solve_fixed_assignment,
    solve_fixed_data,
    total_energy,
)
from mecalloc import kkt
from mecalloc.kkt import (
    _bandwidth_roots,
    _data_roots,
    _slack_roots,
)
from mecalloc.model import deadline_slack
from mecalloc.physics import data_marginal
from mecalloc.scenario import GenParams, generate, override_parameter

from util import (
    grid_min_baa,
    grid_min_bcaa,
    grid_min_caa,
    grid_min_daa,
    halving_root,
    make_scenario,
    scalar_energy,
    scalar_energy_q,
)


def _cfg(scenario, **kw):
    return SolveConfig.for_scenario(scenario, **kw)


# --- data roots --------------------------------------------------------

def test_bisect_symmetric_data_split():
    # two identical pairs: the dual putting half the task on each is the
    # one whose summed loads meet the task size
    x = np.array([1.0, 1.0])
    q = np.array([2.0, 2.0])
    a = np.array([1.0, 1.0])
    upper = (1.0 - 1e-6) * 1.0 * q / 1.0

    def total(nu):
        return float(_data_roots(nu, x, q, 1.0, 1.0, a, upper,
                                 data_marginal(0.0, x, q, 1.0, 1.0, a)).sum())

    with np.errstate(over="ignore"):
        nu = halving_root(lambda v: total(v) - 1.0, 0.7, 50.0, tol=1e-12)
        roots = _data_roots(nu, x, q, 1.0, 1.0, a, upper,
                            data_marginal(0.0, x, q, 1.0, 1.0, a))
    assert roots[0] == pytest.approx(0.5, rel=1e-6, abs=0)
    assert roots[1] == pytest.approx(roots[0], rel=1e-9, abs=0)


# --- dual searches -----------------------------------------------------

def _price_each(roots, increasing):
    """`kkt._price_budgets` with one element per budget, whose share is the
    dual d (increasing) or 1/d (decreasing) and meets its target at the
    dual in roots. Returns the duals, the diag records and the count of
    share calls."""
    roots = np.asarray(roots, dtype=float)
    share_of = (lambda d: d) if increasing else (lambda d: 1.0 / d)
    calls, diag = [], []

    def counted(duals):
        calls.append(1)
        return share_of(duals)

    duals, _, _ = kkt._price_budgets("lambda_data", np.arange(roots.size),
                                     list(range(roots.size)), share_of(roots), counted,
                                     SolveConfig(), increasing, diag)
    return duals, diag, len(calls)


def test_dual_search_reaches_a_far_root_in_few_probes():
    # the bisection crosses the 560 decades of DUAL_RANGE in a fixed
    # DUAL_HALVINGS probes plus the final pass, wherever the root lies; a
    # fixed doubling of the dual would need over 330 to reach 1e100
    duals, _, calls = _price_each([1e100], increasing=True)
    assert calls == kkt.DUAL_HALVINGS + 1 <= 60
    assert duals == pytest.approx([1e100], rel=1e-12, abs=0)


@pytest.mark.parametrize("increasing", [True, False])
def test_dual_search_solves_a_mixed_lockstep_family(increasing):
    # one root 200 decades up, one 5 down and one a doubling away, all
    # bisected in lockstep to the tolerance, under budgets rising or
    # falling in their duals
    roots = np.array([1e200, 1e-5, 2.0])
    duals, diag, _ = _price_each(roots, increasing)
    assert duals == pytest.approx(roots, rel=1e-12, abs=0)
    assert [r.iterations for r in diag] == [kkt.DUAL_HALVINGS] * 3
    assert all(r.residual <= SolveConfig().bisect_tol for r in diag)


@pytest.mark.parametrize("root, increasing", [(1e300, True), (1e-300, True),
                                              (1e300, False), (1e-300, False)])
def test_dual_search_rejects_roots_outside_its_range(root, increasing):
    # the budget meets its target only at a dual beyond DUAL_RANGE, so the
    # bisection ends at the range edge with the residual failing
    with pytest.raises(BracketError):
        _price_each([root], increasing)


def test_dual_search_names_a_budget_it_cannot_meet():
    # a share that jumps over its target inside the range: the bisection
    # closes on the jump, and the residual there names the budget
    with pytest.raises(ConvergenceError, match="lambda_data 0: budget sum residual"):
        kkt._price_budgets("lambda_data", np.zeros(1, dtype=int), [0], np.ones(1),
                           lambda d: np.where(d < 1.0, 0.5, 2.0), SolveConfig(), True)


def test_dual_variable_invariants():
    with pytest.raises(StructuralError):
        DualVariable("beta_bandwidth", 0.0)
    with pytest.raises(StructuralError):
        DualVariable("mu_compute", -1.0)
    with pytest.raises(StructuralError):
        DualVariable("gamma", 1.0)
    assert DualVariable("lambda_data", 0.0, owner=3).owner == 3


# --- data allocation ---------------------------------------------------

def test_daa_single_ap_forces_full_load():
    sc = make_scenario([[1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=10.0)
    L = solve_daa(sc, x=[[10.0]], q=[[10.0]], cfg=_cfg(sc))
    assert L[0, 0] == pytest.approx(2.0, rel=1e-12, abs=0)


def test_daa_identical_aps_split_evenly():
    sc = make_scenario([[1.0, 1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=10.0)
    L = solve_daa(sc, x=[[2.0, 2.0]], q=[[5.0, 5.0]], cfg=_cfg(sc))
    assert L[0, 0] == pytest.approx(1.0, rel=1e-6, abs=0)
    assert L[0, 1] == pytest.approx(1.0, rel=1e-6, abs=0)


def test_daa_matches_grid_oracle():
    # one user, two APs, gains 10:1
    sc = make_scenario([[1.0, 0.1]], bits=1.0, deadline=1.0, eta=1.0,
                       bandwidth=2.0, capacities=2.0)
    x = np.array([[1.0, 1.0]])
    q = np.array([[2.0, 2.0]])
    cfg = _cfg(sc)
    L = solve_daa(sc, x, q, cfg)
    assert L.sum() == pytest.approx(1.0, rel=1e-9, abs=0)
    a = (sc.noise_psd / sc.gains)[0]
    e_solver = sum(scalar_energy_q(L[0, j], x[0, j], q[0, j], 1.0, 1.0, a[j])
                   for j in range(2))
    e_star, split_star = grid_min_daa(1.0, x[0], q[0], 1.0, 1.0, a)
    assert e_solver <= e_star * (1.0 + 1e-3)
    assert abs(L[0, 0] - split_star) <= 0.01 * 1.0


def test_daa_descends_from_any_feasible_split():
    rng = np.random.Generator(np.random.PCG64(2))
    sc = make_scenario([[1.0, 0.3], [0.5, 1.0]], bits=[2.0, 1.0],
                       deadline=1.0, eta=1.0, bandwidth=8.0, capacities=8.0)
    cfg = _cfg(sc)
    a = sc.noise_psd / sc.gains
    for _ in range(20):
        x = rng.uniform(0.5, 3.0, size=(2, 2))
        q = rng.uniform(2.5, 4.0, size=(2, 2))
        frac = rng.uniform(0.05, 0.95, size=2)
        L_in = np.column_stack([sc.task_bits * frac, sc.task_bits * (1 - frac)])
        L_out = solve_daa(sc, x, q, cfg)
        def cost(L):
            return sum(scalar_energy_q(L[i, j], x[i, j], q[i, j], 1.0, 1.0,
                                       a[i, j])
                       for i in range(2) for j in range(2))
        assert cost(L_out) <= cost(L_in) * (1.0 + 1e-9)


def test_daa_load_grows_with_its_dual():
    x = np.array([1.0, 2.0])
    q = np.array([2.0, 3.0])
    a = np.array([1.0, 0.5])
    upper = 0.999 * q
    with np.errstate(over="ignore"):
        prev = _data_roots(0.5, x, q, 1.0, 1.0, a, upper,
                           data_marginal(0.0, x, q, 1.0, 1.0, a))
        for nu in [0.8, 1.2, 2.0, 4.0]:
            cur = _data_roots(nu, x, q, 1.0, 1.0, a, upper,
                              data_marginal(0.0, x, q, 1.0, 1.0, a))
            assert np.all(cur >= prev - 1e-12)
            interior = (prev > 0) & (cur < upper)
            assert np.all(cur[interior] > prev[interior])
            prev = cur


def test_daa_respects_slack_clipping():
    # tight compute: the cap (1 - margin) * D * q / eta binds
    sc = make_scenario([[1.0, 1.0]], bits=1.9, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=2.0)
    L = solve_daa(sc, x=[[5.0, 5.0]], q=[[1.0, 1.0]], cfg=_cfg(sc))
    t = 1.0 - L[0] / np.array([1.0, 1.0])
    assert np.all(t >= 1e-6 - 1e-15)
    assert L.sum() == pytest.approx(1.9, rel=1e-9, abs=0)


def test_daa_infeasible_user_is_named():
    sc = make_scenario([[1.0, 1.0]], bits=3.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=1.0)
    with pytest.raises(InfeasibilityError) as err:
        solve_daa(sc, x=[[5.0, 5.0]], q=[[1.0, 1.0]], cfg=_cfg(sc))
    assert err.value.user == 0


def test_daa_user_without_bandwidth_is_named():
    # user 1 has compute on both APs but no bandwidth on either, so no
    # pair can carry its data
    sc = make_scenario([[1.0, 1.0], [1.0, 1.0]], bits=1.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=4.0)
    with pytest.raises(InfeasibilityError) as err:
        solve_daa(sc, x=[[5.0, 5.0], [0.0, 0.0]], q=[[2.0, 2.0], [2.0, 2.0]],
                  cfg=_cfg(sc))
    assert err.value.user == 1


def test_daa_freezes_a_crumb_load_and_re_solves_the_row(monkeypatch):
    # AP 2's zero-load marginal a*ln2 = ln2/0.203402 sits about 1.3e-6
    # under user 0's row price, so that user's optimal load there is about
    # 0.8 micro-bits, inside (0, thr] for thr = 1e-6 of the 2-bit tasks:
    # the pair is frozen at zero and the row solved again
    sc = make_scenario([[1.0, 0.5, 0.203402], [1.0, 1.0, 1.0]], bits=2.0, deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=10.0)
    x, q = np.full((2, 3), 1.0), np.full((2, 3), 3.0)
    cfg = _cfg(sc)
    passes, price_budgets = [], kkt._price_budgets

    def spy(*args, **kwargs):
        passes.append(price_budgets(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(kkt, "_price_budgets", spy)
    diag = []
    L = solve_daa(sc, x, q, cfg, diag=diag)
    # the first pass gives (0, 2), the third usable pair, a crumb
    assert len(passes) == 2
    assert 0.0 < passes[0][1][2] <= sc.activity_threshold_bits
    assert L[0, 2] == 0.0
    assert np.all(L[L > 0] > sc.activity_threshold_bits)
    assert L.sum(axis=1) == pytest.approx(sc.task_bits, rel=1e-15, abs=0)
    # one record per user, from the final pass: the price of the row
    # without the frozen pair, not that of the first pass
    assert [r.dual.owner for r in diag] == [0, 1]
    x_frozen = x.copy()
    x_frozen[0, 2] = 0.0
    without = []
    assert np.allclose(solve_daa(sc, x_frozen, q, cfg, diag=without), L, rtol=1e-8, atol=0)
    assert diag[0].dual.value == pytest.approx(without[0].dual.value, rel=1e-8, abs=0)
    assert diag[0].dual.value != passes[0][0][0]


# --- bandwidth allocation ----------------------------------------------

def test_baa_symmetric_pairs_share_evenly():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    x = solve_baa(sc, t=np.array([[0.5], [0.5]]), L=np.array([[2.0], [2.0]]),
                  cfg=_cfg(sc))
    assert x[0, 0] == pytest.approx(5.0, rel=1e-9, abs=0)
    assert x[1, 0] == pytest.approx(5.0, rel=1e-9, abs=0)


def test_baa_single_active_pair_gets_everything():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    x = solve_baa(sc, t=np.array([[0.5], [1.0]]), L=np.array([[2.0], [0.0]]),
                  cfg=_cfg(sc))
    assert x[0, 0] == pytest.approx(10.0, rel=1e-12, abs=0)
    assert x[1, 0] == 0.0


def test_baa_matches_grid_oracle():
    sc = make_scenario([[1.0], [0.2]], bits=[2.0, 1.0], deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=20.0)
    t = np.array([[0.5], [0.4]])
    L = np.array([[2.0], [1.0]])
    cfg = _cfg(sc)
    x = solve_baa(sc, t, L, cfg)
    assert x.sum() == pytest.approx(10.0, rel=1e-9, abs=0)
    a = (sc.noise_psd / sc.gains)[:, 0]
    e_solver = scalar_energy(2.0, x[0, 0], 0.5, a[0]) \
        + scalar_energy(1.0, x[1, 0], 0.4, a[1])
    e_star, _ = grid_min_baa([2.0, 1.0], [0.5, 0.4], a, 10.0)
    assert e_solver <= e_star * (1.0 + 1e-3)


def test_baa_roots_shrink_as_dual_grows():
    L = np.array([2.0, 1.0])
    t = np.array([0.5, 0.4])
    a = np.array([1.0, 5.0])
    prev = _bandwidth_roots(1e-3, L, t, a)
    for beta in [1e-2, 1e-1, 1.0]:
        cur = _bandwidth_roots(beta, L, t, a)
        assert np.all(cur < prev)
        prev = cur


def test_baa_roots_meet_their_stationarity_condition():
    # SI magnitudes: noise-to-gain ratios a, slacks t and prices beta put
    # z = L*ln2/(x*t) between about 0.5 and 610
    bandwidth = 1e7
    a, t = np.meshgrid([1e-17, 1e-14, 1e-11], [0.05, 0.5])
    a, t = a.ravel(), t.ravel()
    L = np.full(a.shape, 1e6)
    above = False
    for beta in np.logspace(-12, 250, 27):
        x = _bandwidth_roots(beta, L, t, a)
        u = L / (x * t)
        resid = a * t * (2.0 ** u * (1.0 - u * math.log(2.0)) - 1.0) + beta
        assert np.all(np.abs(resid) <= 1e-9 * beta), beta
        above |= bool(np.any(x > bandwidth))
    # cheap bandwidth gives some pairs more than the whole system has
    assert above


def test_baa_needs_an_active_pair():
    sc = make_scenario([[1.0]], bits=1.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    with pytest.raises(DegenerateInputError):
        solve_baa(sc, t=np.array([[0.5]]), L=np.array([[0.0]]), cfg=_cfg(sc))


def test_baa_brackets_very_high_bandwidth_prices():
    # six users on one AP at 2 MHz and D = 0.1875 s: each slack is about
    # 10 ms and the bandwidth price at the optimum is about 3.8e129
    sc = generate(GenParams(num_users=6, num_aps=1, deadline_s=0.1875,
                            bandwidth_hz=2e6, capacity_cps=5.0625e10, seed=0))
    x, _, _ = solve_bcaa(sc, np.full((6, 1), 1.5e6), _cfg(sc))
    assert x.sum() == pytest.approx(2e6, rel=1e-9, abs=0)


def test_baa_rejects_boundary_slack():
    sc = make_scenario([[1.0]], bits=1.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    with pytest.raises(StructuralError):
        solve_baa(sc, t=np.array([[1.0]]), L=np.array([[1.0]]), cfg=_cfg(sc))


# --- compute allocation ------------------------------------------------

def test_caa_single_user_gets_full_capacity():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    t = solve_caa(sc, x=np.array([[10.0], [0.0]]),
                  L=np.array([[2.0], [0.0]]), ap=0, cfg=_cfg(sc))
    assert t[0] == pytest.approx(1.0 - 2.0 / 8.0, rel=1e-9, abs=0)
    assert t[1] == 1.0  # inactive user keeps its deadline


def test_caa_identical_users_split_capacity():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    t = solve_caa(sc, x=np.array([[5.0], [5.0]]),
                  L=np.array([[2.0], [2.0]]), ap=0, cfg=_cfg(sc))
    q = 2.0 / (1.0 - t)
    assert q[0] == pytest.approx(4.0, rel=1e-9, abs=0)
    assert q[1] == pytest.approx(4.0, rel=1e-9, abs=0)


def test_caa_matches_grid_oracle():
    # second user carries twice the data of the first
    sc = make_scenario([[1.0], [0.5]], bits=[2.0, 4.0], deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=10.0)
    x = np.array([[4.0], [6.0]])
    L = np.array([[2.0], [4.0]])
    cfg = _cfg(sc)
    t = solve_caa(sc, x, L, ap=0, cfg=cfg)
    q = np.array([2.0, 4.0]) / (1.0 - t)
    assert q.sum() == pytest.approx(10.0, rel=1e-9, abs=0)
    a = (sc.noise_psd / sc.gains)[:, 0]
    e_solver = scalar_energy_q(2.0, 4.0, q[0], 1.0, 1.0, a[0]) \
        + scalar_energy_q(4.0, 6.0, q[1], 1.0, 1.0, a[1])
    e_star, _ = grid_min_caa([2.0, 4.0], [4.0, 6.0], [1.0, 1.0], 1.0, 10.0, a)
    assert e_solver <= e_star * (1.0 + 1e-3)


def test_caa_slack_shrinks_as_dual_grows():
    L = np.array([2.0, 4.0])
    x = np.array([4.0, 6.0])
    d = np.array([1.0, 1.0])
    w = L.copy()
    a = np.array([1.0, 2.0])
    prev = _slack_roots(1e-3, L, x, d, w, a)
    for mu in [1e-2, 1e-1, 1.0]:
        cur = _slack_roots(mu, L, x, d, w, a)
        assert np.all(cur < prev)
        prev = cur


def test_caa_overloaded_ap_is_named():
    sc = make_scenario([[1.0], [1.0]], bits=4.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=6.0)
    with pytest.raises(InfeasibilityError) as err:
        solve_caa(sc, x=np.array([[5.0], [5.0]]),
                  L=np.array([[4.0], [4.0]]), ap=0, cfg=_cfg(sc))
    assert err.value.ap == 0


def test_caa_ap_without_an_active_user_is_rejected():
    sc = make_scenario([[1.0, 1.0], [1.0, 1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    with pytest.raises(DegenerateInputError):
        solve_caa(sc, x=np.array([[5.0, 0.0], [5.0, 0.0]]),
                  L=np.array([[2.0, 0.0], [2.0, 0.0]]), ap=1, cfg=_cfg(sc))


def test_caa_active_user_without_bandwidth_is_rejected():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    with pytest.raises(StructuralError, match="without bandwidth"):
        solve_caa(sc, x=np.array([[10.0], [0.0]]),
                  L=np.array([[2.0], [2.0]]), ap=0, cfg=_cfg(sc))


# --- joint bandwidth + compute ------------------------------------------

def test_bcaa_single_pair_closed_form():
    sc = make_scenario([[0.5]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    cfg = _cfg(sc)
    x, q, rounds = solve_bcaa(sc, np.array([[2.0]]), cfg)
    assert x[0, 0] == pytest.approx(10.0, rel=1e-12, abs=0)
    assert q[0, 0] == pytest.approx(8.0, rel=1e-12, abs=0)
    t = 1.0 - 2.0 / 8.0
    a = sc.noise_psd / 0.5
    expected = a * 10.0 * t * (2.0 ** (2.0 / (10.0 * t)) - 1.0)
    e = scalar_energy(2.0, x[0, 0], 1.0 - 2.0 / q[0, 0], a)
    assert e == pytest.approx(expected, rel=1e-12, abs=0)


def test_bcaa_symmetric_users_split_everything():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    x, q, _ = solve_bcaa(sc, np.array([[2.0], [2.0]]), _cfg(sc))
    assert x[0, 0] == pytest.approx(5.0, rel=1e-6, abs=0)
    assert x[1, 0] == pytest.approx(5.0, rel=1e-6, abs=0)
    assert q[0, 0] == pytest.approx(4.0, rel=1e-6, abs=0)
    assert q[1, 0] == pytest.approx(4.0, rel=1e-6, abs=0)


def test_bcaa_matches_grid_oracle():
    sc = make_scenario([[1.0], [1.0 / 3.0]], bits=[2.0, 1.0], deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=10.0)
    L = np.array([[2.0], [1.0]])
    cfg = _cfg(sc)
    x, q, _ = solve_bcaa(sc, L, cfg)
    assert x.sum() == pytest.approx(10.0, rel=1e-9, abs=0)
    assert q[:, 0].sum() == pytest.approx(10.0, rel=1e-9, abs=0)
    a = (sc.noise_psd / sc.gains)[:, 0]
    e_solver = scalar_energy_q(2.0, x[0, 0], q[0, 0], 1.0, 1.0, a[0]) \
        + scalar_energy_q(1.0, x[1, 0], q[1, 0], 1.0, 1.0, a[1])
    e_star, x_star, q_star = grid_min_bcaa([2.0, 1.0], [1.0, 1.0], 1.0, 10.0,
                                           10.0, a, points=200)
    assert e_solver <= e_star * (1.0 + 1e-3)


@pytest.fixture(scope="module")
def tight42():
    """The seed-42 8x4 scenario at D = 0.2 s under the best-SNR binary
    split, where plain BAA/CAA alternation converges slowly and steadily."""
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.2)
    return sc, initialize(sc, InitStrategy.binary()), _cfg(sc)


def test_bcaa_tight_deadline_converges_in_few_rounds(tight42):
    # plain BAA/CAA alternation needs 82 rounds here, shrinking the energy
    # step by a steady factor of about 0.85 per round; the pricing is one
    # re-balance
    sc, _, cfg = tight42
    sol = solve_fixed_assignment(sc, best_snr_assignment(sc), cfg)
    assert sol.trace.inner_iteration_counts[0] == 1
    assert sol.energy_j <= 361.6238343 * (1.0 + 1e-9)


@st.composite
def _fixed_data_instances(draw):
    """A generated scenario of 1-6 users x 1-4 APs, a data split with at
    least one active pair per user, and capacities the split fits in."""
    K = draw(st.integers(1, 6))
    M = draw(st.integers(1, 4))
    active = draw(st.lists(st.lists(st.booleans(), min_size=M, max_size=M),
                           min_size=K, max_size=K))
    weights = draw(st.lists(st.lists(st.floats(0.05, 1.0), min_size=M, max_size=M),
                            min_size=K, max_size=K))
    deadline = draw(st.floats(0.15, 1.0))
    headroom = draw(st.floats(1.2, 4.0))
    bandwidth = draw(st.floats(2e6, 4e7))
    seed = draw(st.integers(0, 2**16))
    act = np.array(active)
    act[np.arange(K), np.argmax(np.array(weights), axis=1)] = True
    w = np.where(act, np.array(weights), 0.0)
    params = GenParams(num_users=K, num_aps=M, deadline_s=deadline,
                       bandwidth_hz=bandwidth, seed=seed)
    L = params.task_bits * w / w.sum(axis=1, keepdims=True)
    peak = params.cycles_per_bit * L.sum(axis=0).max() / deadline
    sc = generate(dataclasses.replace(params, capacity_cps=headroom * peak))
    return sc, L


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_fixed_data_instances())
def test_bcaa_properties_on_random_instances(instance):
    sc, L = instance
    cfg = _cfg(sc)
    diag, warm = [], {}
    x, q, rounds = solve_bcaa(sc, L, cfg, diag=diag, warm=warm)
    assert rounds == 1
    act = L > sc.activity_threshold_bits
    served = act.any(axis=0)
    d = np.broadcast_to(sc.deadlines_s[:, None], L.shape)
    t = np.where(act, d - sc.cycles_per_bit[:, None] * L / np.where(act, q, 1.0), d)
    assert np.all((t[act] > 0) & (t[act] < d[act]))
    # the bisection references agree with the answer read off the dual:
    # the bandwidth search at its slack, each AP's compute search at its
    # bandwidth
    assert np.allclose(solve_baa(sc, t, L, cfg), x, rtol=1e-7, atol=0)
    for j in np.flatnonzero(served):
        t_ref = solve_caa(sc, x, L, ap=j, cfg=cfg)
        assert np.allclose(t_ref[act[:, j]], t[act[:, j], j], rtol=1e-7, atol=0)
    # the duality gap at the returned prices certifies the answer
    energy = total_energy(sc, Allocation(L, x, q))
    gap = energy - kkt.fixed_data_dual(sc, L, warm["beta"], warm["mus"])
    assert gap <= cfg.bisect_tol * energy
    assert all(rec.residual <= cfg.bisect_tol for rec in diag)
    tol = cfg.bisect_tol
    assert abs(x.sum() - sc.bandwidth_hz) <= tol * sc.bandwidth_hz
    cap = sc.compute_capacity
    assert np.all(np.abs(q.sum(axis=0) - cap)[served] <= tol * cap[served])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_fixed_data_instances(), st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_fixed_data_dual_never_exceeds_the_energy(instance, decades):
    # weak duality: the dual at any prices, here up to three decades off
    # the returned ones, is a lower bound on the returned energy, and at
    # the returned prices it is within the relative tolerance of it
    sc, L = instance
    cfg = _cfg(sc)
    warm = {}
    x, q, _ = solve_bcaa(sc, L, cfg, warm=warm)
    energy = total_energy(sc, Allocation(L, x, q))
    beta, mus = warm["beta"], warm["mus"]
    assert energy - kkt.fixed_data_dual(sc, L, beta, mus) <= cfg.bisect_tol * energy
    shift = 10.0 ** np.array(decades)
    dual = kkt.fixed_data_dual(sc, L, beta * shift[0], mus * shift[1:sc.num_aps + 1])
    assert dual <= energy * (1.0 + 1e-12)


def test_pricing_jacobian_matches_central_differences(split12x4):
    sc, L, cfg = split12x4
    pairs, col, budgets, _ = kkt._pricing_inputs(sc, L)
    warm = {}
    solve_bcaa(sc, L, cfg, warm=warm)
    # log prices off the optimum, where the budgets are far from met
    y = np.log(np.append(warm["beta"], warm["mus"])) + np.array([0.3, -0.2, 0.1, 0.25, -0.3])
    r, J, _ = kkt._budget_system(y, pairs, col, budgets)
    assert np.abs(r).max() > 0.1
    h = 1e-4
    fd = np.column_stack([(kkt._budget_system(y + h * e, pairs, col, budgets)[0]
                           - kkt._budget_system(y - h * e, pairs, col, budgets)[0]) / (2.0 * h)
                          for e in np.eye(y.size)])
    assert np.abs(fd - J).max() <= 1e-8 * np.abs(J).max()


def _full_split_inputs(sc):
    """The task sizes and the `_pricing_inputs` of the split that puts
    every whole task on every AP, the pairs of the joint dual."""
    full = np.repeat(sc.task_bits[:, None], sc.num_aps, axis=1)
    pairs, col, budgets, _ = kkt._pricing_inputs(sc, full)
    return sc.task_bits, pairs, col, budgets


@pytest.mark.parametrize("kappa", kkt.JOINT_SMOOTHING)
def test_joint_dual_jacobian_matches_central_differences(tight42, kappa):
    # the smoothed joint dual near the prices of the dual step, where the
    # soft-argmin splits a user over two or more APs
    sc, _, cfg = tight42
    warm = {}
    solve_bcaa(sc, initialize(sc, InitStrategy.equal()), cfg, warm=warm)
    _, _, state, _ = kkt.joint_split(sc, cfg, warm)
    bits, pairs, col, budgets = _full_split_inputs(sc)
    y = (np.log(np.append(state["beta"], state["mus"]))
         + kappa * np.array([3.0, -2.0, 1.0, 2.5, -3.0]))
    p = np.exp(y)
    e = kkt.price_oracle(p[0], p[1:][col], *pairs[1:])[0]
    tau = kappa * e.reshape(sc.num_users, -1).min(axis=1)
    r, J, (w, _) = kkt._joint_system(y, bits, pairs, col, tau, budgets)
    assert np.abs(r).max() > 1e-3
    assert np.any((w > 1e-3).sum(axis=1) >= 2)
    # the weights vary on the scale tau, so the difference step follows it
    h = 3e-4 * kappa

    def residuals(y):
        return kkt._joint_system(y, bits, pairs, col, tau, budgets)[0]

    fd = np.column_stack([(residuals(y + h * e) - residuals(y - h * e)) / (2.0 * h)
                          for e in np.eye(y.size)])
    assert np.abs(fd - J).max() <= 1e-7 * np.abs(J).max()


@pytest.mark.parametrize("params, deadline", [
    (GenParams(seed=42), 0.2), (GenParams(seed=42), 0.4),
    (GenParams(num_users=6, num_aps=3, seed=1), None),
    (GenParams(num_users=16, num_aps=4, seed=2), None)])
def test_joint_split_bound_is_the_joint_dual_at_its_prices(params, deadline):
    # the bound the dual step reads off its last oracle pass is G at the
    # prices it returns, bit for bit, so no second K x M pass is needed
    sc = generate(params)
    if deadline is not None:
        sc = override_parameter(sc, "deadline_s", deadline)
    warm = {}
    solve_bcaa(sc, initialize(sc, InitStrategy.equal()), _cfg(sc), warm=warm)
    _, bound, state, _ = kkt.joint_split(sc, _cfg(sc), warm)
    assert bound == kkt.joint_dual(sc, state["beta"], state["mus"])


@pytest.mark.parametrize("params, deadline", [
    (GenParams(seed=42), 0.4), (GenParams(num_users=6, num_aps=3, seed=4), 0.8)])
def test_joint_split_returns_a_warm_state_and_an_active_split(params, deadline):
    # the 6x3 split serves AP 1 alone: the other two are held at the floor
    sc = override_parameter(generate(params), "deadline_s", deadline)
    cfg = _cfg(sc)
    warm = {}
    solve_bcaa(sc, initialize(sc, InitStrategy.equal()), cfg, warm=warm)
    L, bound, state, _ = kkt.joint_split(sc, cfg, warm)
    assert set(state) == {"beta", "mus"} and state["mus"].shape == (sc.num_aps,)
    assert bound == kkt.joint_dual(sc, state["beta"], state["mus"])
    assert np.all((L == 0.0) | (L > sc.activity_threshold_bits))
    np.testing.assert_allclose(L.sum(axis=1), sc.task_bits, rtol=1e-12, atol=0)
    idle = ~(L > 0.0).any(axis=0)
    assert np.all(state["mus"][idle] == kkt.DUAL_RANGE[0])


@pytest.mark.parametrize("params, deadline", [
    (GenParams(seed=42), 0.2), (GenParams(seed=42), 0.4), (GenParams(seed=42), 1.0),
    (GenParams(num_users=64, num_aps=9, bandwidth_hz=8e7, capacity_cps=2.5e10 * 8 * 4 / 9,
               seed=42), None)])
def test_the_dual_step_reads_off_what_a_warm_rebalance_of_its_split_reaches(params, deadline):
    # the dual step's prices already meet every budget of its split, so the
    # allocation read off its last oracle pass is the one a re-balance of
    # that split, warm from those prices, returns
    sc = generate(params)
    if deadline is not None:
        sc = override_parameter(sc, "deadline_s", deadline)
    cfg = _cfg(sc)
    cap = sc.compute_capacity
    warm = {}
    solve_bcaa(sc, sc.task_bits[:, None] * cap / cap.sum(), cfg, warm=warm)
    L, _, state, (x, q, energy) = kkt.joint_split(sc, cfg, warm)
    x_b, q_b, _ = solve_bcaa(sc, L, cfg, warm=dict(state))
    np.testing.assert_allclose(x, x_b, rtol=1e-12, atol=0)
    np.testing.assert_allclose(q, q_b, rtol=1e-12, atol=0)
    rebalanced = total_energy(sc, Allocation(L, x_b, q_b))
    assert energy == pytest.approx(rebalanced, rel=1e-12, abs=0)


@pytest.mark.parametrize("deadline", [0.2, 1.0])
def test_a_void_state_starts_the_dual_step_from_the_capacity_split_prices(deadline):
    # joint_split prices the capacity split itself when its state is void,
    # with the pricing of solve_bcaa, so it returns what it returns from
    # the prices that pricing leaves, bit for bit
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", deadline)
    cfg = _cfg(sc)
    cap = sc.compute_capacity
    warm = {}
    solve_bcaa(sc, sc.task_bits[:, None] / (cap.sum() / cap), cfg, warm=warm)
    expected = kkt.joint_split(sc, cfg, warm)
    for void in ({}, {"beta": np.nan, "mus": warm["mus"]},
                 {"beta": warm["beta"], "mus": warm["mus"][:-1]}):
        before = dict(void)
        L, bound, state, (x, q, energy) = kkt.joint_split(sc, cfg, void)
        # the capacity split is priced in a dict of the step's own
        assert void.keys() == before.keys() and all(void[k] is before[k] for k in void)
        assert np.array_equal(L, expected[0]) and bound == expected[1]
        assert state["beta"] == expected[2]["beta"]
        assert np.array_equal(state["mus"], expected[2]["mus"])
        assert np.array_equal(x, expected[3][0]) and np.array_equal(q, expected[3][1])
        assert energy == expected[3][2]


def test_newton_returns_its_start_when_the_line_search_uses_up_its_calls(monkeypatch):
    # a Jacobian of the wrong sign makes every trial raise the residual norm
    monkeypatch.setattr(kkt, "MAX_DUAL_PROBES", 3)
    start = np.array([1.0, -2.0])
    y, r, extra, calls = kkt._newton(lambda y: (y, -np.eye(2), "extra"), start, 1e-12)
    assert np.array_equal(y, start) and np.array_equal(r, start)
    assert extra == "extra" and calls == 3


def _count_joint_systems(monkeypatch):
    system, calls = kkt._joint_system, []

    def spy(*args):
        calls.append(1)
        return system(*args)

    monkeypatch.setattr(kkt, "_joint_system", spy)
    return calls


def test_joint_split_solves_to_the_pricing_tolerance(monkeypatch):
    # the dual step stops at half of bisect_tol, like every pricing, so a
    # loose tolerance costs it fewer Newton iterates
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.4)
    calls = _count_joint_systems(monkeypatch)
    counts = []
    for tol in (1e-3, 1e-9):
        cfg = _cfg(sc, bisect_tol=tol)
        warm = {}
        solve_bcaa(sc, initialize(sc, InitStrategy.equal()), cfg, warm=warm)
        calls.clear()
        assert kkt.joint_split(sc, cfg, warm) is not None
        counts.append(len(calls))
    assert counts[0] < counts[1]


def test_joint_split_certifies_the_tight_deadline_split_within_116_systems(tight42,
                                                                           monkeypatch):
    # at D = 0.2 s the two stages of JOINT_SMOOTHING leave the soft split
    # a smoothing bias above half of GAP_TOL; the continuation's stages
    # close it, and the Newton solve's step memory pays for them
    sc, _, cfg = tight42
    warm = {}
    solve_bcaa(sc, initialize(sc, InitStrategy.equal()), cfg, warm=warm)
    calls = _count_joint_systems(monkeypatch)
    L, bound, _, _ = kkt.joint_split(sc, cfg, warm)
    assert len(calls) <= 116
    energy = solve_fixed_data(sc, L, cfg).energy_j
    assert energy - bound <= kkt.GAP_TOL * energy


def test_a_continuation_stage_that_misses_its_tolerance_keeps_the_last_stage(tight42,
                                                                              monkeypatch):
    # every stage after the second stops at its start prices, short of its
    # tolerance: the step returns the split, bound and prices of the second
    sc, _, cfg = tight42
    warm = {}
    solve_bcaa(sc, initialize(sc, InitStrategy.equal()), cfg, warm=warm)
    newton, ends, stalls = kkt._newton, [], []

    def stall_after_the_fixed_stages(system, y, tol, first=None):
        if first is not None and len(ends) == len(kkt.JOINT_SMOOTHING):
            stalls.append(first[0])
            return y, first[0], first[2], 0
        out = newton(system, y, tol, first)
        ends.append(out[0])
        return out

    monkeypatch.setattr(kkt, "_newton", stall_after_the_fixed_stages)
    L, bound, state, _ = kkt.joint_split(sc, cfg, warm)
    assert len(stalls) == 1 and np.abs(stalls[0]).max() > 0.5 * cfg.bisect_tol
    assert len(ends) == len(kkt.JOINT_SMOOTHING)
    np.testing.assert_allclose(np.log(np.append(state["beta"], state["mus"])), ends[-1],
                               rtol=1e-15, atol=0)
    assert bound == kkt.joint_dual(sc, state["beta"], state["mus"])
    np.testing.assert_allclose(L.sum(axis=1), sc.task_bits, rtol=1e-12, atol=0)


@pytest.mark.parametrize("warm", [None, {"beta": 1.0, "mus": np.ones(1)}])
def test_bcaa_prices_beyond_the_dual_range_raise(warm):
    # one AP loaded to 99.99% of its capacity: its slacks, hence its
    # bandwidth, leave no rate inside the exponent cap unless both prices
    # rise above DUAL_RANGE; the pricing finds that from the cold start and
    # from warm prices, at the range edge
    params = GenParams(num_users=3, num_aps=1, seed=0)
    base = generate(params)
    load = (base.cycles_per_bit * base.task_bits / base.deadlines_s).sum()
    sc = generate(dataclasses.replace(params, capacity_cps=load / (1.0 - 1e-4)))
    with pytest.raises(BracketError):
        solve_bcaa(sc, base.task_bits[:, None], _cfg(sc), warm=warm)


def test_bcaa_respects_budgets_on_multi_ap_instance():
    sc = make_scenario([[1.0, 0.4], [0.3, 1.0], [0.8, 0.8]],
                       bits=[2.0, 1.5, 1.0], deadline=[1.0, 0.8, 1.2],
                       eta=1.0, bandwidth=12.0, capacities=[9.0, 7.0])
    L = np.array([[1.5, 0.5], [0.5, 1.0], [0.5, 0.5]])
    cfg = _cfg(sc)
    x, q, _ = solve_bcaa(sc, L, cfg)
    assert x.sum() == pytest.approx(12.0, rel=1e-9, abs=0)
    assert q[:, 0].sum() == pytest.approx(9.0, rel=1e-9, abs=0)
    assert q[:, 1].sum() == pytest.approx(7.0, rel=1e-9, abs=0)
    t = 1.0 * np.array([[1.0], [0.8], [1.2]]) - L / q
    assert np.all(t[L > 0] > 0)


def test_bcaa_rejects_empty_input():
    sc = make_scenario([[1.0]], bits=1.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    with pytest.raises(DegenerateInputError):
        solve_bcaa(sc, np.array([[0.0]]), _cfg(sc))


@pytest.fixture(scope="module")
def split12x4():
    """A generated 12x4 scenario under the equal data split."""
    sc = generate(GenParams(num_users=12, num_aps=4, seed=3))
    return sc, np.tile(sc.task_bits[:, None] / 4, (1, 4)), _cfg(sc)


def test_the_pricing_reads_its_warm_state_and_solve_bcaa_refreshes_it(split12x4):
    # _price hands its final prices back and writes no caller state, void
    # or not; solve_bcaa alone refreshes the warm dict it is given
    sc, L, cfg = split12x4
    void = {}
    kkt._price(sc, L, cfg, void, [])
    assert void == {}
    warm = {}
    solve_bcaa(sc, L, cfg, warm=warm)
    beta, mus = warm["beta"], warm["mus"].copy()
    shifted = L * np.array([1.2, 0.8, 1.0, 1.0])
    state = kkt._price(sc, shifted, cfg, warm, [])[0]
    assert set(warm) == {"beta", "mus"} and warm["beta"] == beta
    np.testing.assert_array_equal(warm["mus"], mus)
    assert state["beta"] != beta
    solve_bcaa(sc, shifted, cfg, warm=warm)
    assert warm["beta"] == state["beta"]
    np.testing.assert_array_equal(warm["mus"], state["mus"])


def test_bcaa_warm_start_costs_no_rounds_or_energy(split12x4):
    sc, L, cfg = split12x4
    warm = {}
    x1, q1, r1 = solve_bcaa(sc, L, cfg, warm=warm)
    x2, q2, r2 = solve_bcaa(sc, L, cfg, warm=warm)
    assert r2 <= r1

    def energy(x, q):
        return total_energy(sc, Allocation(L, x, q))

    assert energy(x2, q2) <= energy(x1, q1) * (1.0 + 10.0 * cfg.bisect_tol)


def test_bcaa_unusable_warm_compute_falls_back_to_cold_start(split12x4):
    sc, L, cfg = split12x4
    state = {}
    cold = solve_bcaa(sc, L, cfg, warm=state)
    beta, mus = state["beta"], state["mus"]
    usable = {"beta": 2.0 * beta, "mus": 0.5 * mus}
    assert not np.array_equal(solve_bcaa(sc, L, cfg, warm=usable)[1], cold[1])
    # a price missing, not finite, not positive, or of the wrong shape
    unusable = [{"mus": mus}, {"beta": beta}, {"beta": np.array([beta]), "mus": mus},
                {"beta": beta, "mus": mus[:-1]}]
    for bad in (0.0, -1.0, np.nan, np.inf):
        one = mus.copy()
        one[1] = bad
        unusable += [{"beta": bad, "mus": mus}, {"beta": beta, "mus": one}]
    for warm in unusable:
        out = solve_bcaa(sc, L, cfg, warm=warm)
        assert np.array_equal(out[0], cold[0])
        assert np.array_equal(out[1], cold[1])
        assert out[2] == cold[2]


def test_bcaa_prices_an_ap_the_warm_split_left_idle(split12x4, monkeypatch):
    # the warm state prices AP 3, which served no one, at the floor of
    # DUAL_RANGE, so the pricing starts that AP from the price that makes
    # the cold slack stationary
    sc, L, cfg = split12x4
    idle = L.copy()
    idle[:, 3] = 0.0
    idle *= 4.0 / 3.0
    warm = {}
    solve_bcaa(sc, idle, cfg, warm=warm)
    assert set(warm) == {"beta", "mus"}
    assert warm["mus"][3] == kkt.DUAL_RANGE[0]
    calls = []
    system = kkt._budget_system
    monkeypatch.setattr(kkt, "_budget_system", lambda *args: calls.append(1) or system(*args))
    x, q, rounds = solve_bcaa(sc, L, cfg, warm=warm)
    assert rounds == 1
    assert len(calls) <= 10

    def energy(x, q):
        return total_energy(sc, Allocation(L, x, q))

    assert energy(x, q) <= energy(*solve_bcaa(sc, L, cfg)[:2]) * (1.0 + 10.0 * cfg.bisect_tol)


@pytest.fixture(scope="module")
def equal42():
    """The seed-42 8x4 scenario at D = 0.4 s under the equal data split."""
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.4)
    return sc, initialize(sc, InitStrategy.equal()), _cfg(sc)


@pytest.mark.parametrize("case", ["split12x4", "equal42"])
def test_warm_rebalance_after_a_data_step_beats_a_cold_one(case, request, monkeypatch):
    # the last prices are still a good start after the data step moves L:
    # the warm pricing skips the cold start's bandwidth search
    sc, L, cfg = request.getfixturevalue(case)
    warm = {}
    x, q, _ = solve_bcaa(sc, L, cfg, warm=warm)
    L = solve_daa(sc, x, q, cfg)
    calls = []
    oracle = kkt.price_oracle
    monkeypatch.setattr(kkt, "price_oracle", lambda *args: calls.append(1) or oracle(*args))

    def pricing_work(warm):
        """Price-oracle calls plus bandwidth-search probes of one solve."""
        diag = []
        calls.clear()
        out = solve_bcaa(sc, L, cfg, diag=diag, warm=warm)
        return out, len(calls) + sum(rec.iterations for rec in diag
                                     if rec.dual.kind == "beta_bandwidth")

    (xw, qw, _), work_warm = pricing_work(warm)
    (xc, qc, _), work_cold = pricing_work(None)
    assert work_warm < work_cold

    def energy(x, q):
        return total_energy(sc, Allocation(L, x, q))

    assert energy(xw, qw) <= energy(xc, qc) * (1.0 + 10.0 * cfg.bisect_tol)


def test_data_marginal_is_positive_and_increasing():
    L = np.linspace(0.0, 1.8, 50)
    g = data_marginal(L, 2.0, 2.0, 1.0, 1.0, 1.0)
    assert np.all(g > 0)
    assert np.all(np.diff(g) > 0)
    assert g[0] == pytest.approx(math.log(2.0), rel=1e-12, abs=0)
