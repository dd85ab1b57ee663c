import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecalloc import (
    Allocation,
    BracketError,
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
    solve_iterative,
    total_energy,
)
from mecalloc import kkt
from mecalloc.model import deadline_slack
from mecalloc.physics import data_marginal, energy_matrix
from mecalloc.scenario import GenParams, generate, override_parameter

from util import (
    grid_min_baa,
    grid_min_bcaa,
    grid_min_caa,
    grid_min_daa,
    make_scenario,
    scalar_energy,
    scalar_energy_q,
)


def _cfg(scenario, **kw):
    return SolveConfig.for_scenario(scenario, **kw)


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
    passes, barrier_split = [], kkt._barrier_split

    def spy(*args, **kwargs):
        passes.append(barrier_split(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(kkt, "_barrier_split", spy)
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


@st.composite
def _data_split_instances(draw):
    """A generated scenario of 1-6 users x 1-4 APs with a bandwidth and a
    compute for each pair, some pairs given neither: each user's usable
    pairs share 1.2-4 times its least demand eta*T/D, so each row can
    carry its task."""
    K = draw(st.integers(1, 6))
    M = draw(st.integers(1, 4))

    def matrix(elements):
        return np.array(draw(st.lists(st.lists(elements, min_size=M, max_size=M),
                                      min_size=K, max_size=K)))

    usable = matrix(st.booleans())
    shares, weights = matrix(st.floats(0.2, 1.0)), matrix(st.floats(0.05, 1.0))
    headroom = draw(st.floats(1.2, 4.0))
    bandwidth = draw(st.floats(2e6, 4e7))
    sc = generate(GenParams(num_users=K, num_aps=M, deadline_s=draw(st.floats(0.15, 1.0)),
                            bandwidth_hz=bandwidth, seed=draw(st.integers(0, 2**16))))
    usable[np.arange(K), np.argmax(weights, axis=1)] = True
    weights = np.where(usable, weights, 0.0)
    least = sc.cycles_per_bit * sc.task_bits / sc.deadlines_s
    q = headroom * least[:, None] * weights / weights.sum(axis=1, keepdims=True)
    return sc, np.where(usable, bandwidth * shares / K, 0.0), q


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_data_split_instances())
def test_daa_properties_on_random_instances(instance):
    # every row meets its task, and every interior load of a row with two
    # or more active pairs has the marginal energy of its row's price
    sc, x, q = instance
    diag = []
    L = solve_daa(sc, x, q, _cfg(sc), diag=diag)
    np.testing.assert_allclose(L.sum(axis=1), sc.task_bits, rtol=1e-12, atol=0)
    assert [r.dual.owner for r in diag] == list(range(sc.num_users))
    price = np.array([r.dual.value for r in diag])
    i, j = np.nonzero(L > 0)
    d, eta = sc.deadlines_s[i], sc.cycles_per_bit[i]
    cap = (1.0 - kkt.SLACK_MARGIN) * d * q[i, j] / eta
    inner = (L[i, j] < cap) & ((L > 0).sum(axis=1)[i] >= 2)
    g = data_marginal(L[i, j], x[i, j], q[i, j], d, eta, sc.noise_over_gain[i, j])
    np.testing.assert_allclose(g[inner], price[i][inner], rtol=1e-9, atol=0)


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
    diag = []
    x, q, rounds = solve_bcaa(sc, L, cfg, diag=diag)
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
    gap = energy - kkt.fixed_data_dual(sc, L, *kkt._price(sc, L, cfg)[0])
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
    x, q, _ = solve_bcaa(sc, L, cfg)
    energy = total_energy(sc, Allocation(L, x, q))
    beta, mus = kkt._price(sc, L, cfg)[0]
    assert energy - kkt.fixed_data_dual(sc, L, beta, mus) <= cfg.bisect_tol * energy
    shift = 10.0 ** np.array(decades)
    dual = kkt.fixed_data_dual(sc, L, beta * shift[0], mus * shift[1:sc.num_aps + 1])
    assert dual <= energy * (1.0 + 1e-12)


def test_pricing_jacobian_matches_central_differences(split12x4):
    sc, L, cfg = split12x4
    _, pairs, col, budgets, _ = kkt._pricing_inputs(sc, L)
    # log prices off the optimum, where the budgets are far from met
    y = np.log(np.append(*kkt._price(sc, L, cfg)[0])) + np.array([0.3, -0.2, 0.1, 0.25, -0.3])
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
    _, pairs, col, budgets, _ = kkt._pricing_inputs(sc, full)
    return sc.task_bits, pairs, col, budgets


@pytest.mark.parametrize("kappa", kkt.JOINT_SMOOTHING)
def test_joint_dual_jacobian_matches_central_differences(tight42, kappa):
    # the smoothed joint dual near the prices of the dual step, where the
    # soft-argmin splits a user over two or more APs
    sc, _, cfg = tight42
    _, _, prices, _ = kkt.joint_split(sc, cfg)
    bits, pairs, col, budgets = _full_split_inputs(sc)
    y = np.log(np.append(*prices)) + kappa * np.array([3.0, -2.0, 1.0, 2.5, -3.0])
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
    _, bound, prices, _ = kkt.joint_split(sc, _cfg(sc))
    assert bound == kkt.joint_dual(sc, *prices)


def test_joint_split_returns_its_prices_and_an_active_split():
    # the prices come back as (beta, mus), one per AP, where the joint dual
    # is the bound; every load is zero or above the activity threshold
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.4)
    L, bound, (beta, mus), _ = kkt.joint_split(sc, _cfg(sc))
    assert np.shape(beta) == () and mus.shape == (sc.num_aps,)
    assert bound == kkt.joint_dual(sc, beta, mus)
    assert np.all((L == 0.0) | (L > sc.activity_threshold_bits))
    np.testing.assert_allclose(L.sum(axis=1), sc.task_bits, rtol=1e-12, atol=0)


@pytest.mark.parametrize("params, deadline", [
    (GenParams(seed=42), 0.2), (GenParams(seed=42), 0.4), (GenParams(seed=42), 1.0),
    (GenParams(num_users=64, num_aps=9, bandwidth_hz=8e7, capacity_cps=2.5e10 * 8 * 4 / 9,
               seed=42), None)])
def test_the_dual_step_reads_off_what_a_warm_rebalance_of_its_split_reaches(params, deadline):
    # the dual step's prices already meet every budget of its split, so the
    # allocation read off its last oracle pass is the one the pricing's
    # Newton solve and read-off reach from those prices
    sc = generate(params)
    if deadline is not None:
        sc = override_parameter(sc, "deadline_s", deadline)
    cfg = _cfg(sc)
    L, _, (beta, mus), (x, q, energy) = kkt.joint_split(sc, cfg)
    inputs = _, pairs, col, budgets, aps = kkt._pricing_inputs(sc, L)
    y, _, oracle, _ = kkt._newton(lambda y: kkt._budget_system(y, pairs, col, budgets),
                                  np.log(np.append(beta, mus[aps])), 0.5 * cfg.bisect_tol)
    x_b, q_b, rebalanced = kkt._read_off(sc, L, cfg, inputs, np.exp(y), *oracle)
    np.testing.assert_allclose(x, x_b, rtol=1e-12, atol=0)
    np.testing.assert_allclose(q, q_b, rtol=1e-12, atol=0)
    assert energy == pytest.approx(rebalanced, rel=1e-12, abs=0)
    # a re-balance of that split, from its cold start, meets them to the
    # pricing's tolerance
    x_c, q_c, _ = solve_bcaa(sc, L, cfg)
    np.testing.assert_allclose(x_c, x, rtol=cfg.bisect_tol, atol=0)
    np.testing.assert_allclose(q_c, q, rtol=cfg.bisect_tol, atol=0)


@pytest.mark.parametrize("deadline", [0.2, 1.0])
def test_the_dual_step_starts_from_the_capacity_split_prices(deadline, monkeypatch):
    # joint_split prices the capacity split with the pricing of solve_bcaa
    # and starts its first stage from the logs of the prices that pricing
    # returns, whatever split the solve was given
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", deadline)
    cfg = _cfg(sc)
    price, system, priced, starts = kkt._price, kkt._joint_system, [], []
    monkeypatch.setattr(kkt, "_price", lambda *args: priced.append(args[1]) or price(*args))
    monkeypatch.setattr(kkt, "_joint_system",
                        lambda y, *args: starts.append(y.copy()) or system(y, *args))
    kkt.joint_split(sc, cfg)
    cap = sc.compute_capacity
    assert len(priced) == 1
    np.testing.assert_array_equal(priced[0], sc.task_bits[:, None] / (cap.sum() / cap))
    beta, mus = price(sc, priced[0], cfg)[0]
    np.testing.assert_array_equal(starts[0], np.log(np.append(beta, mus)))


def test_newton_returns_its_start_when_the_line_search_uses_up_its_calls(monkeypatch):
    # a Jacobian of the wrong sign makes every trial raise the residual norm
    monkeypatch.setattr(kkt, "MAX_DUAL_PROBES", 3)
    start = np.array([1.0, -2.0])
    y, r, extra, calls = kkt._newton(lambda y: (y, -np.eye(2), "extra"), start, 1e-12)
    assert np.array_equal(y, start) and np.array_equal(r, start)
    assert extra == "extra" and calls == 3


def test_newton_stops_at_the_range_edge_when_the_root_lies_beyond():
    # the root y = 700 lies above ln(1e280) ~ 644.7: the solve climbs to
    # the edge and stops there like a stall, returning that iterate
    edge = math.log(kkt.DUAL_RANGE[1])
    y, r, extra, calls = kkt._newton(lambda y: (y - 700.0, np.eye(1), "extra"),
                                     np.array([600.0]), 1e-12)
    assert y[0] == edge and r[0] == edge - 700.0
    assert extra == "extra" and calls < kkt.MAX_DUAL_PROBES


@pytest.mark.parametrize("system", [
    # a zero Jacobian
    lambda y: (y - 1.0, np.zeros((2, 2)), "extra"),
    # r = (y0 - 1, y0*y1 - 1) has its root at (1, 1), and its Jacobian
    # [[1, 0], [y1, y0]] is singular at the start (0, 0)
    lambda y: (np.array([y[0] - 1.0, y[0] * y[1] - 1.0]),
               np.array([[1.0, 0.0], [y[1], y[0]]]), "extra"),
], ids=["zero", "rank-one"])
def test_newton_stops_at_a_singular_jacobian(system):
    # a singular Jacobian ends the solve like any stall: at its start
    y, r, extra, calls = kkt._newton(system, np.zeros(2), 1e-12)
    assert np.array_equal(y, np.zeros(2)) and np.array_equal(r, -np.ones(2))
    assert extra == "extra" and calls == 1


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
        calls.clear()
        assert kkt.joint_split(sc, cfg) is not None
        counts.append(len(calls))
    assert counts[0] < counts[1]


def test_joint_split_certifies_the_tight_deadline_split_within_116_systems(tight42,
                                                                           monkeypatch):
    # at D = 0.2 s the two stages of JOINT_SMOOTHING leave the soft split
    # a smoothing bias above half of GAP_TOL; the continuation's stages
    # close it, and the Newton solve's step memory pays for them
    sc, _, cfg = tight42
    calls = _count_joint_systems(monkeypatch)
    L, bound, _, _ = kkt.joint_split(sc, cfg)
    assert len(calls) <= 116
    energy = solve_fixed_data(sc, L, cfg).energy_j
    assert energy - bound <= kkt.GAP_TOL * energy


def test_a_continuation_stage_that_misses_its_tolerance_keeps_the_last_stage(tight42,
                                                                              monkeypatch):
    # every stage after the second stops at its start prices, short of its
    # tolerance: the step returns the split, bound and prices of the second
    sc, _, cfg = tight42
    price, newton, ends, stalls = kkt._price, kkt._newton, [], []

    def price_the_capacity_split(*args):  # its Newton solve is not a stage
        out = price(*args)
        ends.clear()
        return out

    def stall_after_the_fixed_stages(system, y, tol, first=None):
        if first is not None and len(ends) == len(kkt.JOINT_SMOOTHING):
            stalls.append(first[0])
            return y, first[0], first[2], 0
        out = newton(system, y, tol, first)
        ends.append(out[0])
        return out

    monkeypatch.setattr(kkt, "_price", price_the_capacity_split)
    monkeypatch.setattr(kkt, "_newton", stall_after_the_fixed_stages)
    L, bound, prices, _ = kkt.joint_split(sc, cfg)
    assert len(stalls) == 1 and np.abs(stalls[0]).max() > 0.5 * cfg.bisect_tol
    assert len(ends) == len(kkt.JOINT_SMOOTHING)
    np.testing.assert_allclose(np.log(np.append(*prices)), ends[-1], rtol=1e-15, atol=0)
    assert bound == kkt.joint_dual(sc, *prices)
    np.testing.assert_allclose(L.sum(axis=1), sc.task_bits, rtol=1e-12, atol=0)


def test_barrier_stages_keep_every_budget_and_close_their_gap():
    # this draw's dual step returns no split. Each centring stage's
    # allocation is zero at every pair at or below the activity threshold,
    # keeps every budget to bisect_tol and is one the pair rule accepts,
    # and its multipliers are prices. The joint dual at them rises to
    # within GAP_TOL of the energy of the fourth stage's allocation, and
    # never exceeds that energy; the solve runs no re-balance
    sc = generate(GenParams(num_users=6, num_aps=3, deadline_s=0.5, seed=13))
    cfg = _cfg(sc)
    cap, tol = sc.compute_capacity, cfg.bisect_tol
    bounds = []
    for L, x, q, beta, mus in itertools.islice(kkt.barrier_stages(sc), 4):
        off = L <= sc.activity_threshold_bits
        assert np.all(L[off] == 0.0) and np.all(x[off] == 0.0) and np.all(q[off] == 0.0)
        np.testing.assert_allclose(L.sum(axis=1), sc.task_bits, rtol=tol, atol=0)
        assert abs(x.sum() / sc.bandwidth_hz - 1.0) <= tol
        served = ~off.all(axis=0)
        np.testing.assert_allclose(q.sum(axis=0)[served], cap[served], rtol=tol, atol=0)
        assert np.all(x[~off] > 0.0) and beta > 0 and np.all(mus > 0)
        energy = float(energy_matrix(sc, L, x, q).sum())
        bounds.append(kkt.joint_dual(sc, beta, mus))
    assert np.all(np.diff(bounds) > 0) and bounds[-1] <= energy
    assert energy - bounds[-1] <= kkt.GAP_TOL * energy
    sol = solve_iterative(sc, cfg=cfg)
    assert sol.outer_iterations >= 1
    assert sol.trace.inner_iteration_counts == (0,) * (sol.outer_iterations + 1)


def test_barrier_stages_of_a_single_pair_stop_after_their_one_point():
    # one user on one AP: every budget pins its one share, so the first
    # stage takes no step and is the last, its allocation every budget
    sc = generate(GenParams(num_users=1, num_aps=1, seed=4))
    (L, x, q, beta, mus), = kkt.barrier_stages(sc)
    assert np.array_equal(L, sc.task_bits[:, None])
    assert x[0, 0] == sc.bandwidth_hz and q[0, 0] == sc.compute_capacity[0]


def test_barrier_stages_need_an_interior_start():
    # the users' least demands exceed the capacity, so the capacity split
    # has no slack and there is no stage
    params = GenParams(num_users=4, num_aps=2, seed=2)
    base = generate(params)
    load = (base.cycles_per_bit * base.task_bits / base.deadlines_s).sum()
    sc = generate(dataclasses.replace(params, capacity_cps=0.5 * load / 2))
    assert list(kkt.barrier_stages(sc)) == []


def test_bcaa_prices_beyond_the_dual_range_raise():
    # one AP loaded to 99.99% of its capacity: its slacks, hence its
    # bandwidth, leave no rate inside the exponent cap unless both prices
    # rise above DUAL_RANGE; the pricing finds that at the range edge
    params = GenParams(num_users=3, num_aps=1, seed=0)
    base = generate(params)
    load = (base.cycles_per_bit * base.task_bits / base.deadlines_s).sum()
    sc = generate(dataclasses.replace(params, capacity_cps=load / (1.0 - 1e-4)))
    with pytest.raises(BracketError):
        solve_bcaa(sc, base.task_bits[:, None], _cfg(sc))


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


def test_data_marginal_is_positive_and_increasing():
    L = np.linspace(0.0, 1.8, 50)
    g = data_marginal(L, 2.0, 2.0, 1.0, 1.0, 1.0)
    assert np.all(g > 0)
    assert np.all(np.diff(g) > 0)
    assert g[0] == pytest.approx(math.log(2.0), rel=1e-12, abs=0)
