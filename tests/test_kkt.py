import math

import numpy as np
import pytest

from mecalloc import (
    Allocation,
    BracketError,
    ConvergenceError,
    DegenerateInputError,
    DualVariable,
    InfeasibilityError,
    SolveConfig,
    StructuralError,
    solve_baa,
    solve_bcaa,
    solve_caa,
    solve_daa,
    total_energy,
)
from mecalloc.kkt import (
    _bandwidth_roots,
    _caa_joint,
    _data_marginal,
    _data_roots,
    _slack_roots,
)
from mecalloc.scenario import GenParams, generate

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
        return float(_data_roots(nu, x, q, 1.0, 1.0, a, upper).sum())

    with np.errstate(over="ignore"):
        nu = halving_root(lambda v: total(v) - 1.0, 0.7, 50.0, tol=1e-12)
        roots = _data_roots(nu, x, q, 1.0, 1.0, a, upper)
    assert roots[0] == pytest.approx(0.5, rel=1e-6)
    assert roots[1] == pytest.approx(roots[0], rel=1e-9)


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
    assert L[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_daa_identical_aps_split_evenly():
    sc = make_scenario([[1.0, 1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=10.0)
    L = solve_daa(sc, x=[[2.0, 2.0]], q=[[5.0, 5.0]], cfg=_cfg(sc))
    assert L[0, 0] == pytest.approx(1.0, rel=1e-6)
    assert L[0, 1] == pytest.approx(1.0, rel=1e-6)


def test_daa_matches_grid_oracle():
    # one user, two APs, gains 10:1
    sc = make_scenario([[1.0, 0.1]], bits=1.0, deadline=1.0, eta=1.0,
                       bandwidth=2.0, capacities=2.0)
    x = np.array([[1.0, 1.0]])
    q = np.array([[2.0, 2.0]])
    cfg = _cfg(sc)
    L = solve_daa(sc, x, q, cfg)
    assert L.sum() == pytest.approx(1.0, rel=1e-9)
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
        prev = _data_roots(0.5, x, q, 1.0, 1.0, a, upper)
        for nu in [0.8, 1.2, 2.0, 4.0]:
            cur = _data_roots(nu, x, q, 1.0, 1.0, a, upper)
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
    assert L.sum() == pytest.approx(1.9, rel=1e-9)


def test_daa_infeasible_user_is_named():
    sc = make_scenario([[1.0, 1.0]], bits=3.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=1.0)
    with pytest.raises(InfeasibilityError) as err:
        solve_daa(sc, x=[[5.0, 5.0]], q=[[1.0, 1.0]], cfg=_cfg(sc))
    assert err.value.user == 0


# --- bandwidth allocation ----------------------------------------------

def test_baa_symmetric_pairs_share_evenly():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    x = solve_baa(sc, t=np.array([[0.5], [0.5]]), L=np.array([[2.0], [2.0]]),
                  cfg=_cfg(sc))
    assert x[0, 0] == pytest.approx(5.0, rel=1e-9)
    assert x[1, 0] == pytest.approx(5.0, rel=1e-9)


def test_baa_single_active_pair_gets_everything():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    x = solve_baa(sc, t=np.array([[0.5], [1.0]]), L=np.array([[2.0], [0.0]]),
                  cfg=_cfg(sc))
    assert x[0, 0] == pytest.approx(10.0, rel=1e-12)
    assert x[1, 0] == 0.0


def test_baa_matches_grid_oracle():
    sc = make_scenario([[1.0], [0.2]], bits=[2.0, 1.0], deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=20.0)
    t = np.array([[0.5], [0.4]])
    L = np.array([[2.0], [1.0]])
    cfg = _cfg(sc)
    x = solve_baa(sc, t, L, cfg)
    assert x.sum() == pytest.approx(10.0, rel=1e-9)
    a = (sc.noise_psd / sc.gains)[:, 0]
    e_solver = scalar_energy(2.0, x[0, 0], 0.5, a[0]) \
        + scalar_energy(1.0, x[1, 0], 0.4, a[1])
    e_star, _ = grid_min_baa([2.0, 1.0], [0.5, 0.4], a, 10.0)
    assert e_solver <= e_star * (1.0 + 1e-3)


def test_baa_roots_shrink_as_dual_grows():
    L = np.array([2.0, 1.0])
    t = np.array([0.5, 0.4])
    a = np.array([1.0, 5.0])
    hi0 = np.full(2, 10.0)
    prev = _bandwidth_roots(1e-3, L, t, a, hi0)
    for beta in [1e-2, 1e-1, 1.0]:
        cur = _bandwidth_roots(beta, L, t, a, hi0)
        assert np.all(cur < prev)
        prev = cur


def test_baa_needs_an_active_pair():
    sc = make_scenario([[1.0]], bits=1.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    with pytest.raises(DegenerateInputError):
        solve_baa(sc, t=np.array([[0.5]]), L=np.array([[0.0]]), cfg=_cfg(sc))


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
    assert t[0] == pytest.approx(1.0 - 2.0 / 8.0, rel=1e-9)
    assert t[1] == 1.0  # inactive user keeps its deadline


def test_caa_identical_users_split_capacity():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    t = solve_caa(sc, x=np.array([[5.0], [5.0]]),
                  L=np.array([[2.0], [2.0]]), ap=0, cfg=_cfg(sc))
    q = 2.0 / (1.0 - t)
    assert q[0] == pytest.approx(4.0, rel=1e-9)
    assert q[1] == pytest.approx(4.0, rel=1e-9)


def test_caa_matches_grid_oracle():
    # second user carries twice the data of the first
    sc = make_scenario([[1.0], [0.5]], bits=[2.0, 4.0], deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=10.0)
    x = np.array([[4.0], [6.0]])
    L = np.array([[2.0], [4.0]])
    cfg = _cfg(sc)
    t = solve_caa(sc, x, L, ap=0, cfg=cfg)
    q = np.array([2.0, 4.0]) / (1.0 - t)
    assert q.sum() == pytest.approx(10.0, rel=1e-9)
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


# --- joint bandwidth + compute ------------------------------------------

def test_bcaa_single_pair_closed_form():
    sc = make_scenario([[0.5]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    cfg = _cfg(sc)
    x, q, rounds = solve_bcaa(sc, np.array([[2.0]]), cfg)
    assert x[0, 0] == pytest.approx(10.0, rel=1e-12)
    assert q[0, 0] == pytest.approx(8.0, rel=1e-12)
    t = 1.0 - 2.0 / 8.0
    a = sc.noise_psd / 0.5
    expected = a * 10.0 * t * (2.0 ** (2.0 / (10.0 * t)) - 1.0)
    e = scalar_energy(2.0, x[0, 0], 1.0 - 2.0 / q[0, 0], a)
    assert e == pytest.approx(expected, rel=1e-12)


def test_bcaa_symmetric_users_split_everything():
    sc = make_scenario([[1.0], [1.0]], bits=2.0, deadline=1.0, eta=1.0,
                       bandwidth=10.0, capacities=8.0)
    x, q, _ = solve_bcaa(sc, np.array([[2.0], [2.0]]), _cfg(sc))
    assert x[0, 0] == pytest.approx(5.0, rel=1e-6)
    assert x[1, 0] == pytest.approx(5.0, rel=1e-6)
    assert q[0, 0] == pytest.approx(4.0, rel=1e-6)
    assert q[1, 0] == pytest.approx(4.0, rel=1e-6)


def test_bcaa_matches_grid_oracle():
    sc = make_scenario([[1.0], [1.0 / 3.0]], bits=[2.0, 1.0], deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=10.0)
    L = np.array([[2.0], [1.0]])
    cfg = _cfg(sc)
    x, q, _ = solve_bcaa(sc, L, cfg)
    assert x.sum() == pytest.approx(10.0, rel=1e-9)
    assert q[:, 0].sum() == pytest.approx(10.0, rel=1e-9)
    a = (sc.noise_psd / sc.gains)[:, 0]
    e_solver = scalar_energy_q(2.0, x[0, 0], q[0, 0], 1.0, 1.0, a[0]) \
        + scalar_energy_q(1.0, x[1, 0], q[1, 0], 1.0, 1.0, a[1])
    e_star, x_star, q_star = grid_min_bcaa([2.0, 1.0], [1.0, 1.0], 1.0, 10.0,
                                           10.0, a, points=200)
    assert e_solver <= e_star * (1.0 + 1e-3)


def test_bcaa_energy_never_rises_between_rounds():
    # feed the alternation a deliberately unbalanced data split
    sc = make_scenario([[1.0, 0.1], [0.2, 1.0]], bits=[3.0, 2.0], deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=10.0)
    cfg = _cfg(sc)
    L = np.array([[2.7, 0.3], [0.4, 1.6]])
    diag = []
    x, q, rounds = solve_bcaa(sc, L, cfg, diag=diag)
    assert rounds >= 2
    # residuals of every dual search stayed inside tolerance
    assert all(rec.residual <= cfg.bisect_tol for rec in diag)


def test_bcaa_respects_budgets_on_multi_ap_instance():
    sc = make_scenario([[1.0, 0.4], [0.3, 1.0], [0.8, 0.8]],
                       bits=[2.0, 1.5, 1.0], deadline=[1.0, 0.8, 1.2],
                       eta=1.0, bandwidth=12.0, capacities=[9.0, 7.0])
    L = np.array([[1.5, 0.5], [0.5, 1.0], [0.5, 0.5]])
    cfg = _cfg(sc)
    x, q, _ = solve_bcaa(sc, L, cfg)
    assert x.sum() == pytest.approx(12.0, rel=1e-9)
    assert q[:, 0].sum() == pytest.approx(9.0, rel=1e-9)
    assert q[:, 1].sum() == pytest.approx(7.0, rel=1e-9)
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


def test_bcaa_warm_start_costs_no_rounds_or_energy(split12x4):
    sc, L, cfg = split12x4
    warm = {}
    x1, q1, r1 = solve_bcaa(sc, L, cfg, warm=warm)
    x2, q2, r2 = solve_bcaa(sc, L, cfg, warm=warm)
    assert r2 <= r1

    def energy(x, q):
        return total_energy(sc, Allocation(L, x, q), cfg.activity_threshold_bits)

    assert energy(x2, q2) <= energy(x1, q1) * (1.0 + 10.0 * cfg.bisect_tol)


def test_bcaa_unusable_warm_compute_falls_back_to_cold_start(split12x4):
    sc, L, cfg = split12x4
    cold = solve_bcaa(sc, L, cfg)
    # this little compute leaves every active slack negative
    warm = solve_bcaa(sc, L, cfg, warm={"q": np.full_like(L, 1e-3)})
    assert np.array_equal(warm[0], cold[0])
    assert np.array_equal(warm[1], cold[1])
    assert warm[2] == cold[2]


def test_caa_joint_search_equals_per_ap_searches(split12x4):
    sc, L, cfg = split12x4
    x, _, _ = solve_bcaa(sc, L, cfg)
    joint_diag = []
    with np.errstate(over="ignore"):
        t_cols, q_cols, mus = _caa_joint(sc, x, L, [0, 1, 2, 3], cfg, joint_diag)
    assert [r.dual.owner for r in joint_diag] == [0, 1, 2, 3]
    for j in range(4):
        diag = []
        t = solve_caa(sc, x, L, ap=j, cfg=cfg, diag=diag)
        assert np.array_equal(t, t_cols[:, j])
        assert diag[0].dual.value == mus[j] == joint_diag[j].dual.value
    assert np.allclose(q_cols.sum(axis=0), sc.compute_capacity, rtol=1e-12, atol=0)


def test_data_marginal_is_positive_and_increasing():
    L = np.linspace(0.0, 1.8, 50)
    g = _data_marginal(L, 2.0, 2.0, 1.0, 1.0, 1.0)
    assert np.all(g > 0)
    assert np.all(np.diff(g) > 0)
    assert g[0] == pytest.approx(math.log(2.0), rel=1e-12)
