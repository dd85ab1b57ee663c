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
    total_energy,
)
from mecalloc import kkt
from mecalloc.kkt import (
    _bandwidth_roots,
    _caa_joint,
    _data_roots,
    _slack_roots,
    _solve_duals,
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
    assert roots[0] == pytest.approx(0.5, rel=1e-6)
    assert roots[1] == pytest.approx(roots[0], rel=1e-9)


# --- dual searches -----------------------------------------------------

class _ProbeCount:
    """A monotone family budget_of(duals) that counts its evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, duals):
        self.calls += 1
        return self.fn(duals)


def _search(fn, targets, starts, increasing):
    budget = _ProbeCount(fn)
    targets = np.asarray(targets, dtype=float)
    duals, calls = _solve_duals(budget, targets, SolveConfig(),
                                np.asarray(starts, dtype=float), increasing)
    assert calls == budget.calls
    assert np.all(np.abs(fn(duals) - targets)
                  <= 0.5 * SolveConfig().bisect_tol * np.abs(targets))
    return duals, calls


def test_dual_search_reaches_a_far_root_in_few_probes():
    # galloping crosses the 100 decades in ten probes; a fixed doubling
    # of the dual would need over 330
    _, calls = _search(np.log10, [100.0], [1.0], increasing=True)
    assert calls <= 60


@pytest.mark.parametrize("increasing", [True, False])
def test_dual_search_solves_a_mixed_lockstep_family(increasing):
    # one root 200 decades up, one 5 down and one a doubling away, all
    # searched in lockstep from 1.0
    sign = 1.0 if increasing else -1.0
    roots = np.array([1e200, 1e-5, 2.0])
    duals, _ = _search(lambda d: sign * np.log10(d), sign * np.log10(roots),
                       np.ones(3), increasing)
    assert duals == pytest.approx(roots, rel=1e-6)


@pytest.mark.parametrize("root, start", [(1e300, 1.0), (1e-300, 1.0),
                                         (1e300, 1e300), (1e-300, 1e-300)])
def test_dual_search_rejects_roots_outside_its_range(root, start):
    budget = _ProbeCount(np.log10)
    with pytest.raises(BracketError):
        _solve_duals(budget, np.array([np.log10(root)]), SolveConfig(),
                     np.array([start]), increasing=True)
    # the gallop reaches the range edge from anywhere inside it in a dozen
    assert budget.calls <= 12


@pytest.mark.parametrize("root, doubling_probes", [(1.5, 33), (0.6, 32), (1.9, 32)])
def test_dual_search_warm_start_costs_no_more_than_doubling(root, doubling_probes):
    # a warm start within a factor of 2 of the root is bracketed by the
    # first probe; doubling_probes is what a fixed doubling of the dual
    # costs there
    _, calls = _search(np.log10, [np.log10(root)], [1.0], increasing=True)
    assert calls <= doubling_probes


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
    assert L.sum() == pytest.approx(1.9, rel=1e-9)


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
    assert x.sum() == pytest.approx(2e6, rel=1e-9)


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


class _RoundLog:
    """Energies seen inside solve_bcaa while installed, in order: the
    energy after each round's compute step ("round") and, before it, the
    energy of an extrapolated candidate after its bandwidth step
    ("candidate")."""

    def __init__(self, mp):
        self.events = []
        self._after_caa = False
        caa, energy_matrix = kkt._caa_joint, kkt.energy_matrix

        def caa_spy(*args, **kwargs):
            self._after_caa = True
            return caa(*args, **kwargs)

        def energy_spy(*args, **kwargs):
            out = energy_matrix(*args, **kwargs)
            kind = "round" if self._after_caa else "candidate"
            self.events.append((kind, float(out.sum())))
            self._after_caa = False
            return out

        mp.setattr(kkt, "_caa_joint", caa_spy)
        mp.setattr(kkt, "energy_matrix", energy_spy)

    @property
    def rounds(self):
        return [e for kind, e in self.events if kind == "round"]

    @property
    def candidates(self):
        return [e for kind, e in self.events if kind == "candidate"]

    def rejected(self):
        """Candidates whose energy rose above the round before them."""
        return [cur for (_, prev), (kind, cur) in zip(self.events, self.events[1:])
                if kind == "candidate" and cur > prev]


def _assert_never_rises(energies, cfg):
    for k in range(1, len(energies)):
        assert energies[k] <= energies[k - 1] * (1.0 + 10.0 * cfg.bisect_tol), k


def _bandwidth_records(diag):
    return sum(rec.dual.kind == "beta_bandwidth" for rec in diag)


@pytest.fixture(scope="module")
def tight42():
    """The seed-42 8x4 scenario at D = 0.2 s under the best-SNR binary
    split: the slow, steadily linear alternation extrapolation targets."""
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.2)
    return sc, initialize(sc, InitStrategy.binary()), _cfg(sc)


def _check_round_energies(sc, L, cfg, monkeypatch):
    """solve_bcaa under a _RoundLog, checked round by round; returns
    (x, q, log)."""
    log = _RoundLog(monkeypatch)
    diag = []
    x, q, rounds = solve_bcaa(sc, L, cfg, diag=diag)
    assert rounds >= 2
    assert len(log.rounds) == rounds
    _assert_never_rises(log.rounds, cfg)
    # each rejected candidate costs one more bandwidth step
    assert _bandwidth_records(diag) == rounds + len(log.rejected())
    # residuals of every dual search stayed inside tolerance
    assert all(rec.residual <= cfg.bisect_tol for rec in diag)
    return x, q, log


def test_bcaa_energy_never_rises_between_rounds(monkeypatch):
    # feed the alternation a deliberately unbalanced data split
    sc = make_scenario([[1.0, 0.1], [0.2, 1.0]], bits=[3.0, 2.0], deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=10.0)
    L = np.array([[2.7, 0.3], [0.4, 1.6]])
    _check_round_energies(sc, L, _cfg(sc), monkeypatch)


def test_bcaa_energy_never_rises_with_accepted_extrapolation(tight42, monkeypatch):
    _, _, log = _check_round_energies(*tight42, monkeypatch)
    assert len(log.candidates) - len(log.rejected()) >= 3


def test_bcaa_tight_deadline_converges_in_few_rounds(tight42):
    # plain alternation needs 82 rounds here, shrinking the energy step by
    # a steady factor of about 0.85 per round
    sc, _, cfg = tight42
    sol = solve_fixed_assignment(sc, best_snr_assignment(sc), cfg)
    assert sol.trace.inner_iteration_counts[0] <= 20
    assert sol.energy_j <= 361.6238343 * (1.0 + 1e-9)


def test_bcaa_rejected_extrapolation_falls_back_to_plain_step(tight42, monkeypatch):
    sc, L, cfg = tight42
    x0, q0, _ = solve_bcaa(sc, L, cfg)
    e0 = total_energy(sc, Allocation(L, x0, q0), cfg.activity_threshold_bits)

    # the first candidate steps back to the oldest remembered iterate,
    # whose energy after a bandwidth step is above the latest round's
    mix = kkt._anderson_mix
    calls = []

    def step_back_once(qs, gs):
        calls.append(len(qs))
        return qs[0] if len(calls) == 1 else mix(qs, gs)

    monkeypatch.setattr(kkt, "_anderson_mix", step_back_once)
    x, q, log = _check_round_energies(sc, L, cfg, monkeypatch)
    assert log.rejected()[0] == log.candidates[0]
    assert x.sum() == pytest.approx(sc.bandwidth_hz, rel=cfg.bisect_tol)
    assert np.allclose(q.sum(axis=0), sc.compute_capacity, rtol=cfg.bisect_tol, atol=0)
    e = total_energy(sc, Allocation(L, x, q), cfg.activity_threshold_bits)
    assert e == pytest.approx(e0, rel=1e-6)


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
    with pytest.MonkeyPatch.context() as mp:
        x, q, _ = _check_round_energies(sc, L, cfg, mp)
    tol = cfg.bisect_tol
    assert abs(x.sum() - sc.bandwidth_hz) <= tol * sc.bandwidth_hz
    act = L > cfg.activity_threshold_bits
    served = act.any(axis=0)
    cap = sc.compute_capacity
    assert np.all(np.abs(q.sum(axis=0) - cap)[served] <= tol * cap[served])
    d = np.broadcast_to(sc.deadlines_s[:, None], L.shape)
    t = d - sc.cycles_per_bit[:, None] * L / np.where(act, q, 1.0)
    assert np.all((t[act] > 0) & (t[act] < d[act]))


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


def test_bcaa_round_cap_stops_early_with_budgets_exact(split12x4):
    sc, L, cfg = split12x4
    full = solve_bcaa(sc, L, cfg)
    assert full[2] > 2
    x, q, rounds = solve_bcaa(sc, L, cfg, max_rounds=2)
    assert rounds == 2
    assert x.sum() == pytest.approx(sc.bandwidth_hz, rel=cfg.bisect_tol)
    assert np.allclose(q.sum(axis=0), sc.compute_capacity, rtol=cfg.bisect_tol, atol=0)

    def energy(x, q):
        return total_energy(sc, Allocation(L, x, q), cfg.activity_threshold_bits)

    assert energy(x, q) >= energy(*full[:2])
    # a cap the solve does not reach changes nothing
    uncapped = solve_bcaa(sc, L, cfg, max_rounds=full[2] + 1)
    assert all(np.array_equal(a, b) for a, b in zip(uncapped, full))


def test_bcaa_unusable_warm_compute_falls_back_to_cold_start(split12x4):
    sc, L, cfg = split12x4
    cold = solve_bcaa(sc, L, cfg)
    d = np.broadcast_to(sc.deadlines_s[:, None], L.shape)
    usable = 0.5 * d
    assert not np.array_equal(solve_bcaa(sc, L, cfg, warm={"t": usable})[1], cold[1])
    # one active slack outside (0, deadline), or a slack of another shape
    unusable = [np.full((L.shape[0], L.shape[1] + 1), 0.1)]
    for bad in (0.0, -0.1, d[2, 1], 2.0 * d[2, 1], np.nan):
        t = usable.copy()
        t[2, 1] = bad
        unusable.append(t)
    for t in unusable:
        warm = solve_bcaa(sc, L, cfg, warm={"t": t})
        assert np.array_equal(warm[0], cold[0])
        assert np.array_equal(warm[1], cold[1])
        assert warm[2] == cold[2]


@pytest.fixture(scope="module")
def equal42():
    """The seed-42 8x4 scenario at D = 0.4 s under the equal data split."""
    sc = override_parameter(generate(GenParams(seed=42)), "deadline_s", 0.4)
    return sc, initialize(sc, InitStrategy.equal()), _cfg(sc)


@pytest.mark.parametrize("case", ["split12x4", "equal42"])
def test_warm_rebalance_after_a_data_step_beats_a_cold_one(case, request):
    # at fixed prices a pair's optimal slack does not depend on its load,
    # so the last slack is still a good start after the data step moves L
    sc, L, cfg = request.getfixturevalue(case)
    warm = {}
    x, q, _ = solve_bcaa(sc, L, cfg, warm=warm)
    L = solve_daa(sc, x, q, cfg)
    xw, qw, rw = solve_bcaa(sc, L, cfg, warm=warm)
    xc, qc, rc = solve_bcaa(sc, L, cfg)
    assert rw < rc

    def energy(x, q):
        return total_energy(sc, Allocation(L, x, q), cfg.activity_threshold_bits)

    assert energy(xw, qw) <= energy(xc, qc) * (1.0 + 10.0 * cfg.bisect_tol)


def test_caa_joint_search_equals_per_ap_searches(split12x4):
    sc, L, cfg = split12x4
    x, _, _ = solve_bcaa(sc, L, cfg)
    joint_diag = []
    with np.errstate(over="ignore"):
        q_cols, mus = _caa_joint(sc, x, L, [0, 1, 2, 3], cfg, joint_diag)
    t_cols = deadline_slack(sc.deadlines_s[:, None], sc.cycles_per_bit[:, None], L,
                            np.where(q_cols > 0, q_cols, np.inf))
    assert [r.dual.owner for r in joint_diag] == [0, 1, 2, 3]
    for j in range(4):
        diag = []
        t = solve_caa(sc, x, L, ap=j, cfg=cfg, diag=diag)
        assert np.array_equal(t, t_cols[:, j])
        assert diag[0].dual.value == mus[j] == joint_diag[j].dual.value
    assert np.allclose(q_cols.sum(axis=0), sc.compute_capacity, rtol=1e-12, atol=0)


def test_data_marginal_is_positive_and_increasing():
    L = np.linspace(0.0, 1.8, 50)
    g = data_marginal(L, 2.0, 2.0, 1.0, 1.0, 1.0)
    assert np.all(g > 0)
    assert np.all(np.diff(g) > 0)
    assert g[0] == pytest.approx(math.log(2.0), rel=1e-12)
