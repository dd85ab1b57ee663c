import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mecalloc import (
    Allocation,
    InfeasiblePairError,
    PairPoint,
    StructuralError,
    hessian_diag,
    min_power,
    pair_energy,
    partials,
    rate,
    total_energy,
)
from mecalloc import physics
from mecalloc.kkt import DUAL_RANGE

from util import (
    decimal_energy,
    decimal_hessian,
    fd_gradient,
    make_scenario,
    sample_points as _sample_points,
    scalar_energy,
)

LN2 = math.log(2.0)

# pinned at first build from the seed-42 scenario with everything split
# evenly; re-derived below against a plain-float reimplementation
EQUAL_SPLIT_ENERGY_J = 0.005782244980924429


def _point(L=1.0, x=1.0, q=None, t=None, d=1.0, eta=1.0, a=1.0):
    if t is not None:
        return PairPoint.from_slack(L, x, t, d, eta, a)
    return PairPoint(L, x, q, d, eta, a)


# --- rate -------------------------------------------------------------

def test_rate_unit_case_one_bit():
    assert rate(1.0, _point(q=2.0)) == pytest.approx(1.0)  # log2(2)


def test_rate_zero_power_zero_rate():
    assert rate(0.0, _point(q=2.0)) == 0.0


def test_rate_snr_three():
    assert rate(3.0, _point(q=2.0)) == pytest.approx(2.0)  # log2(4)


def test_rate_requires_positive_bandwidth():
    # a loaded point without bandwidth fails the pair rule at construction
    with pytest.raises(InfeasiblePairError, match="no bandwidth on loaded pair"):
        PairPoint(data_bits=1.0, bandwidth_hz=0.0, compute_cps=2.0, deadline_s=1.0,
                  cycles_per_bit=1.0, noise_over_gain=1.0)
    # an unloaded one builds, and rate checks its bandwidth itself
    p = PairPoint.from_slack(0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(StructuralError):
        rate(1.0, p)


def test_rate_rejects_negative_power():
    with pytest.raises(StructuralError):
        rate(-1.0, _point(q=2.0))


# --- min_power --------------------------------------------------------

def test_min_power_zero_data_costs_nothing():
    p = PairPoint.from_slack(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert min_power(p) == 0.0


def test_min_power_hand_value():
    # R_min = L/t = 2, so P = 2**2 - 1
    assert min_power(_point(L=2.0, t=1.0, d=2.0)) == pytest.approx(3.0)


def test_min_power_rate_inverse(scenario42, equal_allocation42):
    # the power is exactly the one whose rate meets L/t, so transmission
    # plus computation fills the deadline with no slack left over
    sc, al = scenario42, equal_allocation42
    for i, j in [(0, 0), (3, 2), (7, 1)]:
        p = PairPoint(al.data[i, j], al.bandwidth[i, j],
                      al.compute[i, j], sc.tasks[i].deadline_s,
                      sc.tasks[i].cycles_per_bit,
                      sc.noise_psd / sc.gains[i, j])
        r = rate(min_power(p), p)
        assert r == pytest.approx(p.data_bits / p.slack_s, rel=1e-9, abs=0)
        transmission = p.data_bits / r
        computing = p.cycles_per_bit * p.data_bits / p.compute_cps
        assert transmission + computing == pytest.approx(p.deadline_s, rel=1e-9, abs=0)


def test_min_power_rejects_nonpositive_slack():
    # eta*L/q = D leaves no slack: the point cannot be built, so min_power
    # never sees it
    with pytest.raises(InfeasiblePairError, match="nonpositive slack"):
        min_power(PairPoint(data_bits=1.0, bandwidth_hz=1.0, compute_cps=1.0, deadline_s=1.0,
                            cycles_per_bit=1.0, noise_over_gain=1.0))


# --- pair_energy ------------------------------------------------------

def test_pair_energy_zero_data():
    assert pair_energy(PairPoint.from_slack(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)) == 0.0


def test_pair_energy_hand_value():
    # x*t = 0.005 and exponent 20: 0.005 * (2**20 - 1) = 5242.875
    p = _point(L=0.1, x=0.1, q=1.0, d=0.1, eta=0.5)
    assert p.slack_s == pytest.approx(0.05)
    assert pair_energy(p) == pytest.approx(5242.875, rel=1e-12, abs=0)


def test_pair_energy_is_power_times_time():
    for p in _sample_points(50):
        e = pair_energy(p)
        pw = min_power(p)
        assert e == pytest.approx(pw * (p.data_bits / rate(pw, p)), rel=1e-9, abs=0)
        assert p.data_bits / rate(pw, p) == pytest.approx(p.slack_s, rel=1e-9, abs=0)


def test_pair_energy_monotone_in_bandwidth():
    base = dict(L=2.0, d=1.0, eta=1.0, a=1.0)
    last = math.inf
    for x in [0.5, 1.0, 2.0, 4.0, 8.0]:
        e = pair_energy(_point(x=x, t=0.5, **base))
        assert e <= last
        last = e


def test_pair_energy_monotone_grid():
    # increasing in data, decreasing in bandwidth and in slack
    for s in [1.0, 1.5, 2.0, 3.0]:
        assert pair_energy(_point(L=1.0 * s, x=1.0, t=0.5)) >= \
            pair_energy(_point(L=1.0 * s / 1.1, x=1.0, t=0.5))
        assert pair_energy(_point(L=2.0, x=1.0 * s, t=0.5)) <= \
            pair_energy(_point(L=2.0, x=1.0 * s / 1.1, t=0.5))
        assert pair_energy(_point(L=2.0, x=1.0, t=0.2 * s)) <= \
            pair_energy(_point(L=2.0, x=1.0, t=0.2 * s / 1.1))


def test_pair_energy_requires_positive_bandwidth():
    for x in (0.0, -1.0):
        with pytest.raises(InfeasiblePairError, match="no bandwidth on loaded pair"):
            pair_energy(PairPoint(data_bits=1.0, bandwidth_hz=x, compute_cps=2.0, deadline_s=1.0,
                                  cycles_per_bit=1.0, noise_over_gain=1.0))


def test_exponent_cap_rejects_degenerate_point():
    with pytest.raises(InfeasiblePairError):
        pair_energy(_point(L=2000.0, x=1.0, t=1.0, d=2.0))


# --- total_energy -----------------------------------------------------

def test_total_energy_zero_allocation(scenario42):
    K, M = scenario42.num_users, scenario42.num_aps
    alloc = Allocation(data=np.zeros((K, M)), bandwidth=np.zeros((K, M)),
                       compute=np.zeros((K, M)))
    assert total_energy(scenario42, alloc) == 0.0


def test_total_energy_single_pair_equals_pair_energy():
    sc = make_scenario([[0.5]], bits=1e3, deadline=1.0, eta=1.0,
                       bandwidth=1e4, capacities=4e3)
    alloc = Allocation(data=[[1e3]], bandwidth=[[1e4]], compute=[[4e3]])
    p = PairPoint(1e3, 1e4, 4e3, 1.0, 1.0, sc.noise_psd / 0.5)
    assert total_energy(sc, alloc) == pytest.approx(pair_energy(p), rel=1e-12, abs=0)


def test_total_energy_equal_split_regression(scenario42, equal_allocation42):
    e = total_energy(scenario42, equal_allocation42)
    assert e == pytest.approx(EQUAL_SPLIT_ENERGY_J, rel=1e-12, abs=0)
    # independent plain-float reimplementation
    sc, al = scenario42, equal_allocation42
    ref = 0.0
    for i in range(sc.num_users):
        for j in range(sc.num_aps):
            t = sc.tasks[i].deadline_s \
                - sc.tasks[i].cycles_per_bit * al.data[i, j] / al.compute[i, j]
            ref += scalar_energy(al.data[i, j], al.bandwidth[i, j], t,
                                 sc.noise_psd / sc.gains[i, j])
    assert e == pytest.approx(ref, rel=1e-12, abs=0)


def test_total_energy_flags_starved_pair():
    sc = make_scenario([[0.5]], bits=1e3, deadline=1.0, eta=1.0,
                       bandwidth=1e4, capacities=4e3)
    alloc = Allocation(data=[[1e3]], bandwidth=[[0.0]], compute=[[4e3]])
    with pytest.raises(InfeasiblePairError) as err:
        total_energy(sc, alloc)
    assert err.value.pair == (0, 0)
    # bandwidth and slack, but a rate exponent L/(x*t) past EXPONENT_CAP
    alloc = Allocation(data=[[1e3]], bandwidth=[[1e-3]], compute=[[4e3]])
    with pytest.raises(InfeasiblePairError, match="exponent overflow") as err:
        total_energy(sc, alloc)
    assert err.value.pair == (0, 0)


# --- partials ---------------------------------------------------------

def test_data_marginal_limit_at_zero_load():
    # dE/dL tends to noise_over_gain * ln 2 as the load vanishes
    g = partials(_point(L=1e-9, x=1.0, q=2.0)).d_dL
    assert g == pytest.approx(LN2, rel=1e-6, abs=0)


def test_bandwidth_partial_vanishes_for_huge_bandwidth():
    g = partials(_point(L=1.0, x=1e6, t=0.5)).d_dx
    assert -1e-9 < g < 0.0


def test_partial_signs_on_random_points():
    for p in _sample_points(200):
        g = partials(p)
        assert g.d_dL > 0.0
        assert g.d_dx <= 0.0
        assert g.d_dt <= 0.0


def test_partials_match_finite_differences():
    # the vectorised pair model the KKT roots evaluate, over all points at once
    points = _sample_points(1000)
    Lv, xv, qv, tv, dv, etav, av = np.array(
        [(p.data_bits, p.bandwidth_hz, p.compute_cps, p.slack_s, p.deadline_s,
          p.cycles_per_bit, p.noise_over_gain) for p in points]).T
    e = physics.energy(Lv / (xv * tv), xv, tv, av)
    phi = physics.bracket(Lv / (xv * tv) * LN2)
    d_dL = physics.data_marginal(Lv, xv, qv, dv, etav, av)
    d_dx, d_dt = av * tv * phi, av * xv * phi
    for k, p in enumerate(points):
        g = partials(p)
        assert e[k] == pytest.approx(pair_energy(p), rel=1e-12, abs=0)
        assert (d_dL[k], d_dx[k], d_dt[k]) == pytest.approx((g.d_dL, g.d_dx, g.d_dt),
                                                            rel=1e-12, abs=0)
        a, d, eta = p.noise_over_gain, p.deadline_s, p.cycles_per_bit
        fd_L = fd_gradient(
            lambda v: pair_energy(PairPoint(
                v[0], p.bandwidth_hz, p.compute_cps, d, eta, a)),
            [p.data_bits])[0]
        fd_x = fd_gradient(
            lambda v: pair_energy(PairPoint.from_slack(
                p.data_bits, v[0], p.slack_s, d, eta, a)),
            [p.bandwidth_hz])[0]
        fd_t = fd_gradient(
            lambda v: pair_energy(PairPoint.from_slack(
                p.data_bits, p.bandwidth_hz, v[0], d, eta, a)),
            [p.slack_s])[0]
        for value in (g.d_dL, d_dL[k]):
            assert value == pytest.approx(fd_L, rel=1e-5, abs=0)
        for value in (g.d_dx, d_dx[k]):
            assert value == pytest.approx(fd_x, rel=1e-5, abs=0)
        for value in (g.d_dt, d_dt[k]):
            assert value == pytest.approx(fd_t, rel=1e-5, abs=0)


def test_bracket_keeps_float64_resolution_at_small_exponents():
    # phi(z) = -sum_{n>=2} (n - 1)*z^n/n!, a sum of negative terms, is
    # exact to a few eps; an expm1 form cancels to 2.2e-16/z relative
    z = np.concatenate([np.logspace(-150, math.log10(0.5), 3001), [5.6e-17, 1e-3]])
    ref = -sum((n - 1) * z**n / math.factorial(n) for n in range(30, 1, -1))
    err = np.abs(physics.bracket(z) / ref - 1.0)
    assert err.max() <= 1e-15, (err.max(), z[np.argmax(err)])
    assert physics.bracket(np.array([0.0]))[0] == 0.0


def test_bracket_is_minus_infinity_once_the_exponential_overflows():
    # the slack root's sign test reads phi far past the exponent cap
    z = np.array([700.0, 709.5, 710.0, 1e4, np.inf])
    with np.errstate(over="ignore"):
        phi = physics.bracket(z)
    assert phi[0] < 0 and np.isfinite(phi[0])
    assert np.all(phi[1:] == -np.inf)


def test_partials_reject_boundary_points():
    with pytest.raises(StructuralError):
        partials(PairPoint.from_slack(0.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    # a compute that leaves no slack: t = D - eta*L/q is 0 at q = 1, -1 at
    # 0.5; the pair rule rejects such a point at construction
    for q in (1.0, 0.5):
        for derivative in (partials, lambda p: hessian_diag(p, "L_q")):
            with pytest.raises(InfeasiblePairError, match="nonpositive slack"):
                derivative(_point(L=1.0, x=1.0, q=q))


# --- hessian_diag -----------------------------------------------------

def _fd_block(p, pair):
    a, d, eta = (Decimal(v) for v in (p.noise_over_gain, p.deadline_s, p.cycles_per_bit))
    if pair == "L_x":
        q = Decimal(p.compute_cps)
        f = lambda v: decimal_energy(v[0], v[1], d - eta * v[0] / q, a)
        v0 = [p.data_bits, p.bandwidth_hz]
    elif pair == "L_q":
        x = Decimal(p.bandwidth_hz)
        f = lambda v: decimal_energy(v[0], x, d - eta * v[0] / v[1], a)
        v0 = [p.data_bits, p.compute_cps]
    else:
        L = Decimal(p.data_bits)
        f = lambda v: decimal_energy(L, v[0], v[1], a)
        v0 = [p.bandwidth_hz, p.slack_s]
    return np.array(decimal_hessian(f, v0))


@pytest.mark.parametrize("pair", ["L_x", "L_q", "x_t"])
def test_hessian_matches_finite_differences(pair):
    # entries go far below approx's default abs of 1e-12, so each is held to
    # a relative bound alone
    for p in _sample_points(60, seed=11):
        h = hessian_diag(p, pair)
        ref = _fd_block(p, pair)
        for r in range(2):
            for c in range(2):
                assert h.matrix[r, c] == pytest.approx(ref[r, c], rel=1e-9, abs=0), \
                    (pair, r, c, p)


def test_hessian_is_symmetric_and_det_consistent():
    for p in _sample_points(100, seed=3):
        for pair in ("L_x", "L_q", "x_t"):
            h = hessian_diag(p, pair)
            assert h.matrix[0, 1] == h.matrix[1, 0]
            assert h.determinant == pytest.approx(
                h.matrix[0, 0] * h.matrix[1, 1] - h.matrix[0, 1] * h.matrix[1, 0],
                rel=1e-12, abs=0)


def test_bandwidth_slack_block_positive_definite():
    for p in _sample_points(300, seed=5):
        h = hessian_diag(p, "x_t")
        assert h.matrix[0, 0] > 0.0
        assert h.matrix[1, 1] > 0.0
        assert h.determinant > 0.0


def test_single_variable_curvatures_positive():
    # each coordinate alone is convex on the interior
    for p in _sample_points(100, seed=13):
        assert hessian_diag(p, "L_x").matrix[0, 0] > 0.0  # data
        assert hessian_diag(p, "L_x").matrix[1, 1] > 0.0  # bandwidth
        assert hessian_diag(p, "L_q").matrix[1, 1] > 0.0  # compute
        assert hessian_diag(p, "x_t").matrix[1, 1] > 0.0  # slack


def test_hessian_finite_differences_at_probe_points():
    # the two fixed probe points exercised by the acceptance suite, where
    # the exponent is steep
    for point, pair in [
        (_point(L=0.1, x=0.1, q=1.0, d=0.1, eta=0.5), "L_x"),
        (_point(L=2.0, x=1.0, q=2.1, d=1.0, eta=1.0), "L_q"),
    ]:
        h = hessian_diag(point, pair)
        ref = _fd_block(point, pair)
        for r in range(2):
            for c in range(2):
                assert h.matrix[r, c] == pytest.approx(ref[r, c], rel=1e-9, abs=0)


def test_energy_derivatives_in_load_bandwidth_and_compute_match_central_differences():
    # the gradient and 3x3 Hessian the barrier method steps on, over all
    # points at once, against 60-digit central differences (the compute
    # partial is too small for float ones): each Hessian entry on the scale
    # of its diagonal. The Hessian is PSD, and singular along (L, x, q)
    # itself, where the energy is homogeneous of degree one
    points = _sample_points(60, seed=17)
    Lv, xv, qv, dv, etav, av = np.array(
        [(p.data_bits, p.bandwidth_hz, p.compute_cps, p.deadline_s, p.cycles_per_bit,
          p.noise_over_gain) for p in points]).T
    grad, hess = physics.energy_derivatives(Lv, xv, qv, dv, etav, av)
    for k, p in enumerate(points):
        A, D, E = (Decimal(v) for v in (p.noise_over_gain, p.deadline_s, p.cycles_per_bit))
        f = lambda v: decimal_energy(v[0], v[1], D - E * v[0] / v[2], A)
        v0 = [p.data_bits, p.bandwidth_hz, p.compute_cps]
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            fd = []
            for n, h in enumerate(Decimal("1e-15") * Decimal(c) for c in v0):
                up, down = [Decimal(c) for c in v0], [Decimal(c) for c in v0]
                up[n] += h
                down[n] -= h
                fd.append(float((f(up) - f(down)) / (2 * h)))
        assert grad[k] == pytest.approx(fd, rel=1e-12, abs=0), p
        ref = np.array(decimal_hessian(f, v0))
        scale = 1.0 / np.sqrt(np.diag(ref))
        assert np.abs((hess[k] - ref) * np.outer(scale, scale)).max() <= 1e-12, p
        unit = hess[k] * np.outer(scale, scale)
        assert np.allclose(unit, unit.T, rtol=0, atol=1e-15)
        assert abs(np.linalg.eigvalsh(unit)[0]) <= 1e-12, p


def test_hessian_blocks_are_read_off_the_barrier_hessian():
    # one Hessian of the pair energy: the blocks hold the very floats the
    # barrier method steps on, not a second derivation that agrees to rounding
    for p in _sample_points(200):
        L, q, eta = p.data_bits, p.compute_cps, p.cycles_per_bit
        (g,), (h,) = physics.energy_derivatives(*(np.array([v]) for v in (
            L, p.bandwidth_hz, q, p.deadline_s, eta, p.noise_over_gain)))
        for pair, j in (("L_x", 1), ("L_q", 2)):
            want = np.array([[h[0, 0], h[0, j]], [h[0, j], h[j, j]]])
            assert np.array_equal(hessian_diag(p, pair).matrix, want), (pair, p)
        # the slack enters through q = eta*L/(D - t), with dq/dt = q^2/(eta*L)
        q_t = q * q / (eta * L)
        want = np.array([[h[1, 1], h[1, 2] * q_t],
                         [h[1, 2] * q_t, (h[2, 2] + 2.0 * g[2] / q) * q_t**2]])
        assert np.array_equal(hessian_diag(p, "x_t").matrix, want), p


def test_hessian_rejects_unknown_pair():
    with pytest.raises(StructuralError):
        hessian_diag(_point(L=1.0, x=1.0, q=2.0), "q_t")


# --- joint convexity in (L, x, q) ----------------------------------------

def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda p: 10.0 ** p)


# one end of a segment: log10 of a load, a rate exponent u = L/(x*t) and a
# slack share t/D
_SEGMENT_END = st.tuples(st.floats(4.0, 7.0), st.floats(1e-4, 60.0),
                         st.floats(1e-4, 1.0 - 1e-4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ends=st.tuples(_SEGMENT_END, _SEGMENT_END), d=_decades(-2, 0), eta=_decades(0, 4),
       a=_decades(-18, -9))
def test_pair_energy_is_midpoint_convex_in_load_bandwidth_and_compute(ends, d, eta, a):
    # E(L, x, q) = L*phi(x/L, q/L) is the perspective of a convex phi, so E
    # is jointly convex: at 50 digits, E at the midpoint of a segment is at
    # most the mean of E at its ends, which match pair_energy in float64
    points = []
    for log_load, u, share in ends:
        L, t = 10.0 ** log_load, share * d
        points.append((L, L / (u * t), eta * L / (d - t)))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D, H, A = (Decimal(v) for v in (d, eta, a))

        def energy(L, x, q):
            return decimal_energy(L, x, D - H * L / q, A)

        at_ends = [energy(*map(Decimal, p)) for p in points]
        for p, e in zip(points, at_ends):
            assert pair_energy(PairPoint(*p, d, eta, a)) == pytest.approx(
                float(e), rel=1e-9, abs=0)
        mid = [(Decimal(u) + Decimal(v)) / 2 for u, v in zip(*points)]
        assert energy(*mid) <= (at_ends[0] + at_ends[1]) / 2 * (1 + Decimal("1e-40"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(z=st.one_of(st.just(0.0), _decades(-20, 3)))
def test_the_convexity_proofs_scalar_inequality_holds(z):
    # with z = ln2/w, det of phi's Hessian has the sign of
    # e^z*(2z^2 - z + 1) - 1, which is 0 at z = 0 and rises with z
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        z = Decimal(z)
        assert z.exp() * (2 * z * z - z + 1) >= 1


# --- bandwidth root and price oracle -------------------------------------

def test_exponent_root_meets_its_equation_over_every_decade():
    # the Newton steps in ln z polish every root, down to c = 1e-12;
    # -bracket(z) = z*e^z*kappa(z) then meets c to a
    # few eps*c*(1 + z), the rounding of e^z at z = ln c. The first bound
    # binds at large c, the second at small c, where c ~ z^2/2
    c = np.concatenate([np.logspace(-12, 250, 2000), np.linspace(1e-3, 30.0, 500)])
    z = physics.exponent_root(c)
    assert np.all(z > 0)
    resid = np.abs(physics.bracket(z) + c)
    eps = np.finfo(float).eps
    assert np.all(resid <= 8.0 * eps * z * (1.0 + c))
    assert np.all(resid <= 64.0 * eps * c * (1.0 + z))
    assert np.any(c < 1e-9)


def test_exponent_root_is_accurate_to_float64_resolution_at_small_roots():
    # c = (z - 1)*e^z + 1 = sum_{n>=2} (n - 1)*z^n/n!, a sum of positive
    # terms, is exact to a few eps; the root must give z back to 4e-15,
    # which the unpolished branch-point series misses below c = 1e-9
    z = np.logspace(-5, 0, 1001)
    c = sum((n - 1) * z**n / math.factorial(n) for n in range(30, 1, -1))
    err = np.abs(physics.exponent_root(c) / z - 1.0)
    assert err.max() <= 4e-15, (err.max(), z[np.argmax(err)])


def _grid_exponents(beta, a, t):
    """z solving -bracket(z) = beta/(a*t), by plain bisection on log z."""
    c = beta / (a * t)
    lo, hi = np.full(c.shape, -40.0), np.full(c.shape, math.log(700.0))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        right = -physics.bracket(np.exp(mid)) < c
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return np.exp(0.5 * (lo + hi))


def test_price_oracle_matches_a_fine_slack_grid():
    # the cheapest cost per bit a*ln2*e^z + mu*eta/(D - t), minimised over
    # a 4,000-point grid of slacks: no grid point is cheaper than the
    # oracle, and the oracle's slack lies within one grid step of the
    # grid's best
    rng = np.random.Generator(np.random.PCG64(11))
    n = 40
    a = 10.0 ** rng.uniform(-18, -12, n)
    d = rng.uniform(0.2, 1.0, n)
    eta = np.full(n, 1e3)
    beta = 10.0 ** rng.uniform(-14, 0, n)
    # the compute price that puts the minimiser at a drawn interior slack
    t_star = d * rng.uniform(0.05, 0.95, n)
    mu = beta * LN2 * (d - t_star) ** 2 / (eta * t_star ** 2
                                          * _grid_exponents(beta, a, t_star))
    e, t, per_bit = physics.price_oracle(beta, mu, d, eta, a)
    frac = np.linspace(0.0, 1.0, 4002)[1:-1]
    tg = d[:, None] * frac
    zg = _grid_exponents(beta[:, None], a[:, None], tg)
    eg = a[:, None] * LN2 * np.exp(zg) + (mu * eta)[:, None] / (d[:, None] - tg)
    best = np.argmin(eg, axis=1)
    assert np.all((best > 0) & (best < frac.size - 1))
    assert np.all(e <= eg.min(axis=1) * (1.0 + 1e-12))
    assert np.all(np.abs(t - tg[np.arange(n), best]) <= d * (frac[1] - frac[0]))
    z = _grid_exponents(beta, a, t)
    assert per_bit == pytest.approx(LN2 / (t * z), rel=1e-9, abs=0)


def test_price_oracle_at_a_near_zero_compute_price_leaks_no_overflow_warning():
    # beta*ln2/(mu*eta) overflows here, and only feeds the slack search's
    # sign test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, t, _ = physics.price_oracle(1e40, np.array([1e-280]), np.array([0.4]),
                                       np.array([1e3]), np.array([1e-8]))
    assert np.isfinite(e[0])
    assert 0.0 < t[0] <= 0.4


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(beta=_decades(-40, 40), mu=st.one_of(_decades(-40, 40), st.just(DUAL_RANGE[0])),
       a=_decades(-25, 5), d=_decades(-3, 1), eta=_decades(0, 4))
# the stationary rate exponent is about 1e-17 here, where bracket(z) ~ -z^2/2
# cancels to 0, so a slack read off z as beta/(a*-bracket(z)) runs to -inf
@example(beta=1.9e-37, mu=DUAL_RANGE[0], a=1.0, d=1.77e-2, eta=4.2e3)
def test_price_oracle_is_a_valid_point_no_slack_undercuts(beta, mu, a, d, eta):
    # over prices spanning 80 decades the oracle's slack stays inside the
    # deadline, and none of about 6,000 slacks, log-spaced toward both ends
    # of the slack bracket, costs less per bit
    e, t, per_bit = physics.price_oracle(beta, mu, d, eta, a)
    assert 0.0 < t < d
    assert np.isfinite(per_bit) and per_bit > 0.0
    assert np.isfinite(e)
    frac = np.geomspace(physics.SLACK_BRACKET[0], 0.5, 3000)
    tg = d * np.concatenate([frac, 1.0 - frac[::-1]])
    eg = a * LN2 * np.exp(physics.exponent_root(beta / (a * tg))) + mu * eta / (d - tg)
    assert e <= eg.min() * (1.0 + 1e-12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(beta=_decades(-40, 40), mu=st.one_of(_decades(-40, 40), st.just(DUAL_RANGE[0])),
       a=_decades(-25, 5), d=_decades(-3, 1), eta=_decades(0, 4))
def test_price_oracle_returns_the_stationary_slack_and_its_bandwidth(beta, mu, a, d, eta):
    # the slack is interior, the bandwidth per bit is the bandwidth root's
    # at that slack, no slack 1e-6 away costs less per bit, and the slack
    # meets its stationarity condition z*t^2/(D - t)^2 = beta*ln2/(mu*eta)
    e, t, per_bit = physics.price_oracle(beta, mu, d, eta, a)
    assert 0.0 < t < d
    z = physics.exponent_root(beta / (a * t))
    assert per_bit == pytest.approx(LN2 / (t * z), rel=1e-12, abs=0)
    for near in (t * (1.0 - 1e-6), t * (1.0 + 1e-6)):
        if near < d:
            cost = a * LN2 * np.exp(physics.exponent_root(beta / (a * near))) \
                + mu * eta / (d - near)
            assert e <= cost * (1.0 + 1e-12)
    # the condition holds where its root is inside the slack bracket, not
    # at its lower edge. Within 1e-3*D of the deadline it is too
    # ill-conditioned for 1e-9: its slope in ln t, 2D/(D - t), turns the
    # slack resolution of 5e-14 into more than 1e-10
    if t > 2.0 * physics.SLACK_BRACKET[0] * d and d - t >= 1e-3 * d:
        assert z * t * t / (d - t) ** 2 == pytest.approx(beta * LN2 / (mu * eta), rel=1e-9, abs=0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(beta=_decades(-40, 40), mu=st.one_of(_decades(-40, 40), st.just(DUAL_RANGE[0])),
       a=_decades(-25, 5), d=_decades(-3, 1), eta=_decades(0, 4))
# the stationary rate exponent is about 8e-13 here; a slack search whose
# test evaluates bracket(z) ~ -z^2/2 misses the condition by 3e-5
@example(beta=1e-25, mu=1e-20, a=1.0, d=0.3, eta=1e3)
def test_price_oracle_slack_is_stationary_at_every_rate_exponent(beta, mu, a, d, eta):
    # z*t^2/(D - t)^2 = beta*ln2/(mu*eta) wherever the slack is inside the
    # slack bracket and at least 1e-3*D from the deadline, however small
    # the stationary exponent z is
    _, t, _ = physics.price_oracle(beta, mu, d, eta, a)
    if t > 2.0 * physics.SLACK_BRACKET[0] * d and d - t >= 1e-3 * d:
        z = physics.exponent_root(beta / (a * t))
        # no absolute tolerance: the ratio is often far below approx's 1e-12
        ratio = beta * LN2 / (mu * eta)
        assert z * t * t / (d - t) ** 2 == pytest.approx(ratio, rel=1e-9, abs=0.0)
