import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecalloc import (
    Allocation,
    InfeasibilityError,
    InfeasiblePairError,
    PairPoint,
    Scenario,
    SolveConfig,
    StructuralError,
    TaskSpec,
    allocation_from_dict,
    allocation_to_dict,
    hessian_diag,
    scenario_from_dict,
    scenario_to_dict,
    solve_caa,
    solve_fixed_data,
    validate,
)
from mecalloc.model import (
    EXPONENT_CAP,
    ValidationReport,
    Violation,
    budget_residuals,
    check_pairs,
    pair_fault,
)
from mecalloc.physics import energy_matrix, pair_energy
from mecalloc.scenario import override_parameter

from util import make_scenario, scalar_energy_q


def test_taskspec_rejects_nonpositive_fields():
    with pytest.raises(StructuralError):
        TaskSpec(input_bits=0.0, deadline_s=0.5, cycles_per_bit=1e3)
    with pytest.raises(StructuralError):
        TaskSpec(input_bits=1e6, deadline_s=-1.0, cycles_per_bit=1e3)


def test_taskspec_required_cycles_is_derived():
    t = TaskSpec(input_bits=1.5e6, deadline_s=0.5, cycles_per_bit=1e3)
    assert t.required_cycles == 1.5e9


def test_scenario_rejects_bad_gains():
    with pytest.raises(StructuralError):
        make_scenario([[1.0, 0.0]], 1e6, 0.5, 1e3, 1e7, 1e10)
    with pytest.raises(StructuralError):
        make_scenario([[1.0, np.nan]], 1e6, 0.5, 1e3, 1e7, 1e10)


def test_scenario_rejects_shape_mismatch():
    with pytest.raises(StructuralError):
        Scenario(num_users=2, num_aps=2, gains=[[1.0, 1.0]],
                 tasks=(TaskSpec(1e6, 0.5, 1e3),) * 2,
                 bandwidth_hz=1e7, compute_capacity=[1e10, 1e10],
                 noise_psd=1e-20)


def _one_pair_scenario(**changes):
    fields = dict(num_users=1, num_aps=1, gains=[[1.0]], tasks=(TaskSpec(1e6, 0.5, 1e3),),
                  bandwidth_hz=1e7, compute_capacity=[1e10], noise_psd=1e-20)
    return Scenario(**dict(fields, **changes))


@pytest.mark.parametrize("changes", [
    dict(num_users=0, gains=np.ones((0, 1)), tasks=()),
    dict(num_aps=0, gains=np.ones((1, 0)), compute_capacity=[]),
    dict(tasks=(TaskSpec(1e6, 0.5, 1e3),) * 2),
    dict(compute_capacity=[1e10, 1e10]), dict(compute_capacity=[0.0]),
    dict(compute_capacity=[np.inf]), dict(compute_capacity=[np.nan]),
    dict(bandwidth_hz=0.0), dict(bandwidth_hz=-1e7), dict(bandwidth_hz=np.inf),
    dict(noise_psd=0.0), dict(noise_psd=np.nan),
], ids=["no-users", "no-aps", "task-count", "capacity-shape", "capacity-zero",
        "capacity-inf", "capacity-nan", "bandwidth-zero", "bandwidth-negative",
        "bandwidth-inf", "noise-zero", "noise-nan"])
def test_scenario_rejects_bad_sizes_and_budgets(changes):
    _one_pair_scenario()  # the unchanged fields are valid
    with pytest.raises(StructuralError):
        _one_pair_scenario(**changes)


def test_allocation_rejects_shape_mismatch():
    with pytest.raises(StructuralError, match="disagree in shape"):
        Allocation(data=[[1.0, 1.0]], bandwidth=[[1.0]], compute=[[1.0, 1.0]])


def test_allocation_rejects_negative_entries():
    with pytest.raises(StructuralError):
        Allocation(data=[[-1.0]], bandwidth=[[1.0]], compute=[[1.0]])


def test_single_pair_full_allocation_validates():
    # the only user gets all bandwidth and all compute, C > eta*L/D
    sc = make_scenario([[1.0]], bits=1e3, deadline=1.0, eta=1.0,
                       bandwidth=1e4, capacities=1e4)
    alloc = Allocation(data=[[1e3]], bandwidth=[[1e4]], compute=[[1e4]])
    cfg = SolveConfig.for_scenario(sc)
    assert validate(sc, alloc, cfg).ok


def test_zero_slack_is_reported():
    # compute exactly eta*L/D puts the pair on the t = 0 boundary
    sc = make_scenario([[1.0]], bits=1e3, deadline=1.0, eta=1.0,
                       bandwidth=1e4, capacities=2e3)
    alloc = Allocation(data=[[1e3]], bandwidth=[[1e4]], compute=[[1e3]])
    report = validate(sc, alloc, cfg=SolveConfig.for_scenario(sc))
    assert not report.ok
    assert any(v.constraint == "nonpositive slack" and v.where == (0, 0)
               for v in report.violations)


def test_validate_rejects_an_allocation_of_another_shape(scenario42, cfg42):
    alloc = Allocation(data=np.ones((2, 2)), bandwidth=np.ones((2, 2)),
                       compute=np.ones((2, 2)))
    with pytest.raises(StructuralError, match="does not match scenario"):
        validate(scenario42, alloc, cfg42)


@pytest.mark.parametrize("capacity,bandwidth,compute,constraint,residual", [
    # eta*L/D equals the only AP's capacity
    (1e3, 1e4, 2e3, "aggregate compute demand exceeds capacity", 0.0),
    (2e3, 1e4, 0.0, "no compute on loaded pair", 1.0),
    (2e3, 0.0, 2e3, "no bandwidth on loaded pair", 1.0),
    # u = L/(x*t) = 1e3 / (0.1 * 0.5) = 2e4 bits per Hz-second
    (2e3, 0.1, 2e3, "rate exponent overflow", 2e4 / EXPONENT_CAP - 1.0),
], ids=["aggregate-demand", "no-compute", "no-bandwidth", "exponent-overflow"])
def test_pair_and_demand_violations_are_reported(capacity, bandwidth, compute,
                                                 constraint, residual):
    sc = make_scenario([[1.0]], bits=1e3, deadline=1.0, eta=1.0,
                       bandwidth=1e4, capacities=capacity)
    alloc = Allocation(data=[[1e3]], bandwidth=[[bandwidth]], compute=[[compute]])
    report = validate(sc, alloc, SolveConfig.for_scenario(sc))
    hits = [v for v in report.violations if v.constraint == constraint]
    assert len(hits) == 1
    assert hits[0].residual == pytest.approx(residual, rel=1e-12, abs=1e-15)
    assert str(hits[0]) in str(report).splitlines()


def test_report_and_violation_text():
    assert str(ValidationReport()) == "all constraints satisfied"
    pair = Violation("no compute on loaded pair", (0, 2), 1.0)
    total = Violation("budget equality bandwidth", (), 0.5)
    assert str(pair) == "no compute on loaded pair[0, 2]: residual 1.000e+00"
    assert str(total) == "budget equality bandwidth[]: residual 5.000e-01"
    assert str(ValidationReport((pair, total))) == f"{pair}\n{total}"


def test_equal_split_default_scenario_validates(scenario42, cfg42,
                                                equal_allocation42):
    assert validate(scenario42, equal_allocation42, cfg42).ok


def test_validate_is_pure(scenario42, cfg42, equal_allocation42):
    first = validate(scenario42, equal_allocation42, cfg42)
    second = validate(scenario42, equal_allocation42, cfg42)
    assert first == second


def test_budget_violations_carry_residuals(scenario42, cfg42, equal_allocation42):
    bad = Allocation(data=equal_allocation42.data,
                     bandwidth=equal_allocation42.bandwidth * 0.5,
                     compute=equal_allocation42.compute)
    report = validate(scenario42, bad, cfg42)
    hits = [v for v in report.violations if "bandwidth" in v.constraint]
    assert hits and abs(hits[0].residual - 0.5) < 1e-12


def test_ap_overload_is_reported():
    # both users pinned to AP 0 demand more cycles than it has
    sc = make_scenario([[1.0, 1.0], [1.0, 1.0]], bits=1e3, deadline=1.0,
                       eta=1.0, bandwidth=1e4, capacities=1.5e3)
    alloc = Allocation(data=[[1e3, 0.0], [1e3, 0.0]],
                       bandwidth=[[5e3, 0.0], [5e3, 0.0]],
                       compute=[[7.5e2, 0.0], [7.5e2, 0.0]])
    report = validate(sc, alloc, SolveConfig.for_scenario(sc))
    assert any(v.constraint == "ap compute overload" for v in report.violations)


# the fault a broken active pair shows first: its compute decides before its
# bandwidth, and a broken compute of 1e-9 leaves a negative slack
_COMPUTE_FAULTS = {"zero": "no compute on loaded pair", "tiny": "nonpositive slack"}
_BANDWIDTH_FAULTS = {"zero": "no bandwidth on loaded pair", "tiny": "rate exponent overflow"}


@st.composite
def _pair_allocations(draw):
    """A scenario of at most 3 x 3 pairs, an allocation of it and the pair
    faults the draw put in, as [((i, j), constraint)] in row-major order.

    Each load is 0, a crumb below the activity threshold, the threshold,
    just above it or a share of its task. An active pair gets the compute
    that leaves a drawn share of its deadline as slack, and the bandwidth
    of a drawn rate exponent u in [0.01, 30], where the plain 2**u - 1
    resolves its energy to 1e-12. When the draw breaks pairs, an active
    pair's compute or bandwidth may then be scaled to 0 or to 1e-9.
    """
    K, M = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bits = draw(st.lists(st.floats(1e3, 1e6), min_size=K, max_size=K))
    deadlines = draw(st.lists(st.floats(0.1, 1.0), min_size=K, max_size=K))
    gains = draw(st.lists(st.floats(0.1, 10.0), min_size=K * M, max_size=K * M))
    sc = make_scenario(np.reshape(gains, (K, M)), bits, deadlines, 1e3, 1e7, 1e10)
    thr, eta = sc.activity_threshold_bits, 1e3
    kinds = ("own", "own", "zero", "tiny") if draw(st.booleans()) else ("own",)
    scale = {"own": 1.0, "zero": 0.0, "tiny": 1e-9}
    L, x, q = np.zeros((3, K, M))
    faults = []
    for i, j in itertools.product(range(K), range(M)):
        share = st.floats(0.01, 1.0).map(lambda f: bits[i] * f)
        L[i, j] = draw(st.one_of(
            st.just(0.0), st.floats(0.0, 0.999).map(lambda f: thr * f), st.just(thr),
            st.floats(1e-12, 1e-6).map(lambda f: thr * (1.0 + f)), share, share))
        if L[i, j] <= thr:
            x[i, j] = draw(st.sampled_from((0.0, 1.0, 1e6)))
            q[i, j] = draw(st.sampled_from((0.0, 1e9)))
            continue
        q[i, j] = eta * L[i, j] / (deadlines[i] * (1.0 - draw(st.floats(0.05, 0.95))))
        slack = deadlines[i] - eta * L[i, j] / q[i, j]
        x[i, j] = L[i, j] / (draw(st.floats(0.01, 30.0)) * slack)
        on_q, on_x = draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))
        q[i, j] *= scale[on_q]
        x[i, j] *= scale[on_x]
        if fault := _COMPUTE_FAULTS.get(on_q) or _BANDWIDTH_FAULTS.get(on_x):
            faults.append(((i, j), fault))
    return sc, Allocation(data=L, bandwidth=x, compute=q), faults


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_pair_allocations())
def test_energy_matrix_raises_iff_validate_reports_a_pair_fault(instance):
    sc, alloc, drawn = instance
    report = validate(sc, alloc, SolveConfig())
    faults = [(v.where, v.constraint) for v in report.violations if len(v.where) == 2]
    assert faults == drawn
    try:
        e = energy_matrix(sc, alloc.data, alloc.bandwidth, alloc.compute)
    except InfeasiblePairError as err:
        assert faults and err.pair == faults[0][0] and faults[0][1] in str(err)
        return
    assert not faults
    for (i, j), energy in np.ndenumerate(e):
        if alloc.data[i, j] > sc.activity_threshold_bits:
            ref = scalar_energy_q(alloc.data[i, j], alloc.bandwidth[i, j], alloc.compute[i, j],
                                  sc.tasks[i].deadline_s, sc.tasks[i].cycles_per_bit,
                                  sc.noise_psd / sc.gains[i, j])
            assert energy == pytest.approx(ref, rel=1e-12, abs=0)
        else:
            assert energy == 0.0


def test_a_report_lists_pair_faults_of_every_kind_and_an_overloaded_ap():
    # AP 1 carries 4 x 500 bits at D = 1 s and eta = 1 against 1500 cycles/s,
    # each of its pairs failing one rule in turn; AP 0 and every budget hold
    sc = make_scenario(np.ones((4, 2)), bits=1e3, deadline=1.0, eta=1.0,
                       bandwidth=1e4, capacities=[4e3, 1.5e3])
    alloc = Allocation(data=np.full((4, 2), 500.0),
                       bandwidth=[[2e3, 1e3], [2e3, 999.5], [2e3, 0.0], [2e3, 0.5]],
                       compute=[[1e3, 0.0], [1e3, 250.0], [1e3, 625.0], [1e3, 625.0]])
    assert validate(sc, alloc, SolveConfig()) == ValidationReport((
        Violation("no compute on loaded pair", (0, 1), 1.0),
        Violation("nonpositive slack", (1, 1), 1.0),  # t = 1 - 500/250
        Violation("no bandwidth on loaded pair", (2, 1), 1.0),
        Violation("rate exponent overflow", (3, 1),
                  500.0 / (0.5 * (1.0 - 500.0 / 625.0)) / EXPONENT_CAP - 1.0),
        Violation("ap compute overload", (1,), 2e3 / 1.5e3 - 1.0),
    ))
    with pytest.raises(InfeasiblePairError, match="no compute on loaded pair") as err:
        energy_matrix(sc, alloc.data, alloc.bandwidth, alloc.compute)
    assert err.value.pair == (0, 1)


@pytest.mark.parametrize("load", [0.005, 0.0095, 0.0105, 0.011, 0.012])
def test_the_least_load_rule_agrees_across_its_users(load):
    # AP 1 serves 0.011 cycles/s at eta = 1 and D = 1 s. User 0 puts `load`
    # bits on it and users 1 and 2 a crumb each at the activity threshold,
    # 1e-3 bits. Crumbs count for nothing: with them, the loads 0.0095 and
    # 0.0105 would reach the capacity
    sc = make_scenario(np.ones((3, 2)), bits=1e3, deadline=1.0, eta=1.0,
                       bandwidth=1e4, capacities=[1e4, 0.011])
    crumb = sc.activity_threshold_bits
    L = np.array([[1e3 - load, load], [1e3 - crumb, crumb], [1e3 - crumb, crumb]])
    x, cfg = np.full((3, 2), 1e4 / 6), SolveConfig()
    report = validate(sc, Allocation(data=L, bandwidth=x, compute=np.ones((3, 2))), cfg)
    over = [v.where for v in report.violations if v.constraint == "ap compute overload"]
    assert over == ([(1,)] if load >= 0.011 else [])

    def overloaded_ap(solve):
        try:
            solve()
        except InfeasibilityError as exc:
            return exc.ap
        return None

    expected = 1 if over else None
    assert overloaded_ap(lambda: solve_fixed_data(sc, L, cfg)) == expected
    assert overloaded_ap(lambda: solve_caa(sc, x, L, 1, cfg)) == expected


def test_scenario_json_roundtrip(scenario42):
    doc = json.loads(json.dumps(scenario_to_dict(scenario42)))
    back = scenario_from_dict(doc)
    assert np.allclose(back.gains, scenario42.gains, rtol=1e-12, atol=0)
    assert back.tasks == scenario42.tasks
    assert back.bandwidth_hz == scenario42.bandwidth_hz
    assert np.allclose(back.compute_capacity, scenario42.compute_capacity,
                       rtol=1e-12, atol=0)


def test_scenario_task_columns_are_derived_read_only():
    sc = Scenario(num_users=2, num_aps=1, gains=[[1.0], [0.5]],
                  tasks=(TaskSpec(1e6, 0.5, 1e3), TaskSpec(2e6, 0.8, 2e3)),
                  bandwidth_hz=1e7, compute_capacity=[1e10], noise_psd=1e-20)
    assert sc.task_bits.tolist() == [t.input_bits for t in sc.tasks]
    assert sc.deadlines_s.tolist() == [t.deadline_s for t in sc.tasks]
    assert sc.cycles_per_bit.tolist() == [t.cycles_per_bit for t in sc.tasks]
    assert sc.noise_over_gain.tolist() == [[1e-20], [2e-20]]
    for name in ("task_bits", "deadlines_s", "cycles_per_bit", "noise_over_gain"):
        with pytest.raises(ValueError):
            getattr(sc, name)[0] = 1.0
    # the activity threshold is 1e-6 of the smallest task, and follows it
    assert sc.activity_threshold_bits == 1e-6 * 1e6
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.activity_threshold_bits = 0.0
    assert override_parameter(sc, "task_bits", 4e6).activity_threshold_bits == 1e-6 * 4e6
    doc = scenario_to_dict(sc)
    assert not {"task_bits", "deadlines_s", "cycles_per_bit", "noise_over_gain",
                "activity_threshold_bits"} & set(doc)
    back = scenario_from_dict(json.loads(json.dumps(doc)))
    assert back.task_bits.tolist() == sc.task_bits.tolist()
    assert back.activity_threshold_bits == sc.activity_threshold_bits

    # equality compares the records, not the columns derived from them
    a = make_scenario([[1.0]], 1e6, 0.5, 1e3, 1e7, 1e10)
    b = make_scenario([[1.0]], 1e6, 0.5, 1e3, 1e7, 1e10)
    object.__setattr__(b, "task_bits", np.array([7.0]))
    object.__setattr__(b, "activity_threshold_bits", 7.0)
    assert a == b
    assert "task_bits" not in repr(a) and "activity_threshold_bits" not in repr(a)


def test_array_records_compare_by_value(scenario42, equal_allocation42):
    copy = dataclasses.replace(scenario42)
    assert copy.gains is not scenario42.gains
    assert copy == scenario42 and scenario42 in [copy]
    gains = scenario42.gains.copy()
    gains[5, 2] *= 1.5
    other = dataclasses.replace(scenario42, gains=gains)
    assert other != scenario42 and scenario42 not in [other]
    with pytest.raises(TypeError):
        hash(scenario42)

    alloc = dataclasses.replace(equal_allocation42)
    assert alloc == equal_allocation42
    data = equal_allocation42.data.copy()
    data[0, 0] *= 1.5
    assert dataclasses.replace(equal_allocation42, data=data) != equal_allocation42

    point = PairPoint(1e3, 1e4, 2e3, 1.0, 1.0, 1e-3)
    assert hessian_diag(point, "x_t") == hessian_diag(point, "x_t")
    assert hessian_diag(point, "x_t") != hessian_diag(point, "L_x")


def test_allocation_json_roundtrip(equal_allocation42):
    doc = json.loads(json.dumps(allocation_to_dict(equal_allocation42)))
    back = allocation_from_dict(doc)
    for name in ("data", "bandwidth", "compute"):
        assert np.allclose(getattr(back, name), getattr(equal_allocation42, name),
                           rtol=1e-12, atol=0)


def test_pairpoint_from_compute_derives_slack():
    p = PairPoint(data_bits=1e3, bandwidth_hz=1e4, compute_cps=2e3,
                  deadline_s=1.0, cycles_per_bit=1.0,
                  noise_over_gain=1.0)
    assert p.slack_s == pytest.approx(0.5)


def test_pairpoint_from_slack_derives_compute():
    p = PairPoint.from_slack(data_bits=1e3, bandwidth_hz=1e4, slack_s=0.5,
                             deadline_s=1.0, cycles_per_bit=1.0,
                             noise_over_gain=1.0)
    assert p.compute_cps == pytest.approx(2e3)


def test_pairpoint_zero_data_requires_full_slack():
    # an unloaded point's slack is its deadline, whatever its compute
    for q in (0.0, 1e-300, 1.0, math.inf):
        p = PairPoint(data_bits=0.0, bandwidth_hz=1.0, compute_cps=q, deadline_s=1.0,
                      cycles_per_bit=1.0, noise_over_gain=1.0)
        assert p.slack_s == p.deadline_s
    for t in (0.4, 1.0):
        p = PairPoint.from_slack(data_bits=0.0, bandwidth_hz=1.0, slack_s=t,
                                 deadline_s=1.0, cycles_per_bit=1.0,
                                 noise_over_gain=1.0)
        assert p.slack_s == p.deadline_s


def test_pairpoint_rejects_bad_fields():
    base = dict(data_bits=1e3, bandwidth_hz=1e4, deadline_s=1.0, cycles_per_bit=1.0,
                noise_over_gain=1.0)
    assert PairPoint(compute_cps=2e3, **base).slack_s == pytest.approx(0.5)
    for q in (0.0, -2e3):
        with pytest.raises(InfeasiblePairError, match="no compute on loaded pair"):
            PairPoint(compute_cps=q, **base)
    # a loaded pair needs a positive slack, and beyond the deadline the
    # compute is negative; t = D itself is the slack of infinite compute
    for t in (0.0, -0.1, 1.5):
        with pytest.raises(InfeasiblePairError):
            PairPoint.from_slack(slack_s=t, **base)
    # a zero slack misses by +0, not by a -0 that reads as met
    fault = pair_fault(1e3, 0.0, 1e4, 0.1, 1.0)
    assert fault == ("nonpositive slack", 0.0) and math.copysign(1.0, fault[1]) == 1.0
    with pytest.raises(InfeasiblePairError, match="residual 0$"):
        PairPoint.from_slack(slack_s=0.0, **base)
    for name, bad in (("data_bits", -1.0), ("deadline_s", 0.0), ("deadline_s", -1.0),
                      ("cycles_per_bit", 0.0), ("noise_over_gain", 0.0),
                      ("noise_over_gain", -1.0)):
        with pytest.raises(StructuralError):
            PairPoint(compute_cps=2e3, **dict(base, **{name: bad}))


def test_pairpoint_fields_must_be_finite():
    base = dict(data_bits=1e3, bandwidth_hz=1e4, compute_cps=2e3, deadline_s=1.0,
                cycles_per_bit=1.0, noise_over_gain=1.0)
    for name in base:
        for bad in (math.nan, math.inf, -math.inf):
            if name == "compute_cps" and bad == math.inf:
                continue
            with pytest.raises(StructuralError):
                PairPoint(**dict(base, **{name: bad}))
    # a nan load used to build, and its energy was nan
    with pytest.raises(StructuralError):
        PairPoint(math.nan, 1.0, 1.0, 1.0, 1.0, 1.0)
    # infinite compute leaves the whole deadline
    assert PairPoint(1e3, 1e4, math.inf, 1.0, 1.0, 1.0).slack_s == 1.0


def _edge_or(draw, sized):
    """0, -1 or 1e-9 in about one draw of four, else a sized value."""
    return draw(st.sampled_from([0.0, -1.0, 1e-9]) if draw(st.integers(0, 3)) == 0 else sized)


@st.composite
def _loaded_pairs(draw):
    """A loaded pair (L, x, q, D, eta, h) on either side of each clause of
    the pair rule: compute and bandwidth zero, negative, 1e-9 or sized,
    slack of either sign and rate exponents on either side of the cap."""
    L, d = draw(st.floats(1e3, 1e7)), draw(st.floats(0.05, 2.0))
    eta, gain = draw(st.floats(1.0, 1e4)), draw(st.floats(1e-13, 1e-7))
    # 0.5..4 times the least compute eta*L/D leaves a slack of either sign
    q = _edge_or(draw, st.floats(0.5, 4.0).map(lambda r: r * eta * L / d))
    t = d - eta * L / q if q > 0 else d
    u = draw(st.floats(0.5, 2.0).map(lambda r: r * EXPONENT_CAP)
             | st.floats(-3.0, 3.0).map(lambda v: 10.0 ** v))
    x = _edge_or(draw, st.just(L / (max(abs(t), 1e-9 * d) * u)))
    return L, x, q, d, eta, gain


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_loaded_pairs())
def test_pair_points_and_allocations_share_one_pair_rule(pair):
    L, x, q, d, eta, gain = pair
    sc = make_scenario([[gain]], L, d, eta, 1e7, 1e10, noise=4e-21)
    cell = [np.array([[v]]) for v in (L, x, q)]
    _, slack, _, faults = check_pairs(sc, *cell)
    a = float(sc.noise_over_gain[0, 0])
    point = lambda: PairPoint(L, x, q, d, eta, a)
    if faults:
        ((_, constraint, _),) = faults
        with pytest.raises(InfeasiblePairError, match=f"^{constraint},"):
            point()
    else:
        p = point()
        assert p.slack_s == slack[0, 0]
        assert pair_energy(p) == energy_matrix(sc, *cell)[0, 0]
        # the compute that from_slack derives leaves the same slack
        back = PairPoint.from_slack(L, x, p.slack_s, d, eta, a).slack_s
        assert abs(back - p.slack_s) <= 4 * np.finfo(float).eps * d


def test_pairpoint_from_slack_at_the_deadline_is_infinite_compute():
    assert PairPoint.from_slack(1e3, 1e4, 1.0, 1.0, 1.0, 1.0) == \
        PairPoint(1e3, 1e4, math.inf, 1.0, 1.0, 1.0)


def test_solveconfig_validation_and_defaults(scenario42):
    for bad in (dict(epsilon_j=0.0), dict(epsilon_j=float("nan")),
                dict(epsilon_j=float("inf")), dict(bisect_tol=float("nan")),
                dict(bisect_tol=float("inf")), dict(bisect_tol=1e-16),
                dict(max_outer_iters=2.5)):
        with pytest.raises(StructuralError):
            SolveConfig(**bad)
    # no residual is certified below float64 resolution, which is the floor
    assert SolveConfig(bisect_tol=np.finfo(float).eps).bisect_tol == np.finfo(float).eps
    assert [f.name for f in dataclasses.fields(SolveConfig)] == \
        ["epsilon_j", "bisect_tol", "max_outer_iters"]
    assert SolveConfig.for_scenario(scenario42) == SolveConfig()
    # the activity threshold is the scenario's: 1.5 bits of 1.5 Mbit tasks
    assert scenario42.activity_threshold_bits == pytest.approx(1.5, rel=1e-15, abs=0)
    assert scenario42.activity_threshold_bits < scenario42.task_bits.min() / scenario42.num_aps


def test_budget_residuals_skip_idle_aps():
    # user 0 on AP 0 only; AP 1 is idle and its capacity is unassigned
    sc = make_scenario([[1.0, 1.0]], bits=1e3, deadline=1.0, eta=1.0,
                       bandwidth=1e4, capacities=1e4)
    alloc = Allocation(data=[[1e3, 0.0]], bandwidth=[[1e4, 0.0]],
                       compute=[[1e4, 0.0]])
    res = budget_residuals(sc, alloc)
    assert "compute_ap_1" not in res
    assert validate(sc, alloc, SolveConfig()).ok
