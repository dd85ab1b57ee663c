import dataclasses
import json

import numpy as np
import pytest

from mecalloc import (
    Allocation,
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
    validate,
)
from mecalloc.model import EXPONENT_CAP, ValidationReport, Violation, budget_residuals
from mecalloc.scenario import override_parameter

from util import make_scenario


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
    for name in ("task_bits", "deadlines_s", "cycles_per_bit"):
        with pytest.raises(ValueError):
            getattr(sc, name)[0] = 1.0
    # the activity threshold is 1e-6 of the smallest task, and follows it
    assert sc.activity_threshold_bits == 1e-6 * 1e6
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.activity_threshold_bits = 0.0
    assert override_parameter(sc, "task_bits", 4e6).activity_threshold_bits == 1e-6 * 4e6
    doc = scenario_to_dict(sc)
    assert not {"task_bits", "deadlines_s", "cycles_per_bit", "activity_threshold_bits"} & set(doc)
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

    point = PairPoint.from_compute(1e3, 1e4, 2e3, 1.0, 1.0, 1e-3)
    assert hessian_diag(point, "x_t") == hessian_diag(point, "x_t")
    assert hessian_diag(point, "x_t") != hessian_diag(point, "L_x")


def test_allocation_json_roundtrip(equal_allocation42):
    doc = json.loads(json.dumps(allocation_to_dict(equal_allocation42)))
    back = allocation_from_dict(doc)
    for name in ("data", "bandwidth", "compute"):
        assert np.allclose(getattr(back, name), getattr(equal_allocation42, name),
                           rtol=1e-12, atol=0)


def test_pairpoint_from_compute_derives_slack():
    p = PairPoint.from_compute(data_bits=1e3, bandwidth_hz=1e4, compute_cps=2e3,
                               deadline_s=1.0, cycles_per_bit=1.0,
                               noise_over_gain=1.0)
    assert p.slack_s == pytest.approx(0.5)


def test_pairpoint_from_slack_derives_compute():
    p = PairPoint.from_slack(data_bits=1e3, bandwidth_hz=1e4, slack_s=0.5,
                             deadline_s=1.0, cycles_per_bit=1.0,
                             noise_over_gain=1.0)
    assert p.compute_cps == pytest.approx(2e3)


def test_pairpoint_zero_data_requires_full_slack():
    with pytest.raises(StructuralError):
        PairPoint(data_bits=0.0, bandwidth_hz=1.0, compute_cps=1.0,
                  slack_s=0.4, deadline_s=1.0, cycles_per_bit=1.0,
                  noise_over_gain=1.0)
    p = PairPoint.from_slack(data_bits=0.0, bandwidth_hz=1.0, slack_s=1.0,
                             deadline_s=1.0, cycles_per_bit=1.0,
                             noise_over_gain=1.0)
    assert p.slack_s == p.deadline_s


def test_pairpoint_rejects_bad_fields():
    base = dict(data_bits=1e3, bandwidth_hz=1e4, deadline_s=1.0, cycles_per_bit=1.0,
                noise_over_gain=1.0)
    assert PairPoint.from_compute(compute_cps=2e3, **base).slack_s == pytest.approx(0.5)
    for q in (0.0, -2e3):
        with pytest.raises(StructuralError):
            PairPoint.from_compute(compute_cps=q, **base)
    # a loaded pair needs a slack strictly inside (0, deadline)
    for t in (0.0, -0.1, 1.0, 1.5):
        with pytest.raises(InfeasiblePairError):
            PairPoint.from_slack(slack_s=t, **base)
    for name, bad in (("data_bits", -1.0), ("deadline_s", 0.0), ("deadline_s", -1.0),
                      ("cycles_per_bit", 0.0), ("noise_over_gain", 0.0),
                      ("noise_over_gain", -1.0)):
        with pytest.raises(StructuralError):
            PairPoint(compute_cps=2e3, slack_s=0.5, **dict(base, **{name: bad}))


def test_solveconfig_validation_and_defaults(scenario42):
    for bad in (dict(epsilon_j=0.0), dict(epsilon_j=float("nan")),
                dict(epsilon_j=float("inf")), dict(bisect_tol=float("nan")),
                dict(bisect_tol=float("inf")), dict(max_outer_iters=2.5)):
        with pytest.raises(StructuralError):
            SolveConfig(**bad)
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
