"""Domain records and constraint validation for multi-AP edge offloading.

Everything is SI internally (bits, Hz, seconds, Watts, Joules, CPU
cycles per second); milli-joules appear only at reporting boundaries.
All records are immutable value types and safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np


LN2 = math.log(2.0)

# exponents above this overflow float64 through 2**u; such points only
# arise from degenerate brackets and are rejected rather than propagated
EXPONENT_CAP = 700.0 / LN2


class StructuralError(ValueError):
    """Malformed input: dimension mismatch, NaN, or negative entries."""


class InfeasiblePairError(ValueError):
    """A (user, AP) operating point cannot meet its deadline."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InfeasibilityError(RuntimeError):
    """A subproblem has no feasible solution; names the offending entity."""

    def __init__(self, message, user=None, ap=None):
        super().__init__(message)
        self.user = user
        self.ap = ap


class BracketError(RuntimeError):
    """A dual root lies beyond the dual range: a fixed-data Newton pricing
    ends short of its tolerance at an edge of the range (`kkt._price`)."""


class ConvergenceError(RuntimeError):
    """A solve missed its tolerance: an iteration budget exhausted first,
    or a read-off whose budget residual or duality gap fails its
    certificate (`kkt._read_off`)."""


class DegenerateInputError(ValueError):
    """Input leaves nothing to solve (e.g. no active pairs)."""


class InternalConsistencyError(RuntimeError):
    """Raised nowhere; kept only for callers that import it by name."""


def is_count(value, least=0):
    """True for an int or numpy integer, not a bool, of at least `least`."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def require_positive(record, *names):
    """The rule of every number read from outside: each named field of the
    record, a scalar or an array, must be positive and finite, or
    StructuralError names it."""
    for name in names:
        v = getattr(record, name)
        if not (np.all(np.isfinite(v) & (v > 0)) if isinstance(v, np.ndarray)
                else math.isfinite(v) and v > 0):
            raise StructuralError(
                f"{type(record).__name__}.{name} must be positive and finite, got {v}")


def deadline_slack(deadline, cycles_per_bit, data, compute):
    """Per-pair slack t = D - eta*L/q that computing leaves of the deadline
    for transmission; broadcasts. Infinite compute leaves the whole deadline."""
    return deadline - cycles_per_bit * data / compute


def _as_array(values, shape, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise StructuralError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise StructuralError(f"{name}: contains NaN or infinite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class ArrayRecord:
    """Value equality for frozen dataclasses that hold numpy arrays: fields
    compare with np.array_equal, compare=False ones are skipped; no hashing."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)


@dataclass(frozen=True)
class TaskSpec:
    """One user's computing task: input size, deadline, cycle demand per bit."""

    input_bits: float
    deadline_s: float
    cycles_per_bit: float

    def __post_init__(self):
        require_positive(self, "input_bits", "deadline_s", "cycles_per_bit")

    @property
    def required_cycles(self):
        # derived, never stored: W = eta * L
        return self.cycles_per_bit * self.input_bits


@dataclass(frozen=True, eq=False)
class Scenario(ArrayRecord):
    """A network instance: K users, M APs, channel gains and budgets.

    gains[i, j] is the linear channel power gain from user i to AP j.
    compute_capacity[j] is AP j's server capacity in cycles/s and
    bandwidth_hz the system-wide uplink bandwidth shared by all pairs.
    Read-only fields derived once, at construction: the per-user columns
    task_bits, deadlines_s and cycles_per_bit of tasks, the K x M ratios
    noise_over_gain = N0/h that scale every pair energy, and
    activity_threshold_bits, 1e-6 of the smallest task: the load at or
    below which a pair is frozen at L = x = q = 0 and left out of the KKT
    systems, as the pair energy is indeterminate at zero load.
    """

    num_users: int
    num_aps: int
    gains: np.ndarray
    tasks: tuple
    bandwidth_hz: float
    compute_capacity: np.ndarray
    noise_psd: float
    task_bits: np.ndarray = field(init=False, repr=False, compare=False)
    deadlines_s: np.ndarray = field(init=False, repr=False, compare=False)
    cycles_per_bit: np.ndarray = field(init=False, repr=False, compare=False)
    noise_over_gain: np.ndarray = field(init=False, repr=False, compare=False)
    activity_threshold_bits: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (is_count(self.num_users, 1) and is_count(self.num_aps, 1)):
            raise StructuralError("need at least one user and one AP")
        for name, shape in (("gains", (self.num_users, self.num_aps)),
                            ("compute_capacity", (self.num_aps,))):
            object.__setattr__(self, name, _as_array(getattr(self, name), shape, name))
        require_positive(self, "gains", "compute_capacity", "bandwidth_hz", "noise_psd")
        noise = self.noise_psd / self.gains
        noise.setflags(write=False)
        object.__setattr__(self, "noise_over_gain", noise)
        tasks = tuple(self.tasks)
        if len(tasks) != self.num_users:
            raise StructuralError(f"expected {self.num_users} tasks, got {len(tasks)}")
        object.__setattr__(self, "tasks", tasks)
        for name, attr in (("task_bits", "input_bits"), ("deadlines_s", "deadline_s"),
                           ("cycles_per_bit", "cycles_per_bit")):
            col = np.array([getattr(t, attr) for t in tasks], dtype=float)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        object.__setattr__(self, "activity_threshold_bits", 1e-6 * float(self.task_bits.min()))


@dataclass(frozen=True, eq=False)
class Allocation(ArrayRecord):
    """A full operating point: data split, bandwidth and compute matrices."""

    data: np.ndarray
    bandwidth: np.ndarray
    compute: np.ndarray

    def __post_init__(self):
        shapes = {np.asarray(m).shape for m in (self.data, self.bandwidth, self.compute)}
        if len(shapes) != 1:
            raise StructuralError(f"allocation matrices disagree in shape: {shapes}")
        shape = shapes.pop()
        for name in ("data", "bandwidth", "compute"):
            m = _as_array(getattr(self, name), shape, name)
            if np.any(m < 0):
                raise StructuralError(f"{name}: negative entries")
            object.__setattr__(self, name, m)


@dataclass(frozen=True)
class PairPoint:
    """One entry of an `Allocation` with its user's task: the (user, AP)
    operating point on which all link formulas act.

    It holds the load, bandwidth and compute (L, x, q) of the pair and the
    task's deadline and cycle demand, and derives the slack t = D - eta*L/q
    at construction (`deadline_slack`; the whole deadline for an unloaded
    pair or one without compute), as `check_pairs` does for an allocation.
    Fields are finite (compute_cps may be +inf), and a loaded point
    (data_bits > 0) that fails the pair rule (`pair_fault`) raises
    InfeasiblePairError: the link formulas of `physics` trust the record.
    """

    data_bits: float
    bandwidth_hz: float
    compute_cps: float
    deadline_s: float
    cycles_per_bit: float
    noise_over_gain: float
    slack_s: float = field(init=False)

    @classmethod
    def from_slack(cls, data_bits, bandwidth_hz, slack_s, deadline_s,
                   cycles_per_bit, noise_over_gain):
        """The point whose compute q = eta*L/(D - t) leaves the slack t:
        +inf at t = D or for an unloaded pair, negative beyond D."""
        room = deadline_s - slack_s
        compute = cycles_per_bit * data_bits / room if data_bits and room else math.inf
        return cls(data_bits, bandwidth_hz, compute, deadline_s, cycles_per_bit,
                   noise_over_gain)

    def __post_init__(self):
        require_positive(self, "deadline_s", "cycles_per_bit", "noise_over_gain")
        for name in ("data_bits", "bandwidth_hz", "compute_cps"):
            v = getattr(self, name)
            if not (math.isfinite(v) or name == "compute_cps" and v == math.inf):
                raise StructuralError(f"PairPoint.{name} must be finite, got {v}")
        if self.data_bits < 0:
            raise StructuralError("data_bits must be nonnegative")
        x, q = self.bandwidth_hz, self.compute_cps
        # no compute derives no slack; the pair rule rejects such a loaded point
        t = deadline_slack(self.deadline_s, self.cycles_per_bit, self.data_bits, q) \
            if q > 0 else self.deadline_s
        object.__setattr__(self, "slack_s", t)
        # x*t is positive unless a clause before the exponent fails, or it underflows
        fault = self.data_bits > 0 and pair_fault(
            q, t, x, self.data_bits / (x * t) if x * t > 0 else math.inf, self.deadline_s)
        if fault:
            raise InfeasiblePairError(f"{fault[0]}, residual {fault[1]:.3g}")


@dataclass(frozen=True)
class SolveConfig:
    """Solver tolerances and iteration budgets.

    epsilon_j (Joules) stops no solve, which stops on its certificate
    (`kkt.GAP_TOL`), and the CLI does not set it; only the acceptance
    criteria read it, as an absolute tolerance.
    max_outer_iters counts the rounds after the start of
    `solve_iterative`, one barrier stage each (`kkt.barrier_stages`),
    whose own allocation a round takes with no re-balance.
    bisect_tol is the relative tolerance of the budget residual checks,
    of the duality gap that certifies a re-balance or the dual step's
    read-off, each one pass with no round budget, and of the stationarity
    residual of the subproblem references (`kkt._barrier_split`); the
    Newton pricings, the dual step included, solve to half of it. It
    stops neither fixed count, the Newton steps of the price oracle and
    of the bandwidth root. No residual is certified below float64
    resolution, and a bisect_tol below it raises StructuralError. The
    load below which a pair is frozen is the scenario's
    (`Scenario.activity_threshold_bits`), not a setting.
    """

    epsilon_j: float = 1e-5
    bisect_tol: float = 1e-9
    max_outer_iters: int = 100

    def __post_init__(self):
        require_positive(self, "epsilon_j", "bisect_tol")
        if self.bisect_tol < np.finfo(float).eps:
            raise StructuralError(f"bisect_tol {self.bisect_tol} is below float64 resolution")
        if not is_count(self.max_outer_iters, 1):
            raise StructuralError("the outer iteration budget must be a positive integer")

    @classmethod
    def for_scenario(cls, scenario, **overrides):
        """The configuration of the overrides; it reads nothing of the
        scenario, whose own fields hold everything derived from it."""
        return cls(**overrides)


@dataclass(frozen=True)
class Violation:
    """One violated constraint with its (relative, where meaningful) residual."""

    constraint: str
    where: tuple
    residual: float

    def __str__(self):
        return f"{self.constraint}{list(self.where)}: residual {self.residual:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return "all constraints satisfied"
        return "\n".join(str(v) for v in self.violations)


def budget_residuals(scenario, allocation):
    """Relative residuals of the three budget equalities.

    The bandwidth total is checked only when at least one pair is active,
    and each AP's compute total only when it serves an active pair; an
    idle resource has nobody to be assigned to.
    """
    act = allocation.data > scenario.activity_threshold_bits
    out = {}
    bits = scenario.task_bits
    for i in range(scenario.num_users):
        out[f"data_user_{i}"] = abs(allocation.data[i].sum() - bits[i]) / bits[i]
    if act.any():
        out["bandwidth_total"] = abs(allocation.bandwidth.sum() - scenario.bandwidth_hz) \
            / scenario.bandwidth_hz
    for j in range(scenario.num_aps):
        if act[:, j].any():
            cap = scenario.compute_capacity[j]
            out[f"compute_ap_{j}"] = abs(allocation.compute[:, j].sum() - cap) / cap
    return out


def pair_fault(compute, slack, bandwidth, u, deadline):
    """The pair rule at one loaded pair: it has an energy only with
    compute, a slack t = D - eta*L/q > 0, bandwidth and a rate exponent
    u = L/(x*t) <= EXPONENT_CAP. Returns (constraint, residual) for the
    first of these that fails, or None; a zero slack misses by +0."""
    if compute <= 0:
        return "no compute on loaded pair", 1.0
    if slack <= 0:
        return "nonpositive slack", float(max(0.0, -slack) / deadline)
    if bandwidth <= 0:
        return "no bandwidth on loaded pair", 1.0
    if u > EXPONENT_CAP:
        return "rate exponent overflow", float(u / EXPONENT_CAP - 1.0)
    return None


def check_pairs(scenario, data, bandwidth, compute):
    """The pair rule (`pair_fault`) over K x M loads, bandwidths and
    compute, at every pair above the scenario's activity threshold.
    Returns (the active mask, t, u, faults), idle pairs at t = D and u = 0;
    faults holds one ((i, j), constraint, residual) per active pair with
    no energy, in row-major order.
    """
    act = data > scenario.activity_threshold_bits
    d = scenario.deadlines_s[:, None]
    # no compute gives t = -inf, no bandwidth u = inf or nan: both are faults
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = deadline_slack(d, scenario.cycles_per_bit[:, None], data,
                               np.where(act, compute, np.inf))
        u = np.zeros(data.shape)
        u[act] = data[act] / (bandwidth[act] * slack[act])
    bad = act & ((compute <= 0) | (slack <= 0) | (bandwidth <= 0) | (u > EXPONENT_CAP))
    # argwhere of a 2-D mask costs ten any(); on a feasible allocation it is empty
    faults = [((i, j), *pair_fault(compute[i, j], slack[i, j], bandwidth[i, j], u[i, j], d[i, 0]))
              for i, j in (np.argwhere(bad).tolist() if bad.any() else ())]
    return act, slack, u, faults


def least_load(scenario, data, act):
    """Each AP's least load sum_i eta*L/D over the active pairs (mask act),
    the compute they need at zero slack: a split is servable only below
    each AP's capacity."""
    return np.where(act, scenario.cycles_per_bit[:, None] * data / scenario.deadlines_s[:, None],
                    0.0).sum(axis=0)


def validate(scenario, allocation, cfg):
    """Check an allocation against every constraint; pure function.

    Returns a ValidationReport of the violated constraints with residuals:
    the aggregate demand, the budget equalities, the faults of the pair
    rule (`check_pairs`) and each AP whose `least_load` reaches its
    capacity. Structural problems (shape mismatch, NaN, negatives) raise
    StructuralError instead of being reported.
    """
    if allocation.data.shape != (scenario.num_users, scenario.num_aps):
        raise StructuralError(
            f"allocation shape {allocation.data.shape} does not match scenario "
            f"({scenario.num_users}, {scenario.num_aps})")
    bad = []

    total_demand = (scenario.cycles_per_bit * scenario.task_bits / scenario.deadlines_s).sum()
    total_cap = scenario.compute_capacity.sum()
    if total_demand >= total_cap:
        bad.append(Violation("aggregate compute demand exceeds capacity", (),
                             total_demand / total_cap - 1.0))

    for name, res in budget_residuals(scenario, allocation).items():
        if res > cfg.bisect_tol:
            kind, _, idx = name.rpartition("_")
            where = (int(idx),) if idx.isdigit() else ()
            bad.append(Violation(f"budget equality {kind}", where, res))

    act, _, _, faults = check_pairs(scenario, allocation.data, allocation.bandwidth,
                                    allocation.compute)
    bad.extend(Violation(constraint, where, residual) for where, constraint, residual in faults)
    load, cap = least_load(scenario, allocation.data, act), scenario.compute_capacity
    bad.extend(Violation("ap compute overload", (j,), float(load[j] / cap[j] - 1.0))
               for j in np.flatnonzero(load >= cap).tolist())
    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# JSON serialization (matrices row-major; values round-trip to 1e-12 relative)

def _plain(value):
    """A record as JSON types: its init fields (derived ones are rebuilt on
    load), with arrays and tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _from_plain(cls, doc):
    return cls(**{f.name: doc[f.name] for f in fields(cls) if f.init})


scenario_to_dict = allocation_to_dict = _plain


def scenario_from_dict(d):
    doc = dict(d, tasks=tuple(_from_plain(TaskSpec, t) for t in d["tasks"]))
    return _from_plain(Scenario, doc)


def allocation_from_dict(d):
    return _from_plain(Allocation, d)


def save_scenario(scenario, path, provenance=None):
    doc = scenario_to_dict(scenario)
    if provenance:
        doc["provenance"] = provenance
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scenario(path):
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
