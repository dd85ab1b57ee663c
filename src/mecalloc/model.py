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
    """A bisection bracket does not enclose the target."""


class ConvergenceError(RuntimeError):
    """An iteration budget was exhausted before reaching tolerance."""


class DegenerateInputError(ValueError):
    """Input leaves nothing to solve (e.g. no active pairs)."""


class InternalConsistencyError(RuntimeError):
    """Raised nowhere; kept only for callers that import it by name."""


def is_count(value, least=0):
    """True for an int or numpy integer, not a bool, of at least `least`."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def deadline_slack(deadline, cycles_per_bit, data, compute):
    """Per-pair slack t = D - eta*L/q that computing leaves of the deadline
    for transmission; broadcasts. Infinite compute leaves the whole deadline."""
    return deadline - cycles_per_bit * data / compute


def _as_matrix(values, rows, cols, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (rows, cols):
        raise StructuralError(f"{name}: expected shape ({rows}, {cols}), got {arr.shape}")
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
        for name in ("input_bits", "deadline_s", "cycles_per_bit"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise StructuralError(f"TaskSpec.{name} must be a positive finite real, got {v}")

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
    task_bits, deadlines_s and cycles_per_bit are read-only per-user
    columns derived from tasks once, at construction, and so is
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
    activity_threshold_bits: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (is_count(self.num_users, 1) and is_count(self.num_aps, 1)):
            raise StructuralError("need at least one user and one AP")
        g = _as_matrix(self.gains, self.num_users, self.num_aps, "gains")
        if np.any(g <= 0):
            raise StructuralError("gains must be strictly positive")
        object.__setattr__(self, "gains", g)
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
        cap = np.asarray(self.compute_capacity, dtype=float)
        if cap.shape != (self.num_aps,) or np.any(~np.isfinite(cap)) or np.any(cap <= 0):
            raise StructuralError("compute_capacity must be M positive finite reals")
        cap = cap.copy()
        cap.setflags(write=False)
        object.__setattr__(self, "compute_capacity", cap)
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise StructuralError("bandwidth_hz must be positive")
        if not (math.isfinite(self.noise_psd) and self.noise_psd > 0):
            raise StructuralError("noise_psd must be positive")

    def noise_over_gain(self):
        """K x M matrix of N0 / h ratios, the per-pair energy scale."""
        return self.noise_psd / self.gains


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
        rows, cols = shapes.pop()
        for name in ("data", "bandwidth", "compute"):
            m = _as_matrix(getattr(self, name), rows, cols, name)
            if np.any(m < 0):
                raise StructuralError(f"{name}: negative entries")
            object.__setattr__(self, name, m)

    def slack(self, scenario):
        """Per-pair deadline slack t = D - eta*L/q: D where there is no data,
        -inf where there is data but no compute."""
        with np.errstate(divide="ignore"):
            return deadline_slack(scenario.deadlines_s[:, None], scenario.cycles_per_bit[:, None],
                                  self.data, np.where(self.data > 0, self.compute, np.inf))


@dataclass(frozen=True)
class PairPoint:
    """One (user, AP) operating point on which all link formulas act.

    Exactly one of compute_cps / slack_s is authoritative at construction;
    the other is derived through t = D - eta*L/q (use the classmethods).
    """

    data_bits: float
    bandwidth_hz: float
    compute_cps: float
    slack_s: float
    deadline_s: float
    cycles_per_bit: float
    noise_over_gain: float

    @classmethod
    def from_compute(cls, data_bits, bandwidth_hz, compute_cps, deadline_s,
                     cycles_per_bit, noise_over_gain):
        if compute_cps <= 0:
            raise StructuralError("compute_cps must be positive")
        slack = deadline_slack(deadline_s, cycles_per_bit, data_bits, compute_cps)
        return cls(data_bits, bandwidth_hz, compute_cps, slack, deadline_s,
                   cycles_per_bit, noise_over_gain)

    @classmethod
    def from_slack(cls, data_bits, bandwidth_hz, slack_s, deadline_s,
                   cycles_per_bit, noise_over_gain):
        if data_bits > 0:
            if not 0 < slack_s < deadline_s:
                raise InfeasiblePairError(
                    f"slack {slack_s} outside (0, deadline) for loaded pair")
            compute = cycles_per_bit * data_bits / (deadline_s - slack_s)
        else:
            slack_s = deadline_s
            compute = math.inf  # unloaded pair: any compute meets the deadline
        return cls(data_bits, bandwidth_hz, compute, slack_s, deadline_s,
                   cycles_per_bit, noise_over_gain)

    def __post_init__(self):
        if self.data_bits < 0:
            raise StructuralError("data_bits must be nonnegative")
        for name in ("deadline_s", "cycles_per_bit", "noise_over_gain"):
            if getattr(self, name) <= 0:
                raise StructuralError(f"{name} must be positive")
        if self.data_bits == 0 and self.slack_s != self.deadline_s:
            raise StructuralError("zero-data pair must have slack equal to its deadline")


@dataclass(frozen=True)
class SolveConfig:
    """Solver tolerances and iteration budgets.

    epsilon_j is the outer stop threshold in Joules; max_outer_iters
    counts the gradient rounds after the start of `solve_iterative`.
    bisect_tol is the relative tolerance of the budget residual checks
    and of the duality gap that certifies a re-balance, which is one pass
    with no round budget; the Newton pricings, the dual step included,
    solve to half of it. It stops none of the fixed counts: the Newton
    steps of the price oracle and of the bandwidth root, and the bisection
    references' halvings (kkt.INNER_ITERS per pair, kkt.DUAL_HALVINGS per
    dual). No residual is certified below float64 resolution. The load
    below which a pair is frozen is the scenario's
    (`Scenario.activity_threshold_bits`), not a setting.
    """

    epsilon_j: float = 1e-5
    bisect_tol: float = 1e-9
    max_outer_iters: int = 100

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.epsilon_j, self.bisect_tol)):
            raise StructuralError("tolerances must be positive and finite")
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


def validate(scenario, allocation, cfg):
    """Check an allocation against every constraint; pure function.

    Returns a ValidationReport listing the violated constraints with
    residuals. Structural problems (shape mismatch, NaN, negatives) raise
    StructuralError instead of being reported.
    """
    if allocation.data.shape != (scenario.num_users, scenario.num_aps):
        raise StructuralError(
            f"allocation shape {allocation.data.shape} does not match scenario "
            f"({scenario.num_users}, {scenario.num_aps})")
    bad = []
    tol = cfg.bisect_tol

    demand = scenario.cycles_per_bit * scenario.task_bits / scenario.deadlines_s
    total_demand = demand.sum()
    total_cap = scenario.compute_capacity.sum()
    if total_demand >= total_cap:
        bad.append(Violation("aggregate compute demand exceeds capacity", (),
                             total_demand / total_cap - 1.0))

    for name, res in budget_residuals(scenario, allocation).items():
        if res > tol:
            kind, _, idx = name.rpartition("_")
            where = (int(idx),) if idx.isdigit() else ()
            bad.append(Violation(f"budget equality {kind}", where, res))

    act = allocation.data > scenario.activity_threshold_bits
    slack = allocation.slack(scenario)
    d = scenario.deadlines_s[:, None]
    eta = scenario.cycles_per_bit[:, None]
    for i, j in zip(*np.nonzero(act)):
        i, j = int(i), int(j)
        if allocation.compute[i, j] <= 0:
            bad.append(Violation("no compute on loaded pair", (i, j), 1.0))
            continue
        if slack[i, j] <= 0:
            bad.append(Violation("nonpositive slack", (i, j), -slack[i, j] / d[i, 0]))
            continue
        if allocation.bandwidth[i, j] <= 0:
            bad.append(Violation("no bandwidth on loaded pair", (i, j), 1.0))
            continue
        u = allocation.data[i, j] / (allocation.bandwidth[i, j] * slack[i, j])
        if u > EXPONENT_CAP:
            bad.append(Violation("rate exponent overflow", (i, j), u / EXPONENT_CAP - 1.0))

    # per-AP load implied by this data split must be servable at all
    load = (eta * allocation.data / d).sum(axis=0)
    for j in range(scenario.num_aps):
        if act[:, j].any() and load[j] >= scenario.compute_capacity[j]:
            bad.append(Violation("ap compute overload", (j,),
                                 load[j] / scenario.compute_capacity[j] - 1.0))

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
