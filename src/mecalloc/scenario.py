"""Reproducible scenario generation: placement, pathloss, default budgets.

APs sit at the quadrant centers of a square region and users are placed
uniformly at random inside it. The channel gain of a pair follows the
log-distance pathloss 30.6 + 36.7*log10(d) dB with a 1 m distance floor.
The generator is numpy's PCG64, so a seed pins the scenario exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .model import Scenario, StructuralError, TaskSpec, is_count, require_positive

GENERATOR_NAME = "numpy-pcg64"

# the GenParams fields a sweep can vary on a generated scenario
SWEEP_PARAMETERS = ("bandwidth_hz", "capacity_cps", "deadline_s", "task_bits")


@dataclass(frozen=True)
class GenParams:
    num_users: int = 8
    num_aps: int = 4
    region_m: float = 200.0
    bandwidth_hz: float = 1e7
    noise_psd_w_per_hz: float = 10.0 ** (-20.4)  # -174 dBm/Hz
    task_bits: float = 1.5e6
    deadline_s: float = 0.5
    cycles_per_bit: float = 1e3
    capacity_cps: float = 2.5e10
    seed: int = 0

    def __post_init__(self):
        if not (is_count(self.num_users, 1) and is_count(self.num_aps, 1)):
            raise StructuralError("need at least one user and one AP")
        if not is_count(self.seed):
            raise StructuralError(f"GenParams.seed must be an integer >= 0, got {self.seed}")
        require_positive(self, "region_m", "bandwidth_hz", "noise_psd_w_per_hz",
                         "task_bits", "deadline_s", "cycles_per_bit", "capacity_cps")


def pathloss_gain(distance_m: float) -> float:
    """Linear power gain of the log-distance model, floored at 1 m."""
    d = max(float(distance_m), 1.0)
    return 10.0 ** (-(30.6 + 36.7 * math.log10(d)) / 10.0)


def _ap_grid(num_aps, region):
    """AP positions: quadrant centers for 4, otherwise a near-square grid."""
    cols = int(math.ceil(math.sqrt(num_aps)))
    rows = int(math.ceil(num_aps / cols))
    pos = []
    for idx in range(num_aps):
        r, c = divmod(idx, cols)
        pos.append(((c + 0.5) * region / cols, (r + 0.5) * region / rows))
    return np.array(pos)


def generate(params: GenParams) -> Scenario:
    """Draw a scenario from the parameters; deterministic for a seed."""
    rng = np.random.Generator(np.random.PCG64(params.seed))
    users = rng.uniform(0.0, params.region_m, size=(params.num_users, 2))
    aps = _ap_grid(params.num_aps, params.region_m)
    dist = np.linalg.norm(users[:, None, :] - aps[None, :, :], axis=2)
    gains = np.array([[pathloss_gain(dij) for dij in row] for row in dist])
    task = TaskSpec(input_bits=params.task_bits, deadline_s=params.deadline_s,
                    cycles_per_bit=params.cycles_per_bit)
    return Scenario(
        num_users=params.num_users,
        num_aps=params.num_aps,
        gains=gains,
        tasks=(task,) * params.num_users,
        bandwidth_hz=params.bandwidth_hz,
        compute_capacity=np.full(params.num_aps, params.capacity_cps),
        noise_psd=params.noise_psd_w_per_hz,
    )


def provenance(params: GenParams) -> dict:
    return {"generator": GENERATOR_NAME, "seed": params.seed,
            "params": asdict(params)}


def override_parameter(scenario: Scenario, name: str, value: float) -> Scenario:
    """A copy of the scenario with one of SWEEP_PARAMETERS replaced; the
    records it rebuilds check the value."""
    if name not in SWEEP_PARAMETERS:
        raise StructuralError(f"unknown sweep parameter {name!r}")
    if name == "bandwidth_hz":
        return replace(scenario, bandwidth_hz=value)
    if name == "capacity_cps":
        return replace(scenario, compute_capacity=np.full(scenario.num_aps, value))
    task_field = "input_bits" if name == "task_bits" else name
    return replace(scenario, tasks=tuple(replace(t, **{task_field: value})
                                         for t in scenario.tasks))
