"""Reproducible scenario generation: placement, pathloss, default budgets.

APs sit at the quadrant centers of a square region and users are placed
uniformly at random inside it. The channel gain of a pair follows the
log-distance pathloss 30.6 + 36.7*log10(d) dB with a 1 m distance floor.
The draws are numpy's PCG64 stream, computed here bit for bit: a seed
pins the scenario exactly, as `Generator(PCG64(seed)).uniform` would,
without loading `numpy.random`.
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


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed):
    """numpy's SeedSequence(seed).generate_state(4, uint64), as ints."""
    words = [seed & _MASK32]  # the seed's little-endian 32-bit words
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_draws(seed, n):
    """n doubles in [0, 1), bit for bit those numpy's
    `Generator(PCG64(seed)).uniform(size=n)` returns: the PCG XSL-RR
    128/64 generator (O'Neill 2014), seeded as numpy's SeedSequence seeds
    it, each double read as (next64 >> 11) * 2**-53."""
    s = _seed_words(int(seed))
    # numpy's pcg64_set_seed: initstate s0:s1 and stream s2:s3, as 128-bit
    # ints; one step from state 0, add initstate, one more step
    inc = (s[2] << 64 | s[3]) << 1 & _MASK128 | 1
    state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _MASK128
    out = []
    for _ in range(n):  # step, then output the xor-folded state rotated right
        state = (state * _PCG_MULT + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append((x >> 11) * 2.0 ** -53)
    return np.array(out)


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
    users = params.region_m * _uniform_draws(params.seed, 2 * params.num_users).reshape(-1, 2)
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
