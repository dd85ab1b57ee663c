import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mecalloc
from mecalloc import SolveConfig, StructuralError, validate
from mecalloc.orchestrate import InitStrategy, initialize
from mecalloc.scenario import (
    SWEEP_PARAMETERS,
    GenParams,
    _ap_grid,
    generate,
    override_parameter,
    pathloss_gain,
    provenance,
)


def test_pathloss_at_one_meter():
    assert pathloss_gain(1.0) == pytest.approx(10 ** -3.06, rel=1e-12, abs=0)


def test_pathloss_at_hundred_meters():
    # 30.6 + 36.7*2 = 104 dB
    assert pathloss_gain(100.0) == pytest.approx(10 ** -10.4, rel=1e-12, abs=0)


def test_pathloss_decade_ratio():
    assert pathloss_gain(10.0) / pathloss_gain(100.0) == \
        pytest.approx(10 ** 3.67, rel=1e-12, abs=0)


def test_pathloss_clamps_below_one_meter():
    assert pathloss_gain(0.2) == pathloss_gain(1.0)


def test_generate_is_deterministic():
    a = generate(GenParams(seed=42))
    b = generate(GenParams(seed=42))
    assert np.array_equal(a.gains, b.gains)
    assert a.tasks == b.tasks
    c = generate(GenParams(seed=43))
    assert not np.array_equal(a.gains, c.gains)


def test_generate_default_shape_and_bounds():
    sc = generate(GenParams(seed=42))
    assert sc.num_users == 8 and sc.num_aps == 4
    assert sc.bandwidth_hz == 1e7
    assert sc.noise_psd == pytest.approx(10 ** -20.4)
    assert np.all(sc.gains > 0)
    assert np.all(sc.gains <= pathloss_gain(1.0))
    assert all(t.input_bits == 1.5e6 and t.deadline_s == 0.5 and
               t.cycles_per_bit == 1e3 for t in sc.tasks)
    assert np.all(sc.compute_capacity == 2.5e10)


def _numpy_uniform(seed, low, high, size):
    return np.random.Generator(np.random.PCG64(seed)).uniform(low, high, size)


# a seed GenParams and InitStrategy accept: a Python int up to 200 bits
# (seven 32-bit seed words, so SeedSequence mixes words past its pool of
# four) or a numpy integer
SEEDS = st.one_of(st.integers(0, 2**200 - 1), st.integers(0, 2**63 - 1).map(np.int64))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, K=st.integers(1, 9), M=st.integers(1, 5))
def test_the_draws_are_numpys_pcg64_stream_bit_for_bit(seed, K, M):
    params = GenParams(num_users=K, num_aps=M, seed=seed)
    # the placement numpy's generator gives, through the same pathloss
    users = _numpy_uniform(seed, 0.0, params.region_m, (K, 2))
    dist = np.linalg.norm(users[:, None, :] - _ap_grid(M, params.region_m)[None, :, :], axis=2)
    gains = np.array([[pathloss_gain(d) for d in row] for row in dist])
    sc = generate(params)
    assert np.array_equal(sc.gains, gains)
    draws = _numpy_uniform(seed, 0.0, 1.0, (K, M))
    expected = draws / draws.sum(axis=1, keepdims=True) * sc.task_bits[:, None]
    assert np.array_equal(initialize(sc, InitStrategy.random(seed)), expected)


def test_the_seed_42_scenario_is_pinned(scenario42):
    # literal values: a change to the stream fails here even where the
    # comparison with numpy's generator is not run
    assert scenario42.gains[0].tolist() == [2.679442024601951e-11, 1.3769324657915008e-09,
                                            1.926272021591794e-11, 2.2462365690557323e-10]


def test_a_scenario_solve_loads_no_numpy_random_or_openssl():
    # the library computes numpy's PCG64 stream itself, so a process that
    # generates, starts and solves never imports numpy.random, whose
    # SeedSequence pulls in secrets, hashlib and OpenSSL
    code = (
        "import sys\n"
        "from mecalloc.orchestrate import (InitStrategy, best_snr_assignment, initialize,\n"
        "                                  solve_fixed_assignment)\n"
        "from mecalloc.scenario import GenParams, generate\n"
        "sc = generate(GenParams(num_users=256, num_aps=16, bandwidth_hz=3.2e8,\n"
        "                        capacity_cps=2e11, seed=42))\n"
        "initialize(sc, InitStrategy.random(3))\n"
        "assert solve_fixed_assignment(sc, best_snr_assignment(sc)).converged\n"
        "print(sorted(m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mecalloc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", out.stdout


def test_generate_single_pair():
    sc = generate(GenParams(num_users=1, num_aps=1, seed=3))
    assert sc.gains.shape == (1, 1)


def test_generated_scenario_feasible_at_equal_split(scenario42, cfg42,
                                                    equal_allocation42):
    # per-AP demand at equal split: 8 * (1.5e9/4) / 0.5 = 6e9 << 2.5e10
    assert validate(scenario42, equal_allocation42, cfg42).ok


def test_pathloss_is_applied_rowwise():
    sc = generate(GenParams(seed=5))
    perm = [3, 1, 0, 2, 7, 6, 5, 4]
    permuted = sc.gains[perm, :]
    assert np.array_equal(np.array([sc.gains[i] for i in perm]), permuted)


def test_provenance_names_generator():
    p = provenance(GenParams(seed=42))
    assert p["generator"] == "numpy-pcg64"
    assert p["seed"] == 42
    assert p["params"]["num_users"] == 8


def test_override_parameter():
    sc = generate(GenParams(seed=42))
    d = override_parameter(sc, "deadline_s", 0.8)
    assert all(t.deadline_s == 0.8 for t in d.tasks)
    assert all(t.input_bits == 1.5e6 for t in d.tasks)
    b = override_parameter(sc, "bandwidth_hz", 2e7)
    assert b.bandwidth_hz == 2e7
    c = override_parameter(sc, "capacity_cps", 1e10)
    assert np.all(c.compute_capacity == 1e10)
    t = override_parameter(sc, "task_bits", 3e6)
    assert all(task.input_bits == 3e6 for task in t.tasks)
    with pytest.raises(StructuralError):
        override_parameter(sc, "deadline_s", -1.0)
    with pytest.raises(StructuralError):
        override_parameter(sc, "noise", 1.0)


def test_override_with_the_current_value_changes_nothing():
    sc = generate(GenParams(seed=42))
    current = {"bandwidth_hz": sc.bandwidth_hz, "capacity_cps": sc.compute_capacity[0],
               "deadline_s": sc.tasks[0].deadline_s, "task_bits": sc.tasks[0].input_bits}
    assert set(current) == set(SWEEP_PARAMETERS)
    for name in SWEEP_PARAMETERS:
        assert override_parameter(sc, name, current[name]) == sc


def test_genparams_validation():
    with pytest.raises(StructuralError):
        GenParams(num_users=0)
    with pytest.raises(StructuralError):
        GenParams(task_bits=-1.0)
    with pytest.raises(StructuralError):
        GenParams(deadline_s=float("nan"))
    with pytest.raises(StructuralError):
        GenParams(bandwidth_hz=float("inf"))
