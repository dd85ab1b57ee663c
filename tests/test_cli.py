import dataclasses
import json

import pytest

from mecalloc import (
    GenParams,
    SolveTrace,
    best_snr_assignment,
    generate,
    load_scenario,
    save_scenario,
    solve_fixed_assignment,
)
from mecalloc import cli
from mecalloc.cli import main
from mecalloc.scenario import provenance

from util import make_scenario, starve_pricing


def _strip_timestamp(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("# generated")]


@pytest.fixture()
def small_scenario_file(tmp_path):
    # two users with opposite AP preferences; solves in well under a second
    sc = make_scenario([[1.0, 0.05], [0.08, 1.0]], bits=[2.0, 1.5],
                       deadline=1.0, eta=1.0, bandwidth=10.0,
                       capacities=[6.0, 6.0], noise=1.0)
    path = tmp_path / "small.json"
    save_scenario(sc, path)
    return str(path)


def test_generate_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "--seed", "42", "--out", str(a)]) == 0
    assert main(["generate", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["num_users"] == 8 and doc["num_aps"] == 4
    assert doc["provenance"]["seed"] == 42


def test_generate_small_flags(tmp_path):
    out = tmp_path / "s.json"
    assert main(["generate", "--users", "2", "--aps", "1", "--seed", "7",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["num_users"] == 2 and doc["num_aps"] == 1


def test_generate_flags_set_every_parameter(tmp_path):
    params = GenParams(num_users=5, num_aps=3, region_m=150.0, bandwidth_hz=2e7,
                       noise_psd_w_per_hz=1e-20, task_bits=1e6, deadline_s=0.7,
                       cycles_per_bit=500.0, capacity_cps=3e10, seed=9)
    assert all(getattr(params, f.name) != f.default for f in dataclasses.fields(params))
    out = tmp_path / "cli.json"
    ref = tmp_path / "ref.json"
    assert main(["generate", "--users", "5", "--aps", "3", "--region", "150",
                 "--bandwidth-hz", "2e7", "--noise-psd", "1e-20", "--task-bits", "1e6",
                 "--deadline-s", "0.7", "--cycles-per-bit", "500",
                 "--capacity-cps", "3e10", "--seed", "9", "--out", str(out)]) == 0
    save_scenario(generate(params), ref, provenance=provenance(params))
    assert out.read_bytes() == ref.read_bytes()


def test_solve_writes_solution_and_trace(tmp_path, small_scenario_file):
    sol = tmp_path / "sol.json"
    tr = tmp_path / "trace.csv"
    code = main(["solve", "--scenario", small_scenario_file,
                 "--method", "iterative:equal",
                 "--out", str(sol), "--trace", str(tr)])
    assert code == 0
    doc = json.loads(sol.read_text())
    assert doc["converged"] is True
    assert doc["constraints_ok"] is True
    assert doc["metrics"]["energy_mj"] > 0
    lines = _strip_timestamp(tr)
    assert lines[0].strip() == "outer_iter,energy_mj,inner_iters,wall_time_s"
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))


def test_solve_json_trace_holds_every_trace_field(tmp_path, small_scenario_file):
    sol = tmp_path / "sol.json"
    assert main(["solve", "--scenario", small_scenario_file, "--out", str(sol)]) == 0
    trace = json.loads(sol.read_text())["trace"]
    assert set(trace) == {f.name for f in dataclasses.fields(SolveTrace)}


def test_solve_reports_the_lower_bound_and_its_gap(tmp_path, small_scenario_file, capsys):
    it, fixed = tmp_path / "it.json", tmp_path / "fixed.json"
    assert main(["solve", "--scenario", small_scenario_file, "--out", str(it)]) == 0
    doc = json.loads(it.read_text())
    assert doc["lower_bound_j"] <= doc["energy_j"] * (1.0 + 1e-12)  # round-off
    assert "gap=" in capsys.readouterr().out
    assert main(["solve", "--scenario", small_scenario_file, "--method", "binary-best-ap",
                 "--out", str(fixed)]) == 0
    assert json.loads(fixed.read_text())["lower_bound_j"] is None
    assert "gap=" not in capsys.readouterr().out


def test_solve_binary_method_loads_fully(tmp_path, small_scenario_file):
    sol = tmp_path / "sol.json"
    code = main(["solve", "--scenario", small_scenario_file,
                 "--method", "binary-best-ap", "--out", str(sol)])
    assert code == 0
    doc = json.loads(sol.read_text())
    assert all(s == pytest.approx(1.0)
               for s in doc["metrics"]["max_load_share_per_user"])
    assert doc["metrics"]["multi_ap_user_count"] == 0
    sc = load_scenario(small_scenario_file)
    assert doc["energy_j"] == solve_fixed_assignment(sc, best_snr_assignment(sc)).energy_j


def test_solve_takes_the_sweep_strategy_grammar_alone(tmp_path, small_scenario_file,
                                                      monkeypatch, capsys):
    for command in ("solve", "sweep"):
        assert main([command, "--help"]) == 0
        assert "--init" not in capsys.readouterr().out

    def no_read(*args, **kwargs):
        raise AssertionError("the scenario was read before the method was checked")

    monkeypatch.setattr("mecalloc.cli.load_scenario", no_read)
    # a retired flag or start is rejected, not ignored
    for method in (["iterative:bogus"], ["binary-best-ap", "--init", "random"],
                   ["iterative:random", "--init", "3"], ["iterative:random", "--init-seed", "3"],
                   ["binary-best-ap", "--init-seed", "5"], ["iterative", "--eps-mj", "1e-3"],
                   ["iterative:random-3"]):
        assert main(["solve", "--scenario", small_scenario_file, "--method", *method,
                     "--out", str(tmp_path / "x.json")]) == 2
    assert not (tmp_path / "x.json").exists()


def test_solve_exit_code_on_non_convergence(tmp_path):
    # the dual step of this draw returns no split, and one barrier round
    # after the first stage's start does not bring it within GAP_TOL of its
    # bound
    path, sol = tmp_path / "rounds.json", tmp_path / "sol.json"
    save_scenario(generate(GenParams(num_users=6, num_aps=3, deadline_s=0.5, seed=13)), path)
    code = main(["solve", "--scenario", str(path), "--max-outer", "1", "--out", str(sol)])
    assert code == 4
    assert json.loads(sol.read_text())["converged"] is False


def test_solve_exit_code_on_infeasible(tmp_path):
    # both users demand 4 cycles/s of a 6 cycles/s AP pair: fine per AP,
    # but a single AP cannot host both under the binary method
    sc = make_scenario([[1.0, 0.0001], [1.0, 0.0001]], bits=4.0, deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=[6.0, 6.0])
    path = tmp_path / "tight.json"
    save_scenario(sc, path)
    code = main(["solve", "--scenario", str(path), "--method",
                 "binary-best-ap", "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_usage_error_exit_code(tmp_path):
    assert main(["solve", "--scenario", "missing.json",
                 "--method", "not-a-method"]) == 2
    assert main(["generate"]) == 2  # --out is required


def test_sweep_csv_structure_and_determinism(tmp_path, small_scenario_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--scenario", small_scenario_file,
            "--param", "deadline-s", "--values", "0.9,1.2,1.5",
            "--strategies", "iterative:equal,binary-best-ap,fixed-equal",
            "--workers", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _strip_timestamp(out1) == _strip_timestamp(out2)
    lines = _strip_timestamp(out1)
    header = lines[0].strip().split(",")
    assert header == ["parameter", "value", "strategy", "energy_mj",
                      "outer_iterations", "mean_max_load_share",
                      "min_max_load_share", "multi_ap_user_count",
                      "lower_bound_mj", "converged", "error"]
    rows = [line.strip().split(",") for line in lines[1:]]
    assert len(rows) == 9
    keys = [(float(r[1]), r[2]) for r in rows]
    assert keys == sorted(keys)


def test_deadline_sweep_reports_the_monotonicity_of_each_iterative_strategy(
        tmp_path, small_scenario_file, capsys):
    def lines(param, values, strategies):
        assert main(["sweep", "--scenario", small_scenario_file, "--param", param,
                     "--values", values, "--strategies", strategies, "--workers", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("monotonicity")]

    assert lines("deadline-s", "0.9,1.2", "iterative:equal,binary-best-ap") == [
        "monotonicity[iterative:equal]: energy non-increasing in deadline: yes"]
    assert lines("deadline-s", "0.9,1.2", "binary-best-ap") == []
    assert lines("bandwidth-hz", "8,12", "iterative:equal") == []


def test_sweep_records_infeasible_points_in_row(tmp_path):
    sc = make_scenario([[1.0, 0.0001], [1.0, 0.0001]], bits=4.0, deadline=1.0,
                       eta=1.0, bandwidth=10.0, capacities=[6.0, 6.0])
    path = tmp_path / "tight.json"
    save_scenario(sc, path)
    out = tmp_path / "sweep.csv"
    # at deadline 0.5 even the parallel split is infeasible (16 > 12 total)
    code = main(["sweep", "--scenario", str(path), "--param", "deadline-s",
                 "--values", "0.5,2.0", "--strategies",
                 "iterative:equal,binary-best-ap", "--workers", "1",
                 "--out", str(out)])
    assert code == 0
    rows = [line.strip().split(",") for line in _strip_timestamp(out)[1:]]
    infeasible = [r for r in rows if r[-2] == "false" and r[-1]]
    feasible = [r for r in rows if r[-2] == "true"]
    assert infeasible and feasible


def test_sweep_parallel_workers_match_serial(tmp_path, small_scenario_file):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["sweep", "--scenario", small_scenario_file,
            "--param", "bandwidth-hz", "--values", "8,12",
            "--strategies", "iterative:equal"]
    assert main(args + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(args + ["--workers", "2", "--out", str(parallel)]) == 0
    assert _strip_timestamp(serial) == _strip_timestamp(parallel)


def test_sweep_pool_is_no_larger_than_its_points(tmp_path, small_scenario_file, monkeypatch):
    sizes = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor, so no process is started
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, points):
            return map(fn, points)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    for values in ("8,12", "8"):
        assert main(["sweep", "--scenario", small_scenario_file, "--param", "bandwidth-hz",
                     "--values", values, "--strategies", "iterative:equal", "--workers", "64",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    # two points take a pool of two; one point needs no pool
    assert sizes == [2]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_workers_below_one_are_a_usage_error_before_any_read(
        tmp_path, small_scenario_file, monkeypatch, capsys, workers):
    def no_read(*args, **kwargs):
        raise AssertionError("the scenario was read before the workers were checked")

    monkeypatch.setattr("mecalloc.cli.load_scenario", no_read)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", small_scenario_file, "--param", "deadline-s",
                 "--values", "0.5", "--workers", workers, "--out", str(out)]) == 2
    assert _one_line_usage_error(capsys)
    assert not out.exists()


def test_out_dir_env_redirects_relative_paths(tmp_path, small_scenario_file,
                                              monkeypatch):
    monkeypatch.setenv("MECALLOC_OUT_DIR", str(tmp_path / "outputs"))
    code = main(["solve", "--scenario", small_scenario_file,
                 "--out", "sol.json"])
    assert code == 0
    assert (tmp_path / "outputs" / "sol.json").exists()


def test_solve_exit_code_on_solver_convergence_error(tmp_path, small_scenario_file,
                                                     capsys, monkeypatch):
    # a budget residual the solver cannot meet is a non-convergence, not a
    # crash; a binary-best-ap solve is one re-balance, which the starved
    # pricing fails
    starve_pricing(monkeypatch)
    code = main(["solve", "--scenario", small_scenario_file, "--method", "binary-best-ap",
                 "--out", str(tmp_path / "sol.json")])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("did not converge:") and "\n" not in err


def test_sweep_records_convergence_errors_in_row(tmp_path, small_scenario_file, monkeypatch):
    starve_pricing(monkeypatch)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", small_scenario_file,
                 "--param", "deadline-s", "--values", "0.5,1.0",
                 "--strategies", "binary-best-ap", "--workers", "1", "--out", str(out)])
    assert code == 0
    rows = [line.strip().split(",") for line in _strip_timestamp(out)[1:]]
    assert len(rows) == 2
    assert all(r[-2] == "false" and "residual" in r[-1] for r in rows)


@pytest.mark.parametrize("strategies", ["iterative:equal,iterative:bogus",
                                        # "iterative" is short for "iterative:equal"
                                        "iterative,iterative:equal",
                                        "binary-best-ap,binary-best-ap"])
def test_sweep_rejects_unknown_init_before_solving(tmp_path, small_scenario_file,
                                                   monkeypatch, strategies):
    def too_soon(*args, **kwargs):
        raise AssertionError("the scenario was read before the strategies were checked")

    for step in ("_read_scenario", "solve_iterative", "solve_fixed_assignment",
                 "solve_fixed_data"):
        monkeypatch.setattr(f"mecalloc.cli.{step}", too_soon)
    code = main(["sweep", "--scenario", small_scenario_file,
                 "--param", "deadline-s", "--values", "0.5,1.0",
                 "--strategies", strategies,
                 "--workers", "1", "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert not (tmp_path / "sweep.csv").exists()


def _one_line_usage_error(capsys):
    err = capsys.readouterr().err.strip()
    return err.startswith("usage error:") and "\n" not in err


_SOLVE_AND_SWEEP = (["solve"], ["sweep", "--param", "deadline-s", "--values", "0.5",
                                "--workers", "1"])


@pytest.mark.parametrize("flag,value", [("--max-outer", "0"),
                                        ("--bisect-tol", "-1"), ("--bisect-tol", "nan"),
                                        ("--bisect-tol", "inf"), ("--bisect-tol", "1e-16")])
def test_bad_solver_settings_are_usage_errors(tmp_path, small_scenario_file, capsys,
                                              flag, value):
    for command in _SOLVE_AND_SWEEP:
        code = main(command + ["--scenario", small_scenario_file, flag, value,
                               "--out", str(tmp_path / "out")])
        assert code == 2
        assert _one_line_usage_error(capsys)


@pytest.mark.parametrize("values", ["0.5,abc", "0.5,inf", "nan", "0.5,-1", "0,1"])
def test_sweep_rejects_bad_values_before_solving(tmp_path, small_scenario_file,
                                                 monkeypatch, capsys, values):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the values were checked")

    monkeypatch.setattr("mecalloc.cli.solve_iterative", no_solve)
    code = main(["sweep", "--scenario", small_scenario_file, "--param", "deadline-s",
                 "--values", values, "--workers", "1",
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert _one_line_usage_error(capsys)


@pytest.mark.parametrize("flag,value", [("--users", "0"), ("--region", "0"),
                                        ("--deadline-s", "-1"), ("--deadline-s", "nan"),
                                        ("--bandwidth-hz", "inf"), ("--seed", "-1")])
def test_generate_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "scenario.json"
    assert main(["generate", flag, value, "--out", str(out)]) == 2
    assert _one_line_usage_error(capsys)
    assert not out.exists()


def test_negative_init_seed_is_a_usage_error_before_any_solve(tmp_path, small_scenario_file,
                                                              monkeypatch, capsys):
    def no_read(*args, **kwargs):
        raise AssertionError("the scenario was read before the seed was checked")

    monkeypatch.setattr("mecalloc.cli.load_scenario", no_read)
    # the retired start tokens, in any spelling, are unknown methods
    for token in ("iterative:random-", "iterative:random-x", "iterative:random--1",
                  "iterative:random-+3", "iterative:random-03", "iterative:random- 3",
                  "iterative:random-1_000", "iterative:best-ap-90.0", "iterative:best-ap-9e1"):
        for command in (["solve", "--method", token],
                        ["sweep", "--param", "deadline-s", "--values", "0.5", "--workers", "1",
                         "--strategies", f"iterative:equal,{token}"]):
            code = main(command + ["--scenario", small_scenario_file,
                                   "--out", str(tmp_path / "out")])
            assert code == 2
            assert _one_line_usage_error(capsys)
    assert not (tmp_path / "out").exists()


_TASK = {"input_bits": 1.0, "deadline_s": 1.0, "cycles_per_bit": 1.0}


def _scenario_json(**changes):
    doc = {"num_users": 1, "num_aps": 1, "gains": [[1.0]], "tasks": [_TASK],
           "bandwidth_hz": 1.0, "compute_capacity": [1.0], "noise_psd": 1.0}
    return json.dumps(dict(doc, **changes))


_BAD_SCENARIOS = {
    "negative-gain": _scenario_json(gains=[[-1.0]]),
    "no-users": _scenario_json(num_users=0, gains=[], tasks=[]),
    "no-aps": _scenario_json(num_aps=0, gains=[[]], compute_capacity=[]),
    "task-count": _scenario_json(tasks=[_TASK, _TASK]),
    "capacity-shape": _scenario_json(compute_capacity=[1.0, 1.0]),
    "capacity-zero": _scenario_json(compute_capacity=[0.0]),
    "bandwidth-zero": _scenario_json(bandwidth_hz=0.0),
    "noise-negative": _scenario_json(noise_psd=-1.0),
}


@pytest.mark.parametrize("content", [None, "not json", "[1, 2]", '{"num_users": 1}',
                                     *_BAD_SCENARIOS.values()],
                         ids=["missing", "not-json", "list", "no-keys", *_BAD_SCENARIOS])
def test_unreadable_scenario_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_text(content)
    for command in _SOLVE_AND_SWEEP:
        code = main(command + ["--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert _one_line_usage_error(capsys)


def test_empty_strategy_list_is_a_usage_error(tmp_path, small_scenario_file, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", small_scenario_file, "--param", "deadline-s",
                 "--values", "0.5", "--strategies", ",", "--workers", "1",
                 "--out", str(out)])
    assert code == 2
    assert _one_line_usage_error(capsys)
    assert not out.exists()


def test_solve_prints_the_violations_of_a_failing_answer(tmp_path, small_scenario_file,
                                                         monkeypatch, capsys):
    # an answer with half the system bandwidth fails its budget equality
    run = cli._run

    def halved_bandwidth(*args):
        sol = run(*args)
        alloc = dataclasses.replace(sol.allocation, bandwidth=0.5 * sol.allocation.bandwidth)
        return dataclasses.replace(sol, allocation=alloc)

    monkeypatch.setattr(cli, "_run", halved_bandwidth)
    sol = tmp_path / "sol.json"
    assert main(["solve", "--scenario", small_scenario_file, "--method", "binary-best-ap",
                 "--out", str(sol)]) == 0
    out, err = capsys.readouterr()
    assert "constraints_ok=False" in out
    assert err == "budget equality bandwidth[]: residual 5.000e-01\n"
    assert json.loads(sol.read_text())["constraints_ok"] is False
