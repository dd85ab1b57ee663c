"""Smoke test of the benchmark: every workload's code path, traced and
untraced, on 4x2-sized inputs in a few seconds.

    python -m pytest -q perfbench/test_smoke.py

It lives beside the benchmark, outside the library's test paths, so the
library's own test run does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mecalloc import kkt  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_inputs(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_SIZE", (4, 2))
    monkeypatch.setattr(workloads, "DEADLINES_S", (0.2, 1.0))
    monkeypatch.setattr(workloads, "SWEEP_MAX_OUTER", 4)
    monkeypatch.setattr(workloads, "LADDER_SIZES", ((4, 2),))
    monkeypatch.setattr(workloads, "BATCH_SCENARIOS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _result(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(capsys, workload, trace):
    code, res = _result(capsys, workload, trace)
    assert code == 0 and res["correct"]
    assert res["attempted"] >= 1
    names = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(v["value"] is not None for v in res["metrics"].values())
    if workload == "deadline-sweep":
        # D = 0.2 s cannot converge in four outer rounds
        assert res["failed"] >= 1


def test_missing_entry_point_reports_metric_missing(capsys, monkeypatch):
    targets = tuple((kkt, "solve_baa_renamed", name, hook) if name == "kkt.baa"
                    else (mod, attr, name, hook)
                    for mod, attr, name, hook in tracer.TARGETS)
    monkeypatch.setattr(tracer, "TARGETS", targets)
    code, res = _result(capsys, "restriction-batch", 1)
    assert code == 0
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["kkt.baa.self_s"] is None
    assert values["kkt.baa.dual_probes"] is None
    assert values["kkt.caa.dual_probes"] > 0


def test_energy_mismatch_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(workloads.orchestrate, "check_solution", lambda *a, **k: False)
    code, res = _result(capsys, "restriction-batch", 0)
    assert code == 1 and not res["correct"]


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "size-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
