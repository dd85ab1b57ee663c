"""Prints the seconds one fresh process takes to import mecalloc and build
a workload's scenarios: `python3 perfbench/setup_probe.py <workload> <seed>`."""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports mecalloc and numpy)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(f"{time.perf_counter() - t0:.6f}")
