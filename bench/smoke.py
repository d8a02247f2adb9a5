"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size (one pair, a few
samples, a 3-instance catalog), untraced and traced, and checks that each
run exits 0, passes its output checks and prints exactly the end-to-end
(--trace 0) or per-layer (--trace 1) metrics of BENCHMARK.json with their
units.  Also checks that the generated inputs depend on the seed alone.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import inputs
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(wanted[0] == run.E2E_UNITS, "end-to-end metrics match run.py")
    check(wanted[1] == run.per_layer_units(), "per-layer metrics match run.py")
    for make in (inputs.cold_inputs, inputs.warm_inputs, inputs.cli_catalog):
        check(make(5) == make(5) and make(5) != make(6),
              f"{make.__name__} is a function of the seed")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=170)
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{label} exits 0: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label} output checks")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], f"{label} metric names and units")
            print(f"ok   {label}: {len(got)} metrics, "
                  f"{result['attempted']} checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
