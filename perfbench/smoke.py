"""Smoke self-test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and checks that the last
line of each run is a result object whose metric names and units are
exactly those of BENCHMARK.json.  Then checks that the benchmark refuses to
run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits nonzero on the first
mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int, seconds: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc: subprocess.CompletedProcess, expected: dict, label: str) -> None:
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit status {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{label}: run not correct: {result['attempted']} attempted, "
                         f"{result['failed']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise SystemExit(f"{label}: metric names or units differ; missing {missing}, "
                         f"extra {extra}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise SystemExit(f"{label}: {name} is not a number")
    print(f"ok  {label}: {len(got)} metrics")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(run(ROOT, workload, trace), expected[trace],
                         f"{workload} --trace {trace}")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("bare directory: the benchmark did not refuse to run")
    print("ok  bare directory: refused with status", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
